"""Corpus preprocessing: parse a directory of MIDI files, apply acceptance
filters, split by content hash, and write accepted sequences as event text.

The filters are constants of the dataset recipe this toolkit targets: drop
files that fail to parse, sequences shorter than ``MIN_EVENTS`` (100) events
or ``MIN_SECONDS`` (10) seconds, sequences longer than ``MAX_SECONDS`` (one
hour), and sequences with more than ``MAX_PARTS`` (16) distinct instrument
parts.
The split is a pure function of the file's MD5 digest: leading hex digits
0-d go to train, e to validation, f to test (14:1:1 in expectation).
"""

from __future__ import annotations

import hashlib
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO

from .events import UNITS_PER_SECOND, EventSequence
from .eventio import write_events
from .midi import parse_midi
from .tokenizer import _relativize_sequence

log = logging.getLogger(__name__)

SPLITS = ("train", "valid", "test")

MANIFEST_HEADER = "\t".join("id md5 split events seconds parts reason".split())

MIN_EVENTS = 100
MIN_SECONDS = 10.0
MAX_SECONDS = 3600.0
MAX_PARTS = 16


_SPLIT_BY_DIGIT = {**dict.fromkeys("0123456789abcd", "train"), "e": "valid", "f": "test"}


def split_for_digest(md5_hex: str) -> str:
    """Map an MD5 hex digest to its split by leading hex digit."""
    try:
        return _SPLIT_BY_DIGIT[md5_hex[:1].lower()]
    except KeyError:
        raise ValueError(f"not a hex digest: {md5_hex!r}") from None


@dataclass
class ManifestEntry:
    file_id: str
    md5: str
    split: str
    events: int
    seconds: float
    parts: int
    reason: str | None = None  # None means accepted

    def to_row(self) -> str:
        return "\t".join([self.file_id, self.md5, self.split, str(self.events),
                          f"{self.seconds:.2f}", str(self.parts),
                          "-" if self.reason is None else self.reason])


@dataclass
class CorpusManifest:
    entries: list[ManifestEntry] = field(default_factory=list)

    def accepted(self) -> list[ManifestEntry]:
        return [e for e in self.entries if e.reason is None]

    def rejected(self) -> list[ManifestEntry]:
        return [e for e in self.entries if e.reason is not None]

    def write(self, f: IO[str]) -> None:
        f.write(MANIFEST_HEADER + "\n")
        for entry in self.entries:
            f.write(entry.to_row() + "\n")


def check_sequence(seq: EventSequence) -> str | None:
    """Return a rejection reason for a parsed sequence, or None if accepted."""
    if len(seq) < MIN_EVENTS:
        return "too-short-events"
    seconds = seq.end_time / UNITS_PER_SECOND
    if seconds < MIN_SECONDS:
        return "too-short-duration"
    if seconds > MAX_SECONDS:
        return "too-long"
    if len(seq.instruments()) > MAX_PARTS:
        return "too-many-parts"
    return None


def discover_midi_files(directory: Path) -> list[Path]:
    paths = [p for p in directory.rglob("*") if p.suffix.lower() in (".mid", ".midi")]
    return sorted(paths)


def preprocess_corpus(directory: str | Path, out_dir: str | Path) -> CorpusManifest:
    """Ingest a directory of MIDI files into split event-text files.

    Writes ``train.txt``, ``valid.txt``, ``test.txt`` and ``manifest.tsv``
    under ``out_dir``. Individual file failures are recorded in the manifest
    and never abort the batch.
    """
    directory = Path(directory)
    out_dir = Path(out_dir)
    if not directory.is_dir():
        raise NotADirectoryError(f"not a readable directory: {directory}")
    paths = discover_midi_files(directory)

    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = CorpusManifest()
    split_sequences: dict[str, list[EventSequence]] = {s: [] for s in SPLITS}
    for path in paths:
        file_id = path.relative_to(directory).as_posix()
        try:
            data = path.read_bytes()
        except OSError as exc:
            log.warning("skipping unreadable file %s: %s", path, exc)
            manifest.entries.append(ManifestEntry(file_id, "-", "-", 0, 0.0, 0, "unreadable"))
            continue
        md5 = hashlib.md5(data).hexdigest()
        split = split_for_digest(md5)
        try:
            seq = _relativize_sequence(parse_midi(data))
        except ValueError as exc:
            log.info("failed to parse %s: %s", path, exc)
            manifest.entries.append(ManifestEntry(file_id, md5, split, 0, 0.0, 0, "unparseable"))
            continue
        reason = check_sequence(seq)
        entry = ManifestEntry(
            file_id,
            md5,
            split,
            len(seq),
            seq.end_time / UNITS_PER_SECOND,
            len(seq.instruments()),
            reason,
        )
        manifest.entries.append(entry)
        if reason is None:
            split_sequences[split].append(seq)

    for split in SPLITS:
        with open(out_dir / f"{split}.txt", "w") as f:
            write_events(f, split_sequences[split])
    with open(out_dir / "manifest.tsv", "w") as f:
        manifest.write(f)
    return manifest
