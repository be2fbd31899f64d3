"""Bidirectional codecs between event sequences and integer token sequences,
plus packing of token streams into fixed-length training examples.

Arrival codec: one (time, duration, note) triple per event, absolute times.
Controls use the shifted vocabulary ranges; a separator is a triple of SEP
tokens. Interarrival codec: onset/offset tokens with gap tokens in between
(zero gaps omitted, gaps over 10 s truncated); a separator is a single SEP.

Arrival encoding is columnar: a whole sequence, or the whole packed stream,
is read once into int64 columns (time, duration, note, control) and its
triples are built and checked with array operations. An invalid item fails
with the error the scalar triple encoder gives for it, at the same index;
the scalar form remains for callers that encode one item at a time.

Every model context is relativized by one rule: its times are shifted by the
minimum time of its items, so the context starts at zero and distinct times
stay distinct. Packing slices the triple stream into windows of 341 triples,
prepends the global control code, and relativizes each window's leading
(possibly partial) sequence segment by its minimum time; nothing is clamped.
Sequences that begin after an in-window separator keep their own times, which
already start at zero for preprocessed corpora. Windows whose times cannot be
represented in the 100-second token range are discarded.
"""

from __future__ import annotations

import logging
import re
from collections import deque
from dataclasses import dataclass, field
from typing import IO, Iterable, Sequence

import numpy as np

from .events import MAX_TIME_UNITS, REST, Event, EventSequence, InterleavedSequence, TaggedEvent
from .vocab import CODEC_VOCABS
from .vocab import ArrivalVocab as AV
from .vocab import InterarrivalVocab as IV

log = logging.getLogger(__name__)

CONTEXT_LENGTH = 1024  # tokens per training example, including the control code


class TokenError(ValueError):
    """Malformed or out-of-range token data; ``index`` locates the offender."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message if index is None else f"{message} (index {index})")
        self.index = index


def _as_interleaved(seq: InterleavedSequence | EventSequence) -> InterleavedSequence:
    if isinstance(seq, EventSequence):
        return InterleavedSequence.from_events(seq)
    return seq


def _context_offset(items: Iterable[TaggedEvent]) -> int:
    """The relativization rule: a context's offset is the minimum time of its
    items (0 for an empty context)."""
    return min((item.event.time for item in items), default=0)


def _relativize_sequence(seq: InterleavedSequence) -> InterleavedSequence:
    """Shift a whole sequence by its context offset so it starts at time zero."""
    offset = _context_offset(seq)
    if offset == 0:
        return seq
    return InterleavedSequence(
        (TaggedEvent(Event(item.event.time - offset, item.event.duration, item.event.note),
                     item.control) for item in seq),
        check=False,
    )


def _event_triple(event: Event, control: bool, index: int, offset: int = 0) -> list[int]:
    """The arrival triple of ``event``, its time relativized by ``offset``."""
    t = event.time - offset
    if t >= AV.DUR_BASE:
        raise TokenError(f"event time {t} exceeds the 100s token range", index)
    if event.is_rest:
        if control:
            raise TokenError("rest events cannot be controls", index)
        note = AV.REST
    else:
        note = AV.note_token(event.note, control=control)
    return [
        AV.time_token(t, control=control),
        AV.duration_token(event.duration, control=control),
        note,
    ]


def _columns(items: Sequence[TaggedEvent]) -> np.ndarray:
    """The items as a (4, n) int64 array of time, duration, note and control."""
    events = [item.event for item in items]
    return np.array(
        [[e.time for e in events], [e.duration for e in events], [e.note for e in events],
         [item.control for item in items]],
        dtype=np.int64,
    )


def _arrival_triples(columns: np.ndarray, offset: int | np.ndarray = 0) -> np.ndarray:
    """The (n, 3) arrival triples of ``columns``, times relativized by ``offset``
    (a scalar or one offset per item).

    The whole array is checked at once; the first invalid item raises the
    error `_event_triple` raises for it, with its index in ``columns``.
    """
    time, duration, note, control = columns
    times = time - offset
    control = control.astype(bool)
    rest = note == REST
    invalid = (times < 0) | (times >= AV.DUR_BASE) | (rest & control)
    if invalid.any():
        i = int(invalid.argmax())
        event = Event(int(time[i]), int(duration[i]), int(note[i]))
        _event_triple(event, bool(control[i]), i, int(time[i] - times[i]))  # raises
    shift = control * AV.CONTROL_OFFSET
    triples = np.empty((len(times), 3), dtype=np.int64)
    triples[:, 0] = times + (AV.TIME_BASE + shift)
    triples[:, 1] = duration + (AV.DUR_BASE + shift)
    triples[:, 2] = np.where(rest, AV.REST, note + (AV.NOTE_BASE + shift))
    return triples


def encode_arrival(
    seq: InterleavedSequence | EventSequence,
    *,
    z: int | None = None,
    leading_sep: bool = False,
) -> list[int]:
    """Encode an interleaved sequence as arrival-codec tokens.

    ``z`` (AR or AAR) and ``leading_sep`` prepend the training-example
    preamble; by default the raw 3-per-item token list is returned.
    """
    tokens: list[int] = []
    if z is not None:
        if z not in (AV.AR, AV.AAR):
            raise TokenError(f"control code must be AR or AAR, got {z}")
        tokens.append(z)
    if leading_sep:
        tokens.extend([AV.SEP] * 3)
    tokens.extend(_arrival_triples(_columns(_as_interleaved(seq))).ravel().tolist())
    return tokens


def decode_arrival(tokens: Sequence[int]) -> list[InterleavedSequence]:
    """Decode arrival-codec tokens into sequence segments.

    An optional leading control code (AR/AAR) is skipped. SEP triples are
    segment boundaries; a boundary at the very start marks a fresh sequence
    rather than producing an empty leading segment.
    """
    toks = list(tokens)
    if toks and toks[0] in (AV.AR, AV.AAR):
        toks = toks[1:]
    if len(toks) % 3:
        raise TokenError(f"token count {len(toks)} is not a multiple of 3")

    segments: list[InterleavedSequence] = []
    current: list[TaggedEvent] = []
    seen_content = False
    for idx in range(0, len(toks), 3):
        a, b, c = toks[idx], toks[idx + 1], toks[idx + 2]
        triple_index = idx // 3
        if a == AV.SEP or b == AV.SEP or c == AV.SEP:
            if not (a == b == c == AV.SEP):
                raise TokenError("partial SEP triple", triple_index)
            if not seen_content and not segments and not current:
                seen_content = True  # leading boundary: fresh sequence start
                continue
            segments.append(InterleavedSequence(current, check=False))
            current = []
            continue
        seen_content = True
        if AV.is_plain_time(a) and AV.is_plain_duration(b):
            if c == AV.REST:
                if b != AV.DUR_BASE:
                    raise TokenError("rest triple with nonzero duration", triple_index)
                event = Event(a - AV.TIME_BASE, 0, REST)
            elif AV.is_plain_note(c):
                event = Event(a - AV.TIME_BASE, b - AV.DUR_BASE, c - AV.NOTE_BASE)
            else:
                raise TokenError(f"token {c} is not a note token", triple_index)
            current.append(TaggedEvent(event, control=False))
        elif AV.is_control_time(a) and AV.is_control_duration(b) and AV.is_control_note(c):
            event = Event(a - AV.ANT_TIME_BASE, b - AV.ANT_DUR_BASE, c - AV.ANT_NOTE_BASE)
            current.append(TaggedEvent(event, control=True))
        else:
            raise TokenError(f"mixed-range triple ({a}, {b}, {c})", triple_index)
    segments.append(InterleavedSequence(current, check=False))
    return segments


def decode_arrival_single(tokens: Sequence[int]) -> InterleavedSequence:
    """Decode tokens expected to hold exactly one sequence."""
    segments = [s for s in decode_arrival(tokens) if len(s)]
    if len(segments) > 1:
        raise TokenError(f"expected a single sequence, found {len(segments)}")
    return segments[0] if segments else InterleavedSequence()


def encode_interarrival(
    seq: EventSequence | InterleavedSequence, *, leading_sep: bool = False
) -> list[int]:
    """Encode plain events as interarrival-codec tokens.

    Each event expands to an onset at ``t`` and an offset at ``t + d``; items
    are ordered by time with offsets preceding onsets at the same instant.
    Control-tagged input and rests are not supported by this codec.
    """
    if isinstance(seq, InterleavedSequence):
        if seq.has_controls:
            raise TokenError("interarrival codec does not support control events")
        seq = seq.events()
    # Rank 0 sorts offsets of earlier-started notes before items at the same
    # instant; a zero-duration note keeps its own offset just after its
    # onset. Ties are otherwise stable in event order.
    items: list[tuple[int, int, bool, int]] = []
    for i, event in enumerate(seq):
        if event.is_rest:
            raise TokenError("interarrival codec does not support rest events", i)
        items.append((event.time, 1, True, event.note))
        items.append((event.end, 0 if event.duration else 1, False, event.note))
    items.sort(key=lambda it: (it[0], it[1]))

    tokens: list[int] = [IV.SEP] if leading_sep else []
    for i, (time, _, is_onset, note) in enumerate(items):
        tokens.append((IV.ONSET_BASE if is_onset else IV.OFFSET_BASE) + note)
        if i + 1 < len(items):
            gap = items[i + 1][0] - time
            if gap:
                tokens.append(min(gap, IV.ONSET_BASE - 1))
    return tokens


def decode_interarrival(tokens: Sequence[int]) -> EventSequence:
    """Decode interarrival-codec tokens back to events.

    Offsets pair with the earliest open onset of the same note (FIFO).
    Leading or trailing SEP tokens are skipped; an interior SEP is an error.
    """
    toks = list(tokens)
    while toks and toks[0] == IV.SEP:
        toks = toks[1:]
    while toks and toks[-1] == IV.SEP:
        toks = toks[:-1]

    now = 0
    open_onsets: dict[int, deque[tuple[int, int]]] = {}
    decoded: list[tuple[int, Event]] = []
    ordinal = 0
    for i, tok in enumerate(toks):
        if IV.is_gap(tok):
            now += tok
        elif IV.is_onset(tok):
            open_onsets.setdefault(tok - IV.ONSET_BASE, deque()).append((now, ordinal))
            ordinal += 1
        elif IV.is_offset(tok):
            note = tok - IV.OFFSET_BASE
            queue = open_onsets.get(note)
            if not queue:
                raise TokenError(f"offset for note {note} without an open onset", i)
            start, order = queue.popleft()
            decoded.append((order, Event(start, min(now - start, 999), note)))
        elif tok == IV.SEP:
            raise TokenError("unexpected SEP inside a sequence", i)
        else:
            raise TokenError(f"token {tok} outside the interarrival vocabulary", i)

    unclosed = sum(len(q) for q in open_onsets.values())
    if unclosed:
        log.warning("closing %d unclosed onsets at sequence end", unclosed)
        for note, queue in open_onsets.items():
            for start, order in queue:
                decoded.append((order, Event(start, min(now - start, 999), note)))
    decoded.sort(key=lambda pair: pair[0])
    return EventSequence(e for _, e in decoded)


@dataclass(frozen=True)
class TrainingExample:
    """A fixed-length packed example: control code followed by whole triples."""

    tokens: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.tokens or self.tokens[0] not in (AV.AR, AV.AAR):
            raise TokenError("training example must start with AR or AAR")
        if (len(self.tokens) - 1) % 3:
            raise TokenError("training example body must be whole triples")

    @property
    def z(self) -> int:
        return self.tokens[0]

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass
class PackResult:
    examples: list[TrainingExample] = field(default_factory=list)
    n_discarded: int = 0  # windows whose time span exceeds the token range
    n_clamped_times: int = 0  # always 0: relativizing by the minimum time never goes negative
    n_tail_triples: int = 0  # trailing triples short of a full window


def pack_training_examples(
    sequences: Iterable[InterleavedSequence],
    *,
    context_length: int = CONTEXT_LENGTH,
) -> PackResult:
    """Pack interleaved sequences into fixed-length training examples.

    Sequences are concatenated with separator triples (one leading separator
    marks the start of the stream) and sliced into windows of whole triples.
    Each window is prefixed by the control code of the first sequence with
    content in the window: AAR when that sequence carries anticipated
    controls, AR otherwise.
    """
    if context_length < 4 or (context_length - 1) % 3:
        raise ValueError("context_length must be 1 + a multiple of 3")
    width = (context_length - 1) // 3

    items: list[TaggedEvent] = []
    lengths: list[int] = []
    for seq in sequences:
        items.extend(seq)
        lengths.append(len(seq))
    # The stream as columns: every sequence is preceded by a separator row
    # (all zeros, marked in ``is_sep``); ``owner`` is each row's sequence.
    rows = np.asarray(lengths, dtype=np.int64) + 1
    owner = np.repeat(np.arange(len(lengths)), rows)
    is_sep = np.zeros(len(owner), dtype=bool)
    is_sep[np.cumsum(rows) - rows] = True
    stream = np.zeros((4, len(owner)), dtype=np.int64)
    stream[:, ~is_sep] = _columns(items)
    has_controls = np.bincount(owner, weights=stream[3], minlength=len(lengths)) > 0

    result = PackResult()
    n_windows, result.n_tail_triples = divmod(len(owner), width)
    used = n_windows * width
    windows = stream[:, :used].reshape(4, n_windows, width)
    time, _, note, control = windows
    sep = is_sep[:used].reshape(n_windows, width)
    position = np.arange(width)

    # The leading segment runs from the first item to the next separator; it
    # is relativized by its minimum time. Later segments keep their own times.
    start = (~sep).argmax(axis=1)[:, None]
    sep_after = sep & (position >= start)
    end = np.where(sep_after.any(axis=1), sep_after.argmax(axis=1), width)[:, None]
    leading = (position >= start) & (position < end)
    offset = np.where(leading, time, np.iinfo(np.int64).max).min(axis=1)
    shift = np.where(leading, offset[:, None], 0)
    flag = has_controls[owner[:used]].reshape(n_windows, width)
    z = np.where((leading & flag).any(axis=1), AV.AAR, AV.AR)

    # A window is discarded when its first invalid item has a time past the
    # token range, and rejected when that item is a rest marked as a control.
    too_late = time - shift >= MAX_TIME_UNITS
    rest_control = (note == REST) & (control != 0)
    invalid = too_late | rest_control
    bad = invalid.any(axis=1)
    first = invalid.argmax(axis=1)
    rejected = bad & ~too_late[np.arange(n_windows), first]
    if rejected.any():
        w = int(rejected.argmax())
        _arrival_triples(windows[:, w], shift[w])  # raises for item ``first[w]``
    result.n_discarded = int(bad.sum())

    kept = np.flatnonzero(~bad)
    triples = _arrival_triples(windows[:, kept].reshape(4, -1), shift[kept].ravel())
    triples[sep[kept].ravel()] = AV.SEP
    tokens = np.column_stack([z[kept], triples.reshape(len(kept), 3 * width)])
    result.examples = [TrainingExample(tuple(row)) for row in tokens.tolist()]
    return result


_HEADER_RE = re.compile(r"#codec=(arrival|interarrival)\s+vocab=(\d+)")


def write_tokens(f: IO[str], rows: Iterable[Sequence[int]], codec: str) -> None:
    """Write token rows (one sequence or example per line) with a codec header."""
    size = CODEC_VOCABS[codec].SIZE
    f.write(f"#codec={codec} vocab={size}\n")
    for row in rows:
        f.write(" ".join(str(t) for t in row) + "\n")


def read_tokens(f: IO[str]) -> tuple[str, list[list[int]]]:
    """Read a token file; returns (codec, rows).

    A non-integer field or a token outside the header codec's vocabulary
    raises ``TokenError`` naming the 1-based line.
    """
    header = f.readline()
    match = _HEADER_RE.match(header.strip())
    if not match:
        raise TokenError(f"missing or malformed token file header: {header!r}")
    codec = match.group(1)
    size = CODEC_VOCABS[codec].SIZE
    if int(match.group(2)) != size:
        raise TokenError(f"vocab size {match.group(2)} does not match codec {codec}")
    rows = []
    for lineno, line in enumerate(f, start=2):
        fields = line.split()
        if not fields:
            continue
        try:
            row = list(map(int, fields))
        except ValueError as exc:
            raise TokenError(f"line {lineno}: {exc}") from exc
        low, high = min(row), max(row)
        if low < 0 or high >= size:
            raise TokenError(f"line {lineno}: token {low if low < 0 else high} "
                             f"outside the {codec} vocabulary of size {size}")
        rows.append(row)
    return codec, rows
