"""Seeded synthetic inputs for the benchmark.

Every input is a pure function of the workload seed: multi-part pieces
(one monophonic melody part plus bass and chord parts on a beat grid), their
MIDI bytes, and the held-out melodies used as accompaniment controls. The
grid and the small pitch walks give the n-gram model real structure to
learn, so held-out bits per second sit well below the uniform baseline.

MIDI files get an extra track holding one text meta event. The parser skips
it, and its nonce is chosen so that each file's MD5 digest sends it to the
split the benchmark intends. That keeps the amount of training data the same
for every seed instead of following the 14:1:1 split by chance.
"""

from __future__ import annotations

import hashlib

import numpy as np

from anticipate.corpus import split_for_digest
from anticipate.events import MAX_TIME_UNITS, Event, EventSequence, encode_note
from anticipate.midi import write_midi

MELODY_PROGRAMS = (40, 56, 65, 71, 73)  # violin, trumpet, alto sax, clarinet, flute
BASS_PROGRAMS = (32, 33, 43)
CHORD_PROGRAMS = (0, 24, 48, 88)
CHORD_SHAPES = ((0, 4, 7), (0, 3, 7), (0, 5, 9), (0, 4, 9))


def piece(rng: np.random.Generator, n_events: int) -> EventSequence:
    """One piece of exactly ``n_events`` events, starting at time zero and
    ending inside the 100-second token range (so whole pieces can be encoded).

    Parts never overlap a note with itself, so the piece survives a MIDI
    write/parse round trip unchanged.
    """
    beat = int(rng.choice([40, 45, 50]))  # grid units per beat; 400 events stay under 100 s
    melody = encode_note(int(rng.choice(MELODY_PROGRAMS)), 0)
    bass = encode_note(int(rng.choice(BASS_PROGRAMS)), 0)
    chords = encode_note(int(rng.choice(CHORD_PROGRAMS)), 0)
    melody_pitch, bass_pitch = int(rng.integers(64, 77)), int(rng.integers(38, 50))
    events: list[Event] = []
    t = 0
    while len(events) < n_events:
        bar_start = t
        root = 48 + int(rng.integers(0, 12))
        for step in CHORD_SHAPES[int(rng.integers(len(CHORD_SHAPES)))]:
            events.append(Event(bar_start, 4 * beat, chords + root + step))
        for b in range(4):
            bass_pitch = int(np.clip(bass_pitch + rng.integers(-5, 6), 33, 55))
            events.append(Event(bar_start + b * beat, beat - int(rng.integers(1, 6)), bass + bass_pitch))
        m = bar_start
        while m < bar_start + 4 * beat:
            length = int(rng.choice([beat // 2, beat, beat, 2 * beat]))
            length = min(length, bar_start + 4 * beat - m)
            if length < beat // 2:
                break
            if rng.random() < 0.85:
                melody_pitch = int(np.clip(melody_pitch + rng.integers(-4, 5), 60, 88))
                swing = int(rng.integers(0, 3))
                events.append(Event(m + swing, length - swing - int(rng.integers(0, 4)), melody + melody_pitch))
            m += length
        t = bar_start + 4 * beat
    events.sort(key=lambda e: (e.time, e.note))
    seq = EventSequence(events[:n_events])
    if seq.end_time >= MAX_TIME_UNITS:
        raise RuntimeError(f"piece of {n_events} events runs past the 100 s token range")
    return seq


def melody_part(seq: EventSequence) -> EventSequence:
    """The piece's melody: every event of its melody-program instrument."""
    melody = {e.instrument for e in seq if e.instrument in MELODY_PROGRAMS}
    return EventSequence(e for e in seq if e.instrument in melody)


def tagged_midi(seq: EventSequence, split: str) -> bytes:
    """MIDI bytes for ``seq`` whose MD5 digest maps to ``split``."""
    body = write_midi(seq)
    header, tracks = body[:14], body[14:]
    ntrks = int.from_bytes(header[10:12], "big") + 1
    header = header[:10] + ntrks.to_bytes(2, "big") + header[12:]
    for nonce in range(10_000):
        text = f"bench {nonce}".encode()
        events = b"\x00\xff\x01" + bytes([len(text)]) + text + b"\x00\xff\x2f\x00"
        data = header + tracks + b"MTrk" + len(events).to_bytes(4, "big") + events
        if split_for_digest(hashlib.md5(data).hexdigest()) == split:
            return data
    raise RuntimeError(f"no nonce sends this piece to {split}")


def corpus(seed: int, stream: int, n_pieces: int, lo: int, hi: int) -> list[EventSequence]:
    """``n_pieces`` pieces whose lengths are spread evenly over [lo, hi].

    ``stream`` separates the independent inputs drawn from one seed
    (training corpus, held-out rows, melodies, replay copies).
    """
    rng = np.random.default_rng([seed, stream])
    lengths = np.linspace(lo, hi, n_pieces).round().astype(int)
    rng.shuffle(lengths)
    return [piece(rng, int(n)) for n in lengths]


def digest(*parts) -> str:
    """A short content digest of the generated inputs (events, tokens, bytes)."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, (bytes, bytearray)):
            h.update(part)
        elif isinstance(part, EventSequence):
            h.update(repr([(e.time, e.duration, e.note) for e in part]).encode())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()[:16]
