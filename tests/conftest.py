"""Shared random-sequence generators for the test suite.

Most statistical tests drive seeded numpy generators directly; hypothesis
covers structural round-trip properties with smaller examples.
"""

from __future__ import annotations

import itertools
import math
import warnings

import numpy as np
import pytest

from anticipate.events import (
    MAX_TIME_UNITS, NUM_PITCHES, REST, Event, EventSequence, InterleavedSequence, TaggedEvent,
    _tagged, encode_note,
)
from anticipate.predictor import Distribution
from anticipate.tokenizer import CONTEXT_LENGTH, TokenError, _outside_vocabulary
from anticipate.vocab import CODEC_VOCABS, ArrivalVocab as AV

# Hypothesis's pytest plugin imports this module when it reports a falsifying
# example. It imports libcst, whose mypy_extensions warns DeprecationWarning;
# under ``-W error::DeprecationWarning`` that import would end the run in
# INTERNALERROR instead of printing the example, so import it here, once.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # without libcst the plugin skips the import itself
        pass


def random_events(
    rng: np.random.Generator,
    n: int,
    *,
    max_gap: int = 300,
    max_duration: int = 300,
    n_instruments: int = 3,
    avoid_note_overlap: bool = False,
    start_at_zero: bool = False,
) -> EventSequence:
    """Random time-sorted events with bounded inter-onset gaps.

    ``avoid_note_overlap`` truncates earlier same-note events so that
    onset/offset pairings are unambiguous (required for the codecs and MIDI
    round-trips). Bounded gaps and durations also keep interarrival gaps
    within the 10-second token cap. ``start_at_zero`` anchors the first
    onset at time zero, which the interarrival codec needs for exact
    round-trips (it has no absolute time reference).
    """
    instruments = list(rng.choice(128, size=n_instruments, replace=False))
    times = np.cumsum(rng.integers(0, max_gap + 1, size=n))
    if start_at_zero and n:
        times -= times[0]
    events: list[Event] = []
    last_end: dict[int, int] = {}
    for t in times.tolist():
        note = encode_note(
            int(instruments[rng.integers(len(instruments))]), int(rng.integers(128))
        )
        duration = int(rng.integers(0, max_duration + 1))
        if avoid_note_overlap and note in last_end and last_end[note] > t:
            # Truncate the earlier clashing note instead of re-drawing.
            for i in range(len(events) - 1, -1, -1):
                if events[i].note == note and events[i].end > t:
                    events[i] = Event(events[i].time, t - events[i].time, note)
            last_end[note] = t
        events.append(Event(t, duration, note))
        last_end[note] = max(last_end.get(note, 0), t + duration)
    return EventSequence(events)


def unchecked_interleaved(items) -> InterleavedSequence:
    """``items`` as an interleaved sequence without the per-stream time-order
    check, the way decoders and the sampler build one from their own columns."""
    rows = [(x.event.time, x.event.duration, x.event.note, x.control) for x in items]
    return InterleavedSequence._of(np.array(rows, dtype=np.int64).reshape(-1, 4).T.copy())


def random_controls(
    rng: np.random.Generator, k: int, *, max_time: int, max_duration: int = 300
) -> EventSequence:
    times = np.sort(rng.integers(0, max_time + 1, size=k))
    return EventSequence(
        Event(int(t), int(rng.integers(0, max_duration + 1)), encode_note(0, int(rng.integers(128))))
        for t in times
    )


def reference_event_triple(
    time: int, duration: int, note: int, control: bool, index: int, offset: int = 0
) -> list[int]:
    """The arrival triple of one item, its time relativized by ``offset``.

    The scalar encoder that `tokenizer._arrival_triples` replaced, kept as
    the reference it is tested against; the vocabulary's per-token helpers
    it called are inlined. It checks only the time: no sequence holds a rest
    as a control, so a rest's note token is never shifted.
    """
    t = time - offset
    if t >= AV.DUR_BASE:
        raise TokenError(f"event time {t} exceeds the 100s token range", index)
    if note == REST:
        note_token = AV.REST
    else:
        note_token = note + (AV.ANT_NOTE_BASE if control else AV.NOTE_BASE)
    if not 0 <= t < MAX_TIME_UNITS:
        raise ValueError(f"time {t} outside [0, {MAX_TIME_UNITS - 1}]")
    return [
        t + (AV.ANT_TIME_BASE if control else AV.TIME_BASE),
        duration + (AV.ANT_DUR_BASE if control else AV.DUR_BASE),
        note_token,
    ]


def reference_lexsort_interleave(
    events: EventSequence, controls: EventSequence, delta: float
) -> InterleavedSequence:
    """The stable sort that `anticipation.interleave`'s positional merge
    replaced, kept as the reference it is tested against: event i sorts at
    (i, 0), a control at (its due time, 1), (len(events), 1) if none."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    due = np.searchsorted(events.columns[0], controls.columns[0] - delta, side="left")
    slot = np.concatenate([np.arange(len(events)), due])
    columns = np.concatenate([_tagged(events, False), _tagged(controls, True)], axis=1)
    return InterleavedSequence._of(columns[:, np.lexsort((columns[3], slot))])


def reference_instrument_controls(
    seq: EventSequence, rng: np.random.Generator
) -> np.ndarray | None:
    """`augment.sample_instrument_controls` with the ``np.isin`` mask its
    instrument table replaced; the same draws."""
    parts = sorted(seq.instruments())
    if len(parts) < 2:
        return None
    j = int(rng.integers(1, len(parts)))
    chosen = rng.choice(parts, size=j, replace=False)
    notes = seq.columns[2]
    return (notes != REST) & np.isin(notes // NUM_PITCHES, chosen)


def reference_unigram_level(rows) -> tuple[np.ndarray, np.ndarray]:
    """The (tokens, counts) of `predictor.train_ngram`'s level 0 by one
    ``np.unique`` sort of every token, the count its ``np.bincount`` replaced."""
    flat = np.fromiter(itertools.chain.from_iterable(rows), dtype=np.int64)
    return np.unique(flat, return_counts=True)


def reference_write_tokens(f, rows, codec: str) -> None:
    """`tokenizer.write_tokens` with one ``map`` lookup per token, the join
    its ``itemgetter`` replaced."""
    texts = [str(t) for t in range(CODEC_VOCABS[codec].SIZE)]
    f.write(f"#codec={codec} vocab={len(texts)}\n")
    for i, row in enumerate(rows):
        if not len(row):
            raise TokenError(f"row {i}: an empty row cannot be written")
        try:
            if min(row) < 0:
                raise IndexError
            f.write(" ".join(map(texts.__getitem__, row)) + "\n")
        except IndexError:
            low = min(row)
            raise _outside_vocabulary(f"row {i}", low if low < 0 else max(row), codec) from None


def reference_nucleus_sample(dense, p, rng) -> int:
    """`sampler.nucleus_sample`'s rule applied literally to the dense vector:
    the tokens ranked by a stable argsort, descending, and the value classes
    and their counts from ``np.unique``. The prefix is the ranked tokens of
    the whole classes before the one that reaches ``p`` of the total, then
    the clamped ``ceil`` count of that class's; one draw over the prefix
    mass picks a class by its running mass, then a token in it by rank."""
    if not 0 < p <= 1:
        raise ValueError("p must be in (0, 1]")
    dense = np.asarray(dense, dtype=np.float64)
    if (dense < 0).any() or not np.isfinite(dense).all():
        raise ValueError("nucleus weights must be non-negative numbers")
    values, counts = (a[::-1] for a in np.unique(dense, return_counts=True))
    mass = (values * counts).cumsum()  # after each class
    if not 0 < mass[-1] < math.inf:
        raise ValueError("cannot sample from an all-zero or invalid distribution")
    x = p * mass[-1]
    cut = int(np.searchsorted(mass, x, side="left"))
    before = mass[cut - 1] if cut else 0.0
    take = int(np.clip(np.ceil((x - before) / values[cut]), 1, counts[cut]))
    ranked = np.argsort(-dense, kind="stable")
    sizes = np.append(counts[:cut], take)  # each prefix class's tokens
    if sizes.sum() == 1:
        return int(ranked[0])
    ends = np.append(mass[:cut], before + take * values[cut])  # the prefix's running masses
    drawn = rng.random() * ends[-1]
    group = int(np.searchsorted(ends[:-1], drawn, side="right"))
    start = ends[group - 1] if group else 0.0
    rank = min(int((drawn - start) / values[group]), sizes[group] - 1)
    return int(ranked[sizes[:group].sum() + rank])


def event_sort_key(event: Event):
    """Canonical total order on events: time, then note, then duration.

    The order ``anticipation.split_and_sort`` restores; tests sort reference
    event lists by it.
    """
    return (event.time, event.note, event.duration)


def _reference_parse_line(line: str) -> TaggedEvent:
    fields = line.split()
    control = False
    if fields and fields[0] == "C":
        control = True
        fields = fields[1:]
    if len(fields) != 3:
        raise ValueError(f"malformed event line: {line!r}")
    # each field is the digits write_events writes, or R for a rest's note;
    # int alone would also take a sign, "_" and other scripts' digits
    for name, text in zip(("time", "duration", "note"), fields):
        if not (set(text) <= set("0123456789") and text) and (name, text) != ("note", "R"):
            raise ValueError(f"{name} {text[:80]!r} is not an unsigned decimal")
    time, duration = int(fields[0]), int(fields[1])
    note = REST if fields[2] == "R" else int(fields[2])
    return TaggedEvent(Event(time, duration, note), control=control)


def reference_read_events(f) -> list[InterleavedSequence]:
    """The event text reader that `eventio.read_events` replaced: a
    ``TaggedEvent`` per line, an ``InterleavedSequence`` built from them per
    sequence. Kept as the reference the columnar reader is tested against."""
    sequences: list[InterleavedSequence] = []
    current: list[TaggedEvent] = []
    for lineno, raw in enumerate(itertools.chain(f, [""]), start=1):
        line = raw.strip()
        if line:
            try:
                current.append(_reference_parse_line(line))
            except ValueError as exc:
                raise TokenError(f"line {lineno}: {exc}") from exc
        elif current:
            try:
                sequences.append(InterleavedSequence(current))
            except ValueError as exc:
                first = lineno - len(current)
                raise TokenError(f"sequence on lines {first}-{lineno - 1}: {exc}") from exc
            current = []
    return sequences


class UniformPredictor:
    """Test double: the uniform distribution at every step."""

    def __init__(self, vocab_size: int, context_length: int = CONTEXT_LENGTH):
        self.vocab_size = vocab_size
        self.context_length = context_length
        self._uniform = Distribution(np.zeros(0, dtype=np.int64), np.zeros(0), 1.0 / vocab_size,
                                     vocab_size)

    def next_distribution(self, z, context) -> Distribution:
        return self._uniform


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20_260_809)
