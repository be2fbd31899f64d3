"""Quantized musical event types and the note/time codecs shared by every
other module.

Events live on a 10ms grid. A note is identified by a single integer code
combining instrument and pitch (``128 * instrument + pitch``); instrument 128
is the drum kit. Durations are capped at 10 seconds (999 grid units). Raw
event times are non-negative grid indices, bounded only by the int64
columns (a note must end by 2**63 - 1); the 100-second (9999 unit) ceiling
applies in token space, where times are relativized to the
start of a model context (see :mod:`anticipate.tokenizer`).

A sequence is stored as one read-only int64 array ``columns`` with a column
per item: rows time, duration and note for an :class:`EventSequence`, plus a
0/1 control flag for an :class:`InterleavedSequence`. The pipeline, its file
readers and writers included, works on these rows. :class:`Event` and
:class:`TaggedEvent` objects are built only where a caller asks for items: by
iterating or indexing a sequence, and by constructing a sequence from items.
One scalar field rule (:func:`_check_event`) checks an event whether it
arrives as an object or as a parsed text line; one check refuses a rest as a
control wherever control columns are made (:func:`_check_rest_controls`).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

UNITS_PER_SECOND = 100  # 10ms grid
MAX_TIME_UNITS = 10_000  # token-space cap: 100 seconds
MAX_DURATION_UNITS = 1_000  # 10 seconds
NUM_INSTRUMENTS = 129  # 0..127 melodic programs + 128 for drums
NUM_PITCHES = 128
NUM_NOTE_CODES = NUM_INSTRUMENTS * NUM_PITCHES  # 16512
DRUM_INSTRUMENT = 128

# Sentinel note code for a placeholder rest event (duration is always 0).
REST = -1
INT64_MAX = 2**63 - 1  # the columns are int64, so no event may end later
# Items (rests, gap tokens, span starts) one call may add beyond its input, whatever
# its time values; an hour of music, the most ingest keeps, needs at most 360 000.
MAX_ADDED_ITEMS = 1 << 20


def _check_added(asked: float, items: str, error: type[ValueError] = ValueError) -> None:
    """Raise ``error``, before allocating, if ``asked`` passes ``MAX_ADDED_ITEMS``."""
    if asked > MAX_ADDED_ITEMS:
        raise error(f"{asked:.0f} {items} asked for, over the budget of {MAX_ADDED_ITEMS}")


def seconds_to_units(seconds: float | np.ndarray) -> int | np.ndarray:
    """Convert seconds to 10ms grid units, rounding half away from zero.

    The result is unbounded: raw corpus times may exceed the 100-second
    token-space cap. A float array converts by the same rule to an int64
    array, whose units must stay below 2**63; its first negative or
    non-finite element raises the scalar form's error.
    """
    if isinstance(seconds, np.ndarray):
        invalid = ~(np.isfinite(seconds) & (seconds >= 0))
        if not invalid.any():
            return np.floor(seconds * UNITS_PER_SECOND + 0.5).astype(np.int64)
        seconds = float(seconds[invalid.argmax()])
    if not math.isfinite(seconds) or seconds < 0:
        raise ValueError(f"time must be finite and non-negative, got {seconds!r}")
    return int(math.floor(seconds * UNITS_PER_SECOND + 0.5))


def quantize_duration(seconds: float | np.ndarray) -> int | np.ndarray:
    """Quantize a duration in seconds, or each of a float array, to a 10ms
    index clamped to [0, 999]: durations past 10 seconds are truncated."""
    units = seconds_to_units(seconds)
    if isinstance(units, np.ndarray):
        return np.minimum(units, MAX_DURATION_UNITS - 1)
    return min(units, MAX_DURATION_UNITS - 1)


def encode_note(instrument: int, pitch: int) -> int:
    """Combine an instrument class and pitch into a single note code."""
    if not 0 <= instrument < NUM_INSTRUMENTS:
        raise ValueError(f"instrument must be in [0, 128], got {instrument}")
    if not 0 <= pitch < NUM_PITCHES:
        raise ValueError(f"pitch must be in [0, 127], got {pitch}")
    return NUM_PITCHES * instrument + pitch


def _check_event(time: int, duration: int, note: int) -> None:
    """Raise ``ValueError`` for the first invalid field of one event."""
    if time < 0:
        raise ValueError(f"event time must be >= 0, got {time}")
    if not 0 <= duration < MAX_DURATION_UNITS:
        raise ValueError(f"duration must be in [0, 999], got {duration}")
    if int(time) + int(duration) > INT64_MAX:
        raise ValueError(f"event end {int(time) + int(duration)} exceeds 2**63 - 1")
    if note == REST:
        if duration != 0:
            raise ValueError("rest events must have duration 0")
    elif not 0 <= note < NUM_NOTE_CODES:
        raise ValueError(f"note code must be REST or in [0, 16511], got {note}")


def _is_int64(value) -> bool:
    """Whether ``value`` is unchanged by the int64 cast of a sequence's columns."""
    try:
        return bool(np.int64(value) == value)
    except (TypeError, ValueError, OverflowError):
        return False


@dataclass(frozen=True, slots=True)
class Event:
    """One quantized event: onset time, duration (both 10ms units), note code.

    ``note == REST`` marks a placeholder rest; rests always have duration 0.
    """

    time: int
    duration: int
    note: int

    def __post_init__(self) -> None:
        if not type(self.time) is type(self.duration) is type(self.note) is int:
            for name in ("time", "duration", "note"):
                value = getattr(self, name)
                if not _is_int64(value):
                    raise ValueError(f"event {name} must be an integer, got {value!r}")
        _check_event(self.time, self.duration, self.note)

    @property
    def is_rest(self) -> bool:
        return self.note == REST

    @property
    def instrument(self) -> int:
        if self.is_rest:
            raise ValueError("rest events have no instrument")
        return self.note // NUM_PITCHES

    @property
    def pitch(self) -> int:
        if self.is_rest:
            raise ValueError("rest events have no pitch")
        return self.note % NUM_PITCHES

    @property
    def end(self) -> int:
        """Offset time (onset + duration) in grid units."""
        return self.time + self.duration


@dataclass(frozen=True, slots=True)
class TaggedEvent:
    """An event tagged as either a plain event or an anticipated control."""

    event: Event
    control: bool = False


def _array(rows: list[tuple], width: int) -> np.ndarray:
    """Per-item field tuples as a (width, n) int64 array."""
    try:
        return np.array(rows, dtype=np.int64).reshape(-1, width).T.copy()
    except OverflowError as exc:
        raise ValueError(f"event fields must fit in 64 bits: {exc}") from None


class _Sequence:
    """What both sequence types share: the ``columns`` array, equality and
    hashing by value, and item access that builds item objects on demand."""

    __slots__ = ("columns",)

    def _store(self, columns: np.ndarray) -> None:
        columns.flags.writeable = False
        self.columns = columns

    @classmethod
    def _of(cls, columns: np.ndarray):
        """A sequence over ``columns`` derived from valid ones; not re-checked."""
        seq = object.__new__(cls)
        seq._store(columns)
        return seq

    def __len__(self) -> int:
        return self.columns.shape[1]

    def __iter__(self) -> Iterator:
        return map(self._item, *self.columns.tolist())

    def __getitem__(self, i):
        if isinstance(i, slice):
            columns = self.columns[:, i]
            if (i.step or 1) < 0:  # a reversed sequence may break the time order
                self._check(columns)
            return self._of(columns)
        return self._item(*self.columns[:, i].tolist())

    def __eq__(self, other) -> bool:
        return isinstance(other, type(self)) and np.array_equal(self.columns, other.columns)

    def __hash__(self) -> int:
        return hash(self.columns.tobytes())

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self)!r})"

    def times(self) -> list[int]:
        return self.columns[0].tolist()

    @property
    def end_time(self) -> int:
        """Last note offset (onset + duration) in grid units; 0 when empty."""
        return int((self.columns[0] + self.columns[1]).max(initial=0))


class EventSequence(_Sequence):
    """An immutable, time-ordered sequence of events; out-of-order input is
    rejected."""

    __slots__ = ()
    _item = Event

    def __init__(self, events: Iterable[Event] = ()):
        columns = _array([(e.time, e.duration, e.note) for e in events], 3)
        self._check(columns)
        self._store(columns)

    @staticmethod
    def _check(columns: np.ndarray) -> None:
        time = columns[0]
        i = _first_drop(time, np.zeros_like(time))
        if i is not None:
            raise ValueError(f"event times must be non-decreasing (index {i}: "
                             f"{time[i]} < {time[i - 1]})")

    def instruments(self) -> set[int]:
        """Distinct instrument codes present (rests carry no instrument)."""
        notes = self.columns[2]
        return set((notes[notes != REST] // NUM_PITCHES).tolist())

    def without_rests(self) -> "EventSequence":
        return self._of(self.columns[:, self.columns[2] != REST])


def _pair_notes(keys: np.ndarray, onsets: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pair a stream of note-ons and note-offs, FIFO per key.

    The one pairing rule of MIDI parsing and interarrival decoding: an off
    closes the earliest open on of its key. Returns the stream index of
    every on (in stream order), the index of the off that closes it (-1 if
    none does, for the caller to close at the end of the stream), and the
    indices of the offs that close nothing.
    """
    open_ons: dict[int, deque[int]] = {}
    closer = [-1] * len(keys)
    strays = []
    for i, (key, on) in enumerate(zip(keys.tolist(), onsets.tolist())):
        if on:
            open_ons.setdefault(key, deque()).append(i)
        elif queue := open_ons.get(key):
            closer[queue.popleft()] = i
        else:
            strays.append(i)
    ons = np.flatnonzero(onsets)
    return ons, np.array(closer, dtype=np.int64)[ons], np.array(strays, dtype=np.int64)


def _note_order(time: np.ndarray, duration: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The MIDI writer's and the interarrival encoder's order of note-ons
    (item ``2 * i`` is event ``i``'s) and note-offs (``2 * i + 1``), and
    their times: by time, at one instant the offs of notes with a duration
    first and a zero-length note's off just after its on, ties in event
    order. Events are in time order, so a stable sort by time is this order."""
    item_time = np.column_stack([time, time + duration]).ravel()
    order = np.argsort(item_time, kind="stable")
    return order, item_time[order]


def _first_drop(time: np.ndarray, stream: np.ndarray) -> int | None:
    """The first index earlier in time than the item before it in its stream, or None."""
    order = np.argsort(stream, kind="stable")  # each stream in sequence order
    time, stream = time[order], stream[order]
    drops = order[1:][(time[1:] < time[:-1]) & (stream[1:] == stream[:-1])]
    return int(drops.min()) if drops.size else None


def _check_rest_controls(rest_control: np.ndarray) -> None:
    """Raise for the first item the boolean row marks: a rest flagged as a control."""
    if rest_control.any():
        raise ValueError(f"rest events cannot be controls (index {int(rest_control.argmax())})")


def _tagged(seq: EventSequence, control: bool) -> np.ndarray:
    """The (4, n) columns of ``seq`` flagged ``control``; no rest may be a control."""
    if control:
        _check_rest_controls(seq.columns[2] == REST)
    return np.concatenate((seq.columns, np.full((1, len(seq)), int(control), dtype=np.int64)))


class InterleavedSequence(_Sequence):
    """An ordered mix of plain events and anticipated controls.

    Plain-event times are non-decreasing among themselves, and control times
    are non-decreasing among themselves; the two streams interleave freely.
    """

    __slots__ = ()

    @staticmethod
    def _item(time: int, duration: int, note: int, control: int) -> TaggedEvent:
        return TaggedEvent(Event(time, duration, note), control != 0)

    def __init__(self, items: Iterable[TaggedEvent] = ()):
        columns = _array(
            [(x.event.time, x.event.duration, x.event.note, x.control) for x in items], 4
        )
        self._check(columns)
        self._store(columns)

    @staticmethod
    def _check(columns: np.ndarray) -> None:
        """Raise for the first flag other than 0 or 1, then the first item
        earlier than the item before it in its own stream, then the first rest control."""
        if (odd := columns[3] & ~1).any():
            raise ValueError(f"control flags must be 0 or 1 (index {int(odd.nonzero()[0][0])})")
        i = _first_drop(columns[0], columns[3])
        if i is not None:
            kind = "control" if columns[3, i] else "plain event"
            raise ValueError(f"{kind} times must be non-decreasing (index {i})")
        _check_rest_controls((columns[2] == REST) & (columns[3] != 0))

    @classmethod
    def from_events(cls, seq: EventSequence) -> "InterleavedSequence":
        return cls._of(_tagged(seq, False))

    def _stream(self, control: bool) -> EventSequence:
        return EventSequence._of(self.columns[:3, self.columns[3] == control])

    def events(self) -> EventSequence:
        """The plain-event stream, order preserved."""
        return self._stream(False)

    def controls(self) -> EventSequence:
        """The control stream, order preserved."""
        return self._stream(True)

    @property
    def has_controls(self) -> bool:
        return bool(self.columns[3].any())
