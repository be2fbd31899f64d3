"""Quantized musical event types and the note/time codecs shared by every
other module.

Events live on a 10ms grid. A note is identified by a single integer code
combining instrument and pitch (``128 * instrument + pitch``); instrument 128
is the drum kit. Durations are capped at 10 seconds (999 grid units). Raw
event times are unbounded non-negative grid indices; the 100-second (9999
unit) ceiling applies in token space, where times are relativized to the
start of a model context (see :mod:`anticipate.tokenizer`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

UNITS_PER_SECOND = 100  # 10ms grid
MAX_TIME_UNITS = 10_000  # token-space cap: 100 seconds
MAX_DURATION_UNITS = 1_000  # 10 seconds
NUM_INSTRUMENTS = 129  # 0..127 melodic programs + 128 for drums
NUM_PITCHES = 128
NUM_NOTE_CODES = NUM_INSTRUMENTS * NUM_PITCHES  # 16512
DRUM_INSTRUMENT = 128

# Sentinel note code for a placeholder rest event (duration is always 0).
REST = -1


def seconds_to_units(seconds: float) -> int:
    """Convert seconds to 10ms grid units, rounding half away from zero.

    Unlike :func:`quantize_time` the result is unbounded; use this for raw
    corpus times that may exceed the 100-second token-space cap.
    """
    if not math.isfinite(seconds) or seconds < 0:
        raise ValueError(f"time must be finite and non-negative, got {seconds!r}")
    return int(math.floor(seconds * UNITS_PER_SECOND + 0.5))


def quantize_time(seconds: float) -> int:
    """Quantize a time in seconds to a 10ms index, clamped to [0, 9999]."""
    return min(seconds_to_units(seconds), MAX_TIME_UNITS - 1)


def quantize_duration(seconds: float) -> int:
    """Quantize a duration in seconds to a 10ms index, clamped to [0, 999].

    Durations longer than 10 seconds are truncated to the cap.
    """
    return min(seconds_to_units(seconds), MAX_DURATION_UNITS - 1)


def encode_note(instrument: int, pitch: int) -> int:
    """Combine an instrument class and pitch into a single note code."""
    if not 0 <= instrument < NUM_INSTRUMENTS:
        raise ValueError(f"instrument must be in [0, 128], got {instrument}")
    if not 0 <= pitch < NUM_PITCHES:
        raise ValueError(f"pitch must be in [0, 127], got {pitch}")
    return NUM_PITCHES * instrument + pitch


def decode_note(code: int) -> tuple[int, int]:
    """Split a note code into (instrument, pitch); inverse of :func:`encode_note`."""
    if not 0 <= code < NUM_NOTE_CODES:
        raise ValueError(f"note code must be in [0, 16511], got {code}")
    return code // NUM_PITCHES, code % NUM_PITCHES


@dataclass(frozen=True)
class Event:
    """One quantized event: onset time, duration (both 10ms units), note code.

    ``note == REST`` marks a placeholder rest; rests always have duration 0.
    """

    time: int
    duration: int
    note: int

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError(f"event time must be >= 0, got {self.time}")
        if not 0 <= self.duration < MAX_DURATION_UNITS:
            raise ValueError(f"duration must be in [0, 999], got {self.duration}")
        if self.note == REST:
            if self.duration != 0:
                raise ValueError("rest events must have duration 0")
        elif not 0 <= self.note < NUM_NOTE_CODES:
            raise ValueError(f"note code must be REST or in [0, 16511], got {self.note}")

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


class EventSequence:
    """An immutable, time-ordered sequence of events.

    By default out-of-order input is rejected; pass ``sort=True`` to re-sort
    (stable, so equal-time events keep their given order).
    """

    __slots__ = ("events",)

    def __init__(self, events: Iterable[Event] = (), *, sort: bool = False):
        items = tuple(events)
        if sort:
            items = tuple(sorted(items, key=lambda e: e.time))
        else:
            for i in range(1, len(items)):
                if items[i].time < items[i - 1].time:
                    raise ValueError(
                        f"event times must be non-decreasing (index {i}: "
                        f"{items[i].time} < {items[i - 1].time}); pass sort=True to re-sort"
                    )
        object.__setattr__(self, "events", items)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def __getitem__(self, i):
        return self.events[i]

    def __eq__(self, other) -> bool:
        return isinstance(other, EventSequence) and self.events == other.events

    def __hash__(self) -> int:
        return hash(self.events)

    def __repr__(self) -> str:
        return f"EventSequence({list(self.events)!r})"

    def times(self) -> list[int]:
        return [e.time for e in self.events]

    def instruments(self) -> set[int]:
        """Distinct instrument codes present (rests carry no instrument)."""
        return {e.instrument for e in self.events if not e.is_rest}

    def without_rests(self) -> "EventSequence":
        return EventSequence(e for e in self.events if not e.is_rest)

    @property
    def end_time(self) -> int:
        """Last note offset (onset + duration) in grid units; 0 when empty."""
        return max((e.end for e in self.events), default=0)


@dataclass(frozen=True)
class TaggedEvent:
    """An event tagged as either a plain event or an anticipated control."""

    event: Event
    control: bool = False


class InterleavedSequence:
    """An ordered mix of plain events and anticipated controls.

    Plain-event times are non-decreasing among themselves, and control times
    are non-decreasing among themselves; the two streams interleave freely.
    Set ``check=False`` to skip validation (e.g. for unmasked model output).
    """

    __slots__ = ("items",)

    def __init__(self, items: Iterable[TaggedEvent] = (), *, check: bool = True):
        tagged = tuple(items)
        if check:
            last_plain = last_control = -1
            for i, item in enumerate(tagged):
                prev = last_control if item.control else last_plain
                if item.event.time < prev:
                    kind = "control" if item.control else "plain event"
                    raise ValueError(f"{kind} times must be non-decreasing (index {i})")
                if item.control:
                    last_control = item.event.time
                else:
                    last_plain = item.event.time
        object.__setattr__(self, "items", tagged)

    @classmethod
    def from_events(cls, seq: EventSequence) -> "InterleavedSequence":
        return cls(TaggedEvent(e) for e in seq)

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self) -> Iterator[TaggedEvent]:
        return iter(self.items)

    def __getitem__(self, i):
        return self.items[i]

    def __eq__(self, other) -> bool:
        return isinstance(other, InterleavedSequence) and self.items == other.items

    def __hash__(self) -> int:
        return hash(self.items)

    def __repr__(self) -> str:
        return f"InterleavedSequence({list(self.items)!r})"

    def events(self) -> EventSequence:
        """The plain-event stream, order preserved."""
        return EventSequence(item.event for item in self.items if not item.control)

    def controls(self) -> EventSequence:
        """The control stream, order preserved."""
        return EventSequence(item.event for item in self.items if item.control)

    @property
    def has_controls(self) -> bool:
        return any(item.control for item in self.items)
