"""The interleaving engine: offline placement of controls among events, the
online emission rule that reproduces it, rest densification for sparse
sequences, and the split/sort inverse.

A control on time ``s`` is placed immediately after the first event whose
time reaches ``s - delta`` (and after any earlier-queued controls).  That
event is a stopping time of the event sequence: on the time row it is
``searchsorted(event_time, s - delta, "left")`` (its due time among the event
times).  Due times never decrease, so the offline interleave writes each
control to its slot and the events, in order, to the rest.  The placement
rule depends only on the emitted prefix, so the same interleaving falls out
of an online loop that alternates "emit next event" with "emit every pending
control within delta of it": after an event at ``t`` the pending controls
run up to ``searchsorted(control_time, t + delta, "right")``.  Controls whose
condition is never met (the event stream ends too early) are appended at the
tail so the interleaving stays lossless.

Times and ``delta`` are compared in whatever unit the events carry; the
quantized 10ms grid is the default throughout the toolkit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .events import (
    REST, EventSequence, InterleavedSequence, _check_added, _check_rest_controls, _tagged,
    seconds_to_units,
)


def _check_seconds(name: str, seconds: float) -> int:
    """A config interval in grid units, by the grid's one rounding rule
    (:func:`anticipate.events.seconds_to_units`). Rejects an interval that is
    not positive, not finite, rounds to no grid unit, or is too long for
    int64 grid arithmetic (2**62 units or more)."""
    if not (math.isfinite(seconds) and seconds > 0):
        raise ValueError(f"{name} must be positive and finite, got {seconds!r}")
    units = seconds_to_units(seconds)
    if units == 0:
        raise ValueError(f"{name} must be at least one 10 ms grid unit, got {seconds!r} s")
    if units >= 2**62:
        raise ValueError(f"{name} must be under 2**62 grid units, got {seconds!r} s")
    return units


@dataclass(frozen=True)
class AnticipationConfig:
    """Interleaving parameters, in seconds.

    ``delta`` is how far ahead controls surface; ``target_density`` is the
    maximum inter-event gap enforced by rest insertion.
    """

    delta: float = 5.0
    target_density: float = 1.0

    def __post_init__(self) -> None:
        _check_seconds("delta", self.delta)
        _check_seconds("target_density", self.target_density)

    @property
    def delta_units(self) -> int:
        return _check_seconds("delta", self.delta)

    @property
    def density_units(self) -> int:
        return _check_seconds("target_density", self.target_density)


def densify(seq: EventSequence, target: int) -> EventSequence:
    """Insert rest events so no inter-event gap exceeds ``target`` units.

    A gap in ``(n*target, (n+1)*target]`` gets ``n`` rests at multiples of
    ``target`` past the earlier event; a gap of exactly ``target`` gets none.
    More than ``MAX_ADDED_ITEMS`` rests in all raise ``ValueError``.
    """
    if target <= 0:
        raise ValueError("target density must be positive")
    columns = seq.columns
    # each event is followed by the rests that fill the gap to the next one
    rests = np.maximum(np.diff(columns[0]) - 1, 0) // target  # sorted: sums below 2**63
    _check_added(int(rests.sum()), "rests")
    reps = np.ones(len(seq), dtype=np.int64)
    reps[:-1] += rests
    out = np.repeat(columns, reps, axis=1)
    m = np.arange(out.shape[1]) - np.repeat(np.cumsum(reps) - reps, reps)
    out[0] += m * target
    out[1:, m > 0] = [[0], [REST]]
    return EventSequence._of(out)


def interleave(
    events: EventSequence, controls: EventSequence, delta: float
) -> InterleavedSequence:
    """Offline interleaving of events and controls.

    Each control lands immediately after the first event whose time is at
    least ``control.time - delta``, its due time; never-satisfied controls
    are appended after the final event in control order; a rest control raises.
    Controls are written to their slots and events to the slots left over.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    _check_rest_controls(controls.columns[2] == REST)
    # s - delta cannot wrap, as s >= 0 and delta < 2**62. Due times never decrease, so control
    # j follows event due_j and controls 0..j-1: slot min(due_j + 1, len(events)) + j
    due = np.searchsorted(events.columns[0], controls.columns[0] - delta, side="left")
    at = np.minimum(due + 1, len(events)) + np.arange(len(due))
    out = np.zeros((4, len(events) + len(due)), dtype=np.int64)
    out[3, at] = 1
    out[:3, at] = controls.columns
    out[:3, out[3] == 0] = events.columns
    return InterleavedSequence._of(out)


def next_anticipated_controls(
    controls: EventSequence, cursor: int, last_event_time: int, delta: float
) -> tuple[EventSequence, int]:
    """Online emission rule: controls due after an event at ``last_event_time``.

    Returns the maximal run of unconsumed controls with time at most
    ``last_event_time + delta``, as a slice of ``controls``, and the advanced
    cursor.  The decision uses only the event just emitted and the cursor,
    never future events. The sum is taken in Python ints, so it cannot wrap.
    """
    reach = int(last_event_time) + delta
    end = max(cursor, int(controls.columns[0].searchsorted(reach, "right")))
    return controls[cursor:end], end


def sort_order_interleave(
    events: EventSequence, controls: EventSequence, delta: float
) -> InterleavedSequence:
    """The naive merge that treats a control on time ``s`` as an event at
    ``s - delta``.

    This placement depends on the event *following* each control, so it
    cannot be produced by an online sampler; it exists as the contrast case
    for tests and demos. A rest among the controls raises ``ValueError``.
    """
    columns = np.concatenate([_tagged(events, False), _tagged(controls, True)], axis=1)
    adjusted = np.concatenate([events.columns[0], controls.columns[0] - delta])
    # Adjusted-time ties put the control before the event, matching a merge
    # where the shifted control arrives first.
    return InterleavedSequence._of(columns[:, np.lexsort((1 - columns[3], adjusted))])


def split_and_sort(seq: InterleavedSequence) -> EventSequence:
    """Undo an infilling interleave: drop tags, merge, and sort canonically
    by time, then note, then duration.

    Interleaving discards the original relative order of equal-time events,
    so the inverse sorts them canonically; sequences already in canonical
    order round-trip exactly.
    """
    time, duration, note = seq.columns[:3]
    return EventSequence._of(seq.columns[:3, np.lexsort((duration, note, time))])
