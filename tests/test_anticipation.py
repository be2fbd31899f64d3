"""Interleaving engine: reference orderings, the online/offline equivalence
that makes conditioning tractable, rest densification, and the split/sort
inverse."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from anticipate import golden
from anticipate.anticipation import (
    AnticipationConfig,
    densify,
    interleave,
    next_anticipated_controls,
    sort_order_interleave,
    split_and_sort,
)
from anticipate.events import (
    INT64_MAX, MAX_ADDED_ITEMS, REST, Event, EventSequence, InterleavedSequence, TaggedEvent,
    seconds_to_units,
)

from conftest import (
    event_sort_key, random_controls, random_events, reference_lexsort_interleave,
)


def online_interleave(events: EventSequence, controls: EventSequence, delta) -> list[TaggedEvent]:
    """The online loop: emit each ground-truth event, then all controls due.

    Decisions depend only on the event just emitted and the control cursor;
    this is the executable form of the placement being decidable from the
    prefix alone.
    """
    out: list[TaggedEvent] = []
    cursor = 0
    for event in events:
        out.append(TaggedEvent(event))
        due, cursor = next_anticipated_controls(controls, cursor, event.time, delta)
        out.extend(TaggedEvent(c, control=True) for c in due)
    out.extend(TaggedEvent(c, control=True) for c in controls[cursor:])
    return out


class TestReferenceOrderings:
    def test_control_lands_between_events(self):
        s = golden.SCENARIO_A
        result = interleave(s["events"], s["controls"], s["delta"])
        kinds = ["control" if i.control else "event" for i in result]
        assert kinds == ["event", "event", "control", "event"]
        assert [i.event.time for i in result] == [100, 300, 700, 500]

    def test_sort_order_differs(self):
        s = golden.SCENARIO_A
        anticipated = interleave(s["events"], s["controls"], s["delta"])
        naive = sort_order_interleave(s["events"], s["controls"], s["delta"])
        assert list(naive) != list(anticipated)
        assert [i.control for i in naive] == [False, True, False, False]

    def test_sparse_control_after_its_time(self):
        s = golden.SCENARIO_B
        result = interleave(s["events"], s["controls"], s["delta"])
        assert [i.control for i in result] == [False, False, False, True]
        # the control on time 450 lands after the event at time 500
        assert result[3].event.time == 450 and result[2].event.time == 500

    def test_rests_repair_the_sparse_case(self):
        s = golden.SCENARIO_B
        dense = densify(s["events"], 100)
        result = interleave(dense, s["controls"], s["delta"])
        assert [i.control for i in result] == [False] * 3 + [True] + [False] * 2
        assert [i.event.time for i in result] == [100, 200, 300, 450, 400, 500]

    def test_no_controls_is_identity(self, rng):
        events = random_events(rng, 30)
        result = interleave(events, EventSequence(), 500)
        assert result.events() == events and not result.has_controls


class TestDensify:
    def test_reference_rest_times(self):
        seq = EventSequence([Event(100, 10, 60), Event(200, 10, 60), Event(500, 10, 60)])
        dense = densify(seq, 100)
        rests = [e.time for e in dense if e.is_rest]
        assert rests == [300, 400]
        assert dense.times() == [100, 200, 300, 400, 500]

    def test_gap_exactly_target_no_rest(self):
        seq = EventSequence([Event(0, 1, 60), Event(100, 1, 60)])
        assert densify(seq, 100) == seq

    def test_three_and_a_half_second_gap(self):
        # 300 < 350 <= 400 at one-second density: three rests
        seq = EventSequence([Event(0, 1, 60), Event(350, 1, 60)])
        dense = densify(seq, 100)
        assert [e.time for e in dense if e.is_rest] == [100, 200, 300]

    def test_resulting_sequence_is_dense(self, rng):
        for _ in range(50):
            seq = random_events(rng, int(rng.integers(2, 40)), max_gap=800)
            target = int(rng.integers(1, 300))
            dense = densify(seq, target)
            gaps = np.diff(dense.times())
            assert (gaps <= target).all()
            assert dense.without_rests() == seq

    def test_zero_gap(self):
        seq = EventSequence([Event(5, 1, 60), Event(5, 1, 61)])
        assert densify(seq, 100) == seq

    def test_empty(self):
        assert densify(EventSequence(), 100) == EventSequence()

    def test_rests_past_the_budget_refused_before_allocating(self):
        far = EventSequence([Event(0, 10, 60), Event(10**12, 10, 61)])
        with pytest.raises(ValueError, match=f"^9999999999 rests asked for, over the budget of "
                                             f"{MAX_ADDED_ITEMS}$"):
            densify(far, 100)
        # the budget counts the rests of every gap; exactly the budget is kept
        half = MAX_ADDED_ITEMS // 2 + 1
        with pytest.raises(ValueError, match=f"^{MAX_ADDED_ITEMS + 2} rests asked for"):
            densify(EventSequence([Event(0, 1, 60), Event(half + 1, 1, 61),
                                   Event(2 * half + 2, 1, 62)]), 1)
        at = EventSequence([Event(0, 1, 60), Event(MAX_ADDED_ITEMS + 1, 1, 61)])
        assert len(densify(at, 1)) == MAX_ADDED_ITEMS + 2

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(0, 5_000), min_size=1, max_size=30),
        st.integers(1, 400),
    )
    def test_density_and_preservation_property(self, raw_times, target):
        seq = EventSequence(
            (Event(t, 1, 60) for t in sorted(raw_times)),
        )
        dense = densify(seq, target)
        if len(dense) > 1:
            assert (np.diff(dense.times()) <= target).all()
        assert dense.without_rests() == seq
        # rests sit at exact multiples of the target past a real event
        for i, event in enumerate(dense):
            if event.is_rest:
                assert (event.time - dense[i - 1].time) <= target


class TestNextAnticipatedControls:
    def test_due_control_emitted(self):
        controls = EventSequence([Event(700, 1, 60)])
        due, cursor = next_anticipated_controls(controls, 0, 300, 500)
        assert [c.time for c in due] == [700] and cursor == 1

    def test_no_controls_remaining(self):
        due, cursor = next_anticipated_controls(EventSequence(), 0, 100, 500)
        assert len(due) == 0 and cursor == 0

    def test_not_yet_due(self):
        controls = EventSequence([Event(450, 1, 60), Event(500, 1, 60)])
        due, cursor = next_anticipated_controls(controls, 0, 100, 200)
        assert len(due) == 0 and cursor == 0

    def test_decision_uses_only_cursor_and_time(self):
        # same cursor and time, different histories: same answer
        controls = EventSequence([Event(300, 1, 60), Event(900, 1, 60)])
        assert next_anticipated_controls(controls, 1, 500, 500) == next_anticipated_controls(
            controls, 1, 500, 500
        )


class TestOnlineOfflineEquivalence:
    def test_equivalence_random_instances(self, rng):
        for _ in range(300):
            n = int(rng.integers(1, 120))
            k = int(rng.integers(0, 30))
            events = random_events(rng, n, max_gap=150)
            controls = random_controls(rng, k, max_time=int(events.end_time + 600))
            delta = float(rng.choice([50, 100, 200, 500]))
            offline = interleave(events, controls, delta)
            assert list(offline) == online_interleave(events, controls, delta)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.one_of(st.integers(0, 1_000), st.integers(INT64_MAX - 1_000, INT64_MAX)),
                    max_size=12),
           st.lists(st.one_of(st.integers(0, 1_000), st.integers(INT64_MAX - 1_000, INT64_MAX)),
                    max_size=8),
           st.sampled_from([1, 50, 500, 2**62 - 1]))
    def test_equivalence_near_the_top_of_int64(self, event_times, control_times, delta):
        # event times within delta of 2**63 - 1, where event time + delta
        # passes int64: offline places each control where the online rule does
        events = EventSequence(Event(t, 0, 60 + i % 3) for i, t in enumerate(sorted(event_times)))
        controls = EventSequence(Event(t, 0, 72) for t in sorted(control_times))
        offline = interleave(events, controls, delta)
        assert list(offline) == online_interleave(events, controls, delta)

    def test_multiset_bijection(self, rng):
        events = random_events(rng, 50)
        controls = random_controls(rng, 20, max_time=2_000)
        result = interleave(events, controls, 500)
        assert len(result) == 70
        assert result.events() == events
        assert result.controls() == controls


class TestSplitAndSort:
    def test_reference_case_merges_control_as_event(self):
        s = golden.SCENARIO_A
        result = split_and_sort(interleave(s["events"], s["controls"], s["delta"]))
        assert result.times() == [100, 300, 500, 700]

    def test_control_free_identity(self, rng):
        events = random_events(rng, 30)
        canonical = EventSequence(sorted(events, key=event_sort_key))
        assert split_and_sort(InterleavedSequence.from_events(canonical)) == canonical

    def test_roundtrip_restores_original(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 200))
            events = EventSequence(
                sorted(random_events(rng, n), key=event_sort_key)
            )
            mask = rng.random(n) < 0.3
            kept = EventSequence(e for e, m in zip(events, mask) if not m)
            marked = EventSequence(e for e, m in zip(events, mask) if m)
            interleaved = interleave(kept, marked, 500)
            assert split_and_sort(interleaved) == events


class TestDensityGuarantee:
    def test_every_control_preceded_by_covering_event(self, rng):
        config = AnticipationConfig(delta=5.0, target_density=1.0)
        delta, target = config.delta_units, config.density_units
        for _ in range(100):
            n = int(rng.integers(2, 40))
            events = random_events(rng, n, max_gap=900)  # sparse
            controls = random_controls(rng, int(rng.integers(1, 10)), max_time=int(events.end_time))
            dense = densify(events, target)
            result = interleave(dense, controls, delta)
            seen_plain_times: list[int] = []
            for item in result:
                if item.control:
                    s = item.event.time
                    if s <= dense.end_time + delta:
                        assert any(t >= s - delta for t in seen_plain_times), (s, seen_plain_times)
                else:
                    seen_plain_times.append(item.event.time)


class TestConfig:
    def test_unit_conversion(self):
        config = AnticipationConfig(delta=5.0, target_density=1.0)
        assert config.delta_units == 500 and config.density_units == 100
        # half a unit rounds away from zero, as event times do in seconds_to_units
        for seconds, units in ((0.125, 13), (0.025, 3), (0.005, 1)):
            config = AnticipationConfig(delta=seconds, target_density=seconds)
            assert config.delta_units == config.density_units == units == seconds_to_units(seconds)

    @pytest.mark.parametrize("kwargs", [{"delta": 0.0}, {"target_density": -1.0}])
    def test_rejects_nonpositive(self, kwargs):
        with pytest.raises(ValueError):
            AnticipationConfig(**kwargs)

    @pytest.mark.parametrize("field", ["delta", "target_density"])
    @pytest.mark.parametrize("value", [math.inf, math.nan, 1e17])
    def test_rejects_nonfinite_and_huge(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            AnticipationConfig(**{field: value})

    @pytest.mark.parametrize("field", ["delta", "target_density"])
    def test_rejects_interval_below_one_grid_unit(self, field):
        with pytest.raises(ValueError, match=f"^{field} must be at least one 10 ms grid unit"):
            AnticipationConfig(**{field: 0.004})
        for seconds in (0.005, 0.01):  # 0.005 s is half a unit and rounds up to one
            config = AnticipationConfig(**{field: seconds})
            assert (config.delta_units if field == "delta" else config.density_units) == 1


def test_rest_events_never_marked_as_controls(rng):
    seq = densify(random_events(rng, 10, max_gap=700), 100)
    result = interleave(seq, EventSequence(), 500)
    assert all(not item.control for item in result if item.event.note == REST)


# -- array operations against the per-item reference ------------------------


def _reference_densify(seq, target):
    """The per-event densify the array one replaced."""
    if target <= 0:
        raise ValueError("target density must be positive")
    out = []
    for event in seq:
        if out:
            gap = event.time - out[-1].time
            base = out[-1].time
            n = (gap - 1) // target if gap > 0 else 0
            out.extend(Event(base + m * target, 0, REST) for m in range(1, n + 1))
        out.append(event)
    return out


def _reference_refuse_rest_controls(controls):
    """Refuse the first rest of a control stream, as tagging it does."""
    for i, control in enumerate(controls):
        if control.is_rest:
            raise ValueError(f"rest events cannot be controls (index {i})")


def _reference_interleave(events, controls, delta):
    """The per-event merge the searchsorted one replaced."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    _reference_refuse_rest_controls(controls)
    out = []
    k = 0
    for event in events:
        out.append(TaggedEvent(event))
        while k < len(controls) and controls[k].time <= event.time + delta:
            out.append(TaggedEvent(controls[k], control=True))
            k += 1
    while k < len(controls):
        out.append(TaggedEvent(controls[k], control=True))
        k += 1
    return out


def _reference_sort_order_interleave(events, controls, delta):
    _reference_refuse_rest_controls(controls)
    entries = [(e.time, 1, i, TaggedEvent(e)) for i, e in enumerate(events)]
    entries += [
        (c.time - delta, 0, i, TaggedEvent(c, control=True)) for i, c in enumerate(controls)
    ]
    entries.sort(key=lambda entry: (entry[0], entry[1], entry[2]))
    return [entry[3] for entry in entries]


def _reference_split_and_sort(seq):
    return sorted((item.event for item in seq), key=event_sort_key)


def _outcome(fn, *args):
    try:
        return list(fn(*args))
    except ValueError as exc:
        return type(exc), str(exc)


@st.composite
def _event_streams(draw, max_size=40):
    """A time-sorted stream with repeated times, rests and repeated notes."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(0, max_size))
    max_gap = draw(st.sampled_from([0, 3, 150, 1_000]))
    times = draw(st.integers(0, 50)) + np.cumsum(rng.integers(0, max_gap + 1, size=n))
    events = []
    for t in times.tolist():
        if rng.random() < 0.1:
            events.append(Event(t, 0, REST))
        else:
            events.append(Event(t, int(rng.integers(0, 3)), int(rng.integers(58, 62))))
    return EventSequence(events)


class TestArrayOperationsMatchReference:
    @settings(max_examples=100, deadline=None)
    @given(_event_streams(), st.sampled_from([-1, 0, 1, 7, 100, 333]))
    def test_densify(self, seq, target):
        assert _outcome(densify, seq, target) == _outcome(_reference_densify, seq, target)

    @settings(max_examples=150, deadline=None)
    @given(_event_streams(), _event_streams(max_size=15),
           st.sampled_from([-5, 0, 1, 50, 500, 37.5]))
    def test_interleave_and_sort_order_interleave(self, events, controls, delta):
        # controls exactly delta after an event sit on the stopping-time boundary
        tied = EventSequence(Event(e.time + max(int(delta), 0), e.duration, e.note) for e in events)
        for stream in (controls, tied):
            for new, reference in ((interleave, _reference_interleave),
                                   (sort_order_interleave, _reference_sort_order_interleave)):
                assert (_outcome(new, events, stream, delta)
                        == _outcome(reference, events, stream, delta))

    @settings(max_examples=100, deadline=None)
    @given(_event_streams(), _event_streams(max_size=15), st.sampled_from([1, 50, 500]))
    def test_split_and_sort(self, events, controls, delta):
        plain_controls = controls.without_rests()
        for merge in (interleave, sort_order_interleave):
            if len(plain_controls) < len(controls):  # a rest cannot be a control
                with pytest.raises(ValueError, match="^rest events cannot be controls"):
                    merge(events, controls, delta)
            merged = merge(events, plain_controls, delta)
            assert list(split_and_sort(merged)) == _reference_split_and_sort(merged)


def _numbered(times, first_note):
    """Events at ``times`` whose notes count up from ``first_note``, so equal
    columns mean the same order."""
    return EventSequence(Event(t, 0, first_note + i) for i, t in enumerate(sorted(times)))


class TestPositionalMergeMatchesLexsort:
    """`interleave` writes controls to their slots; the stable sort it
    replaced (`conftest.reference_lexsort_interleave`) pins the order."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 20), max_size=12), st.lists(st.integers(0, 40), max_size=12),
           st.integers(1, 15))
    @example([], [3, 5, 5], 2)  # no events
    @example([0, 4, 4], [], 2)  # no controls
    @example([], [], 1)
    @example([0, 5], [20, 20, 31], 3)  # every control due after the last event
    @example([0, 5, 9], [6, 6, 7, 8], 3)  # four controls due at event 1
    def test_columns_equal(self, event_times, control_times, delta):
        events, controls = _numbered(event_times, 0), _numbered(control_times, 1_000)
        merged = interleave(events, controls, delta).columns
        reference = reference_lexsort_interleave(events, controls, delta).columns
        assert merged.dtype == reference.dtype and np.array_equal(merged, reference)
