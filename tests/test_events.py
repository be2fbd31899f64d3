"""Event model: quantizers, note codec, sequence invariants, text format."""

from __future__ import annotations

import io
import math

import pytest
from hypothesis import given, settings, strategies as st

from anticipate.events import (
    DRUM_INSTRUMENT,
    NUM_NOTE_CODES,
    REST,
    Event,
    EventSequence,
    InterleavedSequence,
    TaggedEvent,
    decode_note,
    encode_note,
    quantize_duration,
    quantize_time,
    seconds_to_units,
)
from anticipate.eventio import read_events, write_events
from anticipate.tokenizer import TokenError


class TestQuantizeTime:
    def test_zero(self):
        assert quantize_time(0.0) == 0

    def test_480ms_is_index_48(self):
        assert quantize_time(0.48) == 48

    def test_clamped_at_100s(self):
        # 123.7s is 12370 grid units, beyond the 9999 cap.
        assert 123.7 * 100 > 9999
        assert quantize_time(123.7) == 9999

    def test_round_half_away_from_zero(self):
        assert quantize_time(0.125) == 13  # 12.5 rounds up
        assert quantize_time(0.124) == 12

    @pytest.mark.parametrize("bad", [-0.1, math.inf, math.nan])
    def test_invalid_input(self, bad):
        with pytest.raises(ValueError):
            quantize_time(bad)

    @given(st.floats(min_value=0, max_value=200), st.floats(min_value=0, max_value=200))
    def test_monotone(self, a, b):
        lo, hi = sorted([a, b])
        assert quantize_time(lo) <= quantize_time(hi)

    def test_unclamped_variant(self):
        assert seconds_to_units(123.7) == 12370


class TestQuantizeDuration:
    def test_clamps_beyond_10s(self):
        assert quantize_duration(12.0) == 999

    def test_exact(self):
        assert quantize_duration(0.95) == 95


class TestNoteCodec:
    def test_piano_middle_c(self):
        assert encode_note(0, 60) == 60

    def test_zero(self):
        assert encode_note(0, 0) == 0

    def test_max_code(self):
        # 128*128 + 127, the top of the vocabulary
        assert encode_note(DRUM_INSTRUMENT, 127) == 16511

    def test_decode_goldens(self):
        assert decode_note(60) == (0, 60)
        assert decode_note(0) == (0, 0)
        assert decode_note(16511) == (128, 127)

    def test_roundtrip_exhaustive(self):
        # all 16512 instrument/pitch pairs
        for code in range(NUM_NOTE_CODES):
            assert encode_note(*decode_note(code)) == code

    @pytest.mark.parametrize("k,p", [(-1, 0), (129, 0), (0, -1), (0, 128)])
    def test_out_of_range(self, k, p):
        with pytest.raises(ValueError):
            encode_note(k, p)

    def test_decode_out_of_range(self):
        with pytest.raises(ValueError):
            decode_note(16512)


class TestEvent:
    def test_rest_requires_zero_duration(self):
        Event(10, 0, REST)
        with pytest.raises(ValueError):
            Event(10, 5, REST)

    def test_duration_cap(self):
        with pytest.raises(ValueError):
            Event(0, 1000, 60)

    def test_unbounded_raw_time(self):
        # Raw corpus times may exceed the token-space cap.
        assert Event(360_000, 10, 60).time == 360_000

    def test_end(self):
        assert Event(10, 5, 60).end == 15

    @pytest.mark.parametrize("item", [Event(0, 1, 60), TaggedEvent(Event(0, 1, 60), True)])
    def test_slotted(self, item):
        assert not hasattr(item, "__dict__")


class TestEventSequence:
    def test_rejects_out_of_order(self):
        with pytest.raises(ValueError):
            EventSequence([Event(5, 0, 60), Event(3, 0, 60)])

    def test_sort_flag_is_stable(self):
        a, b = Event(5, 1, 60), Event(5, 2, 61)
        seq = EventSequence([Event(9, 0, 62), a, b], sort=True)
        assert list(seq) == [a, b, Event(9, 0, 62)]

    def test_instruments_ignores_rests(self):
        seq = EventSequence([Event(0, 0, REST), Event(1, 1, encode_note(5, 10))])
        assert seq.instruments() == {5}

    def test_end_time(self):
        seq = EventSequence([Event(0, 500, 60), Event(100, 10, 61)])
        assert seq.end_time == 500


class TestInterleavedSequence:
    def test_streams_checked_independently(self):
        # plain and control streams may interleave out of global order
        items = [
            TaggedEvent(Event(0, 1, 60)),
            TaggedEvent(Event(400, 1, 61), control=True),
            TaggedEvent(Event(100, 1, 62)),
        ]
        seq = InterleavedSequence(items)
        assert seq.events().times() == [0, 100]
        assert seq.controls().times() == [400]

    def test_rejects_unsorted_plain_stream(self):
        with pytest.raises(ValueError):
            InterleavedSequence([TaggedEvent(Event(5, 1, 60)), TaggedEvent(Event(1, 1, 60))])

    def test_has_controls(self):
        assert not InterleavedSequence([TaggedEvent(Event(0, 1, 60))]).has_controls
        assert InterleavedSequence([TaggedEvent(Event(0, 1, 60), control=True)]).has_controls


class TestEventText:
    def test_roundtrip_with_controls_and_rests(self):
        seq = InterleavedSequence(
            [
                TaggedEvent(Event(0, 48, 60)),
                TaggedEvent(Event(300, 0, REST)),
                TaggedEvent(Event(700, 48, 11060 - 11000), control=True),
            ]
        )
        buf = io.StringIO()
        write_events(buf, [seq, seq])
        buf.seek(0)
        assert read_events(buf) == [seq, seq]

    def test_format(self):
        buf = io.StringIO()
        write_events(
            buf,
            [
                InterleavedSequence(
                    [TaggedEvent(Event(0, 0, REST)), TaggedEvent(Event(5, 2, 60), control=True)]
                )
            ],
        )
        assert buf.getvalue() == "0 0 R\nC 5 2 60\n"

    def test_malformed_line(self):
        with pytest.raises(TokenError, match="line 1: malformed event line"):
            read_events(io.StringIO("1 2\n"))
        with pytest.raises(TokenError, match="line 3: malformed event line"):
            read_events(io.StringIO("0 1 60\n\n1 2\n"))

    def test_out_of_range_field_names_its_line(self):
        with pytest.raises(TokenError, match="line 2: duration must be in"):
            read_events(io.StringIO("0 1 60\n0 2000 60\n"))
        with pytest.raises(TokenError, match="line 1: note code"):
            read_events(io.StringIO("0 1 99999\n"))

    def test_time_past_int64_names_its_lines(self):
        with pytest.raises(TokenError, match="sequence on lines 1-2: event fields must fit in 64 bits"):
            read_events(io.StringIO("0 1 60\n99999999999999999999 1 60\n"))

    def test_unordered_sequence_names_its_lines(self):
        with pytest.raises(TokenError, match="sequence on lines 3-4"):
            read_events(io.StringIO("0 1 60\n\n10 1 60\n5 1 60\n"))


# -- columnar sequences against the tuple-backed reference -------------------


class _ReferenceEventSequence:
    """The tuple-backed event sequence the columnar one replaced."""

    def __init__(self, events=(), *, sort=False):
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
        self.events = items

    def __eq__(self, other):
        return isinstance(other, _ReferenceEventSequence) and self.events == other.events

    def __hash__(self):
        return hash(self.events)

    def times(self):
        return [e.time for e in self.events]

    def instruments(self):
        return {e.instrument for e in self.events if not e.is_rest}

    def without_rests(self):
        return [e for e in self.events if not e.is_rest]

    @property
    def end_time(self):
        return max((e.end for e in self.events), default=0)


class _ReferenceInterleavedSequence:
    """The tuple-backed interleaved sequence the columnar one replaced."""

    def __init__(self, items=(), *, check=True):
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
        self.items = tagged

    def __eq__(self, other):
        return isinstance(other, _ReferenceInterleavedSequence) and self.items == other.items

    def __hash__(self):
        return hash(self.items)

    def events(self):
        return _ReferenceEventSequence(item.event for item in self.items if not item.control)

    def controls(self):
        return _ReferenceEventSequence(item.event for item in self.items if item.control)

    @property
    def has_controls(self):
        return any(item.control for item in self.items)


def _outcome(fn, *args, **kwargs):
    """The result of a call, or the type and message of its error (the type
    alone for an index out of range, whose message the container words)."""
    try:
        return fn(*args, **kwargs)
    except IndexError:
        return IndexError
    except ValueError as exc:
        return type(exc), str(exc)


# Few distinct fields, so that equal items, equal times and order breaks are common.
_events = st.builds(
    lambda time, duration, note: Event(time, 0 if note == REST else duration, note),
    st.integers(0, 6),
    st.sampled_from([0, 1, 999]),
    st.sampled_from([REST, 0, 60, 300, 16_511]),
)
_tagged = st.builds(TaggedEvent, _events, st.booleans())
_slices = st.builds(
    slice, st.none() | st.integers(-8, 8), st.none() | st.integers(-8, 8),
    st.none() | st.integers(1, 3),
)


def _same_items(new, reference_items):
    assert list(new) == list(reference_items)
    assert len(new) == len(reference_items)
    for i in range(-len(new) - 1, len(new) + 1):
        assert _outcome(lambda: new[i]) == _outcome(lambda: reference_items[i])


class TestColumnarSequences:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(_events, max_size=12), st.booleans(), st.lists(_slices, max_size=3))
    def test_event_sequence_matches_reference(self, events, sort, slices):
        reference = _outcome(_ReferenceEventSequence, events, sort=sort)
        new = _outcome(EventSequence, events, sort=sort)
        if not isinstance(reference, _ReferenceEventSequence):
            assert new == reference
            return
        _same_items(new, reference.events)
        for s in slices:
            assert type(new[s]) is EventSequence and list(new[s]) == list(reference.events[s])
        assert new.times() == reference.times()
        assert new.end_time == reference.end_time
        assert new.instruments() == reference.instruments()
        assert list(new.without_rests()) == reference.without_rests()
        assert repr(new) == f"EventSequence({list(reference.events)!r})"

    @settings(max_examples=150, deadline=None)
    @given(st.lists(_tagged, max_size=12), st.booleans(), st.lists(_slices, max_size=3))
    def test_interleaved_sequence_matches_reference(self, items, check, slices):
        reference = _outcome(_ReferenceInterleavedSequence, items, check=check)
        new = _outcome(InterleavedSequence, items, check=check)
        if not isinstance(reference, _ReferenceInterleavedSequence):
            assert new == reference
            return
        _same_items(new, reference.items)
        for s in slices:
            sliced = new[s]
            assert type(sliced) is InterleavedSequence and list(sliced) == list(reference.items[s])
        for stream in ("events", "controls"):
            expected = _outcome(getattr(reference, stream))
            actual = _outcome(getattr(new, stream))
            if isinstance(expected, _ReferenceEventSequence):
                assert list(actual) == list(expected.events)
            else:
                assert actual == expected
        assert new.has_controls == reference.has_controls
        assert new.end_time == max((item.event.end for item in items), default=0)
        assert repr(new) == f"InterleavedSequence({list(reference.items)!r})"

    @settings(max_examples=150, deadline=None)
    @given(st.lists(_events, max_size=4), st.lists(_events, max_size=4))
    def test_equality_and_hash_match_reference(self, a, b):
        a, b = sorted(a, key=lambda e: e.time), sorted(b, key=lambda e: e.time)
        for make_new, make_reference in (
            (EventSequence, _ReferenceEventSequence),
            (lambda xs: InterleavedSequence.from_events(EventSequence(xs)),
             lambda xs: _ReferenceInterleavedSequence(TaggedEvent(e) for e in xs)),
        ):
            new_a, new_b = make_new(a), make_new(b)
            assert (new_a == new_b) == (make_reference(a) == make_reference(b))
            if new_a == new_b:
                assert hash(new_a) == hash(new_b)
        assert EventSequence(a) != InterleavedSequence.from_events(EventSequence(a))

    @pytest.mark.parametrize("items,message", [
        # the control stream breaks first, at index 2, before the plain one at 3
        ([(5, False), (10, True), (3, True), (1, False)], "control times must be non-decreasing (index 2)"),
        ([(5, False), (10, True), (1, False), (3, True)], "plain event times must be non-decreasing (index 2)"),
    ])
    def test_mixed_stream_order_error_names_the_first_offender(self, items, message):
        tagged = [TaggedEvent(Event(t, 1, 60), control) for t, control in items]
        with pytest.raises(ValueError) as new:
            InterleavedSequence(tagged)
        with pytest.raises(ValueError) as reference:
            _ReferenceInterleavedSequence(tagged)
        assert str(new.value) == str(reference.value) == message

    def test_columns_are_read_only(self):
        seq = EventSequence([Event(0, 1, 60)])
        with pytest.raises(ValueError):
            seq.columns[0, 0] = 5
