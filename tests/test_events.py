"""Event model: quantizers, note codec, sequence invariants, text format."""

from __future__ import annotations

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from anticipate.anticipation import densify, interleave, sort_order_interleave
from anticipate.augment import AugmentationPolicy, augment_corpus
from anticipate.events import (
    DRUM_INSTRUMENT,
    NUM_NOTE_CODES,
    REST,
    Event,
    EventSequence,
    InterleavedSequence,
    TaggedEvent,
    encode_note,
    quantize_duration,
    seconds_to_units,
)
from anticipate.eventio import format_item, read_events, write_events
from anticipate.sampler import SamplerConfig, generate_anticipatory, generate_autoregressive_infill
from anticipate.tokenizer import TokenError, decode_arrival
from anticipate.vocab import ArrivalVocab as AV

from conftest import UniformPredictor, reference_read_events, unchecked_interleaved


class TestQuantizeTime:
    """Times quantize by ``seconds_to_units``, which never clamps: the
    100-second cap applies only to relativized token-space times."""

    def test_zero(self):
        assert seconds_to_units(0.0) == 0

    def test_480ms_is_index_48(self):
        assert seconds_to_units(0.48) == 48

    def test_round_half_away_from_zero(self):
        assert seconds_to_units(0.125) == 13  # 12.5 rounds up
        assert seconds_to_units(0.124) == 12

    @pytest.mark.parametrize("bad", [-0.1, math.inf, math.nan])
    def test_invalid_input(self, bad):
        with pytest.raises(ValueError):
            seconds_to_units(bad)

    @given(st.floats(min_value=0, max_value=200), st.floats(min_value=0, max_value=200))
    def test_monotone(self, a, b):
        lo, hi = sorted([a, b])
        assert seconds_to_units(lo) <= seconds_to_units(hi)

    def test_unclamped_variant(self):
        # 123.7 s is 12370 grid units, past the 9999 token-space cap
        assert seconds_to_units(123.7) == 12370


class TestQuantizeDuration:
    def test_clamps_beyond_10s(self):
        assert quantize_duration(12.0) == 999

    def test_exact(self):
        assert quantize_duration(0.95) == 95


_half_units = st.integers(0, 10**9).map(lambda k: (k + 0.5) / 100)  # .5 boundaries


class TestArrayForms:
    """The array forms of the quantizers equal the scalar forms elementwise."""

    @given(st.lists(_half_units | st.floats(0, 1e7) | st.sampled_from([0.0, 0.005, 0.125, 9.995,
                                                                        10.0, 10.005]),
                    max_size=30))
    def test_elementwise(self, seconds):
        array = np.array(seconds, dtype=np.float64)
        units, durations = seconds_to_units(array), quantize_duration(array)
        assert units.dtype == durations.dtype == np.int64
        assert units.tolist() == [seconds_to_units(s) for s in seconds]
        assert durations.tolist() == [quantize_duration(s) for s in seconds]

    @pytest.mark.parametrize("bad", [-0.1, -0.0001, math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("convert", [seconds_to_units, quantize_duration])
    def test_first_invalid_element_raises_the_scalar_error(self, convert, bad):
        with pytest.raises(ValueError) as expected:
            convert(bad)
        with pytest.raises(ValueError) as actual:
            convert(np.array([0.5, bad, -1.0]))
        assert str(actual.value) == str(expected.value)


class TestNoteCodec:
    def test_piano_middle_c(self):
        assert encode_note(0, 60) == 60

    def test_zero(self):
        assert encode_note(0, 0) == 0

    def test_max_code(self):
        # 128*128 + 127, the top of the vocabulary
        assert encode_note(DRUM_INSTRUMENT, 127) == 16511

    def test_decode_goldens(self):
        # an event decodes its note code into instrument and pitch
        for code, instrument, pitch in [(60, 0, 60), (0, 0, 0), (16511, 128, 127)]:
            event = Event(0, 1, code)
            assert (event.instrument, event.pitch) == (instrument, pitch)

    def test_roundtrip_exhaustive(self):
        # all 16512 instrument/pitch pairs
        for code in range(NUM_NOTE_CODES):
            event = Event(0, 1, code)
            assert encode_note(event.instrument, event.pitch) == code

    @pytest.mark.parametrize("k,p", [(-1, 0), (129, 0), (0, -1), (0, 128)])
    def test_out_of_range(self, k, p):
        with pytest.raises(ValueError):
            encode_note(k, p)

    def test_decode_out_of_range(self):
        with pytest.raises(ValueError, match="note code must be REST or in"):
            Event(0, 1, 16512)


class TestEvent:
    def test_rest_requires_zero_duration(self):
        Event(10, 0, REST)
        with pytest.raises(ValueError):
            Event(10, 5, REST)

    def test_rest_has_no_instrument_or_pitch(self):
        rest = Event(0, 0, REST)
        with pytest.raises(ValueError, match="^rest events have no instrument$"):
            rest.instrument
        with pytest.raises(ValueError, match="^rest events have no pitch$"):
            rest.pitch

    def test_duration_cap(self):
        with pytest.raises(ValueError):
            Event(0, 1000, 60)

    def test_unbounded_raw_time(self):
        # Raw corpus times may exceed the token-space cap.
        assert Event(360_000, 10, 60).time == 360_000

    def test_end(self):
        assert Event(10, 5, 60).end == 15

    @pytest.mark.parametrize("time", [2**63 - 5, np.int64(2**63 - 5), np.uint64(2**63 - 5)])
    def test_end_past_int64_rejected(self, time):
        # the int64 columns would wrap it: end_time read 10 for this sequence
        with pytest.raises(ValueError, match=f"event end {2**63 + 5} exceeds 2\\*\\*63 - 1"):
            EventSequence([Event(0, 10, 60), Event(time, 10, 61)])
        assert EventSequence([Event(0, 10, 60), Event(2**63 - 11, 10, 61)]).end_time == 2**63 - 1

    @pytest.mark.parametrize("fields, name", [
        ((1.7, 0.9, 60.2), "time"),
        ((1, 0.9, 60), "duration"),
        ((1, 0, 60.5), "note"),
        ((math.nan, 0, 60), "time"),
        ((1, math.inf, 60), "duration"),
        ((1, 0, "60"), "note"),
    ])
    def test_rejects_fields_the_int64_cast_would_change(self, fields, name):
        with pytest.raises(ValueError, match=f"event {name} must be an integer"):
            Event(*fields)
        with pytest.raises(ValueError, match=f"event {name} must be an integer"):
            EventSequence([Event(*fields)])
        with pytest.raises(ValueError, match=f"event {name} must be an integer"):
            InterleavedSequence([TaggedEvent(Event(*fields), control=True)])

    @pytest.mark.parametrize("fields", [
        (1, 0, 60), (np.int64(1), np.int32(0), np.uint8(60)), (1.0, 0.0, 60.0), (2, 0, REST),
    ])
    def test_accepts_integers_and_integral_floats(self, fields):
        assert EventSequence([Event(*fields)]).columns.tolist() == [[fields[0]], [0], [fields[2]]]
        items = [TaggedEvent(Event(*fields), control=fields[2] != REST)]
        assert InterleavedSequence(items).columns[:3].tolist() == [[fields[0]], [0], [fields[2]]]

    @pytest.mark.parametrize("item", [Event(0, 1, 60), TaggedEvent(Event(0, 1, 60), True)])
    def test_slotted(self, item):
        assert not hasattr(item, "__dict__")


class TestEventSequence:
    def test_rejects_out_of_order(self):
        with pytest.raises(ValueError):
            EventSequence([Event(5, 0, 60), Event(3, 0, 60)])

    def test_instruments_ignores_rests(self):
        seq = EventSequence([Event(0, 0, REST), Event(1, 1, encode_note(5, 10))])
        assert seq.instruments() == {5}

    def test_end_time(self):
        seq = EventSequence([Event(0, 500, 60), Event(100, 10, 61)])
        assert seq.end_time == 500

    @pytest.mark.parametrize("control", [False, True])
    def test_a_reversed_slice_keeps_the_time_order(self, control):
        def sequence(*times):
            if control:
                return InterleavedSequence(TaggedEvent(Event(t, 1, 60 + i), True)
                                           for i, t in enumerate(times))
            return EventSequence(Event(t, 1, 60 + i) for i, t in enumerate(times))

        with pytest.raises(ValueError, match="times must be non-decreasing"):
            sequence(0, 5)[::-1]
        reversed_ = sequence(5, 5, 5)[::-1]
        assert type(reversed_) is type(sequence())
        assert reversed_.times() == [5, 5, 5] and reversed_.columns[2].tolist() == [62, 61, 60]


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

    @pytest.mark.parametrize("flag", [2, -1])
    def test_rejects_a_control_flag_other_than_zero_or_one(self, flag):
        # the flag is checked before the time order: index 1 is also earlier
        # than index 0 in a stream of its own
        items = [TaggedEvent(Event(5, 10, 60), flag), TaggedEvent(Event(1, 10, 60), flag)]
        with pytest.raises(ValueError, match=r"^control flags must be 0 or 1 \(index 0\)$"):
            InterleavedSequence(items)
        with pytest.raises(ValueError, match=r"^control flags must be 0 or 1 \(index 1\)$"):
            InterleavedSequence([TaggedEvent(Event(0, 10, 60)), TaggedEvent(Event(0, 10, 60), flag)])

    def test_rejects_a_flag_past_64_bits(self):
        with pytest.raises(ValueError, match="^event fields must fit in 64 bits"):
            InterleavedSequence([TaggedEvent(Event(0, 1, 60), 2**64)])

    @pytest.mark.parametrize("flag", [True, 1, np.int64(1), False, 0])
    def test_accepts_flags_of_zero_or_one(self, flag):
        seq = InterleavedSequence([TaggedEvent(Event(0, 10, 60), flag)])
        assert seq.has_controls == bool(flag)
        assert seq.columns[3].tolist() == [int(flag)]


def _read_outcome(read, text):
    """A reader's sequences, or the message of its ``TokenError``; any other
    error escapes."""
    try:
        return read(io.StringIO(text))
    except TokenError as exc:
        return str(exc)


_bad_fields = st.sampled_from(
    ["-1", "1000", "16512", "R", "C", "x", "1.5", str(2**63 - 1), str(2**63), str(-(2**63) - 1),
     "99999999999999999999"]
)
_spaces = st.sampled_from([" ", " ", "  ", "\t", " \t "])
_blank_runs = st.lists(st.sampled_from(["", " ", "\t", "\r", "\x0b", "\u00a0"]), min_size=1,
                       max_size=3).map("\n".join)


@st.composite
def _event_texts(draw):
    """Event text, mostly valid, with at most one mutation per line: a
    dropped or extra field, one or two negative, out-of-range, past-int64 or
    non-integer fields, a rest with a duration, or a time earlier than the
    one before it in its stream (or past int64). Lines may carry a ``C`` prefix and padding,
    and sequences are separated by runs of blank lines."""
    lines, last = [], {False: 0, True: 0}  # the last time of each stream
    for _ in range(draw(st.integers(0, 14))):
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(_blank_runs))
            continue
        control = draw(st.integers(0, 3)) == 0
        last[control] += draw(st.integers(0, 3))
        note = draw(st.sampled_from(["R", "0", "60", "16511"]))
        duration = "0" if note == "R" else draw(st.sampled_from(["0", "1", "48", "998"]))
        fields = [str(last[control]), duration, note]
        mutation = draw(st.sampled_from(
            ["none"] * 12 + ["drop", "extra", "fields", "fields", "rest", "early", "past int64"]))
        if mutation == "drop":
            del fields[draw(st.integers(0, 2))]
        elif mutation == "extra":
            fields.insert(draw(st.integers(0, 3)), draw(_bad_fields))
        elif mutation == "fields":
            for at in draw(st.sets(st.integers(0, 2), min_size=1, max_size=2)):
                fields[at] = draw(_bad_fields)
        elif mutation == "rest":
            fields[1:] = ["5", "R"]
        elif mutation == "early":
            fields[0] = str(last[control] - draw(st.integers(1, 3)))
        elif mutation == "past int64":
            fields[0] = draw(st.sampled_from([str(2**63), "99999999999999999999"]))
        if control:
            fields.insert(0, "C")
        line = "".join(f + draw(_spaces) for f in fields[:-1]) + fields[-1]
        lines.append(draw(st.sampled_from(["", " ", "\t"])) + line + draw(st.sampled_from(["", "\r"])))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n\n"]))


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

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), sizes=st.lists(st.integers(1, 40), min_size=1,
                                                          max_size=4),
           start=st.sampled_from([0, 10**12, 2**63 - 10**6]))
    def test_every_written_file_reads_back_equal(self, seed, sizes, start):
        # plain events, rests and controls, times up to near 2**63 - 1
        rng = np.random.default_rng(seed)
        sequences = []
        for n in sizes:
            control = rng.random(n) < 0.3
            rest = ~control & (rng.random(n) < 0.2)
            items = sorted(
                (TaggedEvent(Event(start + int(t), 0 if r else int(d), REST if r else int(note)),
                             bool(c))
                 for t, d, note, r, c in zip(rng.integers(0, 10**5, n), rng.integers(0, 999, n),
                                             rng.integers(0, NUM_NOTE_CODES, n), rest, control)),
                key=lambda x: x.event.time)
            sequences.append(InterleavedSequence(items))
        buf = io.StringIO()
        write_events(buf, sequences)
        assert read_events(io.StringIO(buf.getvalue())) == sequences

    @pytest.mark.parametrize("line, field", [
        ("+5 10 60", "time '+5'"), ("1_000 10 60", "time '1_000'"), ("٣ 10 60", "time '٣'"),
        ("-0 0 60", "time '-0'"), ("C 5 10 ٦٠", "note '٦٠'"), ("5 +1 60", "duration '+1'"),
        ("5 0 R", None), ("5 R 60", "duration 'R'"), ("R 0 60", "time 'R'"),
        ("C C 0 60", "time 'C'"), ("5 1 0x1", "note '0x1'"),
        pytest.param("5 1 " + "٣" * 100, "note '" + "٣" * 80 + "'", id="long note cut short"),
    ])
    def test_fields_are_unsigned_ascii_decimals(self, line, field):
        # what write_events writes, and nothing else that int() would take
        text = f"0 1 60\n{line}\n"
        if field is None:
            assert read_events(io.StringIO(text))[0].columns[:, 1].tolist() == [5, 0, REST, 0]
        else:
            with pytest.raises(TokenError) as caught:
                read_events(io.StringIO(text))
            assert str(caught.value) == f"line 2: {field} is not an unsigned decimal"

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
        with pytest.raises(TokenError, match="line 2: event end 99999999999999999999 exceeds"):
            read_events(io.StringIO("0 1 60\n99999999999999999999 0 60\n"))
        with pytest.raises(TokenError, match=f"line 2: event end {2**63 + 5} exceeds 2"):
            read_events(io.StringIO(f"0 1 60\n{2**63 - 5} 10 61\n"))
        assert read_events(io.StringIO(f"0 1 60\n{2**63 - 11} 10 61\n"))[0].end_time == 2**63 - 1

    def test_unordered_sequence_names_its_lines(self):
        with pytest.raises(TokenError, match="sequence on lines 3-4"):
            read_events(io.StringIO("0 1 60\n\n10 1 60\n5 1 60\n"))

    @settings(max_examples=400, deadline=None)
    @given(_event_texts())
    def test_matches_reference_reader(self, text):
        assert _read_outcome(read_events, text) == _read_outcome(reference_read_events, text)


# -- columnar sequences against the tuple-backed reference -------------------


class _ReferenceEventSequence:
    """The tuple-backed event sequence the columnar one replaced."""

    def __init__(self, events=()):
        items = tuple(events)
        for i in range(1, len(items)):
            if items[i].time < items[i - 1].time:
                raise ValueError(
                    f"event times must be non-decreasing (index {i}: "
                    f"{items[i].time} < {items[i - 1].time})"
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
            for i, item in enumerate(tagged):
                if item.control and item.event.is_rest:
                    raise ValueError(f"rest events cannot be controls (index {i})")
        self.items = tagged

    def __eq__(self, other):
        return isinstance(other, _ReferenceInterleavedSequence) and self.items == other.items

    def __hash__(self):
        return hash(self.items)

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
    @given(st.lists(_events, max_size=12), st.lists(_slices, max_size=3))
    def test_event_sequence_matches_reference(self, events, slices):
        reference = _outcome(_ReferenceEventSequence, events)
        new = _outcome(EventSequence, events)
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
        new = _outcome(InterleavedSequence if check else unchecked_interleaved, items)
        if not isinstance(reference, _ReferenceInterleavedSequence):
            assert new == reference
            return
        _same_items(new, reference.items)
        for s in slices:
            sliced = new[s]
            assert type(sliced) is InterleavedSequence and list(sliced) == list(reference.items[s])
        # a stream is taken as it stands, not re-checked: only an unchecked
        # sequence can hold one out of order, and no decoder builds one
        for stream, control in (("events", False), ("controls", True)):
            expected = [item.event for item in reference.items if item.control == control]
            assert list(getattr(new, stream)()) == expected
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


# -- no producer returns a rest flagged as a control -------------------------


@st.composite
def _items_with_rests(draw):
    """Time-ordered items, some of them rests, any of them flagged as controls."""
    items = []
    for t in sorted(draw(st.lists(st.integers(0, 3_000), max_size=12))):
        rest = draw(st.booleans())
        event = Event(t, 0, REST) if rest else Event(t, draw(st.integers(0, 999)), 60)
        items.append(TaggedEvent(event, draw(st.booleans())))
    return items


def _arrival_tokens(items):
    """The arrival triples of ``items`` by the token layout, a rest control
    as a control time and duration with the rest token."""
    tokens = []
    for item in items:
        shift = AV.CONTROL_OFFSET * item.control
        note = AV.REST if item.event.is_rest else item.event.note + AV.NOTE_BASE + shift
        tokens += [item.event.time + AV.TIME_BASE + shift,
                   item.event.duration + AV.DUR_BASE + shift, note]
    return tokens


class TestNoRestControls:
    """Every public producer of an ``InterleavedSequence`` returns no rest
    flagged as a control, or refuses one with the one error, so the case the
    encoders no longer check cannot reach them."""

    @settings(max_examples=100, deadline=None)
    @given(_items_with_rests(), st.integers(0, 2**16))
    def test_every_producer(self, items, seed):
        flagged = next((i for i, x in enumerate(items) if x.control and x.event.is_rest), None)
        events = EventSequence(x.event for x in items if not x.control)
        controls = EventSequence(x.event for x in items if x.control)
        in_controls = next((i for i, c in enumerate(controls) if c.is_rest), None)
        text = "".join(format_item(x.event.time, x.event.duration, x.event.note, x.control)
                       + "\n" for x in items)
        config = SamplerConfig(top_p=0.95, max_tokens=30, seed=seed)
        dense = densify(EventSequence(x.event for x in items), 100)
        # each producer, the index it must refuse (None: none), and the
        # prefix of its message
        producers = [
            (lambda: [InterleavedSequence(items)], flagged, ""),
            (lambda: read_events(io.StringIO(text)), flagged,
             f"sequence on lines 1-{len(items)}: "),
            (lambda: [interleave(events, controls, 50)], in_controls, ""),
            (lambda: [sort_order_interleave(events, controls, 50)], in_controls, ""),
            (lambda: [generate_anticipatory(UniformPredictor(AV.SIZE), controls,
                                            config).sequence], in_controls, ""),
            (lambda: [generate_autoregressive_infill(UniformPredictor(AV.SIZE), controls,
                                                     config).sequence], in_controls, ""),
            # no augmentation pattern marks a rest, even in densified input
            (lambda: [c.interleaved for c in augment_corpus(
                [dense], AugmentationPolicy(factor=10), seed)], None, ""),
        ]
        for produce, refused, prefix in producers:
            if refused is not None:
                message = f"^{prefix}rest events cannot be controls \\(index {refused}\\)$"
                with pytest.raises(ValueError, match=message):
                    produce()
            else:
                assert not any(x.control and x.event.is_rest for seq in produce() for x in seq)
        # the decoder refuses a rest control's triple as malformed
        tokens = _arrival_tokens(items)
        if flagged is not None:
            with pytest.raises(TokenError, match=rf"^mixed-range triple .* \(index {flagged}\)$"):
                decode_arrival(tokens)
        else:
            assert not any(x.control and x.event.is_rest
                           for seq in decode_arrival(tokens) for x in seq)
