"""Event model: quantizers, note codec, sequence invariants, text format."""

from __future__ import annotations

import io
import math

import pytest
from hypothesis import given, strategies as st

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

    def test_unordered_sequence_names_its_lines(self):
        with pytest.raises(TokenError, match="sequence on lines 3-4"):
            read_events(io.StringIO("0 1 60\n\n10 1 60\n5 1 60\n"))
