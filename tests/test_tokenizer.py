"""Codecs: golden vectors, range discipline, round-trips, packing rules."""

from __future__ import annotations

import ast
import io
import logging
import re
import tracemalloc
from collections import deque
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import anticipate
from anticipate import golden
from anticipate.eventio import read_events
from anticipate.events import (
    MAX_ADDED_ITEMS,
    MAX_DURATION_UNITS,
    MAX_TIME_UNITS,
    REST,
    Event,
    EventSequence,
    InterleavedSequence,
    TaggedEvent,
)
from anticipate.tokenizer import (
    PackResult,
    TokenError,
    TrainingExample,
    _arrival_triples,
    _decode_triple,
    _relativize_sequence,
    _slot_ranges,
    decode_arrival,
    decode_interarrival,
    encode_arrival,
    encode_interarrival,
    pack_training_examples,
    read_tokens,
    write_tokens,
)
from anticipate.vocab import CODEC_VOCABS
from anticipate.vocab import ArrivalVocab as AV
from anticipate.vocab import InterarrivalVocab as IV

from conftest import (
    random_events, reference_event_triple, reference_write_tokens, unchecked_interleaved,
)

log = logging.getLogger("anticipate.tokenizer")


class TestVocabLayout:
    def test_arrival_ranges_tile_vocabulary(self):
        # every token in [0, SIZE) belongs to exactly one range
        for tok in range(0, AV.SIZE, 1):
            kinds = [
                AV.is_plain_time(tok),
                AV.is_plain_duration(tok),
                AV.is_plain_note(tok),
                tok == AV.REST,
                AV.is_control_time(tok),
                AV.is_control_duration(tok),
                AV.is_control_note(tok),
                tok in (AV.SEP, AV.AR, AV.AAR),
            ]
            assert sum(kinds) == 1, tok

    def test_control_offset_is_uniform(self):
        assert AV.ANT_TIME_BASE - AV.TIME_BASE == AV.CONTROL_OFFSET
        assert AV.ANT_DUR_BASE - AV.DUR_BASE == AV.CONTROL_OFFSET
        assert AV.ANT_NOTE_BASE - AV.NOTE_BASE == AV.CONTROL_OFFSET

    def test_sizes(self):
        assert AV.SIZE == 55028
        assert (AV.SEP, AV.AR, AV.AAR) == (55025, 55026, 55027)
        assert AV.REST == 27512
        assert IV.SIZE == 34025
        assert IV.SEP == 34024

    def test_interarrival_ranges_tile_vocabulary(self):
        for tok in range(0, IV.SIZE, 1):
            kinds = [IV.is_gap(tok), IV.is_onset(tok), IV.is_offset(tok), tok == IV.SEP]
            assert sum(kinds) == 1, tok


class TestArrivalGoldens:
    def test_twinkle_training_tokens(self):
        tokens = encode_arrival(golden.twinkle_events(), z=AV.AR)
        assert tokens == golden.TWINKLE_ARRIVAL_TOKENS
        assert len(tokens) == 46

    def test_twinkle_decode(self):
        segments = decode_arrival(golden.TWINKLE_ARRIVAL_TOKENS)
        assert segments == [InterleavedSequence.from_events(golden.twinkle_events())]

    def test_empty_sequence(self):
        assert encode_arrival(EventSequence()) == []

    def test_control_triple_offsets(self):
        seq = InterleavedSequence([TaggedEvent(Event(48, 48, 60), control=True)])
        assert encode_arrival(seq) == [27561, 37561, 38573]
        assert decode_arrival([27561, 37561, 38573]) == [seq]

    def test_sep_triple_alone_is_one_empty_boundary(self):
        segments = decode_arrival([AV.SEP, AV.SEP, AV.SEP])
        assert segments == [InterleavedSequence()]

    def test_time_range_error_identifies_index(self):
        seq = EventSequence([Event(0, 1, 60), Event(10_000, 1, 60)])
        with pytest.raises(TokenError) as err:
            encode_arrival(seq)
        assert err.value.index == 1

    def test_mixed_range_triple_rejected(self):
        # duration token in the time slot
        with pytest.raises(TokenError) as err:
            decode_arrival([10_001, 10_001, 11_000])
        assert err.value.index == 0

    def test_partial_sep_triple_rejected(self):
        with pytest.raises(TokenError):
            decode_arrival([AV.SEP, AV.SEP, 11_000])

    def test_rest_token(self):
        seq = EventSequence([Event(5, 0, REST)])
        assert encode_arrival(seq) == [5, 10_000, AV.REST]
        assert decode_arrival([5, 10_000, AV.REST])[0][0].event.is_rest

    def test_control_rest_rejected(self):
        # refused where the control columns are made, before any encoder
        rest = TaggedEvent(Event(5, 0, REST), control=True)
        with pytest.raises(ValueError, match=r"^rest events cannot be controls \(index 0\)$"):
            InterleavedSequence([rest])
        with pytest.raises(TokenError, match=r"^sequence on lines 1-2: rest events cannot be "
                                             r"controls \(index 1\)$"):
            read_events(io.StringIO("0 1 60\nC 5 0 R\n"))


class TestInterarrivalGoldens:
    def test_twinkle_56_tokens(self):
        tokens = encode_interarrival(golden.twinkle_events(), leading_sep=True)
        assert tokens == golden.TWINKLE_INTERARRIVAL_TOKENS
        assert len(tokens) == 56

    def test_twinkle_full_beat_43_tokens(self):
        tokens = encode_interarrival(golden.twinkle_full_beat_events(), leading_sep=True)
        assert tokens == golden.TWINKLE_FULL_BEAT_INTERARRIVAL_TOKENS
        assert len(tokens) == 43

    def test_decode_both_listings(self):
        assert decode_interarrival(golden.TWINKLE_INTERARRIVAL_TOKENS) == golden.twinkle_events()
        assert (
            decode_interarrival(golden.TWINKLE_FULL_BEAT_INTERARRIVAL_TOKENS)
            == golden.twinkle_full_beat_events()
        )

    def test_single_note(self):
        assert encode_interarrival(EventSequence([Event(0, 50, 60)])) == [1060, 50, 17572]
        assert decode_interarrival([1060, 50, 17572]) == EventSequence([Event(0, 50, 60)])

    def test_empty(self):
        assert encode_interarrival(EventSequence()) == []
        assert decode_interarrival([]) == EventSequence()

    def test_controls_unsupported(self):
        seq = InterleavedSequence([TaggedEvent(Event(0, 1, 60), control=True)])
        with pytest.raises(TokenError):
            encode_interarrival(seq)

    def test_rests_unsupported(self):
        with pytest.raises(TokenError):
            encode_interarrival(EventSequence([Event(0, 0, REST)]))

    def test_offset_without_onset(self):
        with pytest.raises(TokenError):
            decode_interarrival([17572])

    def test_unclosed_onset_clamped(self, caplog):
        with caplog.at_level("WARNING"):
            seq = decode_interarrival([1060, 50])
        assert seq == EventSequence([Event(0, 50, 60)])

    def test_gap_over_10s_splits_into_gap_tokens(self):
        seq = EventSequence([Event(0, 1, 60), Event(5000, 1, 61)])
        tokens = encode_interarrival(seq)
        assert tokens == [1060, 1, 17572, 999, 999, 999, 999, 999, 4, 1061, 1, 17573]
        assert decode_interarrival(tokens) == seq

    def test_gap_tokens_past_the_budget_refused_before_allocating(self):
        far = EventSequence([Event(0, 10, 60), Event(10**12, 10, 61)])
        with pytest.raises(TokenError, match=f"^1001001000 extra gap tokens asked for, "
                                             f"over the budget of {MAX_ADDED_ITEMS}$"):
            encode_interarrival(far)
        # the onset-to-onset gap after the first offset: exactly the budget is kept
        gap = (IV.ONSET_BASE - 1) * MAX_ADDED_ITEMS
        at = EventSequence([Event(0, 10, 60), Event(10 + gap, 10, 61)])
        assert len(encode_interarrival(at)) == 4 + 1 + MAX_ADDED_ITEMS + 1
        with pytest.raises(TokenError, match=f"^{MAX_ADDED_ITEMS + 1} extra gap tokens"):
            encode_interarrival(EventSequence([Event(0, 10, 60),
                                               Event(10 + gap + IV.ONSET_BASE - 1, 10, 61)]))


class TestTokenRangeDiscipline:
    def test_all_golden_vectors_in_slot_ranges(self):
        for tokens in (golden.TWINKLE_ARRIVAL_TOKENS[4:],):
            for i in range(0, len(tokens), 3):
                assert AV.is_plain_time(tokens[i])
                assert AV.is_plain_duration(tokens[i + 1])
                assert AV.is_plain_note(tokens[i + 2]) or tokens[i + 2] == AV.REST
        for tokens in (
            golden.TWINKLE_INTERARRIVAL_TOKENS,
            golden.TWINKLE_FULL_BEAT_INTERARRIVAL_TOKENS,
        ):
            for tok in tokens:
                assert 0 <= tok < IV.SIZE

    def test_token_count_identity(self, rng):
        # arrival emits exactly 3(N+K) tokens, plus 3 per separator
        events = random_events(rng, 40)
        seq = unchecked_interleaved(
            [TaggedEvent(e, control=bool(rng.integers(2))) for e in events],
        )
        assert len(encode_arrival(seq)) == 3 * len(seq)
        assert len(encode_arrival(seq, z=AV.AAR)) == 3 * len(seq) + 4


@st.composite
def interleaved_sequences(draw):
    n = draw(st.integers(0, 40))
    times = sorted(draw(st.lists(st.integers(0, 9_999), min_size=n, max_size=n)))
    items = []
    control_times = []
    plain_times = []
    for t in times:
        control = draw(st.booleans())
        (control_times if control else plain_times).append(t)
        items.append(
            TaggedEvent(
                Event(
                    t,
                    0 if draw(st.booleans()) and not control else draw(st.integers(0, 999)),
                    draw(st.integers(0, 16511)),
                ),
                control=control,
            )
        )
    return InterleavedSequence(items)


class TestRoundTrips:
    @settings(max_examples=300, deadline=None)
    @given(interleaved_sequences())
    def test_arrival_roundtrip(self, seq):
        assert decode_arrival(encode_arrival(seq)) == [seq]

    def test_arrival_roundtrip_bulk(self, rng):
        for _ in range(200):
            events = random_events(rng, int(rng.integers(0, 60)), max_gap=120)
            mask = rng.random(len(events)) < 0.3
            seq = unchecked_interleaved(
                [TaggedEvent(e, control=bool(m)) for e, m in zip(events, mask)],
            )
            assert decode_arrival(encode_arrival(seq)) == [seq]

    def test_interarrival_roundtrip_bulk(self, rng):
        # start-anchored sequences: the codec has no absolute time reference
        for _ in range(200):
            seq = random_events(
                rng, int(rng.integers(0, 60)), avoid_note_overlap=True, start_at_zero=True
            )
            assert decode_interarrival(encode_interarrival(seq)) == seq

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, MAX_TIME_UNITS - 1), max_size=11),
           st.lists(st.integers(0, MAX_DURATION_UNITS - 1), min_size=12, max_size=12))
    @example([2_500], [50] * 12)  # events at 0 and 25 s
    @example([MAX_TIME_UNITS - 1] * 11, [MAX_DURATION_UNITS - 1] * 12)
    def test_interarrival_roundtrip_over_the_100s_range(self, gaps, durations):
        # onset gaps across the whole 100 s range, one note per event so that
        # each offset pairs with its own onset
        times = np.cumsum([0, *gaps]).tolist()
        seq = EventSequence([Event(t, durations[i], 60 + i) for i, t in enumerate(times)])
        tokens = encode_interarrival(seq)
        assert all(0 <= tok < IV.SIZE for tok in tokens)
        assert decode_interarrival(tokens) == seq

    def test_multi_segment_roundtrip(self):
        a = InterleavedSequence([TaggedEvent(Event(0, 1, 60))])
        b = InterleavedSequence([TaggedEvent(Event(5, 1, 61), control=True)])
        tokens = [AV.SEP] * 3 + encode_arrival(a) + [AV.SEP] * 3 + encode_arrival(b)
        assert decode_arrival(tokens) == [a, b]


def _triples(n, start=0, step=10, control=False):
    return unchecked_interleaved(
        [TaggedEvent(Event(start + i * step, 1, 60), control=control) for i in range(n)],
    )


class TestPacking:
    def test_single_full_window_with_controls_starts_aar(self):
        # 340 event triples plus the leading separator make exactly 341
        seq = _triples(340, control=True)
        result = pack_training_examples([seq])
        assert len(result.examples) == 1
        example = result.examples[0]
        assert example.tokens[0] == AV.AAR
        assert len(example) == 1024
        assert list(example.tokens[1:4]) == [AV.SEP] * 3

    @pytest.mark.parametrize("context_length", [1, 5])
    def test_context_length_must_hold_whole_triples(self, context_length):
        with pytest.raises(ValueError, match=r"^context_length must be 1 \+ a multiple of 3$"):
            pack_training_examples([], context_length=context_length)

    def test_plain_window_starts_ar(self):
        result = pack_training_examples([_triples(340)])
        assert result.examples[0].tokens[0] == AV.AR

    def test_event_sequences_pack_as_interleaved_ones(self, rng):
        plain = [golden.twinkle_events()] * 30 + [random_events(rng, 200) for _ in range(5)]
        result = pack_training_examples(plain)
        assert result.examples
        assert result == pack_training_examples(map(InterleavedSequence.from_events, plain))

    def test_z_describes_segment_before_first_sep(self):
        # window: tail of a control-free sequence, SEP, controls afterwards
        first = _triples(100)
        second = _triples(239, control=True)
        result = pack_training_examples([first, second])
        assert len(result.examples) == 1  # 1 + 100 + 1 + 239 = 341 triples
        assert result.examples[0].tokens[0] == AV.AR

    def test_window_relativized_to_first_event(self):
        seq = _triples(340, start=5_000)
        result = pack_training_examples([seq])
        tokens = result.examples[0].tokens
        assert tokens[4] == 0  # first event time token, relativized

    def test_relativization_resets_after_sep(self):
        # second sequence keeps its own near-zero times
        first = _triples(100, start=4_000)
        second = _triples(239, start=0)
        result = pack_training_examples([first, second])
        tokens = result.examples[0].tokens
        assert tokens[4] == 0  # 4000 - 4000
        sep_at = 1 + 3 * 101
        assert list(tokens[sep_at : sep_at + 3]) == [AV.SEP] * 3
        assert tokens[sep_at + 3] == 0  # second sequence starts at its own zero

    def test_leading_segment_starts_at_the_first_item(self):
        # window [SEP, SEP, control@5000]: the empty sequence owns the first
        # row, so the leading segment is the next sequence's items, shifted
        # by their minimum time, and its control code leads the window
        sequences = [InterleavedSequence(), _triples(2, start=5_000, control=True)]
        result = pack_training_examples(sequences, context_length=10)
        assert [e.tokens for e in result.examples] == [
            (AV.AAR, *[AV.SEP] * 6, AV.ANT_TIME_BASE, AV.ANT_DUR_BASE + 1, AV.ANT_NOTE_BASE + 60)]
        assert result == _reference_pack(sequences, context_length=10)

    def test_window_spanning_100s_discarded(self):
        # 340 events 30 units apart span 10170 > 9999 units
        seq = _triples(340, step=30)
        result = pack_training_examples([seq])
        assert result.examples == []
        assert result.n_discarded == 1

    def test_tail_remainder_dropped(self):
        result = pack_training_examples([_triples(100)])
        assert result.examples == []
        assert result.n_tail_triples == 101

    def test_multi_window_counts(self):
        # 2 sequences of 340: 682 triples -> 2 windows, tail of 0
        result = pack_training_examples([_triples(340), _triples(340)])
        assert len(result.examples) == 2
        assert result.n_tail_triples == 0

    def test_training_example_validation(self):
        with pytest.raises(TokenError):
            TrainingExample((AV.SEP, AV.SEP, AV.SEP, AV.SEP))
        with pytest.raises(TokenError):
            TrainingExample((AV.AR, AV.SEP))

    def test_random_streams_satisfy_window_invariants(self, rng):
        # independently re-derive each window's control code from a stream
        # ownership map, and validate every window by decoding it
        for _ in range(30):
            sequences = []
            owner_flags: list[bool | None] = []  # per stream triple; None = SEP
            for _ in range(int(rng.integers(1, 6))):
                events = random_events(rng, int(rng.integers(0, 400)), max_gap=20)
                mask = rng.random(len(events)) < float(rng.choice([0.0, 0.3]))
                seq = unchecked_interleaved(
                    [TaggedEvent(e, control=bool(m)) for e, m in zip(events, mask)],
                )
                sequences.append(seq)
                owner_flags.append(None)
                owner_flags.extend([seq.has_controls] * len(seq))
            result = pack_training_examples(sequences)
            assert result.n_discarded == 0  # spans bounded well under 100s
            assert result.n_clamped_times == 0
            assert len(result.examples) == len(owner_flags) // 341
            for w, example in enumerate(result.examples):
                assert len(example) == 1024
                segments = decode_arrival(example.tokens)  # validates structure
                items = [item for seg in segments for item in seg]
                assert len(items) <= 341
                assert all(0 <= item.event.time < 10_000 for item in items)
                chunk = owner_flags[341 * w : 341 * (w + 1)]
                expected_flag = next((f for f in chunk if f is not None), None)
                expected_z = AV.AAR if expected_flag else AV.AR
                assert example.tokens[0] == expected_z

    def test_window_leading_control_relativized_by_min_time(self):
        # A sequence may open with a control whose time is ahead of the
        # events that follow it; the window is relativized by its minimum
        # time, so nothing goes negative and event times stay distinct.
        head = _triples(340)
        tail = unchecked_interleaved(
            [TaggedEvent(Event(500, 1, 60), control=True)]
            + [TaggedEvent(Event(300 + 10 * i, 1, 60)) for i in range(340)],
        )
        result = pack_training_examples([head, tail])
        assert len(result.examples) == 2
        assert result.n_clamped_times == 0
        second = result.examples[1].tokens
        assert second[1:4] == (AV.SEP,) * 3
        assert second[4] == AV.ANT_TIME_BASE + 200  # control: 500 - min time 300
        event_times = list(second[7::3])
        assert event_times == [10 * i for i in range(len(event_times))]


class TestTokenFile:
    def test_roundtrip(self):
        buf = io.StringIO()
        write_tokens(buf, [[1, 2, 3], [4]], "arrival")
        buf.seek(0)
        codec, rows = read_tokens(buf)
        assert codec == "arrival"
        assert rows == [[1, 2, 3], [4]]
        buf.seek(0)
        assert buf.readline() == "#codec=arrival vocab=55028\n"

    # a header is one of the two ``write_tokens`` writes: any other text after
    # the codec, another vocabulary size or another spelling of it is malformed
    @pytest.mark.parametrize("header", [
        "", "\n", "#codec=arrival vocab=55028xyz\n", "#codec=arrival vocab=55028 garbage\n",
        "#codec=arrival vocab=055028\n", "#codec=arrival vocab=34025\n",
        "#codec=interarrival vocab=55028\n", "#codec=arrival vocab=٥٥٠٢٨\n",
        "#codec=arrival vocab=" + "5" * 5_000 + "\n", "#codec=midi vocab=55028\n",
        "#codec=arrival\n", "#codec= arrival vocab=55028\n", "1 2 3\n",
    ], ids=lambda header: header[:40])
    def test_missing_header(self, header):
        with pytest.raises(TokenError, match="^missing or malformed token file header: ") as info:
            read_tokens(io.StringIO(header + "1 2 3\n"))
        assert len(str(info.value)) < 160  # a long header is cut, not echoed whole

    @pytest.mark.parametrize("text, read", [
        ("#codec=arrival vocab=55028\r\n1 2\r\n", ("arrival", [[1, 2]])),
        ("  #codec=interarrival\t vocab=34025  \n1 2\n", ("interarrival", [[1, 2]])),
        ("#codec=arrival vocab=55028", ("arrival", [])),  # no rows and no newline
    ])
    def test_header_whitespace_is_aside(self, text, read):
        assert read_tokens(io.StringIO(text)) == read

    @pytest.mark.parametrize("field", ["x", "+5", "1_000", "٣", "1.5", "0x10", "-", "-0", "²"])
    def test_non_integer_field_names_its_line(self, field):
        text = f"#codec=arrival vocab=55028\n1 2 3\n4\t{field} 6 y\n"
        message = f"line 3: '{field}' is not an unsigned decimal id"
        with pytest.raises(TokenError, match=f"^{re.escape(message)}$"):
            read_tokens(io.StringIO(text))

    @pytest.mark.parametrize("token", ["99999999999999999999", "55028", "-1"])
    def test_token_outside_vocabulary_names_its_line(self, token):
        text = f"#codec=arrival vocab=55028\n1 2 3\n\n4 {token} 6\n"
        message = (f"'{token}' is not an unsigned decimal id" if token.startswith("-")
                   else f"token {token} outside")
        with pytest.raises(TokenError, match=f"line 4: {message}"):
            read_tokens(io.StringIO(text))

    @pytest.mark.parametrize("token, shown", [
        ("055028", "55028"), ("0" * 30 + "9" * 25, "9" * 25), ("9" * 5_000, "9" * 5_000),
    ])
    def test_token_past_the_vocabulary_reports_its_value(self, token, shown):
        # past int64, and past ``int``'s 4 300-digit limit, the id keeps its own digits
        text = f"#codec=arrival vocab=55028\n1 {token} 00000000000000000000000007\n"
        with pytest.raises(TokenError, match=f"^line 2: token {shown} outside the arrival"):
            read_tokens(io.StringIO(text))

    def test_interarrival_vocabulary_bounds_its_tokens(self):
        with pytest.raises(TokenError, match="line 2"):
            read_tokens(io.StringIO("#codec=interarrival vocab=34025\n34025\n"))
        assert read_tokens(io.StringIO("#codec=interarrival vocab=34025\n34024 0\n"))[1] == [[34024, 0]]

    @pytest.mark.parametrize("codec, row, token", [
        ("arrival", [-1, 60_000], -1),
        ("arrival", [3, -1], -1),  # a tuple would read index -1 from its end
        ("arrival", [5, AV.SIZE], AV.SIZE),
        ("interarrival", [IV.SIZE, 0], IV.SIZE),
        ("interarrival", [-(2**70), 2**70], -(2**70)),
        # a tuple of token texts padded to 2 * SIZE would read these as real texts
        ("arrival", [7, -AV.SIZE - 1], -AV.SIZE - 1),
        ("arrival", [-2 * AV.SIZE], -2 * AV.SIZE),
        ("interarrival", [0, -2 * IV.SIZE + 5], -2 * IV.SIZE + 5),
    ])
    def test_write_refuses_out_of_vocabulary_tokens(self, codec, row, token):
        buf = io.StringIO()
        with pytest.raises(TokenError, match=f"row 1: token {token} outside the {codec} vocabulary"):
            write_tokens(buf, [[1, 2], row], codec)
        assert buf.getvalue().splitlines()[1:] == ["1 2"]

    @pytest.mark.parametrize("row", [[2.5], [1, 2.5], ["7"], np.array([1.0, 2.0])])
    def test_write_keeps_the_type_error_of_a_non_integer_token(self, row):
        # a non-integer token is no token outside the vocabulary
        with pytest.raises(TypeError):
            write_tokens(io.StringIO(), [[1, 2], row], "arrival")

    def test_write_refuses_an_unknown_codec(self):
        buf = io.StringIO()
        with pytest.raises(ValueError, match="^unknown codec 'midi'$"):
            write_tokens(buf, [[1, 2]], "midi")
        assert buf.getvalue() == ""

    @pytest.mark.parametrize("empty", [[], ()])
    def test_write_refuses_empty_rows(self, empty):
        # a blank line reads as no row, so [[1], [], [2]] would read back as [[1], [2]]
        buf = io.StringIO()
        with pytest.raises(TokenError, match="row 1: an empty row"):
            write_tokens(buf, [[1], empty, [2]], "arrival")
        assert buf.getvalue().splitlines()[1:] == ["1"]

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(["arrival", "interarrival"]).flatmap(lambda codec: st.tuples(
        st.just(codec),
        # a row with no tokens is refused (test_write_refuses_empty_rows)
        st.lists(st.lists(st.integers(0, CODEC_VOCABS[codec].SIZE - 1), min_size=1, max_size=30),
                 max_size=5))))
    def test_write_then_read_round_trips(self, codec_rows):
        codec, rows = codec_rows
        buf = io.StringIO()
        write_tokens(buf, rows, codec)
        buf.seek(0)
        assert read_tokens(buf) == (codec, rows)

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(["arrival", "interarrival"]).flatmap(lambda codec: st.tuples(
        st.just(codec),
        st.lists(st.lists(st.integers(0, CODEC_VOCABS[codec].SIZE - 1), min_size=1, max_size=8),
                 max_size=5))),
        st.data())
    def test_written_rows_read_back_through_any_whitespace(self, codec_rows, data):
        """CRLF line ends, tabs, repeated spaces and surrounding whitespace
        leave the rows ``write_tokens`` writes (one-token rows too) as they were."""
        codec, rows = codec_rows
        buf = io.StringIO()
        write_tokens(buf, rows, codec)
        space = st.sampled_from([" ", "  ", "\t", " \t ", "\t\t"])
        edge = st.sampled_from(["", " ", "\t", " \t"])
        lines = [data.draw(edge) + "".join(data.draw(space) + field if i else field
                                           for i, field in enumerate(line.split(" ")))
                 + data.draw(edge) + data.draw(st.sampled_from(["\n", "\r\n"]))
                 for line in buf.getvalue().splitlines()]
        assert read_tokens(io.StringIO("".join(lines))) == (codec, rows)

    @staticmethod
    def _written(write, rows, codec):
        """The text ``write`` leaves, and its ``TokenError``'s message or None."""
        buf = io.StringIO()
        try:
            write(buf, rows, codec)
        except TokenError as exc:
            return buf.getvalue(), str(exc)
        return buf.getvalue(), None

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(["arrival", "interarrival"]).flatmap(lambda codec: st.tuples(
        st.just(codec),
        st.lists(st.tuples(
            st.lists(st.integers(0, CODEC_VOCABS[codec].SIZE - 1), min_size=1, max_size=6),
            st.sampled_from([list, tuple, np.array])), max_size=5),
        # the first bad row: negative, past the vocabulary or past int64 (a list)
        st.none() | st.tuples(st.integers(0, 5), st.sampled_from(
            [-1, -(2**70), CODEC_VOCABS[codec].SIZE, 2**63, 2**70])))))
    @example(("arrival", [([7], list), ([8], tuple), ([9], np.array), ([1, 2], np.array)], None))
    def test_write_matches_the_map_join_reference(self, case):
        codec, typed_rows, bad = case
        rows = [kind(tokens) for tokens, kind in typed_rows]
        if bad is not None:
            at, token = bad
            rows.insert(min(at, len(rows)), [1, token] if at % 2 else [token])
        written = self._written(write_tokens, rows, codec)
        assert written == self._written(reference_write_tokens, rows, codec)
        assert (written[1] is None) == (bad is None)


_FIELDS = st.one_of(
    st.integers(-5, 60_000).map(str),
    st.integers(10**18, 10**30).map(str),
    st.integers(1, 5_000).map(lambda n: "9" * n),  # past int's digit limit at 4 301
    st.sampled_from(["x", "1.5", "+3", "٣", "0x10", "1_0"]),
)
_HEADERS = st.builds(
    lambda codec, vocab: f"#codec={codec} vocab={vocab}",
    st.sampled_from(["arrival", "interarrival", "midi"]),
    st.one_of(st.sampled_from(["55028", "34025", "055028", "٥٥٠٢٨"]),
              st.integers(1, 5_000).map(lambda n: "5" * n),
              st.text("0123456789", max_size=8)),
)


def assert_one_int_per_token_id(rows) -> None:
    """Every token id in ``rows`` is held by one int object; the ids are
    above 256, past CPython's small-int cache, which would hide a failure."""
    tokens = [t for row in rows for t in row if t > 256]
    assert tokens and len({id(t) for t in tokens}) == len(set(tokens)) < len(tokens)


class TestSharedInts:
    """Bulk token rows hold one process-wide int object per token id."""

    # two events of one note and duration at one time: every token repeats
    events = EventSequence([Event(300, 400, 300), Event(300, 400, 300), Event(2300, 400, 300)])

    def test_encoders_and_packer_share_ints(self, rng):
        examples = pack_training_examples([random_events(rng, 400), self.events]).examples
        assert_one_int_per_token_id([
            encode_arrival(self.events), encode_arrival(self.events, z=AV.AAR),
            encode_interarrival(self.events), encode_interarrival(self.events, leading_sep=True),
            *(e.tokens for e in examples),
        ])

    def test_read_tokens_shares_ints_on_both_paths(self):
        # the second line has tabs, so it is re-joined from its fields
        text = "#codec=arrival vocab=55028\n300 11300 300 300\n300\t11300\t300\n"
        codec, rows = read_tokens(io.StringIO(text))
        assert rows == [[300, 11300, 300, 300], [300, 11300, 300]]
        assert_one_int_per_token_id(rows + [encode_arrival(self.events)])

    def test_read_tokens_keeps_a_pointer_per_token(self, rng, tmp_path):
        rows = rng.integers(257, AV.SIZE, size=(200, 1025))
        path = tmp_path / "rows.tok"
        with open(path, "w") as f:
            write_tokens(f, rows.tolist(), "arrival")
        read_tokens(io.StringIO("#codec=arrival vocab=55028\n1\n"))  # warms the shared table
        with open(path) as f:
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                _, read_back = read_tokens(f)
                kept = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
        assert read_back == rows.tolist()
        assert kept <= 12 * rows.size, f"{kept / rows.size:.1f} B per token"


class TestTokenFileFuzz:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        st.text(max_size=80),
        st.builds(lambda header, lines: "\n".join([header, *map(" ".join, lines)]),
                  _HEADERS, st.lists(st.lists(_FIELDS, max_size=6), max_size=4)),
    ))
    @example("#codec=arrival vocab=" + "5" * 5_000 + "\n1 2 3\n")
    def test_reads_or_raises_token_error(self, text):
        """Any text reads as in-vocabulary rows or raises TokenError."""
        try:
            codec, rows = read_tokens(io.StringIO(text))
        except TokenError:
            return
        size = AV.SIZE if codec == "arrival" else IV.SIZE
        assert all(0 <= token < size for row in rows for token in row)


def _reference_read_tokens(f):
    """The per-field token file reader that ``read_tokens`` must match: the
    header is one of the two written ones, whitespace aside; each line is
    split on whitespace, each field must be ASCII digits and is read by
    ``int``; blank lines are skipped."""
    header = f.readline()
    codec = {"#codec=arrival vocab=55028": "arrival",
             "#codec=interarrival vocab=34025": "interarrival"}.get(" ".join(header.split()))
    if codec is None:
        raise TokenError(f"missing or malformed token file header: {header[:80]!r}")
    size = CODEC_VOCABS[codec].SIZE
    rows = []
    for lineno, line in enumerate(f, start=2):
        fields = line.split()
        if not fields:
            continue
        for field in fields:
            if not (field.isascii() and field.isdigit()):
                raise TokenError(f"line {lineno}: {field[:80]!r} is not an unsigned decimal id")
        row = list(map(int, fields))
        if max(row) >= size:
            raise TokenError(f"line {lineno}: token {max(row)} "
                             f"outside the {codec} vocabulary of size {size}")
        rows.append(row)
    return codec, rows


_PIN_FIELDS = st.one_of(
    st.integers(0, AV.SIZE + 2).map(str),
    st.integers(-(10**21), 10**21).map(str),
    st.integers(0, 99).map(lambda n: f"{n:026d}"),
    st.sampled_from(["-", "+5", "007", "1_000", "٣", "x", "1.5"]),
)
_PIN_SEPARATORS = st.sampled_from([" ", " ", " ", "  ", "\t", "\x1c", "\x0b", " - "])


@st.composite
def _pin_lines(draw):
    fields = draw(st.lists(_PIN_FIELDS, max_size=5))
    line = "".join(draw(_PIN_SEPARATORS) + field for field in fields[1:])
    line = fields[0] + line if fields else ""
    edges = st.sampled_from(["", "", " ", "\t"])
    return draw(edges) + line + draw(edges) + draw(st.sampled_from(["\n", "\n", "\r\n"]))


class TestReadTokensMatchesPerFieldRule:
    """``read_tokens`` returns the rows of the per-field rule, as Python ints,
    or raises its error, with the same message and line: whitespace-separated
    ASCII-digit fields read as ``int`` reads them, and any other field is an
    error."""

    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from(["#codec=arrival vocab=55028\n", "#codec=interarrival vocab=34025\n"]),
           st.lists(_pin_lines(), max_size=5))
    @example("#codec=arrival vocab=55028\n", ["\n", " \n", "\t\n", "1 2\n"])
    @example("#codec=arrival vocab=55028\n", ["1 2 -\n"])
    @example("#codec=arrival vocab=55028\n", [" - 3\n"])
    @example("#codec=arrival vocab=55028\n", ["1 99999999999999999999\n"])
    @example("#codec=arrival vocab=55028\n", ["1 -99999999999999999999\n"])
    @example("#codec=arrival vocab=55028\n", ["1_000\n"])
    @example("#codec=arrival vocab=55028\n", ["٣ 4\n"])
    @example("#codec=arrival vocab=55028\n", ["1\x1c2\n"])
    @example("#codec=arrival vocab=55028\n", ["00000000000000000000000005 7\n"])
    @example("#codec=interarrival vocab=34025\n", ["1 2\r\n", "3\r\n"])
    @example("#codec=arrival vocab=55028\n", ["1 2\n", "3 4"])
    def test_same_rows_or_same_error(self, header, lines):
        text = header + "".join(lines)
        outcome = _outcome(read_tokens, io.StringIO(text))
        assert outcome == _outcome(_reference_read_tokens, io.StringIO(text))
        if isinstance(outcome[0], str):  # read: (codec, rows)
            assert all(type(token) is int for row in outcome[1] for token in row)


# -- columnar encoder against the per-event reference -----------------------


def _fields(item):
    """An item's time, duration, note and control flag."""
    return item.event.time, item.event.duration, item.event.note, item.control


def _reference_encode_arrival(seq, *, z=None):
    """The per-event arrival encoder the columnar one replaced."""
    items = InterleavedSequence.from_events(seq) if isinstance(seq, EventSequence) else seq
    tokens = []
    if z is not None:
        if z not in (AV.AR, AV.AAR):
            raise TokenError(f"control code must be AR or AAR, got {z}")
        tokens.append(z)
        tokens.extend([AV.SEP] * 3)
    for i, item in enumerate(items):
        tokens.extend(reference_event_triple(*_fields(item), i))
    return tokens


def _columns(items):
    """The items as a (4, n) int64 array of time, duration, note and control."""
    events = [item.event for item in items]
    return np.array(
        [[e.time for e in events], [e.duration for e in events], [e.note for e in events],
         [item.control for item in items]],
        dtype=np.int64,
    )


def _context_offset(items):
    """A context's offset: the minimum time of its items (0 for an empty context)."""
    return min((item.event.time for item in items), default=0)


def _reference_pack(sequences, *, context_length=1024):
    """The per-event packer the columnar one replaced: a stream of
    ``(item, flag)`` entries with ``None`` separators, encoded window by window."""
    triples_per_window = (context_length - 1) // 3
    stream = []
    for seq in sequences:
        stream.append(None)
        flag = seq.has_controls
        for item in seq:
            stream.append((item, flag))
    result = PackResult()
    result.n_tail_triples = len(stream) % triples_per_window
    for start in range(0, len(stream) - triples_per_window + 1, triples_per_window):
        window = stream[start : start + triples_per_window]
        first = next((i for i, entry in enumerate(window) if entry is not None), len(window))
        end = next((i for i in range(first, len(window)) if window[i] is None), len(window))
        offset = _context_offset(entry[0] for entry in window[first:end])
        z = AV.AAR if first < len(window) and window[first][1] else AV.AR
        tokens = [z]
        for i, entry in enumerate(window):
            if entry is None:
                tokens.extend([AV.SEP] * 3)
                continue
            item = entry[0]
            shift = offset if i < end else 0
            if item.event.time - shift >= MAX_TIME_UNITS:
                result.n_discarded += 1
                break
            tokens.extend(reference_event_triple(*_fields(item), i, shift))
        else:
            result.examples.append(TrainingExample(tuple(tokens)))
    return result


def _outcome(fn, *args, **kwargs):
    """The result of a call, or the type, message and index of its error."""
    try:
        result = fn(*args, **kwargs)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "index", None)
    if isinstance(result, PackResult):
        return ([e.tokens for e in result.examples], result.n_discarded,
                result.n_clamped_times, result.n_tail_triples)
    return result


@st.composite
def packing_streams(draw):
    """Interleaved streams with empty sequences, controls ahead of their
    events, rests and times near and past 10 000."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lengths = draw(st.lists(st.integers(0, 400), max_size=5))
    p_control = draw(st.sampled_from([0.0, 0.3, 1.0]))
    p_rest = draw(st.sampled_from([0.0, 0.1]))
    max_gap = draw(st.sampled_from([0, 30, 300, 12_000]))
    start = draw(st.sampled_from([0, 9_990, 20_000]))
    sequences = []
    for n in lengths:
        times = start + np.cumsum(rng.integers(0, max_gap + 1, size=n))
        items = []
        for t in times.tolist():
            control = bool(rng.random() < p_control)
            if not control and rng.random() < p_rest:
                items.append(TaggedEvent(Event(t, 0, REST)))
            else:
                lead = int(rng.integers(0, 600)) if control else 0
                event = Event(t + lead, int(rng.integers(0, 1000)), int(rng.integers(0, 16512)))
                items.append(TaggedEvent(event, control=control))
        sequences.append(unchecked_interleaved(items))
    return sequences


_tagged_items = st.builds(  # no rest is a control
    lambda time, duration, note, control: TaggedEvent(
        Event(time, 0 if note == REST else duration, note), control and note != REST),
    st.one_of(st.integers(0, 300), st.integers(9_950, 10_050), st.integers(0, 30_000)),
    st.integers(0, 999),
    st.one_of(st.integers(0, 16_511), st.just(REST)),
    st.booleans(),
)


class TestColumnarEncoder:
    @settings(max_examples=150, deadline=None)
    @given(packing_streams(), st.sampled_from([4, 7, 1024]))
    def test_pack_matches_per_event_reference(self, sequences, context_length):
        expected = _outcome(_reference_pack, sequences, context_length=context_length)
        actual = _outcome(pack_training_examples, iter(sequences), context_length=context_length)
        assert actual == expected

    @settings(max_examples=60, deadline=None)
    @given(packing_streams())
    def test_encode_matches_per_event_reference(self, sequences):
        for seq in sequences:
            for kwargs in ({}, {"z": AV.AAR}):
                expected = _outcome(_reference_encode_arrival, seq, **kwargs)
                assert _outcome(encode_arrival, seq, **kwargs) == expected
        assert _outcome(encode_arrival, EventSequence(), z=AV.SEP) == _outcome(
            _reference_encode_arrival, EventSequence(), z=AV.SEP)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_tagged_items, max_size=30), st.integers(-100, 20_000))
    def test_scalar_and_array_forms_agree_item_by_item(self, items, offset):
        def scalar():
            return [reference_event_triple(*_fields(item), i, offset) for i, item in enumerate(items)]

        def array():
            return _arrival_triples(_columns(items), offset).tolist()

        assert _outcome(array) == _outcome(scalar)
        for item in items:
            expected = _outcome(lambda: [reference_event_triple(*_fields(item), 0, offset)])
            assert _outcome(lambda: _arrival_triples(_columns([item]), offset).tolist()) == expected


def _reference_relativize(seq):
    """The per-item relativization the columnar one replaced."""
    offset = _context_offset(seq)
    if offset == 0:
        return seq
    return unchecked_interleaved(
        (TaggedEvent(Event(item.event.time - offset, item.event.duration, item.event.note),
                     item.control) for item in seq),
    )


class TestRelativizeSequence:
    @settings(max_examples=50, deadline=None)
    @given(packing_streams())
    def test_matches_per_item_reference(self, sequences):
        for seq in sequences:
            expected = list(_reference_relativize(seq))
            assert list(_relativize_sequence(seq)) == expected
            plain = seq.events()
            assert list(_relativize_sequence(plain)) == [
                item.event for item in _reference_relativize(InterleavedSequence.from_events(plain))]


def _reference_encode_interarrival(seq, *, leading_sep=False):
    """The per-event interarrival encoder the columnar one replaced."""
    if isinstance(seq, InterleavedSequence):
        if seq.has_controls:
            raise TokenError("interarrival codec does not support control events")
        seq = seq.events()
    items = []
    for i, event in enumerate(seq):
        if event.is_rest:
            raise TokenError("interarrival codec does not support rest events", i)
        items.append((event.time, 1, True, event.note))
        items.append((event.end, 0 if event.duration else 1, False, event.note))
    items.sort(key=lambda it: (it[0], it[1]))
    tokens = [IV.SEP] if leading_sep else []
    for i, (time, _, is_onset, note) in enumerate(items):
        tokens.append((IV.ONSET_BASE if is_onset else IV.OFFSET_BASE) + note)
        if i + 1 < len(items):
            gap = items[i + 1][0] - time
            full, rest = divmod(gap, IV.ONSET_BASE - 1)
            tokens.extend([IV.ONSET_BASE - 1] * full + ([rest] if rest else []))
    return tokens


class TestColumnarInterarrivalEncoder:
    @settings(max_examples=60, deadline=None)
    @given(packing_streams(), st.booleans())
    def test_matches_per_event_reference(self, sequences, leading_sep):
        for seq in sequences:
            for form in (seq, seq.events(), InterleavedSequence.from_events(seq.events())):
                expected = _outcome(_reference_encode_interarrival, form, leading_sep=leading_sep)
                assert _outcome(encode_interarrival, form, leading_sep=leading_sep) == expected


def _reference_decode_interarrival(tokens):
    """The per-token interarrival decoder the array one replaced, with a
    deque per note; its error index counts the leading SEPs it strips, so
    that it is the position in the caller's ``tokens``."""
    toks = list(tokens)
    lead = 0
    while toks and toks[0] == IV.SEP:
        toks = toks[1:]
        lead += 1
    while toks and toks[-1] == IV.SEP:
        toks = toks[:-1]

    now = 0
    open_onsets = {}
    decoded = []
    ordinal = 0
    for i, tok in enumerate(toks, start=lead):
        if IV.GAP_BASE <= tok < IV.ONSET_BASE:
            now += tok
        elif IV.ONSET_BASE <= tok < IV.OFFSET_BASE:
            open_onsets.setdefault(tok - IV.ONSET_BASE, deque()).append((now, ordinal))
            ordinal += 1
        elif IV.OFFSET_BASE <= tok < IV.SEP:
            note = tok - IV.OFFSET_BASE
            queue = open_onsets.get(note)
            if not queue:
                raise TokenError(f"offset for note {note} without an open onset", i)
            start, order = queue.popleft()
            decoded.append((order, Event(start, min(now - start, MAX_DURATION_UNITS - 1), note)))
        elif tok == IV.SEP:
            raise TokenError("unexpected SEP inside a sequence", i)
        else:
            raise TokenError(f"token {tok} outside the interarrival vocabulary", i)

    unclosed = sum(len(q) for q in open_onsets.values())
    if unclosed:
        log.warning("closing %d unclosed onsets at sequence end", unclosed)
        for note, queue in open_onsets.items():
            for start, order in queue:
                decoded.append((order, Event(start, min(now - start, MAX_DURATION_UNITS - 1), note)))
    decoded.sort(key=lambda pair: pair[0])
    return EventSequence(e for _, e in decoded)


# a few notes, so that offsets often find an open onset and notes overlap
_ia_notes = st.sampled_from([60, 61, 62]) | st.integers(0, 16511)
_ia_valid = st.one_of(
    st.integers(0, IV.ONSET_BASE - 1),  # gaps
    _ia_notes.map(lambda n: IV.ONSET_BASE + n),
    _ia_notes.map(lambda n: IV.ONSET_BASE + n),
    _ia_notes.map(lambda n: IV.OFFSET_BASE + n),
)
_ia_invalid = st.one_of(
    st.just(IV.SEP),
    st.sampled_from([-1, IV.SIZE, 2**63 - 1, 2**63, 2**64, -(2**64)]),
    st.integers(-(2**70), -1),
    st.integers(IV.SIZE, 2**70),
)


@st.composite
def interarrival_token_lists(draw):
    """Onsets and offsets of a few notes between gaps, with leading,
    interior and trailing SEPs, stray offsets, unclosed onsets, negative
    tokens and tokens past int64."""
    body = draw(st.lists(_ia_valid, max_size=30) | st.lists(_ia_valid | _ia_invalid, max_size=30))
    leading = draw(st.integers(0, 2))
    trailing = draw(st.integers(0, 2))
    return [IV.SEP] * leading + body + [IV.SEP] * trailing


class TestArrayInterarrivalDecoder:
    @settings(max_examples=400, deadline=None)
    @given(interarrival_token_lists())
    def test_matches_per_token_reference(self, tokens):
        expected = _outcome(_reference_decode_interarrival, tokens)
        assert _outcome(decode_interarrival, tokens) == expected

    def test_round_trip_matches_reference(self, rng):
        for _ in range(20):
            tokens = encode_interarrival(random_events(rng, 60, max_duration=999), leading_sep=True)
            assert decode_interarrival(tokens) == _reference_decode_interarrival(tokens)

    def test_error_index_is_the_callers_position(self):
        with pytest.raises(TokenError) as err:
            decode_interarrival([IV.SEP, 17572])
        assert err.value.index == 1
        with pytest.raises(TokenError, match="unexpected SEP") as err:
            decode_interarrival([IV.SEP, IV.SEP, 1060, IV.SEP, 1060, IV.SEP])
        assert err.value.index == 3
        with pytest.raises(TokenError, match=rf"token {2**64} outside") as err:
            decode_interarrival([IV.SEP, 1060, 5, 2**64])
        assert err.value.index == 3


# -- array decoder against the per-triple reference -------------------------


def _reference_decode_arrival(tokens):
    """The per-triple arrival decoder the array one replaced."""
    toks = list(tokens)
    if toks and toks[0] in (AV.AR, AV.AAR):
        toks = toks[1:]
    if len(toks) % 3:
        raise TokenError(f"token count {len(toks)} is not a multiple of 3")

    segments = []
    current = []
    last = {}  # the last time of each stream in the current segment
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
            segments.append(unchecked_interleaved(current))
            current = []
            last = {}
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
        item = current[-1]
        if item.event.time < last.get(item.control, 0):
            kind = "control" if item.control else "plain event"
            raise TokenError(f"{kind} time {item.event.time} is earlier than the one before it "
                             "in its stream", triple_index)
        last[item.control] = item.event.time
    segments.append(unchecked_interleaved(current))
    return segments


def _span(low, high):
    return st.integers(low, high - 1)


# any integer a caller may pass: in range, negative, at SIZE, past int64
_wild_tokens = st.one_of(
    _span(0, AV.SIZE),
    st.sampled_from([AV.SEP, AV.REST, AV.AR, AV.AAR, AV.SIZE, -1, 2**63 - 1, 2**63, 2**64]),
    st.integers(-(2**70), -1),
    st.integers(AV.SIZE, 2**70),
)
_plain_time = _span(AV.TIME_BASE, AV.DUR_BASE)
_valid_triples = st.one_of(
    st.tuples(_plain_time, _span(AV.DUR_BASE, AV.NOTE_BASE), _span(AV.NOTE_BASE, AV.REST)),
    st.tuples(_plain_time, st.just(AV.DUR_BASE), st.just(AV.REST)),
    st.tuples(_span(AV.ANT_TIME_BASE, AV.ANT_DUR_BASE), _span(AV.ANT_DUR_BASE, AV.ANT_NOTE_BASE),
              _span(AV.ANT_NOTE_BASE, AV.SEP)),
    st.just((AV.SEP,) * 3),
)
_invalid_triples = st.one_of(
    st.tuples(st.sampled_from([(1, 0, 0), (0, 1, 1), (1, 1, 0), (0, 0, 1)]),
              st.tuples(_wild_tokens, _wild_tokens, _wild_tokens)).map(
        lambda pair: tuple(AV.SEP if sep else tok for sep, tok in zip(*pair))),  # partial SEP
    st.tuples(_plain_time, _span(AV.DUR_BASE + 1, AV.NOTE_BASE), st.just(AV.REST)),
    st.tuples(_plain_time, _span(AV.DUR_BASE, AV.NOTE_BASE), _wild_tokens),  # non-note third
    st.tuples(_wild_tokens, _wild_tokens, _wild_tokens),  # mixed ranges
)


@st.composite
def arrival_token_lists(draw):
    """Token lists with an optional AR/AAR prefix, valid and malformed
    triples (leading, consecutive and trailing SEP triples among them), and
    sometimes a count that is not a multiple of 3."""
    triples = draw(st.lists(_valid_triples, max_size=12)
                   | st.lists(_valid_triples | _invalid_triples, max_size=12))
    prefix = draw(st.sampled_from([[], [AV.AR], [AV.AAR]]))
    ragged = draw(st.sampled_from([False] * 9 + [True]))
    tail = draw(st.lists(_wild_tokens, min_size=1, max_size=2)) if ragged else []
    return prefix + [tok for triple in triples for tok in triple] + tail


class TestArrayDecoder:
    @settings(max_examples=300, deadline=None)
    @given(arrival_token_lists())
    def test_matches_per_triple_reference(self, tokens):
        expected = _outcome(_reference_decode_arrival, tokens)
        assert _outcome(decode_arrival, tokens) == expected

    def test_tokens_past_int64_name_the_callers_values(self):
        with pytest.raises(TokenError, match=rf"mixed-range triple \(0, {2**64}, -1\) \(index 1\)"):
            decode_arrival([AV.AR, 0, AV.DUR_BASE, AV.NOTE_BASE, 0, 2**64, -1])
        with pytest.raises(TokenError, match=rf"token {2**63} is not a note token \(index 0\)"):
            decode_arrival([0, AV.DUR_BASE, 2**63])


_fuzz_tokens = st.lists(
    st.one_of(st.integers(-(2**70), 2**70), _span(-2, AV.SIZE + 2), _span(-2, IV.SIZE + 2),
              st.sampled_from([2**63, 2**64])),
    max_size=40,
)


class TestDecoderFuzz:
    # arbitrary integers either decode or raise TokenError, never another error

    @settings(max_examples=300, deadline=None)
    @given(_fuzz_tokens)
    def test_decode_arrival(self, tokens):
        try:
            decode_arrival(tokens)
        except TokenError:
            pass

    @settings(max_examples=300, deadline=None)
    @given(_fuzz_tokens)
    def test_decode_interarrival(self, tokens):
        try:
            decode_interarrival(tokens)
        except TokenError:
            pass


class TestGrammar:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, MAX_TIME_UNITS - 1).flatmap(lambda min_time: st.tuples(*(
        st.sampled_from(slot).flatmap(lambda r: st.integers(r[0], r[1] - 1))
        for slot in _slot_ranges(min_time)))).filter(lambda triple: triple[0] != AV.SEP),
        st.integers(0, 10**6))
    def test_decode_triple_matches_decode_arrival(self, triple, offset):
        """Every non-SEP triple drawn from the slot ranges decodes as
        ``decode_arrival`` decodes it once a rest's duration token is zero."""
        time_tok, duration_tok, note_tok = triple
        if note_tok == AV.REST:
            duration_tok = AV.DUR_BASE
        (segment,) = decode_arrival([time_tok, duration_tok, note_tok])
        (item,) = segment
        event, context = _decode_triple(*triple, offset)
        assert not item.control
        assert event == (item.event.time + offset, item.event.duration, item.event.note)
        assert context == [time_tok, duration_tok, note_tok]


_LAYOUT_FREE = {"ArrivalVocab": {"SIZE", "SEP", "AR", "AAR"}, "InterarrivalVocab": {"SIZE", "SEP"}}
_VOCABULARY_FREE = {"metrics.py"}  # takes codes and roles from the tokenizer's row function


def test_only_the_tokenizer_knows_the_token_layout():
    """Outside ``tokenizer.py`` and ``vocab.py`` no module reads a base,
    offset or range test of either vocabulary, only sizes and codes; the
    modules in ``_VOCABULARY_FREE`` import nothing from ``vocab`` and read
    no vocabulary name at all."""
    package = Path(anticipate.__file__).parent
    either = _LAYOUT_FREE["ArrivalVocab"] & _LAYOUT_FREE["InterarrivalVocab"]
    reads = []
    for path in sorted(package.glob("*.py")):
        if path.name in ("tokenizer.py", "vocab.py"):
            continue
        tree = ast.parse(path.read_text())
        aliases = {alias.asname or alias.name: alias.name
                   for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                   for alias in node.names}
        if path.name in _VOCABULARY_FREE:
            names = {*_LAYOUT_FREE, "CODEC_VOCABS"}
            reads += [f"{path.name}:{node.lineno} {ast.unparse(node)}" for node in ast.walk(tree)
                      if isinstance(node, ast.ImportFrom) and node.module == "vocab"
                      or aliases.get(getattr(node, "id", None)) in names
                      or getattr(node, "attr", None) in names]
            continue
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute):
                continue
            value = node.value
            if isinstance(value, ast.Name) and aliases.get(value.id) in _LAYOUT_FREE:
                allowed = _LAYOUT_FREE[aliases[value.id]]
            elif isinstance(value, ast.Attribute) and value.attr in _LAYOUT_FREE:
                allowed = _LAYOUT_FREE[value.attr]
            elif (isinstance(value, ast.Subscript) and isinstance(value.value, ast.Name)
                  and aliases.get(value.value.id) == "CODEC_VOCABS"):
                allowed = either
            else:
                continue
            if node.attr not in allowed:
                reads.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
    assert reads == []
