"""Codecs: golden vectors, range discipline, round-trips, packing rules."""

from __future__ import annotations

import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from anticipate import golden
from anticipate.events import (
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
    _columns,
    _context_offset,
    _event_triple,
    decode_arrival,
    decode_arrival_single,
    decode_interarrival,
    encode_arrival,
    encode_interarrival,
    pack_training_examples,
    read_tokens,
    write_tokens,
)
from anticipate.vocab import ArrivalVocab as AV
from anticipate.vocab import InterarrivalVocab as IV

from conftest import random_events


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
        tokens = encode_arrival(golden.twinkle_events(), z=AV.AR, leading_sep=True)
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
        seq = InterleavedSequence([TaggedEvent(Event(5, 0, REST), control=True)])
        with pytest.raises(TokenError):
            encode_arrival(seq)


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

    def test_gap_clamped_at_10s(self):
        seq = EventSequence([Event(0, 1, 60), Event(5000, 1, 61)])
        tokens = encode_interarrival(seq)
        assert 999 in tokens and 4999 not in tokens


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
        seq = InterleavedSequence(
            [TaggedEvent(e, control=bool(rng.integers(2))) for e in events], check=False
        )
        assert len(encode_arrival(seq)) == 3 * len(seq)
        assert len(encode_arrival(seq, z=AV.AAR, leading_sep=True)) == 3 * len(seq) + 4


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
            seq = InterleavedSequence(
                [TaggedEvent(e, control=bool(m)) for e, m in zip(events, mask)], check=False
            )
            assert decode_arrival(encode_arrival(seq)) == [seq]

    def test_interarrival_roundtrip_bulk(self, rng):
        # start-anchored sequences: the codec has no absolute time reference
        for _ in range(200):
            seq = random_events(
                rng, int(rng.integers(0, 60)), avoid_note_overlap=True, start_at_zero=True
            )
            assert decode_interarrival(encode_interarrival(seq)) == seq

    def test_multi_segment_roundtrip(self):
        a = InterleavedSequence([TaggedEvent(Event(0, 1, 60))])
        b = InterleavedSequence([TaggedEvent(Event(5, 1, 61), control=True)])
        tokens = (
            encode_arrival(a, leading_sep=True)
            + [AV.SEP] * 3
            + encode_arrival(b)
        )
        assert decode_arrival(tokens) == [a, b]

    def test_decode_single_helper(self):
        tokens = encode_arrival(golden.twinkle_events(), z=AV.AR, leading_sep=True)
        assert decode_arrival_single(tokens).events() == golden.twinkle_events()


def _triples(n, start=0, step=10, control=False):
    return InterleavedSequence(
        [TaggedEvent(Event(start + i * step, 1, 60), control=control) for i in range(n)],
        check=False,
    )


class TestPacking:
    def test_single_full_window_with_controls_starts_aar(self):
        # 340 event triples plus the leading separator make exactly 341
        seq = _triples(340, control=True)
        result = pack_training_examples([seq])
        assert len(result.examples) == 1
        example = result.examples[0]
        assert example.z == AV.AAR
        assert len(example) == 1024
        assert list(example.tokens[1:4]) == [AV.SEP] * 3

    def test_plain_window_starts_ar(self):
        result = pack_training_examples([_triples(340)])
        assert result.examples[0].z == AV.AR

    def test_z_describes_segment_before_first_sep(self):
        # window: tail of a control-free sequence, SEP, controls afterwards
        first = _triples(100)
        second = _triples(239, control=True)
        result = pack_training_examples([first, second])
        assert len(result.examples) == 1  # 1 + 100 + 1 + 239 = 341 triples
        assert result.examples[0].z == AV.AR

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
                seq = InterleavedSequence(
                    [TaggedEvent(e, control=bool(m)) for e, m in zip(events, mask)],
                    check=False,
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
                assert example.z == expected_z

    def test_window_leading_control_relativized_by_min_time(self):
        # A sequence may open with a control whose time is ahead of the
        # events that follow it; the window is relativized by its minimum
        # time, so nothing goes negative and event times stay distinct.
        head = _triples(340)
        tail = InterleavedSequence(
            [TaggedEvent(Event(500, 1, 60), control=True)]
            + [TaggedEvent(Event(300 + 10 * i, 1, 60)) for i in range(340)],
            check=False,
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

    def test_missing_header(self):
        with pytest.raises(TokenError):
            read_tokens(io.StringIO("1 2 3\n"))

    def test_non_integer_field_names_its_line(self):
        with pytest.raises(TokenError, match="line 3"):
            read_tokens(io.StringIO("#codec=arrival vocab=55028\n1 2 3\n4 x 6\n"))

    @pytest.mark.parametrize("token", ["99999999999999999999", "55028", "-1"])
    def test_token_outside_vocabulary_names_its_line(self, token):
        text = f"#codec=arrival vocab=55028\n1 2 3\n\n4 {token} 6\n"
        with pytest.raises(TokenError, match=f"line 4: token {token} outside"):
            read_tokens(io.StringIO(text))

    def test_interarrival_vocabulary_bounds_its_tokens(self):
        with pytest.raises(TokenError, match="line 2"):
            read_tokens(io.StringIO("#codec=interarrival vocab=34025\n34025\n"))
        assert read_tokens(io.StringIO("#codec=interarrival vocab=34025\n34024 0\n"))[1] == [[34024, 0]]


# -- columnar encoder against the per-event reference -----------------------


def _reference_encode_arrival(seq, *, z=None, leading_sep=False):
    """The per-event arrival encoder the columnar one replaced."""
    items = InterleavedSequence.from_events(seq) if isinstance(seq, EventSequence) else seq
    tokens = []
    if z is not None:
        if z not in (AV.AR, AV.AAR):
            raise TokenError(f"control code must be AR or AAR, got {z}")
        tokens.append(z)
    if leading_sep:
        tokens.extend([AV.SEP] * 3)
    for i, item in enumerate(items):
        tokens.extend(_event_triple(item.event, item.control, i))
    return tokens


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
            tokens.extend(_event_triple(item.event, item.control, i, shift))
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
    events, rests, times near and past 10 000, and at most one rest marked
    as a control."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lengths = draw(st.lists(st.integers(0, 400), max_size=5))
    p_control = draw(st.sampled_from([0.0, 0.3, 1.0]))
    p_rest = draw(st.sampled_from([0.0, 0.1]))
    max_gap = draw(st.sampled_from([0, 30, 300, 12_000]))
    start = draw(st.sampled_from([0, 9_990, 20_000]))
    bad_rest = draw(st.none() | st.integers(0, sum(lengths)))
    sequences, index = [], 0
    for n in lengths:
        times = start + np.cumsum(rng.integers(0, max_gap + 1, size=n))
        items = []
        for t in times.tolist():
            control = bool(rng.random() < p_control)
            if index == bad_rest:
                items.append(TaggedEvent(Event(t, 0, REST), control=True))
            elif not control and rng.random() < p_rest:
                items.append(TaggedEvent(Event(t, 0, REST)))
            else:
                lead = int(rng.integers(0, 600)) if control else 0
                event = Event(t + lead, int(rng.integers(0, 1000)), int(rng.integers(0, 16512)))
                items.append(TaggedEvent(event, control=control))
            index += 1
        sequences.append(InterleavedSequence(items, check=False))
    return sequences


_tagged_items = st.builds(
    lambda time, duration, note, control: TaggedEvent(
        Event(time, 0 if note == REST else duration, note), control),
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
            for kwargs in ({}, {"z": AV.AAR, "leading_sep": True}):
                expected = _outcome(_reference_encode_arrival, seq, **kwargs)
                assert _outcome(encode_arrival, seq, **kwargs) == expected
        assert _outcome(encode_arrival, EventSequence(), z=AV.SEP) == _outcome(
            _reference_encode_arrival, EventSequence(), z=AV.SEP)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_tagged_items, max_size=30), st.integers(-100, 20_000))
    def test_scalar_and_array_forms_agree_item_by_item(self, items, offset):
        def scalar():
            return [_event_triple(item.event, item.control, i, offset)
                    for i, item in enumerate(items)]

        def array():
            return _arrival_triples(_columns(items), offset).tolist()

        assert _outcome(array) == _outcome(scalar)
        for item in items:
            expected = _outcome(lambda: [_event_triple(item.event, item.control, 0, offset)])
            assert _outcome(lambda: _arrival_triples(_columns([item]), offset).tolist()) == expected

    def test_first_invalid_item_decides_discard_or_error(self):
        # [SEP, e@0, e@10000, rest-control@5000]: the time comes first, so the
        # window is discarded; swapping the last two items makes it an error.
        plain, late = TaggedEvent(Event(0, 1, 60)), TaggedEvent(Event(10_000, 1, 60))
        rest_control = TaggedEvent(Event(5_000, 0, REST), control=True)
        discarded = [InterleavedSequence([plain, late, rest_control], check=False)]
        rejected = [InterleavedSequence([plain, rest_control, late], check=False)]
        result = pack_training_examples(discarded, context_length=13)
        assert (result.examples, result.n_discarded) == ([], 1)
        with pytest.raises(TokenError, match=r"rest events cannot be controls \(index 2\)"):
            pack_training_examples(rejected, context_length=13)
        for sequences in (discarded, rejected):
            expected = _outcome(_reference_pack, sequences, context_length=13)
            assert _outcome(pack_training_examples, sequences, context_length=13) == expected
