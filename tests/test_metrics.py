"""Loss accounting: slot bucketing, perplexity decomposition, bits/second."""

from __future__ import annotations

import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from anticipate import golden
from anticipate.events import REST, Event, EventSequence, InterleavedSequence, TaggedEvent
from anticipate.metrics import (
    CorpusStats,
    LossReport,
    bits_per_second,
    corpus_stats,
    cross_entropy,
    format_report,
    report_row,
)
from anticipate.predictor import Distribution, ReplayPredictor
from anticipate.tokenizer import TokenError, decode_arrival, encode_arrival, encode_interarrival
from anticipate.vocab import ArrivalVocab as AV
from anticipate.vocab import InterarrivalVocab as IV

from conftest import UniformPredictor


class TestCrossEntropy:
    def test_perfect_replay_zero_nats(self):
        row = encode_arrival(golden.twinkle_events())
        replay = ReplayPredictor(row, AV.SIZE, AV.SEP)
        report = cross_entropy(replay, [row], "arrival")
        assert report.nats_event == 0.0
        assert report.n_events == 14

    def test_uniform_is_log_vocab(self):
        row = encode_arrival(golden.twinkle_events())
        report = cross_entropy(UniformPredictor(AV.SIZE), [row], "arrival")
        assert report.nats_per_token == pytest.approx(math.log(55_028), rel=1e-12)

    def test_decomposition_identity(self):
        row = encode_arrival(golden.twinkle_events())
        report = cross_entropy(UniformPredictor(AV.SIZE), [row], "arrival")
        assert report.nats_event == report.nats_time + report.nats_duration + report.nats_note
        assert report.ppl_event == pytest.approx(
            report.ppl_time * report.ppl_duration * report.ppl_note, rel=1e-9
        )

    def test_control_tokens_bucketed_separately(self):
        seq = InterleavedSequence(
            [TaggedEvent(Event(0, 1, 60)), TaggedEvent(Event(10, 1, 61), control=True)]
        )
        row = encode_arrival(seq)
        report = cross_entropy(UniformPredictor(AV.SIZE), [row], "arrival")
        assert report.n_events == 1
        assert report.n_control_tokens == 3
        assert report.nats_control == pytest.approx(3 * math.log(55_028))

    def test_sep_reported_separately(self):
        row = encode_arrival(golden.twinkle_events(), z=AV.AR)
        report = cross_entropy(UniformPredictor(AV.SIZE), [row], "arrival")
        assert report.n_sep_tokens == 3
        assert report.n_events == 14  # z excluded entirely
        assert report.nats_per_token_with_sep > 0

    def test_zero_probability_flagged(self):
        row = encode_arrival(golden.twinkle_events())
        wrong = list(row)
        wrong[3] = row[3] + 1  # replay emits row, we score a different token
        replay = ReplayPredictor(row, AV.SIZE, AV.SEP)
        report = cross_entropy(replay, [wrong], "arrival")
        assert report.infinite_positions == [(0, 3)]
        assert math.isinf(report.nats_event)

    def test_interarrival_single_bucket(self):
        row = encode_interarrival(golden.twinkle_events())
        report = cross_entropy(UniformPredictor(IV.SIZE), [row], "interarrival")
        assert report.n_events == len(row)
        assert report.nats_per_token == pytest.approx(math.log(34_025))

    def test_ragged_arrival_row_rejected(self):
        with pytest.raises(ValueError):
            cross_entropy(UniformPredictor(AV.SIZE), [[0, 10_000]], "arrival")

    @pytest.mark.parametrize("row", [
        [0, 10_000], [AV.AAR, 0], [1, AV.DUR_BASE + 1, AV.NOTE_BASE + 1, 5],
    ])
    def test_row_of_partial_triples_raises_decode_arrivals_error(self, row):
        with pytest.raises(TokenError) as decoded:
            decode_arrival(row)
        recorder = _Recorder()
        with pytest.raises(TokenError) as scored:
            cross_entropy(recorder, [[AV.AR], row], "arrival")
        assert str(scored.value) == f"row 1: {decoded.value}"
        body = len(row) - (row[0] == AV.AAR)
        assert str(decoded.value) == f"token count {body} is not a multiple of 3"
        assert recorder.calls == []

    def test_packed_rows_use_their_own_control_code(self):
        from anticipate.events import TaggedEvent
        from anticipate.tokenizer import pack_training_examples

        seq = InterleavedSequence(
            [TaggedEvent(Event(i * 10, 1, 60), control=bool(i % 2)) for i in range(340)]
        )
        example = pack_training_examples([seq]).examples[0]
        assert example.tokens[0] == AV.AAR
        report = cross_entropy(UniformPredictor(AV.SIZE), [list(example.tokens)], "arrival")
        # z excluded; SEP triple and control triples bucketed separately
        assert report.n_sep_tokens == 3
        assert report.n_control_tokens == 3 * 170
        assert report.n_events == 170
        total_scored = 3 * report.n_events + report.n_sep_tokens + report.n_control_tokens
        assert total_scored == len(example) - 1


class _Recorder(UniformPredictor):
    """Records a copy of every (z, context) it receives."""

    def __init__(self):
        super().__init__(AV.SIZE)
        self.calls: list[tuple[int | None, list[int]]] = []
        self.lists: list[list[int]] = []

    def next_distribution(self, z, context):
        self.calls.append((z, list(context)))
        self.lists.append(context)
        return super().next_distribution(z, context)


def test_cross_entropy_passes_each_row_as_one_growing_context():
    plain = encode_arrival(golden.twinkle_events())
    rows = [[AV.AAR, *plain[:9]], plain[:6]]
    recorder = _Recorder()
    cross_entropy(recorder, rows, "arrival")
    expected = [(AV.AAR, plain[:i]) for i in range(9)] + [(AV.AR, plain[:i]) for i in range(6)]
    assert recorder.calls == expected
    # one list per row, extended in place rather than copied per position
    assert all(c is recorder.lists[0] for c in recorder.lists[:9])
    assert all(c is recorder.lists[9] for c in recorder.lists[9:])


@pytest.mark.parametrize("codec, size", [("arrival", AV.SIZE), ("interarrival", IV.SIZE)])
@pytest.mark.parametrize("token", [-1, "size"])
def test_out_of_vocabulary_token_rejected_before_its_row(codec, size, token):
    token = size if token == "size" else token
    good = [1, AV.DUR_BASE + 1, AV.NOTE_BASE + 1] if codec == "arrival" else [5, IV.ONSET_BASE]
    bad = good[:2] + [token] + good[3:]
    recorder = _Recorder()
    recorder.vocab_size = size
    with pytest.raises(TokenError, match=f"row 1: token {token} at position 2 outside "
                                         f"the predictor's vocabulary of size {size}"):
        cross_entropy(recorder, [good, bad], codec)
    assert len(recorder.calls) == len(good)  # the bad row is never scored


@pytest.mark.parametrize("codec, size, other", [
    ("arrival", IV.SIZE, AV.SIZE), ("interarrival", AV.SIZE, IV.SIZE),
])
def test_a_predictor_of_another_codec_is_refused_before_any_call(codec, size, other):
    # unchecked, the other codec's rows would be scored and give a plausible loss
    encode = encode_arrival if codec == "arrival" else encode_interarrival
    recorder = _Recorder()
    recorder.vocab_size = size
    with pytest.raises(TokenError, match=rf"^row 0: predictor vocabulary {size} does not "
                                         rf"match the {codec} vocabulary \({other}\)$"):
        cross_entropy(recorder, [encode(golden.twinkle_events())], codec)
    assert recorder.calls == []


@pytest.mark.parametrize("triple", [
    (0, AV.SEP, AV.ANT_NOTE_BASE + 60),  # event, SEP and control
    (0, AV.DUR_BASE, AV.SEP),  # event and SEP
    (AV.SEP, AV.SEP, AV.AR),  # SEP and a code
    (AV.ANT_TIME_BASE, AV.DUR_BASE, AV.ANT_NOTE_BASE),  # control and event
    (AV.AR, AV.AR, AV.AR),  # codes inside a triple
    (AV.DUR_BASE, AV.DUR_BASE, AV.NOTE_BASE),  # a duration in the time slot
    (0, AV.DUR_BASE, AV.DUR_BASE + 5),  # a duration in the note slot
    (0, AV.DUR_BASE + 5, AV.REST),  # a rest with a duration
    (AV.ANT_TIME_BASE, AV.ANT_DUR_BASE, AV.REST),  # a control rest
])
def test_mixed_arrival_triple_rejected_before_its_row(triple):
    # scoring such a triple would give its tokens roles decoding refuses
    good = [AV.AR, 1, AV.DUR_BASE + 1, AV.NOTE_BASE + 1]
    with pytest.raises(TokenError) as decoded:
        decode_arrival(good + list(triple))
    recorder = _Recorder()
    with pytest.raises(TokenError) as scored:
        cross_entropy(recorder, [good, good + list(triple)], "arrival")
    assert str(scored.value) == f"row 1: {decoded.value}"
    assert len(recorder.calls) == len(good) - 1  # the bad row is never scored


def _reference_cross_entropy(predictor, rows, codec) -> LossReport:
    """The per-token loop that ``cross_entropy`` replaced, with its per-token
    slot classification; kept as the reference it must match bit for bit."""

    def slot_of_arrival(token, slot):
        if token == AV.SEP:
            return "sep"
        if AV.ANT_TIME_BASE <= token < AV.SEP:
            return "control"
        return ("time", "duration", "note")[slot]

    z = AV.AR if codec == "arrival" else None
    report = LossReport(codec)
    for row_index, row in enumerate(rows):
        tokens = list(row)
        row_z = z
        if codec == "arrival" and tokens and tokens[0] in (AV.AR, AV.AAR):
            row_z = tokens[0]
            tokens = tokens[1:]
        if codec == "arrival" and len(tokens) % 3:
            raise TokenError(f"row {row_index}: token count {len(tokens)} is not a multiple of 3")
        if codec == "arrival":
            for k in range(len(tokens) // 3):
                a, b, c = triple = tuple(tokens[3 * k:3 * k + 3])
                timed = AV.is_plain_time(a) and AV.is_plain_duration(b)
                if (triple == (AV.SEP,) * 3
                        or AV.is_control_time(a) and AV.is_control_duration(b)
                        and AV.is_control_note(c)
                        or timed and (b == AV.DUR_BASE if c == AV.REST else AV.is_plain_note(c))):
                    continue
                if AV.SEP in triple:
                    message = "partial SEP triple"
                elif timed and c == AV.REST:
                    message = "rest triple with nonzero duration"
                elif timed:
                    message = f"token {c} is not a note token"
                else:
                    message = f"mixed-range triple ({a}, {b}, {c})"
                raise TokenError(f"row {row_index}: {message} (index {k})")
        context: list[int] = []
        for position, token in enumerate(tokens):
            dist = np.asarray(predictor.next_distribution(row_z, context))
            context.append(token)
            p = float(dist[token])
            if p <= 0.0:
                report.infinite_positions.append((row_index, position))
                nats = math.inf
            else:
                nats = -math.log(p)
            if codec == "arrival":
                slot = slot_of_arrival(token, position % 3)
            else:
                slot = "sep" if token == IV.SEP else "event"
            if slot == "sep":
                report.nats_sep += nats
                report.n_sep_tokens += 1
            elif slot == "control":
                report.nats_control += nats
                report.n_control_tokens += 1
            elif codec == "arrival":
                if slot == "time":
                    report.nats_time += nats
                    report.n_events += 1
                elif slot == "duration":
                    report.nats_duration += nats
                else:
                    report.nats_note += nats
            else:
                report.nats_time += nats
                report.n_events += 1
    return report


class _Shifting:
    """Test double: a fixed random distribution with every 13th token at
    zero, rolled by the context's length and last token and by ``z``; its
    nonzero tokens are the support and the zeros the background."""

    def __init__(self, vocab_size: int):
        self.vocab_size = vocab_size
        self.context_length = 1024
        base = np.random.default_rng(7).random(vocab_size)
        base[::13] = 0.0
        self._base = base / base.sum()

    def next_distribution(self, z, context):
        shift = 31 * len(context) + (context[-1] if context else 0) + (z or 0)
        dist = np.roll(self._base, shift)
        support = np.flatnonzero(dist)
        return Distribution(support, dist[support], 0.0, self.vocab_size)


_SHIFTING = {size: _Shifting(size) for size in (AV.SIZE, IV.SIZE)}


def _span(low, high):
    return st.integers(low, high - 1)


_arrival_triple = st.one_of(
    st.tuples(_span(0, AV.DUR_BASE), _span(AV.DUR_BASE, AV.NOTE_BASE),
              _span(AV.NOTE_BASE, AV.REST + 1)),
    st.tuples(_span(AV.ANT_TIME_BASE, AV.ANT_DUR_BASE), _span(AV.ANT_DUR_BASE, AV.ANT_NOTE_BASE),
              _span(AV.ANT_NOTE_BASE, AV.SEP)),
    st.just((AV.SEP,) * 3),
    st.tuples(_span(0, AV.DUR_BASE), _span(AV.DUR_BASE, AV.NOTE_BASE), st.just(AV.REST)),
    # any tokens, AR and AAR included, in any slot
    st.tuples(*[st.one_of(_span(0, AV.SIZE), st.sampled_from([AV.SEP, AV.AR, AV.AAR]))] * 3),
)
_arrival_row = st.tuples(
    st.sampled_from([[], [AV.AR], [AV.AAR]]), st.lists(_arrival_triple, max_size=8),
).map(lambda parts: parts[0] + [token for triple in parts[1] for token in triple])
_interarrival_row = st.lists(st.one_of(_span(0, IV.SIZE), st.just(IV.SEP)), max_size=24)


def _exact(score, *args):
    """The report's fields, floats as their exact hex, or the error's type
    and message."""
    try:
        report = score(*args)
    except ValueError as exc:
        return type(exc), str(exc)
    return {k: v.hex() if isinstance(v, float) else v for k, v in asdict(report).items()}


@settings(max_examples=60, deadline=None)
@given(st.one_of(
    st.tuples(st.just("arrival"), st.lists(_arrival_row, max_size=3)),
    st.tuples(st.just("interarrival"), st.lists(_interarrival_row, max_size=3)),
))
def test_cross_entropy_matches_the_per_token_reference(codec_rows):
    codec, rows = codec_rows
    predictor = _SHIFTING[AV.SIZE if codec == "arrival" else IV.SIZE]
    expected = _exact(_reference_cross_entropy, predictor, rows, codec)
    assert _exact(cross_entropy, predictor, rows, codec) == expected


class TestPerplexities:
    def test_reference_decomposition(self):
        # slot perplexities 1.59 / 3.90 / 2.40 multiply to the event value
        n = 1000
        report = LossReport(
            "arrival",
            n_events=n,
            nats_time=n * math.log(1.59),
            nats_duration=n * math.log(3.90),
            nats_note=n * math.log(2.40),
        )
        assert report.ppl_time == pytest.approx(1.59)
        assert report.ppl_event == pytest.approx(14.9, abs=0.1)
        assert report.ppl_event == pytest.approx(
            report.ppl_time * report.ppl_duration * report.ppl_note, rel=0.005
        )


class TestBitsPerSecond:
    def test_reference_conversion(self):
        stats = CorpusStats(125_050_497, 560.98 * 3600.0)
        bps = bits_per_second(math.log(14.9) / 3.0, stats)
        assert bps == pytest.approx(80.4, abs=0.1)

    def test_zero_loss(self):
        assert bits_per_second(0.0, CorpusStats(100, 10.0)) == 0.0

    def test_linear_in_loss_and_tokens(self):
        stats = CorpusStats(1000, 50.0)
        base = bits_per_second(1.0, stats)
        assert bits_per_second(2.0, stats) == pytest.approx(2 * base, rel=1e-12)
        doubled = CorpusStats(2000, 50.0)
        assert bits_per_second(1.0, doubled) == pytest.approx(2 * base, rel=1e-12)

    def test_cross_codec_ratio_equals_token_ratio(self):
        seconds = 3600.0
        arrival = CorpusStats(3_000_000, seconds, "arrival")
        interarrival = CorpusStats(2_750_000, seconds, "interarrival")
        ratio = bits_per_second(1.0, arrival) / bits_per_second(1.0, interarrival)
        assert ratio == pytest.approx(3_000_000 / 2_750_000, rel=1e-12)

    def test_zero_seconds_rejected(self):
        with pytest.raises(ValueError):
            bits_per_second(1.0, CorpusStats(10, 0.0))

    def test_negative_loss_and_counts_rejected(self):
        with pytest.raises(ValueError, match="^loss must be non-negative$"):
            bits_per_second(-0.1, CorpusStats(10, 1.0))
        with pytest.raises(ValueError, match="^counts must be non-negative$"):
            CorpusStats(-1, 1.0)


class TestCorpusStats:
    def test_unknown_codec_rejected(self):
        with pytest.raises(ValueError, match="^unknown codec 'midi'$"):
            corpus_stats([golden.twinkle_events()], "midi")

    def test_unknown_codec_rejected_by_cross_entropy(self):
        recorder = _Recorder()
        recorder.vocab_size = AV.SIZE
        for rows in ([encode_arrival(golden.twinkle_events())], []):
            with pytest.raises(ValueError, match="^unknown codec 'midi'$"):
                cross_entropy(recorder, rows, "midi")
        assert recorder.calls == []

    def test_twinkle_arrival_counts(self):
        twinkle = golden.twinkle_events()
        assert corpus_stats([twinkle], "arrival").token_count == 42

    def test_twinkle_interarrival_counts(self):
        twinkle = golden.twinkle_events()
        assert corpus_stats([twinkle], "interarrival").token_count == 55

    def test_empty(self):
        stats = corpus_stats([], "arrival")
        assert stats.token_count == 0 and stats.total_seconds == 0.0

    def test_seconds_use_last_offset(self):
        seq = EventSequence([Event(0, 500, 60)])
        assert corpus_stats([seq], "arrival").total_seconds == pytest.approx(5.0)


class TestReportFormat:
    def test_key_value_block_and_row(self):
        row = encode_arrival(golden.twinkle_events())
        report = cross_entropy(UniformPredictor(AV.SIZE), [row], "arrival")
        seconds = corpus_stats([golden.twinkle_events()], "arrival").total_seconds
        text = format_report(report, seconds)
        assert "ppl_event=" in text and "bits_per_second=" in text
        assert all("=" in line for line in text.splitlines())
        assert len(report_row(report, seconds).split("\t")) == 8

    def test_bits_per_second_counts_the_reports_event_tokens(self):
        # one plain event and one control: 3 event tokens, not 6
        seq = InterleavedSequence(
            [TaggedEvent(Event(0, 100, 60)), TaggedEvent(Event(10, 1, 61), control=True)]
        )
        report = cross_entropy(UniformPredictor(AV.SIZE), [encode_arrival(seq)], "arrival")
        expected = bits_per_second(report.nats_per_token, CorpusStats(3, 1.0))
        assert f"tokens=3\nseconds=1.00\nbits_per_second={expected:.4f}" in format_report(report, 1.0)
        assert report_row(report, 1.0).endswith(f"\t{expected:.4f}")


_items = st.lists(st.tuples(st.integers(0, 40), st.integers(0, 999), st.integers(-1, 300),
                            st.booleans()), max_size=10)


def _count_sequence(items, controls: bool) -> InterleavedSequence:
    """Items at non-decreasing times; a rest or, without ``controls``, a
    control item becomes a plain note."""
    tagged, time = [], 0
    for step, duration, note, control in items:
        time += step
        rest = note < 0 and controls
        event = Event(time, 0, REST) if rest else Event(time, duration, max(note, 0))
        tagged.append(TaggedEvent(event, control=control and controls and not rest))
    return InterleavedSequence(tagged)


class TestOneTokenCount:
    """``corpus_stats`` counts the event tokens ``cross_entropy`` scores in
    whole-sequence rows, so both give one bits per second."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(_items, max_size=4), st.sampled_from([None, AV.AR, AV.AAR]))
    def test_arrival(self, items, z):
        sequences = [_count_sequence(i, controls=True) for i in items]
        rows = [encode_arrival(seq, z=z) for seq in sequences]
        report = cross_entropy(UniformPredictor(AV.SIZE), rows, "arrival")
        assert corpus_stats(sequences, "arrival").token_count == report.n_event_tokens

    @settings(max_examples=60, deadline=None)
    @given(st.lists(_items, max_size=4), st.booleans())
    def test_interarrival(self, items, leading_sep):
        sequences = [_count_sequence(i, controls=False) for i in items]
        rows = [encode_interarrival(seq, leading_sep=leading_sep) for seq in sequences]
        report = cross_entropy(UniformPredictor(IV.SIZE), rows, "interarrival")
        assert corpus_stats(sequences, "interarrival").token_count == report.n_event_tokens

    def test_a_control_adds_no_tokens(self):
        seq = InterleavedSequence(
            [TaggedEvent(Event(0, 1, 60)), TaggedEvent(Event(10, 1, 61), control=True)]
        )
        assert corpus_stats([seq], "arrival").token_count == 3
