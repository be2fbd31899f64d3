"""Loss accounting: slot bucketing, perplexity decomposition, bits/second."""

from __future__ import annotations

import math

import pytest

from anticipate import golden
from anticipate.events import Event, EventSequence, InterleavedSequence, TaggedEvent
from anticipate.metrics import (
    CorpusStats,
    LossReport,
    bits_per_second,
    corpus_stats,
    cross_entropy,
    format_report,
    report_row,
)
from anticipate.predictor import ReplayPredictor
from anticipate.tokenizer import encode_arrival, encode_interarrival
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

    def test_packed_rows_use_their_own_control_code(self):
        from anticipate.events import TaggedEvent
        from anticipate.tokenizer import pack_training_examples

        seq = InterleavedSequence(
            [TaggedEvent(Event(i * 10, 1, 60), control=bool(i % 2)) for i in range(340)]
        )
        example = pack_training_examples([seq]).examples[0]
        assert example.z == AV.AAR
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


class TestCorpusStats:
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
        stats = corpus_stats([golden.twinkle_events()], "arrival")
        text = format_report(report, stats)
        assert "ppl_event=" in text and "bits_per_second=" in text
        assert all("=" in line for line in text.splitlines())
        assert len(report_row(report, stats).split("\t")) == 8
