"""Predictor contract: n-gram reference model, replay oracle, stream bridge."""

from __future__ import annotations

import sys

import numpy as np
import pytest

from anticipate.bridge import ExternalPredictor, PredictorProtocolError, parse_response
from anticipate.predictor import (
    NGramModel,
    ReplayPredictor,
    UniformPredictor,
    train_ngram,
)
from anticipate.vocab import ArrivalVocab as AV


def markov_corpus(rng, vocab, n_rows, row_len, stay=0.9):
    rows = []
    for _ in range(n_rows):
        token = int(rng.integers(vocab))
        row = [token]
        for _ in range(row_len - 1):
            if rng.random() < stay:
                token = (token + 1) % vocab
            else:
                token = int(rng.integers(vocab))
            row.append(token)
        rows.append(row)
    return rows


def mean_nats(model, rows):
    total, count = 0.0, 0
    for row in rows:
        for i, token in enumerate(row):
            total -= np.log(model.next_distribution(None, row[:i])[token])
            count += 1
    return total / count


class TestNGram:
    def test_repeated_token_nearly_deterministic(self):
        model = train_ngram([[7] * 1000], order=2, alpha=1e-6, vocab_size=55_028)
        assert model.next_distribution(None, [7])[7] > 0.99

    def test_huge_alpha_approaches_uniform(self):
        model = train_ngram([[3, 4] * 500], order=2, alpha=1e6, vocab_size=10)
        dist = model.next_distribution(None, [3])
        assert np.abs(dist - 0.1).max() < 1e-3

    def test_backoff_beats_unigram_on_held_out(self, rng):
        train_rows = markov_corpus(rng, 50, 100, 80)
        held_out = markov_corpus(rng, 50, 20, 80)
        bigram = train_ngram(train_rows, order=3, alpha=1e-3, vocab_size=50)
        unigram = train_ngram(train_rows, order=1, alpha=1e-3, vocab_size=50)
        assert mean_nats(bigram, held_out) <= mean_nats(unigram, held_out)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            train_ngram([], order=2, alpha=0.1, vocab_size=10)
        with pytest.raises(ValueError):
            train_ngram([[]], order=2, alpha=0.1, vocab_size=10)

    def test_unseen_context_backs_off(self):
        model = train_ngram([[1, 2, 3]], order=3, alpha=1e-3, vocab_size=10)
        dist = model.next_distribution(None, [9, 9])  # context never seen
        assert dist.sum() == pytest.approx(1.0, abs=1e-9)
        assert dist[2] > dist[9]  # unigram counts still bias the backoff

    def test_determinism(self, rng):
        rows = markov_corpus(rng, 20, 10, 30)
        a = train_ngram(rows, order=3, alpha=0.01, vocab_size=20)
        b = train_ngram(rows, order=3, alpha=0.01, vocab_size=20)
        ctx = rows[0][:5]
        assert np.array_equal(a.next_distribution(None, ctx), b.next_distribution(None, ctx))

    def test_save_load_roundtrip(self, tmp_path, rng):
        model = train_ngram(markov_corpus(rng, 20, 10, 30), order=2, alpha=0.01, vocab_size=20)
        path = tmp_path / "model.pkl"
        model.save(path)
        loaded = NGramModel.load(path)
        assert np.array_equal(
            model.next_distribution(None, [1, 2]), loaded.next_distribution(None, [1, 2])
        )

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            NGramModel(order=0, alpha=0.1, vocab_size=10)
        with pytest.raises(ValueError):
            NGramModel(order=2, alpha=0.0, vocab_size=10)


class TestContract:
    @pytest.fixture
    def implementations(self, rng):
        ngram = train_ngram(markov_corpus(rng, 30, 20, 40), order=3, alpha=0.01, vocab_size=30)
        return [
            ngram,
            ReplayPredictor([1, 2, 3], vocab_size=30, terminator=0),
            UniformPredictor(30),
        ]

    def test_distribution_validity_random_contexts(self, implementations, rng):
        for model in implementations:
            for _ in range(200):
                ctx = rng.integers(0, 30, size=int(rng.integers(0, 12))).tolist()
                dist = model.next_distribution(None, ctx)
                assert (dist >= 0).all()
                assert dist.sum() == pytest.approx(1.0, abs=1e-9)

    def test_context_window_truncation(self, rng):
        model = train_ngram(
            markov_corpus(rng, 30, 20, 40), order=3, alpha=0.01, vocab_size=30
        )
        model.context_length = 8
        tail = [1, 2, 3, 4, 5, 6, 7]
        a = model.next_distribution(None, tail).copy()
        b = model.next_distribution(None, [9, 9, 9] + tail)
        assert np.array_equal(a, b)


class TestReplay:
    def test_point_masses_then_terminator(self):
        replay = ReplayPredictor([5, 6, 7], vocab_size=10, terminator=9)
        for expected in (5, 6, 7, 9, 9):
            dist = replay.next_distribution(None, [])
            assert dist[expected] == 1.0 and dist.sum() == 1.0

    def test_ignores_context(self):
        replay = ReplayPredictor([5], vocab_size=10, terminator=9)
        assert replay.next_distribution(AV.AR, [1, 2, 3])[5] == 1.0

    def test_reset(self):
        replay = ReplayPredictor([5], vocab_size=10, terminator=9)
        replay.next_distribution(None, [])
        replay.reset()
        assert replay.next_distribution(None, [])[5] == 1.0


SERVE_UNIFORM = (
    "import sys; from anticipate.bridge import serve; "
    "from anticipate.predictor import UniformPredictor; "
    "serve(UniformPredictor(8), sys.stdin, sys.stdout)"
)

SERVE_REPLAY = (
    "import sys; from anticipate.bridge import serve; "
    "from anticipate.predictor import ReplayPredictor; "
    "serve(ReplayPredictor([3, 1], vocab_size=8, terminator=0), sys.stdin, sys.stdout)"
)


class TestBridge:
    def test_uniform_server(self):
        with ExternalPredictor([sys.executable, "-c", SERVE_UNIFORM], vocab_size=8) as model:
            dist = model.next_distribution(AV.AR, [1, 2, 3])
            assert dist == pytest.approx(np.full(8, 0.125))

    def test_replay_server_sequences(self):
        with ExternalPredictor([sys.executable, "-c", SERVE_REPLAY], vocab_size=8) as model:
            assert model.next_distribution(None, [])[3] == 1.0
            assert model.next_distribution(None, [7])[1] == 1.0
            assert model.next_distribution(None, [])[0] == 1.0

    def test_malformed_response(self):
        script = "import sys; sys.stdin.readline(); print('GARBAGE', flush=True); sys.stdin.read()"
        with ExternalPredictor([sys.executable, "-c", script], vocab_size=8) as model:
            with pytest.raises(PredictorProtocolError):
                model.next_distribution(None, [])

    def test_timeout(self):
        script = "import sys, time; sys.stdin.readline(); time.sleep(10)"
        model = ExternalPredictor([sys.executable, "-c", script], vocab_size=8, timeout=0.3)
        try:
            with pytest.raises(TimeoutError):
                model.next_distribution(None, [])
        finally:
            model._proc.kill()

    def test_parse_response_validation(self):
        with pytest.raises(PredictorProtocolError):
            parse_response("DIST 3:0.5", vocab_size=8)  # mass missing
        with pytest.raises(PredictorProtocolError):
            parse_response("DIST 9:1.0", vocab_size=8)  # token out of range
        with pytest.raises(PredictorProtocolError):
            parse_response("DIST 3:-1.0 4:2.0", vocab_size=8)
        dist = parse_response("DIST 3:0.5 4:0.5", vocab_size=8)
        assert dist[3] == dist[4] == 0.5

    def test_request_format(self):
        from anticipate.bridge import format_request

        assert format_request(55_026, [1, 2, 3]) == "CTX 55026 1 2 3"
        assert format_request(None, []) == "CTX -"

    def test_bridge_backs_the_sampler(self):
        # a subprocess replaying a known melody drives anticipatory
        # generation exactly like the in-process replay oracle
        from anticipate.anticipation import interleave
        from anticipate.events import Event, EventSequence
        from anticipate.golden import twinkle_events
        from anticipate.sampler import SamplerConfig, generate_anticipatory

        events = twinkle_events()
        script = (
            "import sys; from anticipate.bridge import serve; "
            "from anticipate.predictor import ReplayPredictor; "
            "from anticipate.tokenizer import encode_arrival; "
            "from anticipate.golden import twinkle_events; "
            "from anticipate.vocab import ArrivalVocab as AV; "
            "serve(ReplayPredictor(encode_arrival(twinkle_events()), AV.SIZE, AV.SEP), "
            "sys.stdin, sys.stdout)"
        )
        controls = EventSequence([Event(700, 10, 72)])
        with ExternalPredictor([sys.executable, "-c", script], vocab_size=55_028) as model:
            result = generate_anticipatory(
                model, controls, SamplerConfig(delta=5.0, seed=0)
            )
        assert list(result.sequence) == list(interleave(events, controls, 500))
