"""Predictor contract: n-gram reference model, replay oracle, stream bridge."""

from __future__ import annotations

import base64
import gc
import io
import pickle
import sys
import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from anticipate.bridge import (
    ExternalPredictor,
    PredictorProtocolError,
    format_request,
    parse_response,
    serve,
)
from anticipate.predictor import (
    BACKOFF_WEIGHT,
    ModelFileError,
    NGramModel,
    ReplayPredictor,
    UniformPredictor,
    train_ngram,
)
from anticipate.vocab import ArrivalVocab as AV


class DictNGram:
    """The dict-of-Counters n-gram the array model replaced, kept as the
    reference for exact counts and bit-identical distributions."""

    def __init__(self, order, alpha, vocab_size, context_length):
        self.order = order
        self.alpha = alpha
        self.vocab_size = vocab_size
        self.context_length = context_length
        self.counts = [dict() for _ in range(order)]
        self.totals = [dict() for _ in range(order)]

    def add_sequence(self, tokens):
        for i, token in enumerate(tokens):
            for k in range(min(self.order - 1, i) + 1):
                ctx = tuple(tokens[i - k : i])
                self.counts[k].setdefault(ctx, Counter())[token] += 1
                self.totals[k][ctx] = self.totals[k].get(ctx, 0) + 1

    def _unigram_distribution(self):
        dist = np.full(self.vocab_size, self.alpha, dtype=np.float64)
        counter = self.counts[0].get((), Counter())
        if counter:
            dist[list(counter.keys())] += np.fromiter(counter.values(), dtype=np.float64)
        dist /= self.totals[0].get((), 0) + self.alpha * self.vocab_size
        return dist

    def next_distribution(self, z, context):
        full = list(context if z is None else [z, *context])
        full = full[-(self.context_length - 1):]
        dist = self._unigram_distribution()
        for k in range(1, min(self.order, len(full) + 1)):
            ctx = tuple(full[len(full) - k:])
            counter = self.counts[k].get(ctx)
            total = self.totals[k].get(ctx, 0)
            level = np.full(self.vocab_size, self.alpha, dtype=np.float64)
            if counter:
                level[list(counter.keys())] += np.fromiter(counter.values(), dtype=np.float64)
            level /= total + self.alpha * self.vocab_size
            dist *= BACKOFF_WEIGHT
            dist += (1.0 - BACKOFF_WEIGHT) * level
        return dist


def reference_pair(rows, order, alpha, vocab_size, context_length=1024):
    model = train_ngram(rows, order, alpha, vocab_size)
    model.context_length = context_length
    reference = DictNGram(order, alpha, vocab_size, context_length)
    for row in rows:
        reference.add_sequence(row)
    return model, reference


def assert_same_counts(model, reference):
    for k in range(model.order):
        assert dict(model.totals[k]) == reference.totals[k]
        assert {ctx: dict(c) for ctx, c in model.counts[k].items()} == {
            ctx: dict(c) for ctx, c in reference.counts[k].items()
        }


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

    def test_token_outside_vocabulary_rejected(self):
        with pytest.raises(ValueError, match="token 10 outside"):
            train_ngram([[1, 2], [3, 10, 4]], order=2, alpha=0.1, vocab_size=10)
        with pytest.raises(ValueError, match="token -1 outside"):
            train_ngram([[1, -1]], order=2, alpha=0.1, vocab_size=10)
        with pytest.raises(ValueError, match="outside vocabulary"):
            train_ngram([[1, 2**70]], order=2, alpha=0.1, vocab_size=10)

    def test_total_token_count(self):
        model = train_ngram([[1, 2, 3], [4, 5]], order=3, alpha=0.1, vocab_size=10)
        assert model.totals[0].get((), 0) == 5
        assert model.totals[2].get((1, 2), 0) == 1
        assert model.totals[2].get((3, 4), 0) == 0  # contexts never cross rows
        assert NGramModel(order=2, alpha=0.1, vocab_size=10).totals[0].get((), 0) == 0


class TestNGramReference:
    """The array model against the dict-of-Counters reference: equal counts,
    bit-identical distributions."""

    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        vocab_size=st.integers(1, 12),
        order=st.integers(1, 4),
        alpha=st.sampled_from([1e-3, 0.01, 0.5, 3.0]),
        context_length=st.integers(2, 7),
    )
    def test_matches_dict_reference(self, data, vocab_size, order, alpha, context_length):
        token = st.integers(0, vocab_size - 1)
        rows = data.draw(st.lists(st.lists(token, max_size=25), min_size=1, max_size=6)
                         .filter(lambda rows: any(rows)))
        model, reference = reference_pair(rows, order, alpha, vocab_size, context_length)
        assert_same_counts(model, reference)
        # contexts run past context_length and may hold tokens outside the vocabulary
        loose = st.integers(-1, vocab_size + 1)
        for _ in range(4):
            z = data.draw(st.none() | loose)
            context = data.draw(st.lists(loose, max_size=10) | st.sampled_from(rows))
            expected = reference.next_distribution(z, context)
            assert np.array_equal(model.next_distribution(z, context), expected)

    def test_matches_dict_reference_on_markov_corpus(self, rng):
        rows = markov_corpus(rng, 40, 30, 60)
        model, reference = reference_pair(rows, 3, 0.01, 40)
        assert_same_counts(model, reference)
        for row in rows[:3]:
            for i in range(len(row)):
                for z in (None, 39):
                    expected = reference.next_distribution(z, row[:i])
                    assert np.array_equal(model.next_distribution(z, row[:i]), expected)

    def test_order_4_at_full_arrival_vocabulary(self):
        top = AV.SIZE - 1  # keys near 55 028 ** 4, just below 2 ** 63
        rows = [[top, top - 1, top, top - 2, top, top - 1, 0, top]]
        model, reference = reference_pair(rows, 4, 0.01, AV.SIZE)
        assert_same_counts(model, reference)
        for i in range(len(rows[0]) + 1):
            expected = reference.next_distribution(AV.AR, rows[0][:i])
            assert np.array_equal(model.next_distribution(AV.AR, rows[0][:i]), expected)

    def test_order_past_int64_keys_rejected(self):
        with pytest.raises(ValueError, match=r"2\*\*63"):
            NGramModel(order=5, alpha=0.01, vocab_size=AV.SIZE)


class _CreatesMarker:
    """Unpickling this calls ``open(path, "w")``, creating the marker file."""

    def __init__(self, path):
        self.path = str(path)

    def __reduce__(self):
        return open, (self.path, "w")


class TestModelFile:
    @pytest.fixture
    def saved(self, tmp_path, rng):
        model = train_ngram(markov_corpus(rng, 20, 10, 30), order=3, alpha=0.01, vocab_size=20)
        path = tmp_path / "model.npz"
        model.save(path)
        return model, path

    def rewrite(self, path, **changes):
        with np.load(path) as data:
            arrays = dict(data.items())
        arrays.update(changes)
        with open(path, "wb") as f:
            np.savez(f, **arrays)

    def test_save_writes_exactly_the_path(self, tmp_path, saved):
        model, _ = saved
        model.save(tmp_path / "model.pkl")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.npz", "model.pkl"]

    def test_roundtrip_keeps_counts_and_settings(self, saved):
        model, path = saved
        model.context_length = 9
        model.save(path)
        loaded = NGramModel.load(path)
        assert (loaded.order, loaded.alpha, loaded.vocab_size, loaded.context_length) == (
            3, 0.01, 20, 9)
        for k in range(3):
            assert dict(loaded.totals[k]) == dict(model.totals[k])
            assert dict(loaded.counts[k]) == dict(model.counts[k])

    def test_pickle_rejected_without_running_it(self, tmp_path):
        marker = tmp_path / "marker"
        path = tmp_path / "model.pkl"
        path.write_bytes(pickle.dumps(_CreatesMarker(marker)))
        with pytest.raises(ModelFileError):
            NGramModel.load(path)
        assert not marker.exists()

    def test_truncated_file(self, saved):
        _, path = saved
        data = path.read_bytes()
        for cut in (len(data) // 2, len(data) - 30, 10):
            path.write_bytes(data[:cut])
            with pytest.raises(ModelFileError):
                NGramModel.load(path)

    def test_wrong_version(self, saved):
        _, path = saved
        self.rewrite(path, version=np.int64(2))
        with pytest.raises(ModelFileError, match="version 2"):
            NGramModel.load(path)

    @pytest.mark.parametrize("name, value", [
        ("counts1", np.ones(5)),  # float counts
        ("alpha", np.float32(0.01)),
        ("order", np.int32(3)),
        ("tokens0", np.array(["a"])),
    ])
    def test_wrong_dtype(self, saved, name, value):
        _, path = saved
        self.rewrite(path, **{name: value})
        with pytest.raises(ModelFileError):
            NGramModel.load(path)

    @pytest.mark.parametrize("name, corrupt", [
        ("tokens1", lambda a: a + 20),  # successor outside the vocabulary
        ("counts2", lambda a: -a),
        ("keys1", lambda a: a[::-1].copy()),
        ("offsets2", lambda a: a[:-1].copy()),
    ])
    def test_inconsistent_arrays(self, saved, name, corrupt):
        _, path = saved
        with np.load(path) as data:
            value = corrupt(data[name])
        self.rewrite(path, **{name: value})
        with pytest.raises(ModelFileError):
            NGramModel.load(path)

    def test_missing_and_extra_arrays(self, saved):
        _, path = saved
        with np.load(path) as data:
            arrays = dict(data.items())
        for drop in ("keys2", "vocab_size"):
            partial = {k: v for k, v in arrays.items() if k != drop}
            with open(path, "wb") as f:
                np.savez(f, **partial)
            with pytest.raises(ModelFileError):
                NGramModel.load(path)
        with open(path, "wb") as f:
            np.savez(f, extra=np.int64(0), **arrays)
        with pytest.raises(ModelFileError):
            NGramModel.load(path)

    def test_npy_file_rejected(self, tmp_path):
        path = tmp_path / "model.npy"
        np.save(path, np.zeros(3))
        with pytest.raises(ModelFileError):
            NGramModel.load(path)


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

SERVE_COUNT = (
    "import sys; import numpy as np; from anticipate.bridge import serve\n"
    "class Count:\n"
    "    vocab_size, context_length = 16, 1024\n"
    "    def next_distribution(self, z, context):\n"
    "        return np.eye(16)[len(context)]\n"
    "serve(Count(), sys.stdin, sys.stdout)"
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
            model.close()

    def test_timeout_covers_the_whole_line(self):
        # the child starts a reply and never ends the line
        script = ("import sys, time; sys.stdin.readline(); "
                  "sys.stdout.write('DIST AAAA'); sys.stdout.flush(); time.sleep(10)")
        model = ExternalPredictor([sys.executable, "-c", script], vocab_size=8, timeout=0.5)
        try:
            started = time.monotonic()
            with pytest.raises(TimeoutError):
                model.next_distribution(None, [])
            assert time.monotonic() - started < 5
        finally:
            model._proc.kill()
            model.close()

    def test_reply_split_across_writes(self):
        # one line written in pieces, then a second line in the same write
        script = ("import sys, time; from anticipate.bridge import serve; "
                  "from anticipate.predictor import UniformPredictor; "
                  "import io; out = io.StringIO(); "
                  "serve(UniformPredictor(4), io.StringIO('CTX -\\nCTX -\\n'), out); "
                  "first, second = out.getvalue().splitlines(); sys.stdin.readline(); "
                  "sys.stdout.write(first[:5]); sys.stdout.flush(); time.sleep(0.2); "
                  "sys.stdout.write(first[5:] + '\\n' + second + '\\n'); sys.stdout.flush(); "
                  "sys.stdin.read()")
        with ExternalPredictor([sys.executable, "-c", script], vocab_size=4, timeout=5) as model:
            assert model.next_distribution(None, []) == pytest.approx(np.full(4, 0.25))
            assert model.next_distribution(None, []) == pytest.approx(np.full(4, 0.25))

    @pytest.mark.filterwarnings("error::ResourceWarning")
    def test_close_releases_both_pipes(self):
        live = ExternalPredictor([sys.executable, "-c", SERVE_UNIFORM], vocab_size=8)
        live.next_distribution(None, [])
        exited = ExternalPredictor([sys.executable, "-c", "pass"], vocab_size=8)
        exited._proc.wait(timeout=10)
        with pytest.raises(PredictorProtocolError):
            exited.next_distribution(None, [])
        for model in (live, exited):
            model.close()
            assert model._proc.stdin.closed and model._proc.stdout.closed
            assert model._proc.returncode is not None
        del live, exited, model
        gc.collect()

    def test_parse_response_validation(self):
        def reply(values) -> str:
            payload = np.asarray(values, dtype="<f8").tobytes()
            return "DIST " + base64.b64encode(payload).decode("ascii")

        bad = [
            reply([0.25] * 7),  # wrong length
            reply([0.125] * 9),
            reply([0.125] * 8)[:-4],  # truncated payload
            "DIST !!notbase64!!",
            "DIST 3:0.5",  # the earlier sparse text format
            "DIST 3:0.5 4:0.5",
            reply([-0.25, 0.5, 0.75, 0, 0, 0, 0, 0]),  # negative value
            reply([np.nan] + [0.125] * 7),
            reply([np.inf] + [0.0] * 7),
            reply([0.125] * 7 + [0.125 + 2e-6]),  # mass off by more than 1e-6
            reply([0.0] * 8),
            "ERR malformed request",
            "",
        ]
        for line in bad:
            with pytest.raises(PredictorProtocolError):
                parse_response(line, vocab_size=8)
        dist = parse_response(reply([0, 0, 0, 0.5, 0.5, 0, 0, 0]), vocab_size=8)
        assert dist.tolist() == [0, 0, 0, 0.5, 0.5, 0, 0, 0]
        dist[0] = 1.0  # the caller owns a writable copy

    def test_ngram_distribution_round_trips_bit_exact(self, rng):
        model = train_ngram(markov_corpus(rng, 30, 20, 40), order=3, alpha=0.01, vocab_size=30)
        contexts = [rng.integers(0, 30, size=int(rng.integers(0, 6))).tolist() for _ in range(20)]
        requests = io.StringIO("".join(format_request(z, c) + "\n"
                                       for c in contexts for z in (None, 7)))
        replies = io.StringIO()
        serve(model, requests, replies)
        lines = replies.getvalue().splitlines()
        assert len(lines) == 2 * len(contexts)
        for i, context in enumerate(contexts):
            for j, z in enumerate((None, 7)):
                expected = model.next_distribution(z, context)
                assert np.array_equal(parse_response(lines[2 * i + j], vocab_size=30), expected)

    def test_client_sends_only_the_look_back_window(self):
        # the child answers a point mass at the number of context tokens it got
        for context_length, expected in ((1, 0), (4, 3), (64, 5)):
            with ExternalPredictor([sys.executable, "-c", SERVE_COUNT], vocab_size=16,
                                   context_length=context_length) as model:
                assert int(np.argmax(model.next_distribution(None, [1, 2, 3, 4, 5]))) == expected
                assert int(np.argmax(model.next_distribution(AV.AR, []))) == 0

    def test_serve_survives_malformed_requests(self):
        requests = io.StringIO("CTX\nCTX 5 x\nHELLO\nCTX - 1 2\n")
        replies = io.StringIO()
        serve(UniformPredictor(4), requests, replies)
        lines = replies.getvalue().splitlines()
        assert lines[:3] == ["ERR malformed request", "ERR malformed request",
                             "ERR unknown request"]
        assert parse_response(lines[3], vocab_size=4) == pytest.approx(np.full(4, 0.25))
        with pytest.raises(PredictorProtocolError):
            parse_response(lines[0], vocab_size=4)

    def test_request_format(self):
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
