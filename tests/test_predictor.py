"""Predictor contract: n-gram reference model, replay oracle, stream bridge."""

from __future__ import annotations

import base64
import gc
import io
import math
import pickle
import re
import sys
import threading
import time
import tracemalloc
import zipfile
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from anticipate.bridge import (
    ExternalPredictor,
    PredictorProtocolError,
    format_request,
    format_response,
    parse_response,
    serve,
)
from anticipate.predictor import (
    BACKOFF_WEIGHT,
    Distribution,
    ModelFileError,
    NGramModel,
    ReplayPredictor,
    _Level,
    train_ngram,
)
from anticipate.tokenizer import pack_training_examples
from anticipate.vocab import ArrivalVocab as AV

from conftest import UniformPredictor, random_events, reference_unigram_level


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


def level_counts(model, k):
    """Level ``k`` of the model's arrays as {context tuple: {token: count}}."""
    level, vocab_size = model._levels[k], model.vocab_size
    out = {}
    for row, key in enumerate(level.keys.tolist()):
        context = []
        for _ in range(k):
            key, token = divmod(key, vocab_size)
            context.append(token)
        span = slice(level.offsets[row], level.offsets[row + 1])
        out[tuple(reversed(context))] = dict(zip(level.tokens[span].tolist(),
                                                 level.counts[span].tolist()))
    return out


def assert_same_levels(a, b, lengths):
    """The two models hold equal arrays at each context length in ``lengths``."""
    for k in lengths:
        for x, y in zip(a._levels[k], b._levels[k], strict=True):
            assert np.array_equal(x, y)


def assert_same_counts(model, reference):
    for k in range(model.order):
        assert dict(model.totals[k]) == reference.totals[k]
        assert level_counts(model, k) == {
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


def assert_valid_distribution(dist, vocab_size, tolerance=1e-9):
    """The contract: a ``Distribution`` of ``vocab_size`` tokens whose support
    is strictly ascending int64 ids in range, with one non-negative float64
    value each and a non-negative background, of total mass one within
    ``tolerance``; materialized, the same mass."""
    assert isinstance(dist, Distribution) and dist.size == vocab_size
    support, values = dist.support, dist.values
    assert support.dtype == np.int64 and values.dtype == np.float64
    assert support.shape == values.shape == (len(support),)
    assert (np.diff(support) > 0).all()
    assert len(support) == 0 or 0 <= support[0] and support[-1] < vocab_size
    assert (values >= 0).all() and dist.background >= 0
    mass = values.sum() + dist.background * (vocab_size - len(support))
    assert abs(mass - 1.0) <= tolerance
    assert np.asarray(dist).sum() == pytest.approx(mass, abs=1e-12)


def mean_nats(model, rows):
    total, count = 0.0, 0
    for row in rows:
        for i, token in enumerate(row):
            total -= np.log(model.next_distribution(None, row[:i]).probability(token))
            count += 1
    return total / count


class TestNGram:
    def test_repeated_token_nearly_deterministic(self):
        model = train_ngram([[7] * 1000], order=2, alpha=1e-6, vocab_size=55_028)
        assert model.next_distribution(None, [7]).probability(7) > 0.99

    def test_huge_alpha_approaches_uniform(self):
        model = train_ngram([[3, 4] * 500], order=2, alpha=1e6, vocab_size=10)
        dist = np.asarray(model.next_distribution(None, [3]))
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
        assert_valid_distribution(dist, 10)
        assert dist.probability(2) > dist.probability(9)  # unigram counts still bias the backoff

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

    @pytest.mark.parametrize("context_length", [0, -5])
    def test_context_length_below_one_refused(self, context_length):
        # it would look back a negative number of tokens
        message = f"^context_length must be >= 1, got {context_length}$"
        with pytest.raises(ValueError, match=message):
            NGramModel(order=2, alpha=0.1, vocab_size=10, context_length=context_length)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(min_value=0, exclude_min=True, allow_infinity=False),
           st.integers(1, 2**31), st.booleans())
    @example(1e304, 55_028, True)  # overflows: every distribution would be 0
    @example(3.2e303, 55_028, True)  # accepted: the bound is about 3.27e303
    @example(5e-324, 55_028, False)
    def test_every_accepted_alpha_gives_depth_0_mass_one(self, alpha, vocab_size, trained):
        if not math.isfinite(alpha * vocab_size):
            with pytest.raises(ValueError, match=r"^alpha \* vocab_size must be finite"):
                NGramModel(order=2, alpha=alpha, vocab_size=vocab_size)
            return
        if trained:
            model = train_ngram([[0, 5 % vocab_size, 5 % vocab_size]], 2, alpha, vocab_size)
        else:
            model = NGramModel(order=2, alpha=alpha, vocab_size=vocab_size)
        dist = model.next_distribution(None, [])
        assert abs(dist.values.sum() + dist.background * (vocab_size - len(dist.support))
                   - 1.0) <= 1e-9

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 12).flatmap(lambda vocab_size: st.tuples(st.just(vocab_size), st.lists(
        st.lists(st.integers(0, vocab_size - 1), min_size=1, max_size=6), min_size=1, max_size=10))))
    @example((3, [[2], [0], [2]]))  # rows of one token train level 0 alone
    @example((1, [[0]]))
    def test_unigram_level_matches_the_unique_reference(self, case):
        vocab_size, rows = case
        level = train_ngram(rows, order=2, alpha=0.1, vocab_size=vocab_size)._levels[0]
        tokens, counts = reference_unigram_level(rows)
        for got, want in ((level.tokens, tokens), (level.counts, counts)):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert level.keys.tolist() == [0] and level.offsets.tolist() == [0, len(tokens)]

    def test_a_vocabulary_past_the_corpus_needs_no_table_of_its_size(self):
        # a count table of 2**62 entries could not be allocated
        level = train_ngram([[0, 2**61]], order=1, alpha=0.1, vocab_size=2**62)._levels[0]
        assert level.tokens.tolist() == [0, 2**61] and level.counts.tolist() == [1, 1]

    def test_training_peak_memory_per_token(self, rng):
        # like the bench corpus: each piece packed 30 times, so many grams repeat
        pieces = [random_events(rng, 300, max_gap=30) for _ in range(5)]
        rows = [e.tokens for e in pack_training_examples(pieces * 30).examples]
        n_tokens = sum(map(len, rows))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            train_ngram(rows, order=3, alpha=0.01, vocab_size=AV.SIZE)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 55 * n_tokens, f"{peak / n_tokens:.1f} B per token, model included"

    def test_huge_order_rejected_without_building_the_power(self):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"not exceed 2\*\*63 .* got 55028 \*\* 100000000$"):
            NGramModel(order=10**8, alpha=0.01, vocab_size=55_028)
        assert time.perf_counter() - start < 0.5
        with pytest.raises(ValueError, match=r"got 2 \*\* 64$"):
            NGramModel(order=64, alpha=0.01, vocab_size=2)
        assert NGramModel(order=63, alpha=0.01, vocab_size=2).order == 63
        assert NGramModel(order=4, alpha=0.01, vocab_size=55_028).order == 4

    def test_token_outside_vocabulary_rejected(self):
        with pytest.raises(ValueError, match="token 10 outside"):
            train_ngram([[1, 2], [3, 10, 4]], order=2, alpha=0.1, vocab_size=10)
        with pytest.raises(ValueError, match="token -1 outside"):
            train_ngram([[1, -1]], order=2, alpha=0.1, vocab_size=10)
        with pytest.raises(ValueError, match="outside vocabulary"):
            train_ngram([[1, 2**70]], order=2, alpha=0.1, vocab_size=10)

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.sampled_from([1, 2, 3, 12, 55_028, 2**31, 3_037_000_499, 2**62, 2**63 - 1])
           | st.integers(1, 2**63 - 1))
    def test_totals_decode_the_keys_of_every_accepted_vocabulary(self, data, vocab_size):
        # up to the largest order whose keys fit int64: contexts of 62 binary tokens
        top = 8
        if vocab_size > 1:
            top = 1
            while vocab_size ** (top + 1) <= 2**63:
                top += 1
        order = data.draw(st.integers(1, top) | st.just(top))
        token = st.integers(0, vocab_size - 1) | st.sampled_from([0, vocab_size - 1])
        rows = data.draw(st.lists(st.lists(token, min_size=1, max_size=order + 1),
                                  min_size=1, max_size=4))
        model, reference = reference_pair(rows, order, 0.1, vocab_size)
        totals = model.totals
        assert totals == reference.totals
        for table in totals:
            assert type(table) is dict and list(table) == sorted(table)

    def test_vocab_size_must_fit_int64(self):
        for vocab_size in (0, 2**63, 2**70):
            with pytest.raises(ValueError, match=r"^vocab_size must be >= 1 and below 2\*\*63"):
                NGramModel(order=1, alpha=0.1, vocab_size=vocab_size)
        with pytest.raises(ValueError, match=r"^vocab_size must be"):
            train_ngram([[2**63 - 1, 0]], order=1, alpha=0.1, vocab_size=2**63)
        model = train_ngram([[2**63 - 2, 0, 2**63 - 2]], order=1, alpha=0.1, vocab_size=2**63 - 1)
        assert model.totals == [{(): 3}]
        assert model.next_distribution(None, []).probability(2**63 - 2) > 0.0

    def test_total_token_count(self):
        model = train_ngram([[1, 2, 3], [4, 5]], order=3, alpha=0.1, vocab_size=10)
        assert model.totals[0].get((), 0) == 5
        assert model.totals[2].get((1, 2), 0) == 1
        assert model.totals[2].get((3, 4), 0) == 0  # contexts never cross rows
        assert NGramModel(order=2, alpha=0.1, vocab_size=10).totals[0].get((), 0) == 0

    def test_levels_past_the_longest_row_are_the_shared_empty_level(self, rng):
        rows = markov_corpus(rng, 12, 5, 6) + [[1, 2, 3]]
        model = train_ngram(rows, order=9, alpha=0.1, vocab_size=12)
        exact = train_ngram(rows, order=6, alpha=0.1, vocab_size=12)  # one level per row position
        assert_same_levels(model, exact, range(6))
        assert all(len(level.tokens) for level in exact._levels)
        shared = model._levels[6]
        assert len(shared.keys) == len(shared.tokens) == 0
        assert all(level is shared for level in model._levels[6:])
        start = time.perf_counter()
        train_ngram([[0, 0, 0]], order=20_000, alpha=1.0, vocab_size=1)
        assert time.perf_counter() - start < 0.5


_LOOSE = st.integers(-1, 13)  # past every vocabulary drawn below, at both ends


class TestNGramReference:
    """The array model against the dict-of-Counters reference: equal counts,
    bit-identical distributions."""

    @settings(max_examples=150, deadline=None)
    @given(
        case=st.integers(1, 12).flatmap(lambda vocab_size: st.tuples(st.just(vocab_size), st.lists(
            st.lists(st.integers(0, vocab_size - 1), max_size=25), min_size=1, max_size=6)
            .filter(lambda rows: any(rows)))),
        order=st.integers(1, 4),
        alpha=st.sampled_from([1e-3, 0.01, 0.5, 3.0]),
        context_length=st.integers(2, 7),
        # z and a context, which runs past context_length and may hold tokens
        # outside the vocabulary, or the index of a training row as context
        queries=st.lists(st.tuples(st.none() | _LOOSE, st.lists(_LOOSE, max_size=10)
                                   | st.integers(0, 5)), min_size=4, max_size=4),
    )
    # windows that cross a row, here past an empty one, equal real grams
    @example(case=(6, [[5], [5, 5], [], [5, 5, 5]]), order=2, alpha=0.5, context_length=5,
             queries=[(None, 3), (5, [5, 5])])
    @example(case=(6, [[5], [5, 5], [], [5, 5, 5]]), order=3, alpha=0.5, context_length=5,
             queries=[(None, 3), (5, [5, 5])])
    @example(case=(6, [[5], [5, 5], [], [5, 5, 5]]), order=4, alpha=0.5, context_length=5,
             queries=[(None, 3), (5, [5, 5])])
    @example(case=(2, [[0, 1], [], [], [1, 0, 1], []]), order=4, alpha=0.01, context_length=7,
             queries=[(None, [0, 1, 0]), (1, 0)])
    def test_matches_dict_reference(self, case, order, alpha, context_length, queries):
        vocab_size, rows = case
        model, reference = reference_pair(rows, order, alpha, vocab_size, context_length)
        assert_same_counts(model, reference)
        for z, context in queries:
            if isinstance(context, int):
                context = rows[context % len(rows)]
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


def dense_next_distribution(model, z, context):
    """The full-width backoff recursion that the support recursion replaced,
    on the model's own levels, with the full-width unigram built from level
    0; kept as the reference it must match bit for bit. Returns a fresh
    array."""
    alpha, vocab_size = model.alpha, model.vocab_size
    first = model._levels[0]
    unigram = np.full(vocab_size, alpha, dtype=np.float64)
    unigram[first.tokens] += first.counts
    unigram /= int(first.counts.sum()) + alpha * vocab_size
    n = len(context)
    depth = min(model.order - 1, n + (z is not None), model.context_length - 1)
    out = unigram.copy()
    if depth <= 0:
        return out
    backoff_unigram = BACKOFF_WEIGHT * unigram
    key = 0
    radix = 1
    for k in range(1, depth + 1):
        token = context[n - k] if k <= n else z
        if key is not None and 0 <= token < vocab_size:
            key += int(token) * radix
            radix *= vocab_size
        else:
            key = None
        level = model._levels[k]
        row = -1 if key is None else level.find(key)
        total = 0 if row < 0 else int(level.counts[level.offsets[row]:level.offsets[row + 1]].sum())
        denom = total + alpha * vocab_size
        scaled = backoff_unigram if k == 1 else np.multiply(out, BACKOFF_WEIGHT, out=out)
        if row >= 0:
            span = slice(level.offsets[row], level.offsets[row + 1])
            successors = level.tokens[span]
            lower = scaled[successors]
        np.add(scaled, (1.0 - BACKOFF_WEIGHT) * (alpha / denom), out=out)
        if row >= 0:
            out[successors] = (lower
                               + (1.0 - BACKOFF_WEIGHT) * ((alpha + level.counts[span]) / denom))
    return out


def assert_bit_identical(model, z, context):
    """The model's distribution, materialized, holds the dense recursion's
    bits at every token; its support is the model's."""
    expected = dense_next_distribution(model, z, context)
    dist = model.next_distribution(z, context)
    assert dist.support is model._tables.support
    assert np.array_equal(np.asarray(dist).view(np.int64), expected.view(np.int64))


@st.composite
def _support_cases(draw):
    """A model and its vocabulary: trained on a small vocabulary, on one whose
    every token is counted (no background), on a few tokens of thousands or
    of the arrival vocabulary, or untrained."""
    shape = draw(st.sampled_from(["small", "full", "sparse", "arrival", "untrained"]))
    order = draw(st.integers(1, 4))
    alpha = draw(st.sampled_from([1e-3, 0.01, 0.5, 3.0, 2]))
    vocab_size = {"small": draw(st.integers(1, 12)), "full": draw(st.integers(1, 12)),
                  "sparse": draw(st.integers(1000, 5000)), "arrival": AV.SIZE,
                  "untrained": draw(st.integers(1, 5000))}[shape]
    if shape == "untrained":
        model = NGramModel(order, alpha, vocab_size)
    else:
        alphabet = (range(vocab_size) if shape in ("small", "full")
                    else draw(st.lists(st.integers(0, vocab_size - 1), min_size=1, max_size=6)))
        rows = draw(st.lists(st.lists(st.sampled_from(alphabet), max_size=25), min_size=1,
                             max_size=6).filter(any))
        if shape == "full":
            rows.append(draw(st.permutations(range(vocab_size))))
        model = train_ngram(rows, order, alpha, vocab_size)
    model.context_length = draw(st.integers(2, 7) | st.just(1024))
    return model


class TestSupportRecursion:
    """``next_distribution`` over the support and one background slot against
    the dense recursion it replaced: the same bits for every token."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), model=_support_cases())
    def test_matches_the_dense_recursion(self, data, model):
        vocab_size = model.vocab_size
        code = AV.AR if vocab_size == AV.SIZE else vocab_size - 1
        counted = model._levels[0].tokens.tolist() or [0]
        # in and outside the vocabulary, counted tokens most often
        token = (st.sampled_from(counted) | st.integers(0, vocab_size - 1)
                 | st.sampled_from([-1, vocab_size, vocab_size + 1]))
        assert_bit_identical(model, None, [])  # depth 0: the unigram alone
        for _ in range(4):
            z = data.draw(st.none() | st.just(code) | st.sampled_from([-1, vocab_size]))
            context = data.draw(st.lists(token, max_size=10))  # may run past context_length
            assert_bit_identical(model, z, context)

    def test_a_successor_that_level_0_never_saw(self, tmp_path):
        # a file that load accepts in which level 1 counts token 4 after 1,
        # but level 0 counts only token 1: the support must hold both
        def level(*arrays):  # keys, offsets, tokens, counts
            return _Level(*(np.array(a, dtype=np.int64) for a in arrays))

        model = NGramModel(order=2, alpha=0.5, vocab_size=6)
        model._set_levels([level([0], [0, 1], [1], [3]), level([1], [0, 1], [4], [2])])
        model.save(tmp_path / "model.npz")
        loaded = NGramModel.load(tmp_path / "model.npz")
        for z, context in [(None, [1]), (None, [4]), (1, []), (None, [])]:
            assert_bit_identical(loaded, z, context)
            assert_valid_distribution(loaded.next_distribution(z, context), 6)
        assert loaded._tables.support.tolist() == [1, 4]

    def test_no_call_allocates_a_vector(self, rng):
        # a context seen at no level returns a view of its depth's precomputed
        # vector (depth 0: the unigram), any other a view of the thread's one
        # compact vector, each with the background in its last slot
        rows = markov_corpus(rng, 30, 10, 20)
        model = train_ngram(rows, order=3, alpha=0.01, vocab_size=60)
        model.next_distribution(None, [])
        tables = model._tables
        never_seen = [(None, [], 0), (None, [99], 1), (None, [59], 1), (59, [], 1),
                      (None, [99, 99], 2), (3, [-1], 2)]
        for z, context, depth in never_seen:
            dist = model.next_distribution(z, context)
            assert dist.support is tables.support
            assert dist.values.base is tables.never_seen[depth]
            assert dist.background == tables.never_seen[depth][-1]
        for z, context in [(None, rows[0][:2]), (None, [99, rows[0][0]]), (rows[0][0], [])]:
            dist = model.next_distribution(z, context)
            assert dist.support is tables.support and dist.values is tables.scratch.values
            assert dist.background == tables.scratch.compact[-1]
            assert len(dist.values) == len(tables.support) < model.vocab_size

    def test_tables_and_returned_arrays_are_read_only(self, rng):
        # a caller writing into a returned distribution must not change the
        # next call: the unigram of depth 0 used to be a writable view
        rows = markov_corpus(rng, 30, 10, 20)
        model = train_ngram(rows, order=3, alpha=0.01, vocab_size=60)
        for z, context in [(None, []), (None, [99]), (None, [99, 99]), (None, rows[0][:2])]:
            before = np.asarray(model.next_distribution(z, context))
            dist = model.next_distribution(z, context)
            with pytest.raises(ValueError, match="read-only"):
                dist.values[:] = 0
            with pytest.raises(ValueError, match="read-only"):
                dist.support[:] = 0
            assert np.array_equal(np.asarray(model.next_distribution(z, context)), before)
        tables = model._tables
        kept = [tables.support, tables.backoff_unigram, tables.scratch.values,
                *tables.never_seen, *(a for terms in tables.terms[1:] for a in terms)]
        assert not any(array.flags.writeable for array in kept)
        assert tables.scratch.compact.flags.writeable  # the vector each call with a row writes

    def test_a_distribution_kept_by_one_thread_survives_another_threads_call(self, rng):
        # thread A keeps a distribution of a counted context; thread B then
        # asks for another counted context on the same model; A's values
        # must not change, so the vector a call writes is its thread's own
        rows = markov_corpus(rng, 30, 10, 20)
        model = train_ngram(rows, order=3, alpha=0.01, vocab_size=60)
        context_a, context_b = rows[0][:2], rows[1][2:4]
        expected_a = np.asarray(model.next_distribution(None, context_a))
        assert not np.array_equal(np.asarray(model.next_distribution(None, context_b)),
                                  expected_a)
        kept, queried = threading.Event(), threading.Event()
        outcome = {}

        def thread_a():
            dist = model.next_distribution(None, context_a)
            kept.set()
            if queried.wait(timeout=10):
                outcome["a"] = np.asarray(dist)

        def thread_b():
            if kept.wait(timeout=10):
                model.next_distribution(None, context_b)
                queried.set()

        threads = [threading.Thread(target=thread_a), threading.Thread(target=thread_b)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in threads)
        assert np.array_equal(outcome["a"], expected_a)

    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_never_seen_contexts_match_the_dense_recursion_at_every_depth(self, rng, order):
        rows = markov_corpus(rng, 30, 10, 20)
        model = train_ngram(rows, order=order, alpha=0.01, vocab_size=60)
        seen = rows[0]
        for depth in range(1, order):
            # out of the vocabulary, in it but never counted, and seen tokens
            # under an unseen one at each position
            for filler in (-1, 60, 59):
                assert_bit_identical(model, None, [filler] * depth)
                for i in range(depth):
                    context = seen[:depth]
                    context[i] = filler
                    assert_bit_identical(model, None, context)
            assert_bit_identical(model, 59, [59] * (depth - 1))  # z seen at no level
            assert_bit_identical(model, seen[0], seen[1:depth])  # z in a counted context
        assert_bit_identical(model, 59, [])  # a z-only context
        assert_bit_identical(model, seen[0], [])

    def test_a_longer_context_seen_where_its_suffix_is_not(self):
        # level 2 counts context (0, 5), but level 1 never saw 5: the
        # recursion starts from the depth-1 never-seen vector, scaled
        def level(*arrays):  # keys, offsets, tokens, counts
            return _Level(*(np.array(a, dtype=np.int64) for a in arrays))

        model = NGramModel(order=4, alpha=0.5, vocab_size=6)
        model._set_levels([level([0], [0, 2], [1, 2], [3, 1]), level([1], [0, 1], [2], [2]),
                           level([5], [0, 2], [3, 4], [1, 4]),
                           level([0 * 36 + 0 * 6 + 5], [0, 1], [2], [1])])
        for z, context in [(None, [0, 5]), (None, [0, 0, 5]), (0, [0, 5]), (None, [5, 0, 5]),
                           (None, [4, 1]), (None, [0, 0, 1]), (None, [5, 5]), (None, [0, 1])]:
            assert_bit_identical(model, z, context)
            assert_valid_distribution(model.next_distribution(z, context), 6)

    def test_train_save_and_load_build_no_tables(self, tmp_path, rng):
        model = train_ngram(markov_corpus(rng, 30, 10, 20), order=3, alpha=0.01, vocab_size=30)
        assert model._tables is None
        model.save(tmp_path / "model.npz")
        assert model._tables is None
        loaded = NGramModel.load(tmp_path / "model.npz")
        assert loaded._tables is None
        loaded.next_distribution(None, [])  # depth 0 reads the compact unigram
        assert loaded._tables is not None
        loaded._set_levels(model._levels)  # new counts drop the old tables
        assert loaded._tables is None
        loaded.next_distribution(None, [1])
        assert loaded._tables is not None


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
        assert_same_levels(loaded, model, range(3))
        for k in range(3):
            assert dict(loaded.totals[k]) == dict(model.totals[k])

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

    def test_alpha_that_overflows_the_denominator(self, saved):
        _, path = saved  # 20 tokens: 1e307 * 20 is inf
        self.rewrite(path, alpha=np.float64(1e307))
        with pytest.raises(ModelFileError, match="alpha \\* vocab_size must be finite"):
            NGramModel.load(path)

    @pytest.mark.parametrize("context_length", [0, -5])
    def test_context_length_below_one(self, saved, context_length):
        _, path = saved
        self.rewrite(path, context_length=np.int64(context_length))
        message = f"^{re.escape(str(path))}: context_length must be >= 1"
        with pytest.raises(ModelFileError, match=message):
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

    def test_huge_declared_shape_allocates_nothing(self, saved):
        _, path = saved
        path.write_bytes(_edit_header(path.read_bytes(), "keys1.npy", shape=(10**15,)))
        with pytest.raises(ModelFileError, match="declare more than the file"):
            NGramModel.load(path)

    def test_npy_format_2_member_is_refused(self, saved):
        # save writes format 1.0; numpy moves to 2.0 only for headers over 64 KiB
        _, path = saved
        path.write_bytes(_edit_header(path.read_bytes(), "keys0.npy",
                                      write=np.lib.format.write_array_header_2_0))
        with pytest.raises(ModelFileError, match=r"keys0\.npy: unsupported \.npy format "
                                                 r"version \(2, 0\)"):
            NGramModel.load(path)

    def test_compressed_members_are_refused(self, saved):
        _, path = saved
        with np.load(path) as data:
            arrays = dict(data.items())
        with open(path, "wb") as f:
            np.savez_compressed(f, **arrays)
        with pytest.raises(ModelFileError, match=r"\.npy: compressed member"):
            NGramModel.load(path)


def _edit_header(archive: bytes, member: str, write=np.lib.format.write_array_header_1_0,
                 **header) -> bytes:
    """``archive`` with one ``.npy`` header's fields replaced and written by
    ``write``, its data kept."""
    out = io.BytesIO()
    with zipfile.ZipFile(io.BytesIO(archive)) as old, zipfile.ZipFile(out, "w") as new:
        for name in old.namelist():
            data = old.read(name)
            if name == member:
                f = io.BytesIO(data)
                np.lib.format.read_magic(f)
                shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(f)
                fields = {"descr": np.lib.format.dtype_to_descr(dtype),
                          "fortran_order": fortran_order, "shape": shape, **header}
                edited = io.BytesIO()
                write(edited, fields)
                data = edited.getvalue() + f.read()
            new.writestr(name, data)
    return out.getvalue()


def _load_outcome(path):
    try:
        NGramModel.load(path)
    except ModelFileError:
        return "rejected"
    return "loaded"


@pytest.fixture(scope="module")
def model_bytes(tmp_path_factory):
    model = train_ngram(markov_corpus(np.random.default_rng(5), 12, 6, 20),
                        order=2, alpha=0.1, vocab_size=12)
    path = tmp_path_factory.mktemp("model") / "model.npz"
    model.save(path)
    return path.read_bytes()


_MEMBERS = [f"{name}.npy" for name in ("version", "order", "alpha", "vocab_size",
                                        "context_length")] + [
    f"{name}{k}.npy" for name in ("keys", "offsets", "tokens", "counts") for k in range(2)]


class TestModelFileFuzz:
    """Every damaged model file loads or raises ``ModelFileError``; none
    allocates more than the file holds. Files are a few kilobytes, and the
    byte budget bounds each example's arrays to that size."""

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.integers(0, 2**20), min_size=1, max_size=8))
    def test_bit_flips(self, tmp_path_factory, model_bytes, positions):
        data = bytearray(model_bytes)
        for position in positions:
            data[position // 8 % len(data)] ^= 1 << position % 8
        path = tmp_path_factory.mktemp("flip") / "model.npz"
        path.write_bytes(bytes(data))
        assert _load_outcome(path) in ("loaded", "rejected")

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**20))
    def test_truncation(self, tmp_path_factory, model_bytes, cut):
        path = tmp_path_factory.mktemp("cut") / "model.npz"
        path.write_bytes(model_bytes[: cut % len(model_bytes)])
        assert _load_outcome(path) == "rejected"

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(_MEMBERS),
           st.lists(st.integers(-2, 10**18) | st.integers(0, 64), max_size=3).map(tuple),
           st.sampled_from(["<i8", ">i8", "<f8", "<i4", "|b1", "|O", "<U9", "|S64", "|V8",
                            "<c16", "<M8[s]"]))
    def test_header_shape_and_dtype_edits(self, tmp_path_factory, model_bytes, member,
                                          shape, descr):
        path = tmp_path_factory.mktemp("header") / "model.npz"
        path.write_bytes(_edit_header(model_bytes, member, shape=shape, descr=descr))
        assert _load_outcome(path) in ("loaded", "rejected")


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
                assert_valid_distribution(model.next_distribution(None, ctx), 30)

    def test_context_window_truncation(self, rng):
        model = train_ngram(
            markov_corpus(rng, 30, 20, 40), order=3, alpha=0.01, vocab_size=30
        )
        model.context_length = 8
        tail = [1, 2, 3, 4, 5, 6, 7]
        a = np.asarray(model.next_distribution(None, tail))
        b = np.asarray(model.next_distribution(None, [9, 9, 9] + tail))
        assert np.array_equal(a, b)


class TestReplay:
    def test_point_masses_then_terminator(self):
        replay = ReplayPredictor([5, 6, 7], vocab_size=10, terminator=9)
        for expected in (5, 6, 7, 9, 9):
            dist = replay.next_distribution(None, [])
            assert dist.support.tolist() == [expected] and dist.values.tolist() == [1.0]
            assert dist.background == 0.0
            assert_valid_distribution(dist, 10)

    def test_ignores_context(self):
        replay = ReplayPredictor([5], vocab_size=10, terminator=9)
        assert replay.next_distribution(AV.AR, [1, 2, 3]).probability(5) == 1.0


def _payload(values, dtype="<f8") -> str:
    return base64.b64encode(np.asarray(values, dtype=dtype).tobytes()).decode("ascii")


def _reply(support, masses) -> str:
    """A ``DIST`` line: the support as int64, then the values and the
    background as float64."""
    return f"DIST {_payload(support, '<i8')} {_payload(masses)}"


# a child process cannot import the test double from conftest; it defines its own
UNIFORM_CHILD = (
    "import numpy as np\n"
    "from anticipate.predictor import Distribution\n"
    "class Uniform:\n"
    "    context_length = 1024\n"
    "    def __init__(self, vocab_size):\n"
    "        self.vocab_size = vocab_size\n"
    "    def next_distribution(self, z, context):\n"
    "        return Distribution(np.zeros(0, dtype=np.int64), np.zeros(0), 1 / self.vocab_size,\n"
    "                            self.vocab_size)\n"
)

SERVE_UNIFORM = UNIFORM_CHILD + (
    "import sys; from anticipate.bridge import serve; "
    "serve(Uniform(8), sys.stdin, sys.stdout)"
)

SERVE_REPLAY = (
    "import sys; from anticipate.bridge import serve; "
    "from anticipate.predictor import ReplayPredictor; "
    "serve(ReplayPredictor([3, 1], vocab_size=8, terminator=0), sys.stdin, sys.stdout)"
)

SERVE_COUNT = (
    "import sys; import numpy as np; from anticipate.bridge import serve\n"
    "from anticipate.predictor import Distribution\n"
    "class Count:\n"
    "    vocab_size, context_length = 16, 1024\n"
    "    def next_distribution(self, z, context):\n"
    "        return Distribution.dense(np.eye(16)[len(context)])\n"
    "serve(Count(), sys.stdin, sys.stdout)"
)

# answers request n with a point mass on token n % 4, the first one late
SLOW_ONCE = (
    "import sys, time; import numpy as np; from anticipate.bridge import format_response\n"
    "from anticipate.predictor import Distribution\n"
    "for n, line in enumerate(sys.stdin):\n"
    "    if n == 0:\n"
    "        time.sleep(1.5)\n"
    "    print(format_response(Distribution(np.array([n % 4]), np.ones(1), 0.0, 4)), flush=True)\n"
)


@st.composite
def _compact_replies(draw):
    """A valid compact reply for a vocabulary of 8, or one broken in one way."""
    support = sorted(draw(st.sets(st.integers(0, 7))))
    weights = draw(st.lists(st.floats(0, 1), min_size=len(support) + 1,
                            max_size=len(support) + 1))
    mass = sum(weights[:-1]) + weights[-1] * (8 - len(support))
    masses = np.divide(weights, mass) if mass > 0 else np.asarray(weights)
    support = np.array(support, dtype=np.int64)
    fault = draw(st.sampled_from(["none", "none", "reverse", "duplicate", "shift", "negative",
                                  "nan", "short", "long", "scale", "dense"]))
    if fault == "reverse":
        support = support[::-1]
    elif fault == "duplicate" and len(support):
        support = np.append(support, support[-1])
        masses = np.insert(masses, -1, 0.0)
    elif fault == "shift":
        support = support + draw(st.sampled_from([-8, -1, 1, 8]))
    elif fault in ("negative", "nan"):
        masses = masses.copy()
        masses[draw(st.integers(0, len(masses) - 1))] = -1e-9 if fault == "negative" else np.nan
    elif fault == "short":
        masses = masses[:-1]
    elif fault == "long":
        masses = np.append(masses, 0.0)
    elif fault == "scale":
        masses = masses * draw(st.floats(0.99, 1.01))
    elif fault == "dense":
        return "DIST " + _payload(np.asarray(Distribution(support, masses[:-1], masses[-1], 8)))
    return _reply(support, masses)


class TestBridge:
    def test_uniform_server(self):
        with ExternalPredictor([sys.executable, "-c", SERVE_UNIFORM], vocab_size=8) as model:
            dist = model.next_distribution(AV.AR, [1, 2, 3])
            assert len(dist.support) == 0 and dist.background == 0.125
            assert_valid_distribution(dist, 8)

    def test_replay_server_sequences(self):
        with ExternalPredictor([sys.executable, "-c", SERVE_REPLAY], vocab_size=8) as model:
            assert model.next_distribution(None, []).probability(3) == 1.0
            assert model.next_distribution(None, [7]).probability(1) == 1.0
            assert model.next_distribution(None, []).probability(0) == 1.0

    def test_malformed_response(self):
        script = "import sys; sys.stdin.readline(); print('GARBAGE', flush=True); sys.stdin.read()"
        with ExternalPredictor([sys.executable, "-c", script], vocab_size=8) as model:
            with pytest.raises(PredictorProtocolError, match="expected DIST"):
                model.next_distribution(None, [])
            assert model._proc.returncode is not None  # stopped, not left to answer late
            with pytest.raises(PredictorProtocolError, match="exited or was stopped"):
                model.next_distribution(None, [])

    def test_a_timeout_stops_the_child_and_fails_every_later_call(self):
        # once read, the late first reply would answer the second request
        with ExternalPredictor([sys.executable, "-c", SLOW_ONCE], vocab_size=4,
                               timeout=0.5) as model:
            with pytest.raises(TimeoutError):
                model.next_distribution(None, [])
            assert model._proc.returncode is not None
            time.sleep(1.5)  # past the late reply, had the child lived
            for _ in range(2):
                with pytest.raises(PredictorProtocolError, match="exited or was stopped"):
                    model.next_distribution(None, [])

    def test_a_child_that_exits_without_replying(self):
        script = "import sys; sys.stdin.readline()"
        with ExternalPredictor([sys.executable, "-c", script], vocab_size=8) as model:
            with pytest.raises(PredictorProtocolError, match="closed its output stream$"):
                model.next_distribution(None, [])
            with pytest.raises(PredictorProtocolError, match="has exited or was stopped"):
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
        script = UNIFORM_CHILD + (
            "import sys, time; from anticipate.bridge import serve; "
            "import io; out = io.StringIO(); "
            "serve(Uniform(4), io.StringIO('CTX -\\nCTX -\\n'), out); "
            "first, second = out.getvalue().splitlines(); sys.stdin.readline(); "
            "sys.stdout.write(first[:5]); sys.stdout.flush(); time.sleep(0.2); "
            "sys.stdout.write(first[5:] + '\\n' + second + '\\n'); sys.stdout.flush(); "
            "sys.stdin.read()"
        )
        with ExternalPredictor([sys.executable, "-c", script], vocab_size=4, timeout=5) as model:
            for _ in range(2):
                dist = model.next_distribution(None, [])
                assert len(dist.support) == 0 and dist.background == 0.25

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
        bad = [
            _reply([4, 3], [0.5, 0.5, 0.0]),  # support descending
            _reply([3, 3], [0.5, 0.5, 0.0]),  # duplicated
            _reply([-1, 3], [0.5, 0.5, 0.0]),  # negative
            _reply([3, 8], [0.5, 0.5, 0.0]),  # past the vocabulary
            _reply([3, 4], [0.5, 0.5]),  # one value short: no background
            _reply([3, 4], [0.5, 0.5, 0.0, 0.0]),
            _reply([3, 4], [-0.5, 1.5, 0.0]),  # negative value
            _reply(range(7), [1 / 7] * 7 + [-1e-3]),  # negative background, mass one
            _reply([3, 4], [np.nan, 0.5, 0.5 / 6]),
            _reply([3, 4], [0.5, 0.5, np.inf]),
            _reply([3, 4], [0.5, 0.5 + 2e-6, 0.0]),  # mass off by more than 1e-6
            _reply([], [0.125 + 3e-7]),  # the background times 8
            _reply([], [0.0]),
            "DIST " + _payload([0.125] * 8),  # the earlier dense one-field reply
            _reply([3, 4], [0.5, 0.5, 0.0]) + " " + _payload([0.0]),  # a third field
            "DIST !!notbase64!! " + _payload([0.125]),
            _reply([], [0.125])[:-4],  # truncated float field
            f"DIST {_payload([3], '<i8')[:-4]} {_payload([1.0, 0.0])}",  # 4 of 8 bytes
            "DIST 3:0.5 4:0.5",  # the earliest sparse text format
            "ERR malformed request",
            "",
        ]
        for line in bad:
            with pytest.raises(PredictorProtocolError):
                parse_response(line, vocab_size=8)
        dist = parse_response(_reply([3, 4], [0.5, 0.5, 0.0]), vocab_size=8)
        assert dist.support.tolist() == [3, 4] and dist.values.tolist() == [0.5, 0.5]
        assert dist.background == 0.0 and dist.size == 8
        assert np.asarray(dist).tolist() == [0, 0, 0, 0.5, 0.5, 0, 0, 0]
        dist.values[0] = 1.0  # the caller owns a writable copy
        for support, masses in [([], [0.125]), (range(8), [0.125] * 9), ([0], [0.3, 0.1])]:
            assert_valid_distribution(parse_response(_reply(support, masses), 8), 8)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        st.text(max_size=60),
        st.builds(lambda verb, fields: " ".join([verb, *fields]),
                  st.sampled_from(["DIST", "dist", "ERR", ""]),
                  st.lists(st.one_of(
                      st.lists(st.integers(-2, 10), max_size=10).map(
                          lambda ints: _payload(ints, "<i8")),
                      st.lists(st.floats(width=64), max_size=10).map(_payload),
                      st.binary(max_size=90).map(lambda b: base64.b64encode(b).decode("ascii")),
                      st.text(max_size=40)), max_size=3)),
        _compact_replies(),
    ))
    def test_parse_response_fuzz(self, line):
        """Any reply line parses to a distribution that keeps the contract, or
        raises PredictorProtocolError."""
        try:
            dist = parse_response(line, vocab_size=8)
        except PredictorProtocolError:
            return
        assert_valid_distribution(dist, 8, tolerance=1e-6)

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
                actual = parse_response(lines[2 * i + j], vocab_size=30)
                expected = model.next_distribution(z, context)
                assert np.array_equal(actual.support, expected.support)
                assert np.array_equal(np.append(actual.values, actual.background).view(np.int64),
                                      np.append(expected.values, expected.background)
                                      .view(np.int64))

    def test_client_sends_only_the_look_back_window(self):
        # the child answers a point mass at the number of context tokens it got
        for context_length, expected in ((1, 0), (4, 3), (64, 5)):
            with ExternalPredictor([sys.executable, "-c", SERVE_COUNT], vocab_size=16,
                                   context_length=context_length) as model:
                assert model.next_distribution(None, [1, 2, 3, 4, 5]).probability(expected) == 1
                assert model.next_distribution(AV.AR, []).probability(0) == 1

    def test_serve_survives_malformed_requests(self):
        requests = io.StringIO("CTX\n\nCTX 5 x\n  \nHELLO\nCTX - 1 2\n")  # blank lines are skipped
        replies = io.StringIO()
        serve(UniformPredictor(4), requests, replies)
        lines = replies.getvalue().splitlines()
        assert len(lines) == 4
        assert lines[:3] == ["ERR malformed request", "ERR malformed request",
                             "ERR unknown request"]
        assert np.asarray(parse_response(lines[3], vocab_size=4)).tolist() == [0.25] * 4
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
