"""Generation loops: nucleus sampling, online anticipation equivalence,
the baseline infilling loop, grammar masking, and determinism."""

from __future__ import annotations

import copy
import functools
import os
import sys
import threading
import time
import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from anticipate import golden, sampler
from anticipate.anticipation import interleave
from anticipate.augment import AugmentationPolicy, augment_corpus
from anticipate.events import (
    MAX_TIME_UNITS, REST, Event, EventSequence, InterleavedSequence, TaggedEvent, encode_note,
)
from anticipate.predictor import Distribution, ReplayPredictor, train_ngram
from anticipate.sampler import (
    GenerationResult,
    SamplerConfig,
    _context_after,
    _generate,
    _sample_event,
    generate_anticipatory,
    generate_autoregressive_infill,
    nucleus_sample,
)
from anticipate.tokenizer import TokenError, _arrival_triples, encode_arrival
from anticipate.vocab import ArrivalVocab as AV, InterarrivalVocab as IV

from conftest import (
    UniformPredictor, event_sort_key, random_controls, random_events, reference_event_triple,
    reference_nucleus_sample, unchecked_interleaved,
)


def replay_for(events: EventSequence):
    """A predictor that replays the plain-event triples, then a separator."""
    return ReplayPredictor(encode_arrival(events), AV.SIZE, AV.SEP)


def run_replay(events, controls, delta_units, **kwargs):
    config = SamplerConfig(delta=delta_units / 100.0, top_p=0.95, seed=0, **kwargs)
    return generate_anticipatory(replay_for(events), controls, config)


class TestNucleus:
    def test_point_mass_any_p(self, rng):
        dist = np.zeros(10)
        dist[7] = 1.0
        for p in (0.05, 0.5, 1.0):
            assert nucleus_sample(Distribution.dense(dist), p, rng) == 7

    def test_prefix_support_and_renormalization(self, rng):
        dist = Distribution.dense(np.array([0.5, 0.3, 0.2]))
        draws = np.array([nucleus_sample(dist, 0.7, rng) for _ in range(20_000)])
        assert set(draws.tolist()) == {0, 1}
        # renormalized prefix of mass 0.8: probabilities 0.625 / 0.375
        freq = (draws == 0).mean()
        assert freq == pytest.approx(0.625, abs=0.02)

    def test_full_sampling_at_p_one(self, rng):
        dist = Distribution.dense(np.full(4, 0.25))
        draws = np.array([nucleus_sample(dist, 1.0, rng) for _ in range(10_000)])
        for token in range(4):
            assert (draws == token).mean() == pytest.approx(0.25, abs=0.02)

    def test_degenerate_distribution(self, rng):
        with pytest.raises(ValueError):
            nucleus_sample(Distribution.dense(np.zeros(4)), 0.9, rng)

    def test_invalid_p(self, rng):
        with pytest.raises(ValueError):
            nucleus_sample(Distribution.dense(np.full(4, 0.25)), 0.0, rng)

    @pytest.mark.parametrize("dist, p, nucleus", [
        ([0.25, 0.25, 0.25, 0.25], 1.0, [0, 1, 2, 3]),
        ([0.125, 0.5, 0.125, 0.25], 1.0, [1, 3, 0, 2]),
        ([0.1] * 10, 1.0, list(range(10))),
        ([0.1] * 10, 0.95, list(range(10))),
        ([0.3, 0.1, 0.3, 0.2, 0.1], 0.9, [0, 2, 3, 1]),
        ([0.5, 0.0, 0.5, 0.0], 1.0, [0, 2]),
        # the classes 0.5 and 2 * 0.2 reach 0.9 = p * total, so the 0.1 is
        # left out, where a running sum over the tokens, 0.8999999999999999
        # after the second 0.2, took it too
        ([0.2, 0.5, 0.1, 0.2], 0.9, [1, 0, 3]),
    ])
    def test_draws_on_cumulative_boundaries_match_the_reference(self, dist, p, nucleus):
        # Draws exactly on the renormalized cumulative weights, and the
        # largest draw below 1, pick what the reference picks, in the nucleus
        # (ranked descending, ties by index): the first draw its first token,
        # the largest its last, so never a token after it.
        compact = Distribution.dense(np.asarray(dist, dtype=np.float64))
        draws = (0.0, 0.125, 0.25, 0.5, 0.625, 0.75, 0.875, np.nextafter(1.0, 0.0))
        tokens = [nucleus_sample(compact, p, _FixedDraws(draw)) for draw in draws]
        assert tokens == [reference_nucleus_sample(dist, p, _FixedDraws(draw)) for draw in draws]
        assert tokens[0] == nucleus[0] and tokens[-1] == nucleus[-1]
        assert set(tokens) <= set(nucleus)

    @pytest.mark.parametrize("dist, p", [
        # a negative weight in the nucleus, under a positive total
        (Distribution.dense(np.array([-0.2, 0.2, 0.2, 0.6, 0.4])), 1.0),
        # a weight outside the nucleus, or the background of tokens outside it
        (Distribution.dense(np.array([0.5, 0.5, -0.1])), 0.5),
        (Distribution.dense(np.array([0.5, 0.5, np.nan])), 0.5),
        (Distribution.dense(np.array([0.9, 0.1, -np.inf, 0.0])), 0.5),
        (Distribution(np.array([2]), np.array([0.9]), -1e-3, 5), 0.5),
        (Distribution(np.array([2]), np.array([0.9]), np.nan, 5), 0.5),
        (Distribution(np.array([1, 3]), np.array([0.9, np.inf]), 0.01, 5), 0.5),
    ])
    def test_negative_or_nonfinite_weight_anywhere_is_rejected(self, dist, p, rng):
        for sample, case in ((reference_nucleus_sample, np.asarray(dist)), (nucleus_sample, dist)):
            with pytest.raises(ValueError, match="nucleus weights must be non-negative"):
                sample(case, p, rng)

    @pytest.mark.parametrize("width", [*range(1, 41), 16_513])
    def test_p_on_a_running_mass_stops_at_that_class(self, width):
        # An n-gram slot's shape, a background under a few support values,
        # from integer weights summing to a power of two and scaled by it:
        # every class mass, running mass and the total 1 are exact, so p is
        # exactly the running mass of each class in turn. The largest draw
        # then picks that class's last token by index, and one step of p past
        # it the next class's first token.
        data = np.random.default_rng(width)
        support = np.sort(data.choice(width, size=int(data.integers(1, min(width, 12) + 1)),
                                      replace=False))
        weights = data.integers(1, 7, size=len(support))  # 1 ties with the background
        rest = width - len(support) + int(weights[1:].sum())
        scale = 1 << rest.bit_length()  # a power of two above the rest
        weights[0] = scale - rest
        dist = Distribution(support, weights / scale, 1 / scale, width)
        dense = np.asarray(dist)
        values = np.unique(dense)[::-1]
        last = np.nextafter(1.0, 0.0)
        running = np.cumsum([v * (dense == v).sum() for v in values])
        assert running[-1] == 1.0
        for value, p, after in zip(values, running, [*values[1:], None]):
            tokens = np.flatnonzero(dense == value)
            for sample, case in ((nucleus_sample, dist), (reference_nucleus_sample, dense)):
                assert sample(case, p, _FixedDraws(last)) == tokens[-1]
                if after is not None:
                    first = np.flatnonzero(dense == after)[0]
                    assert sample(case, np.nextafter(p, 2.0), _FixedDraws(last)) == first

    @settings(max_examples=400, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        width=st.one_of(st.integers(1, 40), st.sampled_from([1_000, 10_000, 12_000, 16_513])),
        kind=st.sampled_from(["random", "ties", "signed-zeros", "subnormal", "spikes", "point",
                              "dirichlet", "zero", "nonfinite", "negative", "mixed-sign",
                              "ngram"]),
        p=st.one_of(st.sampled_from([0.5, 0.9, 0.95, 1.0]), st.floats(0, 1, exclude_min=True)),
        form=st.sampled_from(["float64", "float32", "list"]),
    )
    def test_matches_the_reference_on_dense_cases(self, seed, width, kind, p, form):
        # the same token and the same generator state as the rule applied
        # to the dense vector, or the same error type
        data = np.random.default_rng(seed)
        dist = _nucleus_case(data, width, kind)
        if kind == "ngram":  # p on a class boundary
            p = _class_boundary(dist, data)
        dist = dist.astype(np.float32) if form == "float32" else dist
        dist = dist.tolist() if form == "list" else dist
        compact = Distribution.dense(np.asarray(dist, dtype=np.float64))
        rngs = [np.random.default_rng(seed), np.random.default_rng(seed)]
        outcomes = []
        for sample, case, rng in zip((reference_nucleus_sample, nucleus_sample), (dist, compact),
                                     rngs):
            try:
                outcomes.append(sample(case, p, rng))
            except Exception as exc:
                outcomes.append(type(exc))
        assert outcomes[1] == outcomes[0]
        assert rngs[1].random() == rngs[0].random()

    @settings(max_examples=400, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        width=st.one_of(st.integers(1, 40), st.sampled_from([1_000, 10_000, 16_513])),
        kind=st.sampled_from(["random", "ties", "signed-zeros", "subnormal", "spikes", "point",
                              "dirichlet", "zero", "nonfinite", "negative", "mixed-sign",
                              "ngram"]),
        p=st.one_of(st.sampled_from([0.5, 0.9, 0.95, 1.0]), st.floats(0, 1, exclude_min=True)),
        form=st.sampled_from(["floor", "extra", "point", "full", "empty", "two-range"]),
    )
    def test_slot_distributions_match_the_dense_reference(self, seed, width, kind, p, form):
        # a case as a compact slot distribution: its most common value as the
        # background ("extra" also lists some tokens of that value in the
        # support), background 0 under one token, every token as support, no
        # support at all, or cut by _slot_distribution from two ranges of a
        # wider distribution. The token and the generator state equal the
        # reference's on the materialized dense slot, or the error type does.
        data = np.random.default_rng(seed)
        dense = _nucleus_case(data, width, kind)
        if kind == "ngram":
            p = _class_boundary(dense, data)
        if form == "point":
            token = np.array([data.integers(len(dense))])
            dist = Distribution(token, dense[token], 0.0, len(dense))
            dense = np.asarray(dist)
        elif form == "empty":
            dist = Distribution(np.zeros(0, dtype=np.int64), np.zeros(0), dense[0], len(dense))
            dense = np.asarray(dist)
        elif form == "full":
            dist = Distribution(np.arange(len(dense)), dense, data.random(), len(dense))
        elif form == "two-range":
            dist = _two_range_slot(dense, data)
        else:
            dist = _compact(dense, data, extra=form == "extra")
        assert np.array_equal(np.asarray(dist), dense, equal_nan=True)
        rngs = [np.random.default_rng(seed), np.random.default_rng(seed)]
        outcomes = []
        for sample, case, rng in zip((reference_nucleus_sample, nucleus_sample), (dense, dist),
                                     rngs):
            try:
                outcomes.append(sample(case, p, rng))
            except Exception as exc:
                outcomes.append(type(exc))
        assert outcomes[1] == outcomes[0]
        assert rngs[1].random() == rngs[0].random()


class TestNucleusMemo:
    """The memo of ranked classes: keyed by a slot's values, background, the
    background's token count and ``p``; cold or warm, the same draws."""

    @pytest.fixture(autouse=True)
    def cold_memo(self, monkeypatch):
        monkeypatch.setattr(sampler, "_memo", sampler._Memo())

    @staticmethod
    def _outcome(sample, case, p, seed):
        """The token and the generator's state after it, or the error type."""
        rng = np.random.default_rng(seed)
        try:
            return sample(case, p, rng), rng.bit_generator.state
        except ValueError as exc:
            return type(exc)

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        width=st.one_of(st.integers(1, 40), st.sampled_from([1_000, 16_513])),
        kind=st.sampled_from(["random", "ties", "signed-zeros", "subnormal", "spikes",
                              "dirichlet", "ngram"]),
        p=st.one_of(st.sampled_from([0.5, 0.9, 0.95, 1.0]), st.floats(0, 1, exclude_min=True)),
        sign=st.sampled_from([1.0, -1.0]),
    )
    def test_cold_and_warm_draws_match_the_reference(self, seed, width, kind, p, sign):
        # the background's zeros signed at random: 0.0 and -0.0 are two keys
        data = np.random.default_rng(seed)
        dense = _nucleus_case(data, width, kind)
        if kind == "ngram":
            p = _class_boundary(dense, data)
        dist = _compact(dense, data, extra=data.random() < 0.5)
        if dist.background == 0:
            dist.background = sign * 0.0
        dense = np.asarray(dist)
        expected = self._outcome(reference_nucleus_sample, dense, p, seed)
        sampler._memo = sampler._Memo()  # restored by the fixture's monkeypatch
        assert self._outcome(nucleus_sample, dist, p, seed) == expected  # cold
        assert self._outcome(nucleus_sample, dist, p, seed) == expected  # warm
        assert len(sampler._memo._entries) <= 1

    def test_signed_zero_backgrounds_are_kept_apart(self):
        support, values = np.arange(0, 20, 2), np.linspace(0.2, 0.02, 10)
        for background in (0.0, -0.0, 0.0):
            dist = Distribution(support, values, background, 24)
            for draw in (0.0, 0.5, np.nextafter(1.0, 0.0)):
                expected = reference_nucleus_sample(np.asarray(dist), 1.0, _FixedDraws(draw))
                assert nucleus_sample(dist, 1.0, _FixedDraws(draw)) == expected
        assert len(sampler._memo._entries) == 2

    def test_equal_values_on_other_supports_draw_their_own_tokens(self):
        # one memo entry, two slots: the classes are shared, the tokens not
        values = np.array([0.3, 0.1, 0.3, 0.2, 0.1, 0.05, 0.1, 0.05, 0.3, 0.2])
        tokens = set()
        for support in (np.arange(0, 20, 2), np.arange(1, 21, 2)):
            dist = Distribution(support, values, 0.01, 21)
            for draw in (0.0, 0.3, 0.6, 0.9, np.nextafter(1.0, 0.0)):
                token = nucleus_sample(dist, 0.95, _FixedDraws(draw))
                assert token == reference_nucleus_sample(np.asarray(dist), 0.95, _FixedDraws(draw))
                tokens.add(token)
        assert len(sampler._memo._entries) == 1
        assert tokens & set(range(0, 20, 2)) and tokens & set(range(1, 21, 2))

    def test_each_p_ranks_its_own_nucleus(self):
        dist = Distribution(np.arange(0, 30, 3), np.linspace(0.5, 0.05, 10), 0.01, 31)
        last = np.nextafter(1.0, 0.0)
        for p in (0.5, 0.8, 1.0, 0.5):
            expected = reference_nucleus_sample(np.asarray(dist), p, _FixedDraws(last))
            assert nucleus_sample(dist, p, _FixedDraws(last)) == expected
        assert len(sampler._memo._entries) == 3

    @pytest.mark.parametrize("width", [1, 2, 8])
    def test_few_values_are_ranked_once_and_kept(self, width):
        # a slot of a few support values, like a time slot holding only SEP,
        # goes through the memo like any other: one entry for every draw
        data = np.random.default_rng(width)
        support = np.sort(data.choice(40, width, replace=False))
        dist = Distribution(support, data.random(width), 0.002, 40)
        for seed in range(20):
            expected = self._outcome(reference_nucleus_sample, np.asarray(dist), 0.95, seed)
            assert self._outcome(nucleus_sample, dist, 0.95, seed) == expected
        assert len(sampler._memo._entries) == 1

    @pytest.mark.parametrize("dist", [
        Distribution.dense(np.array([0.5, 0.5, -0.1])),
        Distribution(np.array([2]), np.array([0.9]), np.nan, 5),
        Distribution.dense(np.zeros(4)),
    ])
    def test_a_refusal_raises_on_every_call(self, dist, rng):
        for _ in range(2):
            with pytest.raises(ValueError):
                nucleus_sample(dist, 0.5, rng)
        assert not sampler._memo._entries

    def test_a_dense_predictor_keeps_the_memo_under_its_byte_bound(self):
        # slots as wide as the arrival vocabulary: keys of 440 KB, few of
        # them fit; a slot of all distinct values is ranked but not kept
        data = np.random.default_rng(5)
        slots = [Distribution.dense(data.integers(1, 5, AV.SIZE) / 4.0) for _ in range(8)]
        slots.append(Distribution.dense(data.random(AV.SIZE)))
        tracemalloc.start()
        try:
            for dist in [*slots, *slots[::-1]]:
                seed = int(data.integers(2**32))
                expected = self._outcome(reference_nucleus_sample, np.asarray(dist), 0.95, seed)
                assert self._outcome(nucleus_sample, dist, 0.95, seed) == expected
                assert sampler._memo._entries and sampler._memo.bytes <= sampler._MEMO_BYTES
                held, _ = tracemalloc.get_traced_memory()
                assert held <= sampler._MEMO_BYTES
        finally:
            tracemalloc.stop()
        entries = sampler._memo._entries
        assert 1 <= len(entries) < len(slots) - 1
        assert sampler._memo.bytes == sum(size for _, size in entries.values())

    @pytest.mark.parametrize("width", [1, 2, 8])
    def test_small_slots_keep_the_memo_under_its_byte_bound(self, width):
        # thousands of distinct slots of a few values, more than the memo
        # holds: it evicts, counts exactly the sizes it keeps, and the memory
        # it really holds stays within the bound
        data = np.random.default_rng(width)
        n = 4_000
        tracemalloc.start()
        try:
            for i in range(n):
                support = np.sort(data.choice(40, width, replace=False))
                dist = Distribution(support, data.random(width), data.random() / 400, 40)
                seed = int(data.integers(2**32))
                outcome = self._outcome(nucleus_sample, dist, 0.95, seed)
                if i % 100 == 0:
                    held, _ = tracemalloc.get_traced_memory()
                    assert held <= sampler._MEMO_BYTES
                    expected = self._outcome(reference_nucleus_sample, np.asarray(dist), 0.95, seed)
                    assert outcome == expected
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        entries = sampler._memo._entries
        assert len(entries) < n and held <= sampler._MEMO_BYTES
        assert sampler._memo.bytes == sum(size for _, size in entries.values())
        assert sampler._MEMO_BYTES - 2_000 < sampler._memo.bytes <= sampler._MEMO_BYTES

    def test_threads_sharing_the_memo_draw_as_alone(self, monkeypatch):
        # more threads than cores, switching often, on a memo small enough
        # to evict all the time; each draw must equal the reference's
        data = np.random.default_rng(11)
        cases = []
        for i in range(60):
            dense = _nucleus_case(data, int(data.integers(1, 200)),
                                  ["ties", "spikes", "random"][i % 3])
            dist = _compact(dense, data)
            seed = int(data.integers(2**32))
            cases.append((dist, seed, self._outcome(reference_nucleus_sample, dense, 0.9, seed)))
        monkeypatch.setattr(sampler, "_MEMO_BYTES", 20_000)
        failures, deadline = [], time.monotonic() + 1.0

        def worker(offset):
            k = offset
            while time.monotonic() < deadline:
                dist, seed, expected = cases[k % len(cases)]
                try:
                    if self._outcome(nucleus_sample, dist, 0.9, seed) != expected:
                        failures.append(k % len(cases))
                except Exception as exc:  # a thread's error would not fail the test
                    failures.append(repr(exc))
                k += 7

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range((os.cpu_count() or 1) + 3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        assert failures == []
        entries = sampler._memo._entries
        assert sampler._memo.bytes == sum(size for _, size in entries.values()) <= 20_000


@pytest.mark.parametrize("held", [(), (0,), (1,), (0, 1)])
def test_slot_distribution_of_ranges_without_support_tokens(held):
    # a time slot's shape, times from a start and then SEP alone: only the
    # ranges in ``held`` hold support tokens, the others only background
    ranges = ((20, 30), (50, 51))
    support = np.array([5, *((22, 27) if 0 in held else ()), *((50,) if 1 in held else ()), 60])
    dist = Distribution(support, np.linspace(0.1, 0.3, len(support)), 0.01, 64)
    slot = sampler._slot_distribution(dist, ranges)
    dense = np.asarray(dist)
    assert np.array_equal(np.asarray(slot), np.concatenate([dense[lo:hi] for lo, hi in ranges]))
    assert slot.size == 11 and len(slot.support) == 2 * (0 in held) + (1 in held)
    assert slot.support.dtype == np.int64 and slot.values.dtype == np.float64


def _compact(dense: np.ndarray, rng: np.random.Generator, extra: bool = False) -> Distribution:
    """``dense`` with its most common value as the background and every
    other token as support; with ``extra``, some background tokens too."""
    values, counts = np.unique(dense, return_counts=True)
    background = values[counts.argmax()]
    listed = dense != background
    if extra:
        listed |= rng.random(len(dense)) < 0.3
    support = np.flatnonzero(listed)
    return Distribution(support, dense[support], background, len(dense))


def _two_range_slot(dense: np.ndarray, rng: np.random.Generator) -> Distribution:
    """``dense`` split in two and laid in two token ranges of a wider
    distribution, the second range before or after the first, with other
    tokens around them; cut back out by ``_slot_distribution``."""
    cut = int(rng.integers(len(dense) + 1))
    gaps = rng.integers(0, 50, size=3)
    first, second = dense[:cut], dense[cut:]
    if rng.random() < 0.5:  # the second range holds lower token ids, as SEP may
        lo2 = int(gaps[0])
        lo1 = lo2 + len(second) + int(gaps[1])
    else:
        lo1 = int(gaps[0])
        lo2 = lo1 + len(first) + int(gaps[1])
    background = _compact(dense, rng).background
    wide = np.full(max(lo1 + len(first), lo2 + len(second)) + int(gaps[2]), background)
    noise = rng.random(len(wide)) < 0.5
    wide[noise] = rng.random(int(noise.sum()))
    wide[lo1 : lo1 + len(first)] = first
    wide[lo2 : lo2 + len(second)] = second
    ranges = ((lo1, lo1 + len(first)), (lo2, lo2 + len(second)))
    return sampler._slot_distribution(_compact(wide, rng), ranges)


def _class_boundary(dist: np.ndarray, rng: np.random.Generator) -> float:
    """A ``p`` at which the nucleus ends after a random number of whole
    value classes, descending."""
    values, counts = (a[::-1] for a in np.unique(dist, return_counts=True))
    mass = (values * counts).cumsum()
    return min(float(mass[rng.integers(len(mass))] / mass[-1]), 1.0)


class _FixedDraws(np.random.Generator):
    """A generator whose ``random()`` returns the given draws in turn."""

    def __init__(self, *draws: float):
        super().__init__(np.random.PCG64(0))
        self.draws = list(draws)

    def random(self, *args, **kwargs):
        return self.draws.pop(0)


def _nucleus_case(rng: np.random.Generator, width: int, kind: str) -> np.ndarray:
    """A distribution of ``width`` weights, unnormalized, of the given ``kind``.

    An ``ngram`` case has an n-gram slot's shape and picks its own width,
    1 000, 10 001 or 16 513: a floor under 1-2 000 tokens of 1-150 distinct
    values, with floor tokens before, between and after them.
    """
    if kind == "ngram":
        width = int(rng.choice([1_000, 10_001, 16_513]))
        dist = np.full(width, rng.uniform(1e-7, 1e-4))
        size = min(round(2_000 ** rng.random()), (width - 2) // 2)  # log-uniform, as in slots
        tokens = np.sort(rng.choice(np.arange(1, width - 1), size=size, replace=False))
        if size > 2:
            tokens = np.delete(tokens, size // 2)  # a floor token between them
        multiples = rng.choice(np.arange(2, 3 + round(10_000 ** rng.random())),
                               size=int(rng.integers(1, 151)))
        dist[tokens] = dist[0] * rng.choice(multiples, size=len(tokens))
        return dist
    if kind == "random":
        return rng.random(width) ** rng.uniform(1, 30)
    if kind == "ties":  # few distinct values, zeros among them
        return np.round(rng.random(width), int(rng.integers(0, 3)))
    if kind == "signed-zeros":  # ties, each zero 0.0 or -0.0: one class
        dist = np.round(rng.random(width), int(rng.integers(0, 3)))
        dist[dist == 0] *= rng.choice([1.0, -1.0], size=int((dist == 0).sum()))
        return dist
    if kind == "subnormal":  # multiples of the smallest subnormals, some under a normal weight
        dist = rng.integers(0, 4, width) * rng.choice([5e-324, 2**20 * 5e-324])
        if rng.random() < 0.5:
            dist[rng.integers(width)] = rng.uniform(1e-300, 1)
        return dist
    if kind == "spikes":  # a flat floor under a few large weights
        dist = np.full(width, rng.uniform(1e-6, 1e-3))
        dist[rng.integers(0, width, size=int(rng.integers(1, 6)))] = rng.uniform(0.01, 1)
        return dist
    if kind == "point":
        dist = np.zeros(width)
        dist[rng.integers(width)] = rng.uniform(1e-300, 10)
        return dist
    if kind == "dirichlet":
        return rng.dirichlet(np.full(width, rng.uniform(0.01, 1)))
    if kind == "zero":
        return np.zeros(width)
    if kind == "nonfinite":
        dist = rng.random(width)
        dist[rng.integers(width)] = rng.choice([np.nan, np.inf, -np.inf])
        return dist
    if kind == "negative":  # one negative weight among positive ones
        dist = rng.random(width)
        dist[rng.integers(width)] = -rng.choice([1e-18, 1e-3, 1.0, 1e3])
        return dist
    return rng.normal(rng.uniform(-0.5, 1), 1, width)  # mixed signs


def test_augmented_ngram_sessions_match_the_reference(monkeypatch):
    # An order-3 n-gram trained on augmented rows gives slots of the bench's
    # shape: a few support values over one background class. Twenty seeded
    # sessions of each mode place the same items as with the reference rule
    # on the dense slot patched in.
    rng = np.random.default_rng(23)
    corpus = [random_events(rng, 80, max_gap=120, avoid_note_overlap=True) for _ in range(8)]
    copies = augment_corpus(corpus, AugmentationPolicy(factor=10), seed=1)
    model = train_ngram([encode_arrival(c.interleaved) for c in copies], order=3, alpha=0.01,
                        vocab_size=AV.SIZE)
    melody = random_controls(rng, 12, max_time=2_000)

    def sessions():
        return [list(generate(model, melody, SamplerConfig(top_p=0.95, max_tokens=150,
                                                           seed=seed)).sequence)
                for generate in (generate_anticipatory, generate_autoregressive_infill)
                for seed in range(20)]

    actual = sessions()
    monkeypatch.setattr(sampler, "nucleus_sample",
                        lambda dist, p, rng: reference_nucleus_sample(np.asarray(dist), p, rng))
    assert sessions() == actual
    assert len({tuple(items) for items in actual}) == 40


class TestAnticipatoryReplay:
    def test_reference_ordering(self):
        s = golden.SCENARIO_A
        result = run_replay(s["events"], s["controls"], s["delta"])
        assert not result.truncated
        assert list(result.sequence) == list(
            interleave(s["events"], s["controls"], s["delta"])
        )

    def test_no_controls_pure_autoregressive(self, rng):
        events = random_events(rng, 30)
        result = run_replay(events, EventSequence(), 500)
        assert result.sequence.events() == events
        assert not result.sequence.has_controls

    def test_equivalence_random_instances(self, rng):
        for _ in range(100):
            events = random_events(rng, int(rng.integers(1, 80)), max_gap=150)
            controls = random_controls(
                rng, int(rng.integers(0, 20)), max_time=int(events.end_time + 600)
            )
            delta = int(rng.choice([50, 100, 200, 500]))
            result = run_replay(events, controls, delta)
            offline = interleave(events, controls, delta)
            assert list(result.sequence) == list(offline)

    def test_trailing_controls_flushed(self):
        events = EventSequence([Event(0, 10, 60)])
        controls = EventSequence([Event(9_000, 10, 61)])
        result = run_replay(events, controls, 500)
        assert [i.control for i in result.sequence] == [False, True]

    def test_max_tokens_truncates(self, rng):
        events = random_events(rng, 50)
        result = run_replay(events, EventSequence(), 500, max_tokens=30)
        assert result.truncated
        assert len(result.sequence) == 10

    def test_control_beyond_token_range_rejected(self):
        controls = EventSequence([Event(10_000, 1, 60)])
        with pytest.raises(ValueError):
            run_replay(EventSequence([Event(0, 1, 60)]), controls, 500)


class TestBaselineInfill:
    def test_controls_wait_for_their_time(self):
        s = golden.SCENARIO_A  # events at 100/300/500, control at 700
        config = SamplerConfig(delta=5.0, seed=0)
        result = generate_autoregressive_infill(replay_for(s["events"]), s["controls"], config)
        # the control cannot be anticipated: it lands after every event whose
        # time is below 700, here after the replayed end of stream
        kinds = [i.control for i in result.sequence]
        assert kinds == [False, False, False, True]
        for i, item in enumerate(result.sequence):
            if item.control:
                before = [x.event.time for x in result.sequence[:i] if not x.control]
                assert all(t < item.event.time for t in before)

    def test_controls_before_zero_emitted_first(self, rng):
        events = random_events(rng, 10)
        controls = EventSequence([Event(0, 1, 60), Event(0, 2, 61)])
        config = SamplerConfig(delta=5.0, seed=0)
        result = generate_autoregressive_infill(replay_for(events), controls, config)
        assert [i.control for i in result.sequence[:2]] == [True, True]

    def test_insertion_invariant_random(self, rng):
        for _ in range(50):
            events = random_events(rng, int(rng.integers(1, 60)), max_gap=150)
            controls = random_controls(rng, int(rng.integers(0, 15)), max_time=int(events.end_time))
            config = SamplerConfig(delta=5.0, seed=0)
            result = generate_autoregressive_infill(replay_for(events), controls, config)
            seen: list[int] = []
            for item in result.sequence:
                if item.control:
                    assert all(t < item.event.time for t in seen)
                else:
                    seen.append(item.event.time)
            # lossless: all events and controls present
            assert result.sequence.events() == events
            assert result.sequence.controls() == controls

    def test_matches_anticipatory_without_controls(self, rng):
        corpus = [encode_arrival(random_events(rng, 20, start_at_zero=True)) for _ in range(20)]
        model = train_ngram(corpus, order=2, alpha=0.05, vocab_size=AV.SIZE)
        config = SamplerConfig(delta=5.0, seed=1234, max_tokens=60)
        a = generate_anticipatory(model, EventSequence(), config)
        b = generate_autoregressive_infill(model, EventSequence(), config)
        assert list(a.sequence) == list(b.sequence)


class TestGrammarMask:
    @pytest.fixture
    def model(self, rng):
        rows = []
        for _ in range(30):
            seq = random_events(rng, 25, max_gap=80, start_at_zero=True)
            rows.append(encode_arrival(seq, z=AV.AR) + [AV.SEP] * 3)
        return train_ngram(rows, order=2, alpha=0.01, vocab_size=AV.SIZE)

    def test_generated_tokens_respect_slots_and_monotonicity(self, model):
        config = SamplerConfig(delta=5.0, top_p=0.98, seed=7, max_tokens=120)
        result = generate_anticipatory(model, EventSequence(), config)
        tokens = encode_arrival(result.sequence)
        for i in range(0, len(tokens), 3):
            assert AV.is_plain_time(tokens[i])
            assert AV.is_plain_duration(tokens[i + 1])
            assert AV.is_plain_note(tokens[i + 2]) or tokens[i + 2] == AV.REST
        times = [item.event.time for item in result.sequence]
        assert times == sorted(times)

    def test_determinism(self, model):
        config = SamplerConfig(delta=5.0, top_p=0.98, seed=99, max_tokens=90)
        a = generate_anticipatory(model, EventSequence(), config)
        b = generate_anticipatory(model, EventSequence(), config)
        assert list(a.sequence) == list(b.sequence)
        c = generate_anticipatory(model, EventSequence(), SamplerConfig(delta=5.0, top_p=0.98, seed=100, max_tokens=90))
        # different seed almost surely diverges for a smoothed model
        assert list(a.sequence) != list(c.sequence)

    def test_controls_interleaved_with_sampled_events(self, model, rng):
        controls = EventSequence([Event(100, 10, encode_note(0, 70)), Event(250, 10, encode_note(0, 72))])
        config = SamplerConfig(delta=2.0, top_p=0.98, seed=3, max_tokens=150)
        result = generate_anticipatory(model, controls, config)
        assert result.sequence.controls() == controls
        # every control either follows a sampled event within delta of its
        # time, or sits in the trailing flush after the last sampled event
        items = list(result.sequence)
        last_plain = max((i for i, it in enumerate(items) if not it.control), default=-1)
        for i, item in enumerate(items):
            if not item.control:
                continue
            preceding = [it.event.time for it in items[:i] if not it.control]
            triggered = any(t >= item.event.time - 200 for t in preceding)
            assert triggered or i > last_plain

    def test_z_defaults(self, model):
        config = SamplerConfig(delta=5.0, seed=0, max_tokens=30)
        controls = EventSequence([Event(50, 1, 60)])
        assert generate_anticipatory(model, controls, config).sequence.controls() == controls


class _ScriptedPredictor:
    """Returns the scripted token weights for each call and records every context."""

    vocab_size = AV.SIZE

    def __init__(self, steps: list[dict[int, float]], context_length: int):
        self.steps = steps
        self.context_length = context_length
        self.contexts: list[list[int]] = []

    def next_distribution(self, z, context):
        step = self.steps[len(self.contexts)]
        self.contexts.append(list(context))
        support = sorted(step)
        return Distribution(np.array(support, dtype=np.int64), np.array([step[t] for t in support]),
                            0.0, self.vocab_size)


class TestSlidingContext:
    def test_window_led_by_control_keeps_event_times_distinct(self):
        # context_length 16 holds 5 triples. After e@0, C@400 (released
        # 5 s ahead), e@10..e@40 the window reads [C@400, e@10, e@20, e@30,
        # e@40]; relativized by its minimum time (10) the events stay at
        # 0/10/20/30 and the next event may land at absolute time 40.
        def triple(time_token):
            return [{time_token: 1.0}, {AV.DUR_BASE + 1: 1.0}, {AV.NOTE_BASE + 60: 1.0}]

        steps = [step for t in (0, 10, 20, 30, 40) for step in triple(t)]
        # relative 29 is absolute 39, before the last event: the mask drops it
        steps += [{29: 0.5, 30: 0.5}] + triple(0)[1:] + [{AV.SEP: 1.0}]
        predictor = _ScriptedPredictor(steps, context_length=16)
        controls = EventSequence([Event(400, 1, 72)])
        config = SamplerConfig(delta=5.0, top_p=1.0, seed=0)
        result = generate_anticipatory(predictor, controls, config)

        context = predictor.contexts[15]  # time slot after e@40
        assert context[0::3] == [AV.ANT_TIME_BASE + 390, 0, 10, 20, 30]
        times = [item.event.time for item in result.sequence if not item.control]
        assert times == [0, 10, 20, 30, 40, 40]


def _buffer(items) -> np.ndarray:
    """The sampler's column buffer holding ``items``."""
    return np.array([(it.event.time, it.event.duration, it.event.note, it.control)
                     for it in items], dtype=np.int64).T.reshape(4, -1)


class _RecordingReplay(ReplayPredictor):
    """Replays the plain-event triples, then a separator, recording every context."""

    def __init__(self, events: EventSequence):
        super().__init__(encode_arrival(events), AV.SIZE, AV.SEP)
        self.contexts: list[list[int]] = []

    def next_distribution(self, z, context):
        self.contexts.append(list(context))
        return super().next_distribution(z, context)


class TestContextWindow:
    def test_holds_at_most_its_capacity(self):
        buffer = _buffer([TaggedEvent(Event(10 * i, 1, 60)) for i in range(8)])
        assert _context_after(buffer, 8, 0, False) == ([], 0)  # looks 0 tokens back
        window, offset = _context_after(buffer, 8, 5, False)  # 5 triples
        assert offset == 30  # the window is the last five items
        assert window[0::3] == [AV.TIME_BASE + 10 * i for i in range(5)]

    @pytest.mark.parametrize("plain_controls", [False, True])
    def test_long_session_context_is_the_relativized_window(self, rng, plain_controls):
        # 600 events and their controls: the 341-triple window slides after
        # 340 items; the context before each event's time slot must equal
        # encode_arrival of the items placed so far (led by a separator until
        # the window slides, then the window shifted by its minimum time)
        events = random_events(rng, 600, max_gap=30, max_duration=100)
        controls = random_controls(rng, 120, max_time=events.end_time, max_duration=100)
        predictor = _RecordingReplay(events)
        config = SamplerConfig(delta=5.0, top_p=0.95, seed=0)
        generate = generate_autoregressive_infill if plain_controls else generate_anticipatory
        placed = list(generate(predictor, controls, config).sequence)
        items = [TaggedEvent(item.event, item.control and not plain_controls) for item in placed]
        event_at = [i for i, item in enumerate(placed) if not item.control]
        # items placed after the i-th event: up to the next event when the
        # controls follow it, up to and including it when they precede it
        placed_after = [i + 1 for i in event_at] if plain_controls else event_at[1:]
        assert max(placed_after) > 341
        for i, n in enumerate(placed_after, start=1):
            window = items[max(0, n - 341) : n]
            if n < 341:
                expected = [AV.SEP] * 3 + encode_arrival(unchecked_interleaved(window))
            else:
                offset = min(it.event.time for it in window)
                shifted = [TaggedEvent(Event(it.event.time - offset, it.event.duration, it.event.note),
                                       it.control) for it in window]
                expected = encode_arrival(unchecked_interleaved(shifted))
            assert predictor.contexts[3 * i] == expected, n
        # a window spanning the 100-second token range fails at its last item
        late = TaggedEvent(Event(min(it.event.time for it in items[-340:]) + 10_000, 1, 60))
        with pytest.raises(TokenError, match=r"exceeds the 100s token range \(index 340\)"):
            _context_after(_buffer(placed[-340:] + [late]), 341, 341, plain_controls)


class TestStripControls:
    def test_identity_without_controls(self, rng):
        events = random_events(rng, 20)
        s = interleave(events, EventSequence(), 500)
        assert s.events() == events

    def test_reference_case(self):
        s = golden.SCENARIO_A
        interleaved = interleave(s["events"], s["controls"], s["delta"])
        assert interleaved.events() == s["events"]

    def test_consistent_with_split_and_sort(self, rng):
        from anticipate.anticipation import split_and_sort

        events = random_events(rng, 40)
        controls = random_controls(rng, 10, max_time=int(events.end_time))
        interleaved = interleave(events, controls, 500)
        merged = split_and_sort(interleaved)
        stripped = sorted(interleaved.events(), key=event_sort_key)
        leftover = list(merged)
        for e in sorted(controls, key=event_sort_key):
            leftover.remove(e)
        assert sorted(leftover, key=event_sort_key) == stripped


@pytest.mark.parametrize("kwargs, field", [
    ({"delta": float("inf")}, "delta"), ({"delta": float("nan")}, "delta"),
    ({"delta": 1e17}, "delta"), ({"max_tokens": -5}, "max_tokens"), ({"top_p": 0}, "top_p"),
])
def test_config_rejects_nonfinite_huge_and_negative(kwargs, field):
    with pytest.raises(ValueError, match=f"^{field} must be"):
        SamplerConfig(**kwargs)


def test_config_rejects_delta_below_one_grid_unit():
    with pytest.raises(ValueError, match="^delta must be at least one 10 ms grid unit"):
        SamplerConfig(delta=0.004)
    assert SamplerConfig(delta=0.01).delta_units == SamplerConfig(delta=0.005).delta_units == 1


def test_uniform_predictor_generates_valid_triples(rng):
    # even a content-free model produces grammatical output under the mask
    config = SamplerConfig(delta=5.0, top_p=1.0, seed=5, max_tokens=30)
    result = generate_anticipatory(UniformPredictor(AV.SIZE), EventSequence(), config)
    times = [item.event.time for item in result.sequence]
    assert times == sorted(times)


def test_unmasked_ungrammatical_model_fails_loudly():
    # with the mask off, a model ignorant of the slot structure is an error,
    # not silent garbage
    config = SamplerConfig(delta=5.0, top_p=1.0, seed=5, max_tokens=300, grammar_mask=False)
    with pytest.raises(ValueError, match="ungrammatical|all-zero"):
        generate_anticipatory(UniformPredictor(AV.SIZE), EventSequence(), config)


@pytest.mark.parametrize("generate", [generate_anticipatory, generate_autoregressive_infill])
@pytest.mark.parametrize("bad, error, message", [
    (Event(MAX_TIME_UNITS, 1, 62), TokenError,
     rf"event time {MAX_TIME_UNITS} exceeds the 100s token range"),
    (Event(30, 0, REST), ValueError, "rest events cannot be controls"),
])
def test_invalid_control_raises_the_tokenizers_error_before_any_call(generate, bad, error,
                                                                     message):
    # both modes check the controls as controls, the baseline included: a
    # rest is refused when the controls are tagged, a late time when encoded
    controls = EventSequence([Event(10, 1, 60), bad])
    predictor = _ScriptedPredictor([], context_length=1024)
    with pytest.raises(error, match=f"^{message}" + r" \(index 1\)$") as raised:
        generate(predictor, controls, SamplerConfig(seed=0))
    assert type(raised.value) is error
    assert predictor.contexts == []


@pytest.mark.parametrize("generate", [generate_anticipatory, generate_autoregressive_infill])
@pytest.mark.parametrize("vocab_size", [IV.SIZE, AV.SIZE - 1, AV.SIZE + 1])
def test_predictor_outside_the_arrival_vocabulary_refused_before_any_call(generate, vocab_size):
    # an interarrival model has no separator token: it could never end a session
    predictor = _ScriptedPredictor([], context_length=1024)
    predictor.vocab_size = vocab_size
    message = rf"^predictor vocabulary {vocab_size} does not match the arrival vocabulary \({AV.SIZE}\)$"
    with pytest.raises(ValueError, match=message):
        generate(predictor, EventSequence([Event(10, 1, 60)]), SamplerConfig(seed=0))
    assert predictor.contexts == []


@pytest.mark.parametrize("generate", [generate_anticipatory, generate_autoregressive_infill])
@pytest.mark.parametrize("context_length", [0, -5])
def test_predictor_context_length_below_one_refused_before_any_call(generate, context_length):
    # such a predictor could not be given even the empty context
    predictor = _ScriptedPredictor([], context_length=context_length)
    message = rf"^predictor context_length must be >= 1, got {context_length}$"
    with pytest.raises(ValueError, match=message):
        generate(predictor, EventSequence([Event(10, 1, 60)]), SamplerConfig(seed=0))
    assert predictor.contexts == []


@pytest.mark.parametrize("steps", [
    [{AV.SEP: 1.0}],  # the separator: no event
    [{AV.TIME_BASE + 20: 1.0}, {AV.DUR_BASE + 5: 1.0}, {AV.NOTE_BASE + 60: 1.0}],
])
def test_sample_event_gives_the_context_back_as_it_came(steps):
    # the triple's first tokens extend the caller's list only while the
    # next are sampled
    predictor = _ScriptedPredictor(steps, context_length=1024)
    context = [AV.SEP, AV.SEP, AV.SEP, AV.TIME_BASE + 10, AV.DUR_BASE + 5, AV.NOTE_BASE + 62]
    before = list(context)
    sampled = _sample_event(predictor, AV.AR, context, 0, 10, np.random.default_rng(0),
                            SamplerConfig(seed=0))
    assert context == before
    assert predictor.contexts == [before + [token for step in steps[:i] for token in step]
                                  for i in range(len(steps))]
    if len(steps) == 1:
        assert sampled is None
    else:
        assert sampled == ((20, 5, 60), [AV.TIME_BASE + 20, AV.DUR_BASE + 5, AV.NOTE_BASE + 60])


@functools.cache
def _twinkle_ngram():
    rows = [encode_arrival(golden.twinkle_events(), z=AV.AR)]
    return train_ngram(rows, order=3, alpha=0.01, vocab_size=AV.SIZE)


@pytest.mark.parametrize("generate", [generate_anticipatory, generate_autoregressive_infill])
@pytest.mark.parametrize("max_tokens", [0, 3, 30])
def test_every_control_is_kept_when_the_budget_runs_out(generate, max_tokens):
    # the budget bounds the sampled items; the unreleased controls follow them
    melody = golden.twinkle_events()
    config = SamplerConfig(max_tokens=max_tokens, seed=0)
    result = generate(_twinkle_ngram(), melody, config)
    assert result.sequence.controls() == melody
    assert len(result.sequence.events()) <= max_tokens // 3
    if not max_tokens:
        assert result.truncated  # no budget even for the separator's draw


def test_unmasked_time_before_the_previous_event_fails_loudly():
    tokens = [AV.TIME_BASE + 500, AV.DUR_BASE + 10, AV.NOTE_BASE + 60,
              AV.TIME_BASE + 100, AV.DUR_BASE + 10, AV.NOTE_BASE + 62]
    config = SamplerConfig(delta=5.0, top_p=1.0, seed=0, grammar_mask=False)
    with pytest.raises(ValueError, match="at time 100, previous event time 500"):
        generate_anticipatory(ReplayPredictor(tokens, AV.SIZE, AV.SEP), EventSequence(), config)


# -- the object loop the column buffer replaced -------------------------------


class _ReferenceContext:
    """The deque-backed context window the column buffer replaced."""

    def __init__(self, context_length: int, plain_controls: bool):
        self.capacity = (context_length - 1) // 3
        self.plain_controls = plain_controls
        self.items: deque[TaggedEvent] = deque(maxlen=self.capacity)
        self.columns: np.ndarray | None = None
        self.tokens: list[int] = [AV.SEP, AV.SEP, AV.SEP]
        self.offset = 0

    def push(self, item: TaggedEvent) -> None:
        self.items.append(item)
        control = item.control and not self.plain_controls
        if len(self.items) < self.capacity:
            event = item.event
            self.tokens.extend(reference_event_triple(event.time, event.duration, event.note,
                                                      control, len(self.items) - 1))
            return
        if not self.capacity:
            self.tokens = []
            return
        if self.columns is None:
            self.columns = unchecked_interleaved(self.items).columns.copy()
            if self.plain_controls:
                self.columns[3] = 0
        else:
            self.columns[:, :-1] = self.columns[:, 1:]
            event = item.event
            self.columns[:, -1] = (event.time, event.duration, event.note, control)
        self.offset = int(self.columns[0].min())
        self.tokens = _arrival_triples(self.columns, self.offset).ravel().tolist()


def _reference_checked_controls(controls: EventSequence) -> list[Event]:
    """The controls, checked as they are tagged (no rest), then as the
    tokenizer encodes them (no time past the token range)."""
    for i, control in enumerate(controls):
        if control.is_rest:
            raise ValueError(f"rest events cannot be controls (index {i})")
    for i, control in enumerate(controls):
        if control.time >= MAX_TIME_UNITS:
            raise TokenError(f"event time {control.time} exceeds the 100s token range", i)
    return list(controls)


def _reference_next_anticipated_controls(controls, cursor, last_event_time, delta):
    due: list[Event] = []
    while cursor < len(controls) and controls[cursor].time <= last_event_time + delta:
        due.append(controls[cursor])
        cursor += 1
    return due, cursor


def _reference_generate(predictor, controls, config, z, anticipate) -> GenerationResult:
    controls = _reference_checked_controls(controls)
    rng = np.random.default_rng(config.seed)
    lookahead = config.delta_units if anticipate else 0
    context = _ReferenceContext(predictor.context_length, plain_controls=not anticipate)
    items: list[TaggedEvent] = []
    cursor = 0
    last_time = None
    truncated = False
    while True:
        if 3 * (len(items) + 1) > config.max_tokens:
            truncated = True
            break
        sampled_event = _sample_event(predictor, z, context.tokens, context.offset, last_time,
                                      rng, config)
        if sampled_event is None:
            break
        event = Event(*sampled_event[0])
        due, cursor = _reference_next_anticipated_controls(controls, cursor, event.time,
                                                           lookahead)
        placed = [TaggedEvent(c, control=True) for c in due]
        if anticipate:
            placed.insert(0, TaggedEvent(event))
        else:
            placed.append(TaggedEvent(event))
        for item in placed:
            items.append(item)
            context.push(item)
        last_time = event.time
    items.extend(TaggedEvent(c, control=True) for c in controls[cursor:])
    return GenerationResult(unchecked_interleaved(items), truncated)


def _outcome(generate, predictor, controls, config, anticipate):
    """The result's items, whether it was truncated and its count of plain
    items, or the type and message of its ``ValueError``; any other error,
    such as a predictor breaking the contract, fails the test."""
    z = AV.AAR if anticipate and len(controls) else AV.AR
    try:
        result = generate(predictor, controls, config, z, anticipate)
    except ValueError as exc:
        return type(exc), str(exc)
    return list(result.sequence), result.truncated, len(result.sequence.events())


@functools.cache
def _small_ngram():
    rng = np.random.default_rng(7)
    rows = [encode_arrival(random_events(rng, 60, max_gap=80, start_at_zero=True),
                           z=AV.AR) + [AV.SEP] * 3 for _ in range(30)]
    return train_ngram(rows, order=3, alpha=0.01, vocab_size=AV.SIZE)


class _LongSessions:
    """The small n-gram read through a given context length, its separator
    mass scaled down so that sessions run long enough for windows to slide."""

    vocab_size = AV.SIZE

    def __init__(self, context_length: int, sep_weight: float):
        self.model = copy.copy(_small_ngram())
        self.model.context_length = self.context_length = context_length
        self.sep_weight = sep_weight
        self.contexts: list[list[int]] = []

    def next_distribution(self, z, context):
        self.contexts.append(list(context))
        dist = self.model.next_distribution(z, context)
        support, values = dist.support, dist.values.copy()
        i = int(support.searchsorted(AV.SEP))
        if i == len(support) or support[i] != AV.SEP:
            support, values = np.insert(support, i, AV.SEP), np.insert(values, i, dist.background)
        values[i] *= self.sep_weight
        return Distribution(support, values, dist.background, dist.size)


_control_fields = st.tuples(st.integers(0, 4_000), st.integers(0, 999), st.integers(0, 300))


class TestMatchesObjectLoop:
    @pytest.mark.parametrize("context_length", [1, 4, 16, 64, 1024])
    @settings(max_examples=40, deadline=None)
    @given(
        anticipate=st.booleans(),
        grammar_mask=st.sampled_from([True, False]),
        fields=st.lists(_control_fields, max_size=30),
        invalid=st.sampled_from([None] * 8 + [(MAX_TIME_UNITS, 1, 60), (2_000, 0, REST)]),
        max_tokens=st.sampled_from([300, 30, 2, 0]),
        sep_weight=st.sampled_from([1e-4, 1e-2, 1.0]),
        seed=st.integers(0, 2**16),
    )
    def test_ngram_sessions(self, context_length, anticipate, grammar_mask, fields, invalid,
                            max_tokens, sep_weight, seed):
        if invalid:  # a control the sampler rejects
            fields = fields + [invalid]
        controls = EventSequence(sorted((Event(*f) for f in fields), key=lambda e: e.time))
        config = SamplerConfig(delta=2.0, top_p=0.9, max_tokens=max_tokens,
                               grammar_mask=grammar_mask, seed=seed)
        predictors = [_LongSessions(context_length, sep_weight) for _ in range(2)]
        expected = _outcome(_reference_generate, predictors[0], controls, config, anticipate)
        actual = _outcome(_generate, predictors[1], controls, config, anticipate)
        assert actual == expected
        assert predictors[1].contexts == predictors[0].contexts

    def test_slid_window_spanning_the_token_range(self):
        # context_length 16 holds 5 triples. Each event lands 99.99 s after
        # the window's minimum, the farthest a sampled time can reach, so the
        # slid windows span the whole token range; both loops must see the
        # same contexts and place the same items.
        steps = []
        for _ in range(12):
            steps += [{AV.TIME_BASE + MAX_TIME_UNITS - 1: 1.0}, {AV.DUR_BASE + 1: 1.0},
                      {AV.NOTE_BASE + 60: 1.0}]
        steps.append({AV.SEP: 1.0})
        controls = EventSequence([Event(9_700, 1, 72), Event(9_999, 1, 74)])
        config = SamplerConfig(delta=5.0, top_p=1.0, seed=0)
        for anticipate in (True, False):
            predictors = [_ScriptedPredictor(steps, context_length=16) for _ in range(2)]
            expected = _outcome(_reference_generate, predictors[0], controls, config, anticipate)
            assert _outcome(_generate, predictors[1], controls, config, anticipate) == expected
            assert predictors[1].contexts == predictors[0].contexts
        # a window that does span 100 s fails at the same item in both
        late = [TaggedEvent(Event(10 * i, 1, 60)) for i in range(5)]
        late.append(TaggedEvent(Event(10 + MAX_TIME_UNITS, 1, 60)))
        reference = _ReferenceContext(16, plain_controls=False)
        for item in late[:-1]:
            reference.push(item)
        with pytest.raises(TokenError) as expected_error:
            reference.push(late[-1])
        with pytest.raises(TokenError) as actual_error:
            _context_after(_buffer(late), 6, 5, False)
        assert str(actual_error.value) == str(expected_error.value)

    def test_rest_enters_the_context_without_its_duration(self):
        # a rest sampled with a nonzero duration token is placed with
        # duration 0, and its context triple carries DUR_BASE
        steps = [{AV.TIME_BASE + 10: 1.0}, {AV.DUR_BASE + 5: 1.0}, {AV.REST: 1.0},
                 {AV.TIME_BASE + 20: 1.0}, {AV.DUR_BASE + 1: 1.0}, {AV.NOTE_BASE + 60: 1.0},
                 {AV.SEP: 1.0}]
        controls = EventSequence([Event(15, 2, 72)])
        config = SamplerConfig(delta=5.0, top_p=1.0, seed=0)
        for anticipate in (True, False):
            predictors = [_ScriptedPredictor(steps, context_length=1024) for _ in range(2)]
            expected = _outcome(_reference_generate, predictors[0], controls, config, anticipate)
            assert _outcome(_generate, predictors[1], controls, config, anticipate) == expected
            assert predictors[1].contexts == predictors[0].contexts
            assert predictors[1].contexts[3][3:6] == [AV.TIME_BASE + 10, AV.DUR_BASE, AV.REST]

    def test_unbounded_token_budget_ends_at_a_separator(self, rng):
        events = random_events(rng, 40, max_gap=150)
        controls = random_controls(rng, 12, max_time=int(events.end_time + 600))
        config = SamplerConfig(delta=5.0, top_p=0.95, max_tokens=10**12, seed=0)
        for anticipate in (True, False):
            expected = _outcome(_reference_generate, replay_for(events), controls, config,
                                anticipate)
            actual = _outcome(_generate, replay_for(events), controls, config, anticipate)
            assert actual == expected
            assert actual[1:] == (False, 40)
