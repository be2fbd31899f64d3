"""Infilling-control priors and the corpus augmentation pipeline."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats as scipy_stats

from anticipate import augment, events
from anticipate.anticipation import AnticipationConfig, densify, split_and_sort
from anticipate.augment import (
    PATTERNS,
    RANDOM_RATES,
    SPAN_RATE,
    WEIGHTS,
    AugmentationPolicy,
    augment_corpus,
    augment_sequence,
    draw_span_starts,
    sample_instrument_controls,
    sample_random_controls,
    sample_span_controls,
    span_mask,
    split_by_mask,
)
from anticipate.events import (
    DRUM_INSTRUMENT, MAX_ADDED_ITEMS, NUM_PITCHES, REST, Event, EventSequence, encode_note,
)
from anticipate.tokenizer import encode_arrival, pack_training_examples

from conftest import event_sort_key, random_events, reference_instrument_controls


def canonical(seq: EventSequence) -> EventSequence:
    return EventSequence(sorted(seq, key=event_sort_key))


class TestPolicy:
    def test_default_composition(self):
        patterns = AugmentationPolicy().copy_patterns()
        assert {p: patterns.count(p) for p in PATTERNS} == {
            "none": 3, "span": 3, "instrument": 12, "random": 12}
        assert len(patterns) == 30

    def test_copy_patterns_order(self):
        patterns = AugmentationPolicy(factor=10).copy_patterns()
        assert patterns == ["none"] + ["span"] + ["instrument"] * 4 + ["random"] * 4

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError, match="not integral"):
            AugmentationPolicy(factor=7)  # 0.1 * 7 is not integral

    @pytest.mark.parametrize("kwargs, field", [
        ({"factor": 0}, "factor"),
        ({"factor": -10}, "factor"),
    ])
    def test_rejects_negative_counts(self, kwargs, field):
        with pytest.raises(ValueError, match=f"^{field} must"):
            AugmentationPolicy(**kwargs)


class TestSpanControls:
    def test_single_window_brute_force(self, rng):
        seq = random_events(rng, 200, max_gap=20)
        mask = span_mask(seq, [10.0], 5.0)
        expected = [10.0 <= e.time / 100.0 <= 15.0 for e in seq]
        assert mask.tolist() == expected

    def test_marking_matches_drawn_starts(self, rng):
        seq = random_events(rng, 300, max_gap=30)
        seed = int(rng.integers(2**32))
        mask = sample_span_controls(seq, np.random.default_rng(seed), 5.0)
        starts = draw_span_starts(seq[len(seq) - 1].time / 100.0, 5.0, np.random.default_rng(seed))
        assert mask.tolist() == span_mask(seq, starts, 5.0).tolist()

    def test_vanishing_rate_marks_nothing(self):
        # Over half a second the expected number of span starts is
        # SPAN_RATE * 0.49 = 0.0245: most draws start no span and mark nothing.
        seq = EventSequence(Event(t, 1, 60) for t in range(50))
        unmarked = 0
        for seed in range(20):
            starts = draw_span_starts(0.49, 5.0, np.random.default_rng(seed))
            mask = sample_span_controls(seq, np.random.default_rng(seed), 5.0)
            assert mask.any() == bool(starts)
            unmarked += not starts
        assert unmarked >= 15

    def test_expected_starts_past_the_budget_refused_before_any_draw(self):
        rng = np.random.default_rng(0)
        assert len(draw_span_starts(3600.0, 5.0, np.random.default_rng(0))) > 100  # an hour
        with pytest.raises(ValueError, match=f"^500000000 expected span starts asked for, "
                                             f"over the budget of {MAX_ADDED_ITEMS}$"):
            draw_span_starts(1e10, 5.0, rng)  # the seconds of 10**12 grid units
        with pytest.raises(ValueError, match="expected span starts"):
            draw_span_starts(MAX_ADDED_ITEMS / SPAN_RATE * 1.001, 5.0, rng)
        assert rng.integers(2**62) == np.random.default_rng(0).integers(2**62)  # nothing drawn

    def test_spans_never_overlap(self, rng):
        starts = draw_span_starts(600.0, 5.0, rng)
        assert all(b - a >= 5.0 for a, b in zip(starts, starts[1:]))

    def test_expected_span_count_matches_renewal_oracle(self, rng):
        # Spans arrive as a renewal process: an exponential gap plus the
        # 5-second dead time of the span itself. Simulate that process
        # independently (vectorized) and compare Monte-Carlo means.
        total, rate, length = 60.0, SPAN_RATE, 5.0
        n = 10_000
        counts = np.array(
            [len(draw_span_starts(total, length, np.random.default_rng(s))) for s in range(n)]
        )
        oracle_rng = np.random.default_rng(987)
        gaps = oracle_rng.exponential(1.0 / rate, size=(n, 16))
        arrival = np.cumsum(gaps, axis=1) + length * np.arange(16)[None, :]
        oracle_counts = (arrival <= total).sum(axis=1)
        sem = np.sqrt(counts.var() / n + oracle_counts.var() / n)
        assert abs(counts.mean() - oracle_counts.mean()) <= 3 * sem


def _reference_draw_span_starts(total_seconds, length, rng) -> list[float]:
    """One exponential draw per start, the rule ``draw_span_starts`` states;
    kept apart from it as the reference its starts must equal."""
    starts = []
    position = 0.0
    while True:
        start = position + rng.exponential(1.0 / SPAN_RATE)
        if start > total_seconds:
            return starts
        starts.append(start)
        position = start + length


def _reference_span_mask(seq, starts, length) -> np.ndarray:
    """The one-slice-per-span loop ``span_mask`` replaced."""
    mask = np.zeros(len(seq), dtype=bool)
    times = seq.columns[0] / 100
    for start in starts:
        lo = np.searchsorted(times, start, side="left")
        hi = np.searchsorted(times, start + length, side="right")
        mask[lo:hi] = True
    return mask


class TestSpanArraysMatchLoops:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           total=st.one_of(st.sampled_from([0.0, 0.49, 20.0, 60.0, 3600.0]),
                           st.floats(0, 10_000)),
           length=st.one_of(st.sampled_from([0.0, 0.01, 5.0]), st.floats(0, 100)))
    def test_draw_span_starts(self, seed, total, length):
        # the same starts, bit for bit, as one exponential draw per start
        expected = _reference_draw_span_starts(total, length, np.random.default_rng(seed))
        assert draw_span_starts(total, length, np.random.default_rng(seed)) == expected

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 200), spans=st.integers(0, 30),
           length=st.one_of(st.sampled_from([0.0, 0.01, 5.0, -5.0]), st.floats(-50, 50)))
    def test_span_mask(self, seed, n, spans, length):
        # starts anywhere, overlapping, on event times and past both ends; a
        # negative length marks nothing, as an empty slice does
        rng = np.random.default_rng(seed)
        seq = random_events(rng, n, max_gap=int(rng.integers(1, 400)))
        times = (seq.columns[0] / 100).tolist() or [0.0]
        starts = np.sort(np.concatenate([
            rng.uniform(-10, times[-1] + 10, size=spans),
            rng.choice(times, size=spans) - rng.choice([0.0, length], size=spans),
        ])).tolist()
        expected = _reference_span_mask(seq, starts, length)
        assert span_mask(seq, starts, length).tolist() == expected.tolist()

    @pytest.mark.parametrize("total", [0.0, 60.0, 3600.0])
    def test_one_scalar_draw_per_start_and_one_past_the_end(self, total):
        class Counting:
            def __init__(self, inner):
                self.inner, self.calls = inner, []

            def exponential(self, *args, **kwargs):
                self.calls.append((args, kwargs))
                return self.inner.exponential(*args, **kwargs)

        counting = Counting(np.random.default_rng(3))
        starts = draw_span_starts(total, 5.0, counting)
        assert len(counting.calls) == len(starts) + 1
        assert all(len(args) == 1 and not kwargs for args, kwargs in counting.calls)

    def test_a_span_copy_draws_nothing_after_its_starts(self, rng, monkeypatch):
        # the starts leave the generator one draw past the last start, so a
        # span copy must not draw from it again after its starts
        seq = random_events(rng, 300, max_gap=40)

        class Sealed:
            def __init__(self, inner):
                self.inner, self.sealed = inner, False

            def __getattr__(self, name):
                assert not self.sealed, f"drew {name} after the span starts"
                return getattr(self.inner, name)

        def draw_then_seal(total, length, rng):
            starts = draw_span_starts(total, length, rng)
            rng.sealed = True
            return starts

        monkeypatch.setattr(augment, "draw_span_starts", draw_then_seal)
        sealed = Sealed(np.random.default_rng(5))
        pattern, copy = augment_sequence(seq, "span", AnticipationConfig(), sealed)
        assert sealed.sealed and pattern == "span" and len(copy.controls())


class TestInstrumentControls:
    def _sequence_with_parts(self, rng, parts, n=200):
        instruments = list(range(parts))
        return EventSequence(
            Event(i * 10, 5, encode_note(instruments[int(rng.integers(parts))], 60))
            for i in range(n)
        )

    def test_two_parts_marks_exactly_one(self, rng):
        seq = self._sequence_with_parts(rng, 2)
        for _ in range(20):
            mask = sample_instrument_controls(seq, rng)
            marked = {e.instrument for e, m in zip(seq, mask) if m}
            unmarked = {e.instrument for e, m in zip(seq, mask) if not m}
            assert len(marked) == 1 and marked.isdisjoint(unmarked)

    def test_single_part_not_applicable(self, rng):
        seq = self._sequence_with_parts(rng, 1)
        assert sample_instrument_controls(seq, rng) is None

    def test_subset_size_uniform(self, rng):
        seq = self._sequence_with_parts(rng, 5)
        draws = []
        for _ in range(10_000):
            mask = sample_instrument_controls(seq, rng)
            draws.append(len(np.unique(seq.columns[2][mask] // NUM_PITCHES)))
        counts = np.bincount(draws, minlength=5)[1:5]
        assert counts.sum() == 10_000
        assert scipy_stats.chisquare(counts).pvalue > 0.01
        freqs = counts / 10_000
        assert np.abs(freqs - 0.25).max() <= 0.02

    def test_mask_is_union_of_chosen_parts(self, rng):
        seq = self._sequence_with_parts(rng, 4)
        mask = sample_instrument_controls(seq, rng)
        chosen = {e.instrument for e, m in zip(seq, mask) if m}
        assert mask.tolist() == [e.instrument in chosen for e in seq]

    @staticmethod
    def _parts(parts):
        """One item per entry, 10 units apart: a rest, or a note of that instrument."""
        return EventSequence(Event(10 * i, 0, REST) if part == REST else
                             Event(10 * i, 5, encode_note(part, 40 + i))
                             for i, part in enumerate(parts))

    @staticmethod
    def _same_as_isin_reference(seq, seed):
        """The table mask, its draws and the generator state after them equal
        the ``np.isin`` reference's; returns the mask."""
        rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        mask = sample_instrument_controls(seq, rng)
        reference = reference_instrument_controls(seq, reference_rng)
        assert rng.bit_generator.state == reference_rng.bit_generator.state
        assert (mask is None) == (reference is None)
        if mask is not None:
            assert mask.dtype == reference.dtype and np.array_equal(mask, reference)
        return mask

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from([REST, 0, 1, 60, 127, DRUM_INSTRUMENT]), max_size=30),
           st.integers(0, 2**32 - 1))
    def test_matches_the_isin_reference(self, instruments, seed):
        self._same_as_isin_reference(self._parts(instruments), seed)

    def test_drums_chosen_among_rests_match_the_reference(self):
        # a rest's code -1 reads the drums' entry of the table
        seq = self._parts([REST, DRUM_INSTRUMENT, 0, REST, 1, DRUM_INSTRUMENT, REST])
        rests = seq.columns[2] == REST
        drums = seq.columns[2] // NUM_PITCHES == DRUM_INSTRUMENT
        drum_seeds = 0
        for seed in range(40):
            mask = self._same_as_isin_reference(seq, seed)
            assert not mask[rests].any()
            drum_seeds += bool(mask[drums].all())
        assert 0 < drum_seeds < 40


class TestRandomControls:
    def test_marked_fraction_concentrates(self, rng):
        seq = random_events(rng, 10_000, max_gap=5)
        for _ in range(10):
            mask = sample_random_controls(seq, rng)
            fraction = mask.mean()
            nearest = round(fraction * 10) / 10
            assert nearest in RANDOM_RATES
            assert abs(fraction - nearest) <= 0.015

    def test_empty_sequence(self, rng):
        assert sample_random_controls(EventSequence(), rng).size == 0

    def test_rates_cover_all_nine_uniformly(self, rng):
        seq = random_events(rng, 2_000, max_gap=5)
        observed = []
        for _ in range(9_000):
            fraction = sample_random_controls(seq, rng).mean()
            observed.append(int(round(fraction * 10)))
        counts = np.bincount(observed, minlength=10)[1:10]
        assert counts.sum() == 9_000
        assert scipy_stats.chisquare(counts).pvalue > 0.01

    def test_rests_never_marked(self, rng):
        # by any of the three samplers
        seq = densify(random_events(rng, 50, max_gap=700, n_instruments=3), 100)
        rests = seq.columns[2] == REST
        assert rests.sum() > 20
        for sample in (lambda: sample_span_controls(seq, rng, 5.0),
                       lambda: sample_instrument_controls(seq, rng),
                       lambda: sample_random_controls(seq, rng)):
            masks = [sample() for _ in range(20)]
            assert any(mask.any() for mask in masks)
            assert not any((mask & rests).any() for mask in masks)


class TestAugmentCorpus:
    @pytest.fixture
    def corpus(self, rng):
        return [
            canonical(random_events(rng, int(rng.integers(80, 160)), max_gap=20, n_instruments=3))
            for _ in range(10)
        ]

    def test_composition_counts_exact(self, corpus):
        copies = list(augment_corpus(corpus, AugmentationPolicy(), seed=0))
        assert len(copies) == 300
        by_pattern = {p: sum(1 for c in copies if c.pattern == p) for p in PATTERNS}
        assert by_pattern == {"none": 30, "span": 30, "instrument": 120, "random": 120}

    def test_verbatim_factor_one(self, corpus, rng):
        for seq in corpus:
            pattern, interleaved = augment_sequence(seq, "none", AnticipationConfig(), rng)
            assert pattern == "none"
            assert interleaved.events() == seq
            assert not interleaved.has_controls

    def test_deterministic_given_seed(self, corpus):
        policy = AugmentationPolicy(factor=10)
        a = [encode_arrival(c.interleaved) for c in augment_corpus(corpus, policy, seed=42)]
        b = [encode_arrival(c.interleaved) for c in augment_corpus(corpus, policy, seed=42)]
        assert a == b
        c = [encode_arrival(x.interleaved) for x in augment_corpus(corpus, policy, seed=43)]
        assert a != c

    def test_copies_independent_of_traversal_order(self, corpus):
        # randomness is keyed by (seed, copy, sequence): recomputing one copy
        # in isolation reproduces the batch output, so any execution
        # schedule yields identical bytes
        policy = AugmentationPolicy(factor=10)
        config = AnticipationConfig(delta=2.5)
        batch = list(augment_corpus(corpus, policy, seed=21, config=config))
        patterns = policy.copy_patterns()
        for copy in (batch[17], batch[53], batch[-1]):
            rng = np.random.default_rng([21, copy.copy_index, copy.sequence_index])
            pattern, redone = augment_sequence(
                corpus[copy.sequence_index], patterns[copy.copy_index], config, rng
            )
            assert pattern == copy.pattern
            assert redone == copy.interleaved

    def test_masked_copies_round_trip(self, corpus):
        policy = AugmentationPolicy(factor=10)
        for copy in augment_corpus(corpus, policy, seed=7):
            original = corpus[copy.sequence_index]
            controls = copy.interleaved.controls()
            assert set(controls) <= set(original)
            restored = split_and_sort(copy.interleaved).without_rests()
            assert restored == original

    def test_token_volume(self, corpus):
        policy = AugmentationPolicy()
        copies = list(augment_corpus(corpus, policy, seed=3))
        base = sum(3 * len(seq) for seq in corpus)
        total = sum(3 * len(c.interleaved) for c in copies)
        rest_tokens = sum(
            3 for c in copies for item in c.interleaved if item.event.is_rest
        )
        assert total - rest_tokens == policy.factor * base
        assert total <= 1.02 * policy.factor * base

    def test_single_part_falls_back_to_random(self, rng):
        mono = [canonical(random_events(rng, 100, max_gap=20, n_instruments=1))]
        copies = list(augment_corpus(mono, AugmentationPolicy(factor=10), seed=0))
        patterns = {c.pattern for c in copies}
        assert "instrument" not in patterns
        assert sum(1 for c in copies if c.pattern == "random") == 8  # 4 fallback + 4 random

    # sha256 of every copy's indices, pattern and arrival tokens, computed
    # when the span length was still a policy field set equal to delta
    PINNED = {
        (5.0, 10): "548ef4f7140ce8fbaf57e2fec78b864306209a84b87a48099d896748bb2a6ec6",
        (5.0, 30): "1e6fffe36c60eac1725693a9106bdf2364c917ff4b1c09cdeb7b17bcd0b47e50",
        (2.5, 10): "4f06240856dc91bbbfbc68bf07a54b85ff8edd5b5ea2d30b8e58e680e28403da",
        (2.5, 30): "984b7e74d7c0bbfaeb7f86152457e9fffa9be2fb235cb2ccf76662b7129ee253",
    }

    @pytest.mark.parametrize("delta, factor", list(PINNED))
    def test_encoded_copies_match_pinned_digests(self, delta, factor):
        rng = np.random.default_rng(2024)
        corpus = [random_events(rng, int(rng.integers(40, 120)), max_gap=120,
                                n_instruments=int(rng.integers(1, 4))) for _ in range(6)]

        def digest(copies):
            h = hashlib.sha256()
            for c in copies:
                h.update(f"{c.sequence_index} {c.copy_index} {c.pattern} "
                         f"{encode_arrival(c.interleaved)}\n".encode())
            return h.hexdigest()

        policy = AugmentationPolicy(factor=factor)
        config = AnticipationConfig(delta=delta)
        assert digest(augment_corpus(corpus, policy, 7, config)) == self.PINNED[delta, factor]
        if (delta, factor) == (5.0, 30):  # the default config and policy
            assert digest(augment_corpus(corpus, AugmentationPolicy(), 7)) == self.PINNED[delta, factor]

    def test_densified_sequences_encode_and_pack(self, rng):
        # densified input holds rests; no copy may make one a control
        corpus = [densify(random_events(rng, 40, max_gap=300, n_instruments=2), 100)
                  for _ in range(4)]
        copies = list(augment_corpus(corpus, AugmentationPolicy(factor=10), seed=5))
        assert {c.pattern for c in copies} == set(PATTERNS)
        for copy in copies:
            encode_arrival(copy.interleaved)
        assert pack_training_examples(c.interleaved for c in copies).examples

    def test_rests_of_the_whole_run_share_one_budget(self, rng, monkeypatch):
        corpus = [canonical(random_events(rng, 40, max_gap=400, n_instruments=2))
                  for _ in range(3)]
        policy, config = AugmentationPolicy(factor=10), AnticipationConfig(target_density=1.0)
        copies = list(augment_corpus(corpus, policy, 5, config))
        added = np.cumsum([int((c.interleaved.columns[2] == REST).sum()) for c in copies])
        budget = int(added[-1]) // 2
        assert np.diff(added, prepend=0).max() <= budget  # no single copy passes it
        crossing = int(added.searchsorted(budget, "right"))
        monkeypatch.setattr(events, "MAX_ADDED_ITEMS", budget)
        kept = []
        with pytest.raises(ValueError, match=f"^{added[crossing]} rests asked for, "
                                             f"over the budget of {budget}$"):
            kept.extend(augment_corpus(corpus, policy, 5, config))
        assert 0 < len(kept) == crossing < len(copies)
        assert all(a == b for a, b in zip(kept, copies))

    def test_label_frequencies_match_weights(self, corpus):
        policy = AugmentationPolicy()
        copies = list(augment_corpus(corpus, policy, seed=1))
        for pattern, weight in zip(PATTERNS, WEIGHTS):
            share = sum(1 for c in copies if c.pattern == pattern) / len(copies)
            assert share == pytest.approx(weight, abs=1e-12)


class TestAugmentSequence:
    def test_unknown_pattern(self, rng):
        seq = random_events(rng, 10)
        with pytest.raises(ValueError):
            augment_sequence(seq, "bogus", AnticipationConfig(), rng)

    def test_split_by_mask_partition(self, rng):
        seq = random_events(rng, 50)
        mask = rng.random(50) < 0.4
        events, controls = split_by_mask(seq, mask)
        assert len(events) + len(controls) == 50
        assert sorted(list(events) + list(controls), key=event_sort_key) == sorted(
            seq, key=event_sort_key
        )


# -- column masks against the per-event reference ---------------------------


def _reference_span_controls(seq, rng, *, length=5.0):
    """The per-event span sampler the columnar one replaced, rests left out."""
    if not len(seq):
        return np.zeros(0, dtype=bool)
    total = seq[len(seq) - 1].time / 100
    starts = draw_span_starts(total, length, rng)
    mask = np.zeros(len(seq), dtype=bool)
    times = np.asarray(seq.times(), dtype=np.float64) / 100
    for start in starts:
        lo = np.searchsorted(times, start, side="left")
        hi = np.searchsorted(times, start + length, side="right")
        mask[lo:hi] = True
    return mask & ~np.array([e.is_rest for e in seq], dtype=bool)


def _reference_instrument_controls(seq, rng):
    parts = sorted({e.instrument for e in seq if not e.is_rest})
    if len(parts) < 2:
        return None
    j = int(rng.integers(1, len(parts)))
    chosen = set(rng.choice(parts, size=j, replace=False).tolist())
    return np.array([(not e.is_rest) and e.instrument in chosen for e in seq], dtype=bool)


def _reference_random_controls(seq, rng, *, rates=RANDOM_RATES):
    if not len(seq):
        return np.zeros(0, dtype=bool)
    rate = rates[int(rng.integers(len(rates)))]
    mask = rng.random(len(seq)) < rate
    rests = np.array([e.is_rest for e in seq], dtype=bool)
    return mask & ~rests


def _reference_split_by_mask(seq, mask):
    if len(mask) != len(seq):
        raise ValueError("mask length must match sequence length")
    return [e for e, m in zip(seq, mask) if not m], [e for e, m in zip(seq, mask) if m]


class TestColumnMasksMatchReference:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 120), st.integers(1, 4))
    def test_samplers_make_the_same_draws(self, seed, n, parts):
        rng = np.random.default_rng(seed)
        seq = densify(random_events(rng, n, max_gap=400, n_instruments=parts), 100)
        def span_controls(seq, rng):
            return sample_span_controls(seq, rng, 5.0)

        for new, reference in ((span_controls, _reference_span_controls),
                               (sample_instrument_controls, _reference_instrument_controls),
                               (sample_random_controls, _reference_random_controls)):
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            expected, actual = reference(seq, a), new(seq, b)
            assert (actual is None) == (expected is None)
            if expected is not None:
                assert actual.dtype == bool and actual.tolist() == expected.tolist()
            assert a.integers(2**62) == b.integers(2**62)  # the same draws were made

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 60), st.sampled_from([0, 1, 2]))
    def test_split_by_mask(self, seed, n, width):
        rng = np.random.default_rng(seed)
        seq = densify(random_events(rng, n, max_gap=400), 100)
        mask = rng.integers(0, width + 1, size=len(seq) + (width == 2))
        try:
            expected = _reference_split_by_mask(seq, mask)
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                split_by_mask(seq, mask)
            return
        assert tuple(list(part) for part in split_by_mask(seq, mask)) == expected
