"""Infilling-control priors and the corpus augmentation pipeline.

Three ways of choosing which events become controls:

* span: mark everything inside windows of ``span_length`` seconds whose
  starts arrive at exponential rate ``span_rate`` along the time axis (the
  next gap is drawn from the end of the previous span, so spans never
  overlap);
* instrument: mark all events of j instrument parts, j uniform over
  1..J-1 for a sequence with J parts;
* random: mark each event independently at a rate drawn uniformly from
  {0.1, ..., 0.9}.

Augmentation emits a fixed composition of copies per sequence (default
factor 30 = 3 verbatim + 3 span + 12 instrument + 12 random), each masked
copy densified and interleaved. Randomness derives from (seed, copy index,
sequence index), so output is deterministic under any execution order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .anticipation import AnticipationConfig, _check_seconds, densify, interleave
from .events import NUM_PITCHES, REST, UNITS_PER_SECOND, EventSequence, InterleavedSequence

PATTERNS = ("none", "span", "instrument", "random")
RANDOM_RATES = tuple(round(0.1 * k, 1) for k in range(1, 10))


@dataclass(frozen=True)
class AugmentationPolicy:
    span_rate: float = 0.05  # span starts per second
    span_length: float = 5.0  # seconds; matches the anticipation interval
    random_rates: tuple[float, ...] = RANDOM_RATES
    weights: tuple[float, float, float, float] = (0.10, 0.10, 0.40, 0.40)
    factor: int = 30

    def __post_init__(self) -> None:
        if not (math.isfinite(self.span_rate) and self.span_rate > 0):
            raise ValueError(f"span_rate must be positive and finite, got {self.span_rate!r}")
        _check_seconds("span_length", self.span_length)
        rates = self.random_rates
        if not rates or not all(0 <= rate <= 1 for rate in rates):
            raise ValueError(f"random_rates must be non-empty, each in [0, 1], got {rates!r}")
        if self.factor < 1:
            raise ValueError(f"factor must be at least 1, got {self.factor}")
        if min(self.weights) < 0:
            raise ValueError(f"weights must be non-negative, got {self.weights}")
        if abs(sum(self.weights) - 1.0) > 1e-9:
            raise ValueError("mixture weights must sum to 1")
        for pattern, weight in zip(PATTERNS, self.weights):
            count = weight * self.factor
            if abs(count - round(count)) > 1e-9:
                raise ValueError(
                    f"factor {self.factor} x weight {weight} for {pattern} is not integral"
                )

    def composition(self) -> dict[str, int]:
        """Copies per pattern; values sum to the augmentation factor."""
        return {p: round(w * self.factor) for p, w in zip(PATTERNS, self.weights)}

    def copy_patterns(self) -> list[str]:
        """The pattern of each dataset copy, in copy-index order."""
        out: list[str] = []
        for pattern, count in self.composition().items():
            out.extend([pattern] * count)
        return out


def draw_span_starts(
    total_seconds: float, rate: float, length: float, rng: np.random.Generator
) -> list[float]:
    """Span start times over [0, total_seconds]: exponential gaps along the
    time axis, each drawn from the end of the previous span."""
    starts: list[float] = []
    position = 0.0
    while True:
        start = position + rng.exponential(1.0 / rate)
        if start > total_seconds:
            return starts
        starts.append(start)
        position = start + length


def span_mask(seq: EventSequence, starts: list[float], length: float) -> np.ndarray:
    """Mark every event whose time (seconds) falls in [start, start + length]."""
    mask = np.zeros(len(seq), dtype=bool)
    times = seq.columns[0] / UNITS_PER_SECOND
    for start in starts:
        lo = np.searchsorted(times, start, side="left")
        hi = np.searchsorted(times, start + length, side="right")
        mask[lo:hi] = True
    return mask


def sample_span_controls(
    seq: EventSequence,
    rng: np.random.Generator,
    *,
    rate: float = 0.05,
    length: float = 5.0,
) -> np.ndarray:
    """Mark consecutive runs of events covered by sampled time spans."""
    if not len(seq):
        return np.zeros(0, dtype=bool)
    total = int(seq.columns[0, -1]) / UNITS_PER_SECOND
    return span_mask(seq, draw_span_starts(total, rate, length, rng), length)


def sample_instrument_controls(
    seq: EventSequence, rng: np.random.Generator
) -> np.ndarray | None:
    """Mark all events of a uniformly sized random subset of instrument parts.

    Returns None for sequences with fewer than two parts; callers fall back
    to random anticipation.
    """
    parts = sorted(seq.instruments())
    if len(parts) < 2:
        return None
    j = int(rng.integers(1, len(parts)))
    chosen = rng.choice(parts, size=j, replace=False)
    notes = seq.columns[2]
    return (notes != REST) & np.isin(notes // NUM_PITCHES, chosen)


def sample_random_controls(
    seq: EventSequence,
    rng: np.random.Generator,
    *,
    rates: tuple[float, ...] = RANDOM_RATES,
) -> np.ndarray:
    """Mark each event independently at a rate drawn uniformly from ``rates``."""
    if not len(seq):
        return np.zeros(0, dtype=bool)
    rate = rates[int(rng.integers(len(rates)))]
    mask = rng.random(len(seq)) < rate
    return mask & (seq.columns[2] != REST)


def split_by_mask(seq: EventSequence, mask: np.ndarray) -> tuple[EventSequence, EventSequence]:
    """Partition a sequence into (unmarked events, marked controls)."""
    if len(mask) != len(seq):
        raise ValueError("mask length must match sequence length")
    mask = np.asarray(mask, dtype=bool)
    return EventSequence._of(seq.columns[:, ~mask]), EventSequence._of(seq.columns[:, mask])


@dataclass
class AugmentedCopy:
    sequence_index: int
    copy_index: int
    pattern: str  # the pattern actually applied
    interleaved: InterleavedSequence


def _rng_for(seed: int, copy_index: int, sequence_index: int) -> np.random.Generator:
    return np.random.default_rng([seed, copy_index, sequence_index])


def augment_sequence(
    seq: EventSequence,
    pattern: str,
    policy: AugmentationPolicy,
    config: AnticipationConfig,
    rng: np.random.Generator,
) -> tuple[str, InterleavedSequence]:
    """Apply one anticipation pattern: mask, densify the events, interleave.

    Returns the applied pattern (instrument anticipation falls back to
    random for single-part sequences) and the interleaved copy.
    """
    mask: np.ndarray | None
    if pattern == "none":
        mask = np.zeros(len(seq), dtype=bool)
    elif pattern == "span":
        mask = sample_span_controls(seq, rng, rate=policy.span_rate, length=policy.span_length)
    elif pattern == "instrument":
        mask = sample_instrument_controls(seq, rng)
        if mask is None:
            pattern = "random"
            mask = sample_random_controls(seq, rng, rates=policy.random_rates)
    elif pattern == "random":
        mask = sample_random_controls(seq, rng, rates=policy.random_rates)
    else:
        raise ValueError(f"unknown anticipation pattern {pattern!r}")

    if pattern == "none":
        return pattern, InterleavedSequence.from_events(seq)
    events, controls = split_by_mask(seq, mask)
    dense = densify(events, config.density_units)
    return pattern, interleave(dense, controls, config.delta_units)


def augment_corpus(
    sequences: Iterable[EventSequence],
    policy: AugmentationPolicy,
    seed: int,
    config: AnticipationConfig | None = None,
) -> Iterator[AugmentedCopy]:
    """Yield ``factor`` interleaved copies of every sequence, copy-major.

    Copy 0..factor-1 each traverse the whole corpus, so the output is the
    stated composition of dataset copies. Deterministic for a given seed.
    """
    config = config or AnticipationConfig(delta=policy.span_length)
    seqs = list(sequences)
    for copy_index, pattern in enumerate(policy.copy_patterns()):
        for sequence_index, seq in enumerate(seqs):
            rng = _rng_for(seed, copy_index, sequence_index)
            applied, interleaved = augment_sequence(seq, pattern, policy, config, rng)
            yield AugmentedCopy(sequence_index, copy_index, applied, interleaved)
