"""Infilling-control priors and the corpus augmentation pipeline.

Three ways of choosing which events become controls, none of them a rest:

* span: mark everything inside windows of delta seconds (the anticipation
  interval) whose starts arrive at exponential rate ``SPAN_RATE`` along the
  time axis (the next gap is drawn from the end of the previous span, so
  spans never overlap);
* instrument: mark all events of j instrument parts, j uniform over
  1..J-1 for a sequence with J parts;
* random: mark each event independently at a rate drawn uniformly from
  ``RANDOM_RATES``, {0.1, ..., 0.9}.

Augmentation emits a fixed composition of copies per sequence: the pattern
mixture ``WEIGHTS`` times the factor (default 30 = 3 verbatim + 3 span + 12
instrument + 12 random), each masked copy densified and interleaved. The
rate, the rates and the weights are constants of the recipe; only the factor
is set per run. Randomness derives from (seed, copy index, sequence index),
so output is deterministic under any execution order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .anticipation import AnticipationConfig, densify, interleave
from .events import (
    NUM_INSTRUMENTS, NUM_PITCHES, REST, UNITS_PER_SECOND, EventSequence, InterleavedSequence,
    _check_added,
)

PATTERNS = ("none", "span", "instrument", "random")
WEIGHTS = (0.10, 0.10, 0.40, 0.40)  # share of the copies per pattern
SPAN_RATE = 0.05  # span starts per second
RANDOM_RATES = tuple(round(0.1 * k, 1) for k in range(1, 10))


@dataclass(frozen=True)
class AugmentationPolicy:
    factor: int = 30

    def __post_init__(self) -> None:
        if self.factor < 1:
            raise ValueError(f"factor must be at least 1, got {self.factor}")
        for pattern, weight in zip(PATTERNS, WEIGHTS):
            count = weight * self.factor
            if abs(count - round(count)) > 1e-9:
                raise ValueError(
                    f"factor {self.factor} x weight {weight} for {pattern} is not integral"
                )

    def copy_patterns(self) -> list[str]:
        """The pattern of each dataset copy, in copy-index order."""
        return [p for p, w in zip(PATTERNS, WEIGHTS) for _ in range(round(w * self.factor))]


def draw_span_starts(total_seconds: float, length: float, rng: np.random.Generator) -> list[float]:
    """Span start times over [0, total_seconds]: exponential gaps at
    ``SPAN_RATE`` along the time axis, each drawn from the end of the
    previous span, one draw per start and one for the first start past the
    end. More than ``MAX_ADDED_ITEMS`` expected starts raise ``ValueError``
    before any draw."""
    _check_added(total_seconds * SPAN_RATE, "expected span starts")
    starts: list[float] = []
    position = 0.0
    while (start := position + rng.exponential(1.0 / SPAN_RATE)) <= total_seconds:
        starts.append(start)
        position = start + length
    return starts


def span_mask(seq: EventSequence, starts: list[float], length: float) -> np.ndarray:
    """Mark every event whose time (seconds) falls in [start, start + length]."""
    times = seq.columns[0] / UNITS_PER_SECOND
    starts = np.asarray(starts, dtype=np.float64)
    first = times.searchsorted(starts, "left")
    after = np.maximum(times.searchsorted(starts + length, "right"), first)  # none if length < 0
    # +1 at each span's first event and -1 past its last: covered where positive
    edges = np.bincount(first, minlength=len(seq) + 1) - np.bincount(after, minlength=len(seq) + 1)
    return edges.cumsum()[:-1] > 0


def sample_span_controls(seq: EventSequence, rng: np.random.Generator, length: float) -> np.ndarray:
    """Mark the events other than rests inside sampled spans of ``length`` seconds."""
    if not len(seq):
        return np.zeros(0, dtype=bool)
    total = int(seq.columns[0, -1]) / UNITS_PER_SECOND
    return span_mask(seq, draw_span_starts(total, length, rng), length) & (seq.columns[2] != REST)


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
    picked = np.zeros(NUM_INSTRUMENTS, dtype=bool)
    picked[chosen] = True
    notes = seq.columns[2]
    # a rest's -1 // NUM_PITCHES reads the drums' entry; notes != REST clears it
    return (notes != REST) & picked[notes // NUM_PITCHES]


def sample_random_controls(seq: EventSequence, rng: np.random.Generator) -> np.ndarray:
    """Mark each event independently at a rate drawn uniformly from ``RANDOM_RATES``."""
    if not len(seq):
        return np.zeros(0, dtype=bool)
    rate = RANDOM_RATES[int(rng.integers(len(RANDOM_RATES)))]
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


def augment_sequence(
    seq: EventSequence,
    pattern: str,
    config: AnticipationConfig,
    rng: np.random.Generator,
) -> tuple[str, InterleavedSequence]:
    """Apply one anticipation pattern: mask, densify the events, interleave.

    Spans are ``config.delta`` seconds long. Returns the applied pattern
    (instrument anticipation falls back to random for single-part sequences)
    and the interleaved copy.
    """
    mask: np.ndarray | None
    if pattern == "none":
        return pattern, InterleavedSequence.from_events(seq)
    if pattern == "span":
        mask = sample_span_controls(seq, rng, config.delta)
    elif pattern == "instrument":
        mask = sample_instrument_controls(seq, rng)
        if mask is None:
            pattern = "random"
            mask = sample_random_controls(seq, rng)
    elif pattern == "random":
        mask = sample_random_controls(seq, rng)
    else:
        raise ValueError(f"unknown anticipation pattern {pattern!r}")

    events, controls = split_by_mask(seq, mask)
    dense = densify(events, config.density_units)
    return pattern, interleave(dense, controls, config.delta_units)


def augment_corpus(
    sequences: Iterable[EventSequence],
    policy: AugmentationPolicy,
    seed: int,
    config: AnticipationConfig = AnticipationConfig(),
) -> Iterator[AugmentedCopy]:
    """Yield ``factor`` interleaved copies of every sequence, copy-major.

    Copy 0..factor-1 each traverse the whole corpus, so the output is the
    stated composition of dataset copies. Deterministic for a given seed.
    The copies' rests share one ``MAX_ADDED_ITEMS`` budget: the copy past it raises ``ValueError``.
    """
    seqs = list(sequences)
    rests = 0
    for copy_index, pattern in enumerate(policy.copy_patterns()):
        for sequence_index, seq in enumerate(seqs):
            rng = np.random.default_rng([seed, copy_index, sequence_index])
            applied, interleaved = augment_sequence(seq, pattern, config, rng)
            rests += len(interleaved) - len(seq)
            _check_added(rests, "rests")
            yield AugmentedCopy(sequence_index, copy_index, applied, interleaved)
