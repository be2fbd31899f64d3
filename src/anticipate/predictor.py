"""Next-token predictors behind a single contract.

A predictor maps (control code, context tokens) to a probability vector over
its codec vocabulary, looking at most ``context_length - 1`` tokens back.
The trainable reference model is a count-based n-gram with add-alpha
smoothing, interpolated toward lower orders with a fixed backoff weight; it
stands in for a neural sequence model at desk scale, and anything satisfying
the contract can be plugged into the samplers and metrics unchanged.
"""

from __future__ import annotations

import pickle
from collections import Counter
from typing import Iterable, Protocol, Sequence, runtime_checkable

import numpy as np

from .tokenizer import CONTEXT_LENGTH

BACKOFF_WEIGHT = 0.4  # mass given to the next-lower order at each level


@runtime_checkable
class Predictor(Protocol):
    """The next-token-distribution contract.

    ``next_distribution`` returns a vector of ``vocab_size`` probabilities
    (non-negative, summing to one) that may depend only on ``z`` and the last
    ``context_length - 1`` context tokens. Implementations may reuse the
    returned buffer between calls; callers must copy if they keep it.
    """

    vocab_size: int
    context_length: int

    def next_distribution(self, z: int | None, context: Sequence[int]) -> np.ndarray: ...


class NGramModel:
    """Add-alpha smoothed n-gram with fixed-weight interpolation to lower orders."""

    def __init__(self, order: int, alpha: float, vocab_size: int,
                 context_length: int = CONTEXT_LENGTH):
        if order < 1:
            raise ValueError("order must be >= 1")
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        self.order = order
        self.alpha = alpha
        self.vocab_size = vocab_size
        self.context_length = context_length
        # counts[k] maps a length-k context tuple to a Counter of next tokens.
        self.counts: list[dict[tuple[int, ...], Counter]] = [dict() for _ in range(order)]
        self.totals: list[dict[tuple[int, ...], int]] = [dict() for _ in range(order)]
        self._unigram: np.ndarray | None = None

    def add_sequence(self, tokens: Sequence[int]) -> None:
        for i, token in enumerate(tokens):
            if not 0 <= token < self.vocab_size:
                raise ValueError(f"token {token} outside vocabulary of size {self.vocab_size}")
            for k in range(min(self.order - 1, i) + 1):
                ctx = tuple(tokens[i - k : i])
                self.counts[k].setdefault(ctx, Counter())[token] += 1
                self.totals[k][ctx] = self.totals[k].get(ctx, 0) + 1
        self._unigram = None

    def _unigram_distribution(self) -> np.ndarray:
        if self._unigram is None:
            dist = np.full(self.vocab_size, self.alpha, dtype=np.float64)
            counter = self.counts[0].get((), Counter())
            if counter:
                dist[list(counter.keys())] += np.fromiter(counter.values(), dtype=np.float64)
            dist /= self.totals[0].get((), 0) + self.alpha * self.vocab_size
            self._unigram = dist
        return self._unigram

    def next_distribution(self, z: int | None, context: Sequence[int]) -> np.ndarray:
        full = list(context if z is None else [z, *context])
        full = full[-(self.context_length - 1):]
        dist = self._unigram_distribution().copy()
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

    def save(self, path) -> None:
        with open(path, "wb") as f:
            pickle.dump(self, f)

    @staticmethod
    def load(path) -> "NGramModel":
        with open(path, "rb") as f:
            model = pickle.load(f)
        if not isinstance(model, NGramModel):
            raise ValueError(f"{path} does not contain an n-gram model")
        return model


def train_ngram(
    corpus: Iterable[Sequence[int]], order: int, alpha: float, vocab_size: int
) -> NGramModel:
    """Count-train an n-gram model over token rows; deterministic."""
    model = NGramModel(order, alpha, vocab_size)
    n_tokens = 0
    for row in corpus:
        model.add_sequence(row)
        n_tokens += len(row)
    if n_tokens == 0:
        raise ValueError("cannot train on an empty corpus")
    return model


class ReplayPredictor:
    """Test oracle: puts mass 1 on the next ground-truth token, ignoring context.

    Once the ground truth is exhausted every call returns a point mass on the
    terminator token. The returned buffer is reused between calls.
    """

    def __init__(self, tokens: Sequence[int], vocab_size: int, terminator: int,
                 context_length: int = CONTEXT_LENGTH):
        self.tokens = list(tokens)
        self.vocab_size = vocab_size
        self.terminator = terminator
        self.context_length = context_length
        self.cursor = 0
        self._buffer = np.zeros(vocab_size, dtype=np.float64)
        self._hot: int | None = None

    def reset(self) -> None:
        self.cursor = 0

    def next_distribution(self, z: int | None, context: Sequence[int]) -> np.ndarray:
        if self.cursor < len(self.tokens):
            token = self.tokens[self.cursor]
            self.cursor += 1
        else:
            token = self.terminator
        if self._hot is not None:
            self._buffer[self._hot] = 0.0
        self._buffer[token] = 1.0
        self._hot = token
        return self._buffer


class UniformPredictor:
    """Maximum-entropy baseline: the uniform distribution at every step."""

    def __init__(self, vocab_size: int, context_length: int = CONTEXT_LENGTH):
        self.vocab_size = vocab_size
        self.context_length = context_length
        self._buffer = np.full(vocab_size, 1.0 / vocab_size, dtype=np.float64)

    def next_distribution(self, z: int | None, context: Sequence[int]) -> np.ndarray:
        return self._buffer
