"""Next-token predictors behind a single contract.

A predictor maps (control code, context tokens) to a ``Distribution`` over
its codec vocabulary, looking at most ``context_length - 1`` tokens back: a
sorted support of token ids, their probabilities, and one background
probability shared by every other token. A dense predictor returns every
token as support (``Distribution.dense``), so consumers keep one path. The
trainable reference model is a count-based n-gram with add-alpha
smoothing, interpolated toward lower orders with a fixed backoff weight; it
stands in for a neural sequence model at desk scale, and anything satisfying
the contract can be plugged into the samplers and metrics unchanged.

The n-gram keeps its counts in arrays. For each context length it holds the
sorted mixed-radix (base ``vocab_size``) int64 keys of the contexts seen and,
per context, one row of successor tokens with their counts; ``totals`` is
decoded from them on each read. A model file is a versioned ``.npz`` of those
arrays, read with ``allow_pickle=False``, so loading one never executes code.
Model files pickled by earlier versions are rejected with ``ModelFileError``
and must be retrained.

Distributions are computed over the model's support: the sorted union of the
tokens counted at any context length (for a trained model, the tokens seen
at all). Every token outside it gets the same probability in any one call, so
the whole backoff recursion, unigram included, runs on a compact vector with
one slot per support token plus one background slot for all the others, and
that vector is the distribution returned. Each context's row is found by one
``searchsorted`` on its level's keys. The tables this needs (the compact
unigram, each successor's slot in the support, the smoothed per-row terms,
level 1's already added to the backed-off unigram, and per depth the vector
of a context seen at no level, which about half of accompaniment's calls
get) are built by the first call, at any depth, not by training, saving or
loading. They are read-only and shared by every thread, and so is every
array a call returns; the compact vector a call with a row writes is its
thread's own.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
import zipfile
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Protocol, Sequence

import numpy as np

from .tokenizer import CONTEXT_LENGTH

BACKOFF_WEIGHT = 0.4  # mass given to the next-lower order at each level
MODEL_FORMAT_VERSION = 1
KEY_LIMIT = 2**63  # n-gram keys are int64, so vocab_size ** order may not exceed this
_STORED = ("keys", "offsets", "tokens", "counts")  # per-level arrays in a model file


class ModelFileError(ValueError):
    """A model file that is not a valid n-gram ``.npz`` of this format version."""


@dataclass(slots=True, eq=False)
class Distribution:
    """A distribution over ``size`` tokens: ``values[i]`` is the probability
    of token ``support[i]`` (int64, strictly ascending, in ``[0, size)``) and
    ``background`` that of every other token. ``np.asarray`` materializes
    the full vector."""

    support: np.ndarray
    values: np.ndarray
    background: float
    size: int

    @classmethod
    def dense(cls, probabilities: np.ndarray) -> "Distribution":
        """Every token as support: the form of a dense predictor."""
        return cls(np.arange(len(probabilities)), probabilities, 0.0, len(probabilities))

    def probability(self, token: int) -> float:
        """The probability of ``token``, found in the support by one ``searchsorted``."""
        i = int(self.support.searchsorted(token))
        if i < len(self.support) and self.support[i] == token:
            return float(self.values[i])
        return float(self.background)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        dense = np.full(self.size, self.background, dtype=np.float64)
        dense[self.support] = self.values
        return dense if dtype is None else dense.astype(dtype, copy=False)


class Predictor(Protocol):
    """The next-token-distribution contract.

    Callers pass the whole history as one ``context`` list and may extend or
    shorten it after the call returns. ``next_distribution`` reads at most its last
    ``context_length - 1`` tokens, copies whatever it keeps, and returns a
    ``Distribution`` of size ``vocab_size`` (non-negative, summing to one)
    that depends only on ``z`` and those tokens. Implementations may reuse
    its arrays between the calls of one thread, never across threads;
    callers must copy what they keep and must not write into them (the
    n-gram's are read-only views of its tables).
    """

    vocab_size: int
    context_length: int

    def next_distribution(self, z: int | None, context: Sequence[int]) -> Distribution: ...


class _Level(NamedTuple):
    """The counts after contexts of one length.

    Context ``keys[i]`` (ascending) was followed by the ascending tokens
    ``tokens[offsets[i]:offsets[i + 1]]``, each ``counts`` times, and by
    ``totals[i]`` tokens in all.
    """

    keys: np.ndarray
    offsets: np.ndarray
    tokens: np.ndarray
    counts: np.ndarray
    totals: np.ndarray

    @classmethod
    def of(cls, keys, offsets, tokens, counts) -> "_Level":
        cumulative = np.concatenate(([0], np.cumsum(counts)))
        return cls(keys, offsets, tokens, counts, cumulative[offsets[1:]] - cumulative[offsets[:-1]])

    def find(self, key: int) -> int:
        """Row of context ``key``, or -1 if it was never seen."""
        row = int(self.keys.searchsorted(key))
        return row if row < len(self.keys) and self.keys[row] == key else -1


class _LevelTerms(NamedTuple):
    """One level's smoothed estimate, ready to add: ``uncounted[i]`` is the
    ``(1 - BACKOFF_WEIGHT) * alpha / denom`` of row ``i``, and each successor
    has its slot in the support and its ``(1 - BACKOFF_WEIGHT) * (alpha +
    count) / denom``, where ``denom`` is its row's total plus ``alpha *
    vocab_size``. At level 1, whose lower order is always the backed-off
    unigram, ``counted`` already holds the sum with that unigram's slot."""

    uncounted: np.ndarray
    slots: np.ndarray
    counted: np.ndarray


class _Tables(NamedTuple):
    """What ``next_distribution`` reads beyond the levels: the ``support``,
    the backed-off unigram over it plus the background slot, the per-level
    terms (index 0 unused), the term of a context never seen, per depth the
    vector of a context seen at no level (depth 0 the unigram), and each
    thread's scratch. Every array but the scratch's ``compact`` is read-only."""

    support: np.ndarray
    backoff_unigram: np.ndarray
    terms: list[_LevelTerms | None]
    unseen: float
    never_seen: list[np.ndarray]
    scratch: _Scratch


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class _Scratch(threading.local):
    """Each thread's compact vector, which its calls with a row work in, and
    the vector's values as a read-only view; built on a thread's first read."""

    def __init__(self, size: int) -> None:
        self.compact = np.empty(size)
        self.values = _read_only(self.compact[:-1])


class NGramModel:
    """Add-alpha smoothed n-gram with fixed-weight interpolation to lower orders.

    The counts live in ``_levels``, one per context length. ``totals[k]``, decoded
    from them on each read, maps each length-k context tuple seen to the number
    of tokens that followed it; ``totals[0][()]`` is the number trained on.
    """

    def __init__(self, order: int, alpha: float, vocab_size: int,
                 context_length: int = CONTEXT_LENGTH):
        if order < 1:
            raise ValueError("order must be >= 1")
        if not 0 < alpha < math.inf:
            raise ValueError("alpha must be positive and finite")
        if not 1 <= vocab_size < KEY_LIMIT:
            raise ValueError("vocab_size must be >= 1 and below 2**63 (int64 tokens)")
        # any vocab_size >= 2 passes 2**63 by order 64: never build a larger power
        if vocab_size > 1 and (order >= 64 or vocab_size ** order > KEY_LIMIT):
            raise ValueError(
                f"vocab_size ** order must not exceed 2**63 (int64 n-gram keys); "
                f"got {vocab_size} ** {order}"
            )
        if not math.isfinite(alpha * vocab_size):  # every denominator adds it
            raise ValueError(f"alpha * vocab_size must be finite, got {alpha} * {vocab_size}")
        if context_length < 1:
            raise ValueError(f"context_length must be >= 1, got {context_length}")
        self.order = order
        self.alpha = alpha
        self.vocab_size = vocab_size
        self.context_length = context_length
        empty = np.zeros(0, dtype=np.int64)
        self._set_levels([_Level.of(empty, np.zeros(1, dtype=np.int64), empty, empty)] * order)

    def _set_levels(self, levels: list[_Level]) -> None:
        self._levels = levels
        self._tables: _Tables | None = None

    @property
    def totals(self) -> list[dict[tuple[int, ...], int]]:
        """Per context length, each context tuple seen and its row total, in
        ascending key order; decoded on each read from the keys, whose base
        ``vocab_size`` digits are the tokens, the oldest the most significant."""
        powers = self.vocab_size ** np.arange(self.order - 1, -1, -1, dtype=np.int64)
        return [dict(zip(map(tuple, (level.keys[:, None] // powers[self.order - k:]
                                     % self.vocab_size).tolist()), level.totals.tolist()))
                for k, level in enumerate(self._levels)]

    def _build_tables(self) -> _Tables:
        alpha, vocab_size = self.alpha, self.vocab_size
        support = np.unique(np.concatenate([level.tokens for level in self._levels]))
        # (alpha + count) / denom per support token; the background slot, like
        # every token outside the support, has the uncounted alpha / denom
        first = self._levels[0]
        unigram = np.full(len(support) + 1, alpha, dtype=np.float64)
        unigram[support.searchsorted(first.tokens)] += first.counts
        unigram /= int(first.totals.sum()) + alpha * vocab_size
        backoff_unigram = BACKOFF_WEIGHT * unigram
        terms: list[_LevelTerms | None] = [None]
        for level in self._levels[1:]:
            denom = level.totals + alpha * vocab_size
            slots = support.searchsorted(level.tokens)
            counted = ((1.0 - BACKOFF_WEIGHT)
                       * ((alpha + level.counts) / np.repeat(denom, np.diff(level.offsets))))
            if len(terms) == 1:
                counted = backoff_unigram[slots] + counted
            terms.append(_LevelTerms(_read_only((1.0 - BACKOFF_WEIGHT) * (alpha / denom)),
                                     _read_only(slots), _read_only(counted)))
        unseen = (1.0 - BACKOFF_WEIGHT) * (alpha / (alpha * vocab_size))
        # the recursion's vector at each depth when no level has a row
        vectors = [unigram, backoff_unigram + unseen]
        for _ in range(2, self.order):
            vectors.append(np.multiply(vectors[-1], BACKOFF_WEIGHT) + unseen)
        return _Tables(_read_only(support), _read_only(backoff_unigram), terms, unseen,
                       [_read_only(v) for v in vectors[: self.order]], _Scratch(len(support) + 1))

    def next_distribution(self, z: int | None, context: Sequence[int]) -> Distribution:
        """Interpolated distribution after ``[z, *context]``, as read-only
        views of the model's tables.

        Each level scales the lower orders by ``BACKOFF_WEIGHT`` and adds its
        own smoothed estimate: a constant for the tokens its context never
        preceded, then the terms of the counted tokens written in place. The
        recursion runs from the unigram over the support plus one background
        slot, the probability of every token outside the support. Until a
        level has a row, the vector is that depth's precomputed one; from
        then on the recursion runs in the calling thread's compact vector.
        """
        n = len(context)
        depth = min(self.order - 1, n + (z is not None), self.context_length - 1)
        if self._tables is None:
            self._tables = self._build_tables()
        support, backoff_unigram, terms, unseen, never_seen, scratch = self._tables
        compact = scratch.compact
        vocab_size = self.vocab_size
        key: int | None = 0  # key of the last k tokens; None once one is outside the vocabulary
        radix = 1
        found = False  # whether a level so far had a row, so compact holds the vector
        for k in range(1, depth + 1):
            token = context[n - k] if k <= n else z
            if key is not None and 0 <= token < vocab_size:
                key += int(token) * radix
                radix *= vocab_size
            else:
                key = None
            level = self._levels[k]
            row = -1 if key is None else level.find(key)
            if row < 0:
                if found:
                    np.multiply(compact, BACKOFF_WEIGHT, out=compact)
                    np.add(compact, unseen, out=compact)
                continue
            span = slice(level.offsets[row], level.offsets[row + 1])
            slots = terms[k].slots[span]
            if k == 1:  # the counted terms already hold the backed-off unigram's
                np.add(backoff_unigram, terms[1].uncounted[row], out=compact)
                compact[slots] = terms[1].counted[span]
            else:  # the lower orders scaled by the backoff weight
                np.multiply(compact if found else never_seen[k - 1], BACKOFF_WEIGHT, out=compact)
                lower = compact[slots]
                np.add(compact, terms[k].uncounted[row], out=compact)
                compact[slots] = lower + terms[k].counted[span]
            found = True
        if not found:
            vector = never_seen[depth]
            return Distribution(support, vector[:-1], vector[-1], vocab_size)
        return Distribution(support, scratch.values, compact[-1], vocab_size)

    def save(self, path) -> None:
        """Write the model to exactly ``path`` as a versioned ``.npz``."""
        arrays = {
            "version": np.int64(MODEL_FORMAT_VERSION),
            "order": np.int64(self.order),
            "alpha": np.float64(self.alpha),
            "vocab_size": np.int64(self.vocab_size),
            "context_length": np.int64(self.context_length),
        }
        for k, level in enumerate(self._levels):
            for name in _STORED:
                arrays[f"{name}{k}"] = getattr(level, name)
        with open(path, "wb") as f:
            np.savez(f, **arrays)

    @staticmethod
    def load(path) -> "NGramModel":
        """Read a model written by ``save``; never unpickles.

        Anything else, including a pickled model from an earlier version,
        raises ``ModelFileError``.
        """
        with open(path, "rb") as f:
            try:
                arrays = _read_npz(f, os.fstat(f.fileno()).st_size)
            # zipfile raises NotImplementedError and RuntimeError for archive
            # features it does not read, such as encrypted members
            except (ValueError, OSError, EOFError, zipfile.BadZipFile, NotImplementedError,
                    RuntimeError) as exc:
                raise ModelFileError(f"{path}: not a readable .npz model file ({exc})") from exc
        return _model_from_arrays(arrays, path)


def _read_npz(f, size: int) -> dict[str, np.ndarray]:
    """The arrays of an ``.npz`` archive of ``size`` bytes, without pickles.

    Members must be stored uncompressed in ``.npy`` format 1.0, as ``save``
    writes them. Each header is read before its array, and together the
    arrays may declare no more bytes than the archive holds, so a forged
    header cannot make the reader allocate more memory than the file's size.
    """
    arrays = {}
    declared = 0
    with zipfile.ZipFile(f) as archive:
        for info in archive.infolist():
            name = info.filename
            if info.compress_type != zipfile.ZIP_STORED:
                raise ValueError(f"{name}: compressed member")
            with archive.open(info) as member:
                version = np.lib.format.read_magic(member)
                if version != (1, 0):
                    raise ValueError(f"{name}: unsupported .npy format version {version}")
                shape, _, dtype = np.lib.format.read_array_header_1_0(member)
                declared += math.prod(shape) * dtype.itemsize
                if declared > size:
                    raise ValueError(f"{name}: arrays declare more than the file's {size} bytes")
                member.seek(0)
                array = np.lib.format.read_array(member, allow_pickle=False)
            arrays[name.removesuffix(".npy")] = array
    return arrays


def _model_from_arrays(arrays: dict[str, np.ndarray], path) -> NGramModel:
    def field(name: str, dtype, ndim: int) -> np.ndarray:
        value = arrays.get(name)
        if value is None or value.dtype != dtype or value.ndim != ndim:
            raise ModelFileError(f"{path}: missing or malformed array {name!r}")
        return value

    version = int(field("version", np.int64, 0))
    if version != MODEL_FORMAT_VERSION:
        raise ModelFileError(
            f"{path}: model format version {version}, expected {MODEL_FORMAT_VERSION}"
        )
    order = int(field("order", np.int64, 0))
    if len(arrays) != 5 + len(_STORED) * order:
        raise ModelFileError(f"{path}: {len(arrays)} arrays do not fit order {order}")
    try:
        model = NGramModel(order, float(field("alpha", np.float64, 0)),
                           int(field("vocab_size", np.int64, 0)),
                           int(field("context_length", np.int64, 0)))
    except ValueError as exc:
        raise ModelFileError(f"{path}: {exc}") from exc
    vocab_size = model.vocab_size
    levels = []
    for k in range(order):
        keys, offsets, tokens, counts = (field(f"{name}{k}", np.int64, 1) for name in _STORED)
        sizes = np.diff(offsets)
        valid = (
            len(offsets) == len(keys) + 1 and offsets[0] == 0
            and offsets[-1] == len(tokens) == len(counts) and (sizes > 0).all()
            and ((keys >= 0) & (keys < vocab_size ** k)).all()
            and ((tokens >= 0) & (tokens < vocab_size)).all() and (counts > 0).all()
            # rows and the tokens within each row strictly ascending
            and (np.diff(np.repeat(keys, sizes) * vocab_size + tokens) > 0).all()
        )
        if not valid:
            raise ModelFileError(f"{path}: inconsistent counts for context length {k}")
        levels.append(_Level.of(keys, offsets, tokens, counts))
    model._set_levels(levels)
    return model


def train_ngram(
    corpus: Iterable[Sequence[int]], order: int, alpha: float, vocab_size: int
) -> NGramModel:
    """Count-train an n-gram model over token rows; deterministic.

    Each order is counted in place over the flat token stream: Horner's rule
    builds the mixed-radix key of (context, token) at every window, windows
    that start in an earlier row become -1, and one in-place sort, one
    ``searchsorted`` past the -1s and one ``!=`` give the sorted grams and
    their counts. Contexts as long as the longest row or longer were never
    seen; those levels stay the untrained model's one shared empty level.
    """
    model = NGramModel(order, alpha, vocab_size)
    rows = list(corpus)
    lengths = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    n_tokens = int(lengths.sum())
    if n_tokens == 0:
        raise ValueError("cannot train on an empty corpus")
    try:
        flat = np.fromiter(itertools.chain.from_iterable(rows), dtype=np.int64, count=n_tokens)
    except OverflowError as exc:
        raise ValueError(f"token outside vocabulary of size {vocab_size}") from exc
    outside = np.flatnonzero((flat < 0) | (flat >= vocab_size))
    if outside.size:
        raise ValueError(f"token {flat[outside[0]]} outside vocabulary of size {vocab_size}")
    ends = np.cumsum(lengths)
    levels = []
    for k in range(min(order, int(lengths.max()))):
        grams = flat[: n_tokens - k].copy()  # key of the k + 1 tokens from each position
        for j in range(1, k + 1):
            grams *= vocab_size
            grams += flat[j : n_tokens - k + j]
        crossing = (ends[:, None] - np.arange(1, k + 1)).ravel()  # the k windows before a row end
        grams[crossing[(crossing >= 0) & (crossing < len(grams))]] = -1
        grams.sort()
        grams = grams[grams.searchsorted(0):]
        starts = np.flatnonzero(np.concatenate(([True], grams[1:] != grams[:-1])))
        counts = np.diff(starts, append=len(grams))
        contexts = grams[starts]
        del grams  # the window keys
        tokens = contexts % vocab_size
        contexts //= vocab_size
        firsts = np.flatnonzero(np.diff(contexts, prepend=-1))
        levels.append(_Level.of(contexts[firsts], np.append(firsts, len(starts)), tokens, counts))
    model._set_levels(levels + model._levels[len(levels):])
    return model


class ReplayPredictor:
    """Test oracle: puts mass 1 on the next ground-truth token, ignoring context.

    Once the ground truth is exhausted every call returns a point mass on the
    terminator token.
    """

    def __init__(self, tokens: Sequence[int], vocab_size: int, terminator: int,
                 context_length: int = CONTEXT_LENGTH):
        self.tokens = list(tokens)
        self.vocab_size = vocab_size
        self.terminator = terminator
        self.context_length = context_length
        self.cursor = 0
        self._support = np.array([*self.tokens, terminator], dtype=np.int64)
        self._mass = np.ones(1)

    def next_distribution(self, z: int | None, context: Sequence[int]) -> Distribution:
        i = self.cursor
        if i < len(self.tokens):
            self.cursor += 1
        return Distribution(self._support[i : i + 1], self._mass, 0.0, self.vocab_size)
