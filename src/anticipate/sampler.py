"""Generation: one loop behind anticipatory sampling and the baseline
autoregressive infilling loop, plus nucleus (top-p) token sampling.

The loop samples an event triple token-by-token from the predictor (under the
grammar mask, from the tokenizer's ranges for each slot) and decodes it with
the tokenizer. It then releases every pending control with time at most
``t + lookahead``, where ``t`` is the time of the event just sampled.
Anticipatory sampling looks ``delta`` ahead and appends the released
controls after the event in the control vocabulary. Because that check
looks only at what has already been generated, the loop reproduces the
offline interleaving exactly when the predictor replays a known event
stream. The baseline cannot look ahead (lookahead 0): it inserts the
controls the event's time has reached before the event, writing them into
the history as ordinary events. At a separator or the budget, the unconsumed
controls are appended so the result remains lossless for the split/sort
inverse. Before any predictor call, a predictor with another vocabulary or a
``context_length`` below 1 is refused, then tagging the controls refuses a
rest and the triple encoder a time past the token range, naming its index.

Generation works at event granularity with absolute times. Every placed
item is written once, in placement order, into one int64 buffer with rows
time, duration, note and control flag, doubled in width when full; the
result is its filled columns and the unreleased controls, tagged once per
session. The token context fed to the predictor is the most recent whole
triples that fit, led by a separator while the start of generation is
visible. Until the window slides it grows by the tokens just sampled (a
rest's duration token read as zero) and by slices of the controls' triples,
encoded once per session; once the window slides past the start it is
re-encoded from the buffer, relativized by its minimum time, the rule the
tokenizer applies to every model context.

Each slot samples from the predictor's distribution restricted to the
slot's token ranges, cut from its support by one ``searchsorted`` over the
range bounds. Nucleus sampling ranks the distinct probabilities as classes of
equal tokens and draws a class, then a token in it by index, on one path
for every distribution. The classes come from the support's values and the
background alone, whose class holds every token outside the support, so no
array as wide as the slot is built: an n-gram slot is a background under a
few counted tokens, classed by one sort. Each draw is one ``Generator.random()``.
Accompaniment repeats its slots (about two in three calls hold the values of
a slot seen before), so the classes are memoized, keyed by the slot's values
and background as float64 bytes, the background's token count and ``p``, in
a memo bounded by the bytes it holds and shared by every thread; the draw
and the token pick, which reads the support, are made per call. Every slot,
however few its support values, is ranked by the one rule and goes through
the one memo.
"""

from __future__ import annotations

import math
import struct
import threading
from bisect import bisect_left, bisect_right
from collections import OrderedDict
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .anticipation import AnticipationConfig, _check_seconds, next_anticipated_controls
from .events import EventSequence, InterleavedSequence, _tagged
from .predictor import Distribution, Predictor
from .tokenizer import _arrival_triples, _decode_triple, _slot_ranges
from .vocab import ArrivalVocab as AV


@dataclass(frozen=True)
class SamplerConfig:
    delta: float = AnticipationConfig.delta  # seconds
    top_p: float = 0.95
    max_tokens: int = 3069  # tokens of the items placed while sampling, not the controls appended
    grammar_mask: bool = True
    seed: int | None = None

    def __post_init__(self) -> None:
        if not 0 < self.top_p <= 1:
            raise ValueError("top_p must be in (0, 1]")
        _check_seconds("delta", self.delta)
        if self.max_tokens < 0:
            raise ValueError(f"max_tokens must be non-negative, got {self.max_tokens}")

    @property
    def delta_units(self) -> int:
        return _check_seconds("delta", self.delta)


@dataclass
class GenerationResult:
    sequence: InterleavedSequence
    truncated: bool  # hit max_tokens before sampling a separator; still holds every control


class _Prefix(NamedTuple):
    """A nucleus's classes, descending: each class's value, its token count
    (the last class's cut), the mass before it and the prefix's whole mass."""

    values: tuple[float, ...]
    counts: tuple[int, ...]
    mass: tuple[float, ...]
    total: float


def _rank_classes(weights: np.ndarray, background: float, outside: int, p: float) -> _Prefix:
    """The classes of the nucleus of ``weights`` and ``outside`` tokens of
    ``background``; a pure function of its arguments."""
    # the values descending between inf and -1: each change of neighbours ends a class
    sentinels = (math.inf, -1.0)
    ranked = np.concatenate((weights, (background, *sentinels) if outside else sentinels))
    ranked.sort()
    ranked = ranked[::-1]
    # the largest value (inf under a NaN) and the smallest
    if not math.isfinite(ranked[1]) or ranked[-2] < 0:
        raise ValueError("nucleus weights must be non-negative numbers")
    ends = (ranked[1:] != ranked[:-1]).nonzero()[0]
    classes, counts = ranked[ends[1:]], ends[1:] - ends[:-1]  # descending
    values = classes.tolist()
    if outside:
        counts[values.index(background)] += outside - 1
    mass = [0.0, *(classes * counts).cumsum().tolist()]  # before each class, then the total
    counts = counts.tolist()
    if not 0 < mass[-1] < math.inf:
        raise ValueError("cannot sample from an all-zero or invalid distribution")
    x = p * mass[-1]
    cut = bisect_left(mass, x, 1) - 1  # the class that reaches x
    counts[cut] = max(math.ceil(min((x - mass[cut]) / values[cut], counts[cut])), 1)
    return _Prefix(tuple(values[: cut + 1]), tuple(counts[: cut + 1]), tuple(mass[: cut + 1]),
                   mass[cut] + counts[cut] * values[cut])


_MEMO_BYTES = 1 << 21  # the most the nucleus memo holds, keys and values
_ENTRY_BYTES = 640  # an entry's fixed cost: its key and value tuples, the table's slot
_CLASS_BYTES = 80  # a class's value and mass objects and the references to them


class _Memo:
    """The prefixes of the slots ranked so far, least recently used evicted
    first, holding at most ``_MEMO_BYTES``; safe to share between threads."""

    def __init__(self) -> None:
        self._entries: OrderedDict[tuple, tuple[_Prefix, int]] = OrderedDict()
        self.bytes = 0
        self._lock = threading.Lock()

    def prefix(self, weights: np.ndarray, background: float, outside: int, p: float) -> _Prefix:
        key = (weights.tobytes(), struct.pack("d", background), outside, p)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                return entry[0]
        prefix = _rank_classes(weights, background, outside, p)
        size = len(key[0]) + _ENTRY_BYTES + _CLASS_BYTES * len(prefix.values)
        if size <= _MEMO_BYTES:
            with self._lock:
                if key not in self._entries:
                    self._entries[key] = prefix, size
                    self.bytes += size
                    while self.bytes > _MEMO_BYTES:
                        self.bytes -= self._entries.popitem(last=False)[1][1]
        return prefix


_memo = _Memo()


def nucleus_sample(dist: Distribution, p: float, rng: np.random.Generator) -> int:
    """Sample from the smallest probability-ranked prefix with mass >= p.

    A class is a distinct probability with its token count: each support
    token has its value and every other token ``background``. A class's mass
    is its value times its count; the total and the running masses sum these
    in descending class order. With ``x = p * total`` the prefix takes whole
    classes, then the first ``ceil((x - mass before) / value)`` tokens by
    index, at least one and at most all, of the class that reaches ``x``. A
    one-token prefix is returned without a draw; otherwise one
    ``rng.random()`` times the prefix mass picks a class by the running
    masses and a token in it by rank. So ``p = 1`` never samples a zero-mass
    token. A negative or non-finite probability anywhere, or a zero total,
    raises ``ValueError``.

    The classes depend only on the values, the background, its token count
    and ``p``, so each distinct slot, whatever its number of support values,
    is ranked once by one rule and its classes kept in a memo bounded by
    bytes; the draw and the token pick are made per call.
    """
    if not 0 < p <= 1:
        raise ValueError("p must be in (0, 1]")
    support, background = dist.support, float(dist.background)
    weights = np.asarray(dist.values, dtype=np.float64)
    if background == 0 and len(support) == 1 and 0 < weights[0] < math.inf:
        return int(support[0])  # a point mass is the nucleus at any p
    values, counts, mass, total = _memo.prefix(weights, background, dist.size - len(support), p)
    group = rank = 0  # a one-token prefix
    if len(values) > 1 or counts[0] > 1:
        drawn = rng.random() * total
        group = bisect_right(mass, drawn, 1) - 1
        rank = min(int((drawn - mass[group]) / values[group]), counts[group] - 1)
    if values[group] != background:
        return int(support[weights == values[group]][rank])
    # the background's class: its rank-th token is the rank-th index held by
    # no support token of another value
    other = support[weights != background]
    return rank + int((other - np.arange(len(other))).searchsorted(rank, "right"))


def _slot_distribution(dist: Distribution, ranges: tuple[tuple[int, int], ...]) -> Distribution:
    """``dist`` over the slot's token ranges, laid end to end in order: a
    token's index in the slot is its offset in its range plus the widths of
    the ranges before it."""
    support, values = dist.support, dist.values
    cuts = support.searchsorted(sum(ranges, ())).tolist()  # each range's start and end index
    pieces, weights, width = [], [], 0
    for (lo, hi), i, j in zip(ranges, cuts[::2], cuts[1::2]):
        if i < j:  # a range without support tokens adds only its width
            pieces.append(support[i:j] + (width - lo))
            weights.append(values[i:j])
        width += hi - lo
    if len(pieces) == 1:
        return Distribution(pieces[0], weights[0], dist.background, width)
    if not pieces:
        return Distribution(support[:0], values[:0], dist.background, width)
    return Distribution(np.concatenate(pieces), np.concatenate(weights), dist.background, width)


def _context_after(
    buffer: np.ndarray, n: int, capacity: int, plain_controls: bool,
) -> tuple[list[int], int]:
    """The predictor context once ``n >= capacity`` items are placed, and its
    time offset.

    The context is the window ``buffer[:, n - capacity:n]`` of ``capacity``
    triples, relativized by its minimum time and encoded. With
    ``plain_controls`` controls enter it as plain events.
    """
    if not capacity:  # context_length 1 looks no tokens back
        return [], 0
    window = buffer[:, n - capacity : n]
    if plain_controls:
        window = window.copy()
        window[3] = 0
    offset = int(window[0].min())
    return _arrival_triples(window, offset).ravel().tolist(), offset


def _sample_slot(
    predictor: Predictor, z: int, context: list[int], ranges: tuple[tuple[int, int], ...],
    rng: np.random.Generator, config: SamplerConfig,
) -> int:
    dist = predictor.next_distribution(z, context)
    if not config.grammar_mask:
        return nucleus_sample(dist, config.top_p, rng)
    local = nucleus_sample(_slot_distribution(dist, ranges), config.top_p, rng)
    for lo, hi in ranges:
        if local < hi - lo:
            return lo + local
        local -= hi - lo
    raise AssertionError("nucleus index outside mask ranges")


def _sample_event(
    predictor: Predictor, z: int, tokens: list[int], offset: int, last_time: int | None,
    rng: np.random.Generator, config: SamplerConfig,
) -> tuple[tuple[int, int, int], list[int]] | None:
    """Sample one event: its (time, duration, note) and its triple as context
    tokens at ``offset``; None means the separator was sampled. ``tokens``
    is the context, whose times are shifted by ``offset``, given back as it came."""
    # a time no earlier than the last event's keeps the events in order
    ranges = _slot_ranges(0 if last_time is None else max(last_time - offset, 0))
    time_tok = _sample_slot(predictor, z, tokens, ranges[0], rng, config)
    if time_tok == AV.SEP:
        return None
    tokens.append(time_tok)
    duration_tok = _sample_slot(predictor, z, tokens, ranges[1], rng, config)
    tokens.append(duration_tok)
    note_tok = _sample_slot(predictor, z, tokens, ranges[2], rng, config)
    del tokens[-2:]

    triple = (time_tok, duration_tok, note_tok)
    decoded = _decode_triple(*triple, offset)
    # Only an unmasked draw can leave the slot ranges, from a model that has
    # not learned the triple structure and the order of event times.
    if not config.grammar_mask and not all(
            any(lo <= token < hi for lo, hi in slot) for token, slot in zip(triple, ranges)):
        raise ValueError(
            f"sampled an ungrammatical triple {triple} at time {decoded[0][0]}, previous "
            f"event time {last_time}; enable grammar_mask for models that do not respect "
            "the slot ranges"
        )
    return decoded


def _generate(
    predictor: Predictor,
    controls: EventSequence,
    config: SamplerConfig,
    z: int,
    anticipate: bool,
) -> GenerationResult:
    """The generation loop shared by both modes.

    ``anticipate`` selects the anticipatory placement: controls are released
    ``delta`` ahead of the sampled event, follow it, and keep the control
    vocabulary. Otherwise controls are released once the event reaches their
    time, precede it, and enter the history as plain events.
    """
    if predictor.vocab_size != AV.SIZE:
        raise ValueError(f"predictor vocabulary {predictor.vocab_size} does not match the "
                         f"arrival vocabulary ({AV.SIZE})")
    if predictor.context_length < 1:
        raise ValueError(f"predictor context_length must be >= 1, got {predictor.context_length}")
    # every control's context triple, in the vocabulary it is placed with;
    # tagging the controls as controls and encoding them checks them
    tagged = _tagged(controls, True)
    tagged[3] = anticipate
    control_tokens = _arrival_triples(tagged).ravel().tolist()
    tagged[3] = 1
    rng = np.random.default_rng(config.seed)
    lookahead = config.delta_units if anticipate else 0
    capacity = (predictor.context_length - 1) // 3

    buffer = np.empty((4, 64), dtype=np.int64)  # time, duration, note, control flag
    n = 0
    tokens, offset = [AV.SEP, AV.SEP, AV.SEP], 0
    cursor = 0
    last_time: int | None = None
    truncated = True
    while 3 * (n + 1) <= config.max_tokens:
        sampled_event = _sample_event(predictor, z, tokens, offset, last_time, rng, config)
        if sampled_event is None:
            truncated = False
            break
        event, event_tokens = sampled_event
        due, cursor = next_anticipated_controls(controls, cursor, event[0], lookahead)
        k = len(due)
        while n + k + 1 > buffer.shape[1]:
            buffer = np.hstack([buffer, np.empty_like(buffer)])
        event_at, controls_at = (n, n + 1) if anticipate else (n + k, n)
        buffer[:, event_at] = (*event, 0)
        if k:
            buffer[:, controls_at : controls_at + k] = tagged[:, cursor - k : cursor]
        n += k + 1
        if n < capacity:  # the window has not slid: append the new triples
            due_tokens = control_tokens[3 * (cursor - k) : 3 * cursor]
            tokens.extend(event_tokens + due_tokens if anticipate else due_tokens + event_tokens)
        else:
            tokens, offset = _context_after(buffer, n, capacity, not anticipate)
        last_time = event[0]
    columns = np.concatenate((buffer[:, :n], tagged[:, cursor:]), axis=1)  # lossless on any exit
    return GenerationResult(InterleavedSequence._of(columns), truncated)


def generate_anticipatory(
    predictor: Predictor,
    controls: EventSequence,
    config: SamplerConfig,
) -> GenerationResult:
    """Anticipatory sampling: surface each control within ``delta`` of the
    events being generated, at positions decidable from the prefix alone.

    The control code is AAR when controls are present and AR otherwise. The
    returned sequence interleaves sampled events with all the controls;
    take its ``events()`` or split/sort it depending on the task.
    """
    z = AV.AAR if len(controls) else AV.AR
    return _generate(predictor, controls, config, z, anticipate=True)


def generate_autoregressive_infill(
    predictor: Predictor,
    controls: EventSequence,
    config: SamplerConfig,
) -> GenerationResult:
    """Baseline infilling without anticipation.

    Samples an event, then inserts every control whose time the event has
    reached immediately before it; inserted controls enter the history in the
    plain event vocabulary. The model never sees a control before its time.
    """
    return _generate(predictor, controls, config, AV.AR, anticipate=False)
