"""Generation: one loop behind anticipatory sampling and the baseline
autoregressive infilling loop, plus nucleus (top-p) token sampling.

The loop samples an event triple token-by-token from the predictor, then
releases every pending control with time at most ``t + lookahead``, where
``t`` is the time of the event just sampled. Anticipatory sampling looks
``delta`` ahead and appends the released controls after the event in the
control vocabulary. Because that check looks only at what has already been
generated, the loop reproduces the offline interleaving exactly when the
predictor replays a known event stream. The baseline cannot look ahead
(lookahead 0): it inserts the controls the event's time has reached before
the event, writing them into the history as ordinary events. When generation
terminates the unconsumed controls are appended so the result remains
lossless for the split/sort inverse.

Generation works at event granularity with absolute times. The token context
fed to the predictor holds the most recent triples; once its window slides
past the start of generation it is relativized by its minimum time, the rule
the tokenizer applies to every model context.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .anticipation import next_anticipated_controls
from .events import (
    MAX_TIME_UNITS,
    REST,
    UNITS_PER_SECOND,
    Event,
    EventSequence,
    InterleavedSequence,
    TaggedEvent,
)
from .predictor import Predictor
from .tokenizer import _arrival_triples, _columns, _event_triple
from .vocab import ArrivalVocab as AV

TIME_SLOT, DURATION_SLOT, NOTE_SLOT = 0, 1, 2


@dataclass(frozen=True)
class SamplerConfig:
    delta: float = 5.0  # seconds
    top_p: float = 0.95
    max_tokens: int = 3069  # generated event/control tokens (whole triples)
    grammar_mask: bool = True
    seed: int | None = None

    def __post_init__(self) -> None:
        if not 0 < self.top_p <= 1:
            raise ValueError("top_p must be in (0, 1]")
        if self.delta <= 0:
            raise ValueError("delta must be positive")

    @property
    def delta_units(self) -> int:
        return round(self.delta * UNITS_PER_SECOND)


@dataclass
class GenerationResult:
    sequence: InterleavedSequence
    truncated: bool  # hit max_tokens before sampling a separator
    sampled_events: int  # events drawn from the predictor (controls excluded)


def nucleus_sample(dist: np.ndarray, p: float, rng: np.random.Generator) -> int:
    """Sample from the smallest probability-sorted prefix with mass >= p.

    The prefix is renormalized before sampling; ``p = 1`` is ordinary
    sampling from the full distribution.
    """
    if not 0 < p <= 1:
        raise ValueError("p must be in (0, 1]")
    dist = np.asarray(dist, dtype=np.float64)
    total = dist.sum()
    if total <= 0 or not np.isfinite(total):
        raise ValueError("cannot sample from an all-zero or invalid distribution")
    top = int(np.argmax(dist))
    if dist[top] >= p * total:
        return top  # the nucleus is a single token
    order = np.argsort(-dist, kind="stable")
    cumulative = np.cumsum(dist[order])
    # cumsum can land a rounding error below dist.sum() at p = 1
    cutoff = min(int(np.searchsorted(cumulative, p * total, side="left")), len(order) - 1)
    support = order[: cutoff + 1]
    weights = dist[support] / cumulative[cutoff]
    return int(support[rng.choice(len(support), p=weights / weights.sum())])


def _slot_ranges(slot: int, min_time: int) -> list[tuple[int, int]]:
    """Allowed token ranges for a triple slot under the grammar mask."""
    if slot == TIME_SLOT:
        return [(AV.TIME_BASE + min_time, AV.DUR_BASE), (AV.SEP, AV.SEP + 1)]
    if slot == DURATION_SLOT:
        return [(AV.DUR_BASE, AV.NOTE_BASE)]
    return [(AV.NOTE_BASE, AV.REST + 1)]


class _Context:
    """Incrementally maintained token context over the recent history.

    The window ``items`` holds only the most recent whole triples that fit in
    ``context_length - 1`` tokens, preceded by a separator triple while the
    start of generation is still visible. While the start is visible the
    generated times are the coordinate system and ``offset`` is zero, and
    each push appends one triple. Once the window slides, ``columns`` keeps
    its items' absolute times, durations, notes and control flags; each push
    shifts them by one item, and the window is relativized by its minimum
    time and re-encoded as a whole. Sampled times map back through ``offset``.
    """

    __slots__ = ("capacity", "plain_controls", "items", "columns", "tokens", "offset")

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
            self.tokens.extend(_event_triple(item.event, control, len(self.items) - 1))
            return
        if not self.capacity:  # context_length 1 looks no tokens back
            self.tokens = []
            return
        if self.columns is None:
            self.columns = _columns(self.items)
            if self.plain_controls:
                self.columns[3] = 0
        else:
            self.columns[:, :-1] = self.columns[:, 1:]
            event = item.event
            self.columns[:, -1] = (event.time, event.duration, event.note, control)
        self.offset = int(self.columns[0].min())
        self.tokens = _arrival_triples(self.columns, self.offset).ravel().tolist()


def _sample_slot(
    predictor: Predictor,
    z: int,
    context: list[int],
    slot: int,
    min_time: int,
    rng: np.random.Generator,
    config: SamplerConfig,
) -> int:
    dist = predictor.next_distribution(z, context)
    if not config.grammar_mask:
        return nucleus_sample(dist, config.top_p, rng)
    # Sample over the allowed ranges only; slices view the distribution
    # without materializing a full-vocabulary mask.
    ranges = _slot_ranges(slot, min_time)
    pieces = [dist[lo:hi] for lo, hi in ranges]
    local = nucleus_sample(pieces[0] if len(pieces) == 1 else np.concatenate(pieces),
                           config.top_p, rng)
    for lo, hi in ranges:
        if local < hi - lo:
            return lo + local
        local -= hi - lo
    raise AssertionError("nucleus index outside mask ranges")


def _sample_event(
    predictor: Predictor,
    z: int,
    context: _Context,
    last_time: int | None,
    rng: np.random.Generator,
    config: SamplerConfig,
) -> Event | None:
    """Sample one event triple; None means the separator was sampled."""
    offset = context.offset
    min_time = 0 if last_time is None else max(last_time - offset, 0)

    tokens = context.tokens
    time_tok = _sample_slot(predictor, z, tokens, TIME_SLOT, min_time, rng, config)
    if time_tok == AV.SEP:
        return None
    tokens = tokens + [time_tok]
    duration_tok = _sample_slot(predictor, z, tokens, DURATION_SLOT, min_time, rng, config)
    tokens.append(duration_tok)
    note_tok = _sample_slot(predictor, z, tokens, NOTE_SLOT, min_time, rng, config)

    if not (
        AV.is_plain_time(time_tok)
        and AV.is_plain_duration(duration_tok)
        and (AV.is_plain_note(note_tok) or note_tok == AV.REST)
    ):
        # Reachable only with the grammar mask off and a model that has not
        # learned the triple structure.
        raise ValueError(
            f"sampled an ungrammatical triple ({time_tok}, {duration_tok}, {note_tok}); "
            "enable grammar_mask for models that do not respect the slot ranges"
        )
    time = time_tok - AV.TIME_BASE + offset
    duration = duration_tok - AV.DUR_BASE
    if note_tok == AV.REST:
        # Rests carry no duration; a model may still pair REST with a
        # nonzero duration token, which we coerce to zero.
        return Event(time, 0, REST)
    return Event(time, duration, note_tok - AV.NOTE_BASE)


def _checked_controls(controls: EventSequence) -> EventSequence:
    for i, control in enumerate(controls):
        if control.time >= MAX_TIME_UNITS:
            raise ValueError(f"control {i} at time {control.time} exceeds the token range")
        if control.is_rest:
            raise ValueError("rest events cannot be controls")
    return controls


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
    controls = _checked_controls(controls)
    rng = np.random.default_rng(config.seed)
    lookahead = config.delta_units if anticipate else 0

    context = _Context(predictor.context_length, plain_controls=not anticipate)
    items: list[TaggedEvent] = []
    cursor = 0
    last_time: int | None = None
    truncated = False
    sampled = 0
    while True:
        if 3 * (len(items) + 1) > config.max_tokens:
            truncated = True
            break
        event = _sample_event(predictor, z, context, last_time, rng, config)
        if event is None:
            break
        due, cursor = next_anticipated_controls(controls, cursor, event.time, lookahead)
        placed = [TaggedEvent(c, control=True) for c in due]
        if anticipate:
            placed.insert(0, TaggedEvent(event))
        else:
            placed.append(TaggedEvent(event))
        for item in placed:
            items.append(item)
            context.push(item)
        sampled += 1
        last_time = event.time
    if not truncated:
        # Terminated at a separator: append the never-released controls so
        # the interleaving stays lossless.
        items.extend(TaggedEvent(c, control=True) for c in controls[cursor:])
    return GenerationResult(InterleavedSequence(items, check=False), truncated, sampled)


def generate_anticipatory(
    predictor: Predictor,
    controls: EventSequence,
    config: SamplerConfig,
    z: int | None = None,
) -> GenerationResult:
    """Anticipatory sampling: surface each control within ``delta`` of the
    events being generated, at positions decidable from the prefix alone.

    ``z`` defaults to AAR when controls are present and AR otherwise. The
    returned sequence interleaves sampled events with all the controls;
    take its ``events()`` or split/sort it depending on the task.
    """
    if z is None:
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
