"""Generation loops: nucleus sampling, online anticipation equivalence,
the baseline infilling loop, grammar masking, and determinism."""

from __future__ import annotations

import numpy as np
import pytest

from anticipate import golden
from anticipate.anticipation import interleave
from anticipate.events import Event, EventSequence, InterleavedSequence, TaggedEvent, encode_note
from anticipate.predictor import ReplayPredictor, UniformPredictor, train_ngram
from anticipate.sampler import (
    SamplerConfig,
    _Context,
    generate_anticipatory,
    generate_autoregressive_infill,
    nucleus_sample,
)
from anticipate.tokenizer import TokenError, encode_arrival
from anticipate.vocab import ArrivalVocab as AV

from conftest import random_controls, random_events


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
            assert nucleus_sample(dist, p, rng) == 7

    def test_prefix_support_and_renormalization(self, rng):
        dist = np.array([0.5, 0.3, 0.2])
        draws = np.array([nucleus_sample(dist, 0.7, rng) for _ in range(20_000)])
        assert set(draws.tolist()) == {0, 1}
        # renormalized prefix of mass 0.8: probabilities 0.625 / 0.375
        freq = (draws == 0).mean()
        assert freq == pytest.approx(0.625, abs=0.02)

    def test_full_sampling_at_p_one(self, rng):
        dist = np.full(4, 0.25)
        draws = np.array([nucleus_sample(dist, 1.0, rng) for _ in range(10_000)])
        for token in range(4):
            assert (draws == token).mean() == pytest.approx(0.25, abs=0.02)

    def test_degenerate_distribution(self, rng):
        with pytest.raises(ValueError):
            nucleus_sample(np.zeros(4), 0.9, rng)

    def test_invalid_p(self, rng):
        with pytest.raises(ValueError):
            nucleus_sample(np.full(4, 0.25), 0.0, rng)


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
            rows.append(encode_arrival(seq, z=AV.AR, leading_sep=True) + [AV.SEP] * 3)
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
        dist = np.zeros(self.vocab_size)
        for token, weight in self.steps[len(self.contexts)].items():
            dist[token] = weight
        self.contexts.append(list(context))
        return dist


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


class TestContextWindow:
    def test_holds_at_most_its_capacity(self):
        items = [TaggedEvent(Event(10 * i, 1, 60)) for i in range(8)]
        empty = _Context(1, plain_controls=False)  # looks 0 tokens back
        window = _Context(16, plain_controls=False)  # 5 triples
        for item in items:
            empty.push(item)
            window.push(item)
        assert len(empty.items) == 0 and empty.tokens == []
        assert list(window.items) == items[-5:]
        assert window.tokens[0::3] == [AV.TIME_BASE + 10 * i for i in range(5)]

    @pytest.mark.parametrize("plain_controls", [False, True])
    def test_long_session_context_is_the_relativized_window(self, rng, plain_controls):
        # 600 events and their controls: the 341-triple window slides after
        # 340 pushes; every context must equal encode_arrival of the window
        # (led by a separator until it slides, then shifted by its minimum time)
        events = random_events(rng, 600, max_gap=30, max_duration=100)
        controls = random_controls(rng, 120, max_time=events.end_time, max_duration=100)
        items = [TaggedEvent(item.event, item.control and not plain_controls)
                 for item in interleave(events, controls, 500)]
        context = _Context(1024, plain_controls)
        for n, item in enumerate(items, start=1):
            context.push(item)
            window = items[max(0, n - 341) : n]
            if n < 341:
                expected = [AV.SEP] * 3 + encode_arrival(InterleavedSequence(window, check=False))
            else:
                offset = min(it.event.time for it in window)
                shifted = [TaggedEvent(Event(it.event.time - offset, it.event.duration, it.event.note),
                                       it.control) for it in window]
                expected = encode_arrival(InterleavedSequence(shifted, check=False))
            assert context.tokens == expected, n
            assert context.offset == (0 if n < 341 else offset)
        # a window spanning the 100-second token range still fails as before
        late = TaggedEvent(Event(min(it.event.time for it in items[-340:]) + 10_000, 1, 60))
        with pytest.raises(TokenError, match=r"exceeds the 100s token range \(index 340\)"):
            context.push(late)


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
        from anticipate.anticipation import event_sort_key, split_and_sort

        events = random_events(rng, 40)
        controls = random_controls(rng, 10, max_time=int(events.end_time))
        interleaved = interleave(events, controls, 500)
        merged = split_and_sort(interleaved)
        stripped = sorted(interleaved.events(), key=event_sort_key)
        leftover = list(merged)
        for e in sorted(controls, key=event_sort_key):
            leftover.remove(e)
        assert sorted(leftover, key=event_sort_key) == stripped


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
