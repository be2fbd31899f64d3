"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).

Criteria cover the golden token vectors, the reference interleavings, the
online/offline equivalence at scale, codec round-trips, the published loss
conversions, the rest-density guarantee, augmentation composition, a full
desk-scale pipeline run, and MIDI round-trips. Tolerances are stated inline;
everything not marked approximate is bit-exact.
"""

from __future__ import annotations

import math
import time
from pathlib import Path

import numpy as np
from scipy import stats as scipy_stats

from anticipate import golden
from anticipate.anticipation import (
    densify,
    interleave,
    sort_order_interleave,
    split_and_sort,
)
from anticipate.augment import (
    AugmentationPolicy,
    augment_corpus,
    sample_instrument_controls,
    sample_random_controls,
)
from anticipate.corpus import preprocess_corpus
from anticipate.eventio import read_events
from anticipate.events import Event, EventSequence, InterleavedSequence, TaggedEvent, encode_note
from anticipate.metrics import CorpusStats, bits_per_second, cross_entropy, total_seconds
from anticipate.midi import parse_midi, write_midi
from anticipate.predictor import ReplayPredictor, train_ngram
from anticipate.sampler import (
    SamplerConfig,
    generate_anticipatory,
)
from anticipate.tokenizer import (
    decode_arrival,
    decode_interarrival,
    encode_arrival,
    encode_interarrival,
)
from anticipate.vocab import ArrivalVocab as AV

from conftest import event_sort_key, random_events


def report(criterion: int, message: str) -> None:
    print(f"[acceptance] criterion {criterion:2d}: PASS  {message}")


def uniform_time_events(rng, n, span=9000, durations=1000):
    times = np.sort(rng.integers(0, span, size=n))
    return EventSequence(
        Event(
            int(t),
            int(rng.integers(0, durations)),
            encode_note(int(rng.integers(129)), int(rng.integers(128))),
        )
        for t in times
    )


def test_criterion_1_golden_arrival_tokenization():
    tokens = encode_arrival(golden.twinkle_events(), z=AV.AR)
    assert tokens == golden.TWINKLE_ARRIVAL_TOKENS  # bit-exact, 46 integers
    assert decode_arrival(tokens) == [InterleavedSequence.from_events(golden.twinkle_events())]
    report(1, "arrival tokenization reproduces the 46-token vector and round-trips")


def test_criterion_2_golden_interarrival_tokenization():
    detached = encode_interarrival(golden.twinkle_events(), leading_sep=True)
    legato = encode_interarrival(golden.twinkle_full_beat_events(), leading_sep=True)
    assert detached == golden.TWINKLE_INTERARRIVAL_TOKENS  # 56 tokens
    assert legato == golden.TWINKLE_FULL_BEAT_INTERARRIVAL_TOKENS  # 43 tokens
    assert decode_interarrival(detached) == golden.twinkle_events()
    assert decode_interarrival(legato) == golden.twinkle_full_beat_events()
    report(2, "both interarrival listings (56 and 43 tokens) are bit-exact")


def test_criterion_3_golden_interleavings():
    a = golden.SCENARIO_A
    ordered = interleave(a["events"], a["controls"], a["delta"])
    assert [i.control for i in ordered] == [False, False, True, False]

    naive = sort_order_interleave(a["events"], a["controls"], a["delta"])
    assert [i.control for i in naive] == [False, True, False, False]
    assert list(naive) != list(ordered)  # the sort order is not the anticipated order

    b = golden.SCENARIO_B
    sparse = interleave(b["events"], b["controls"], b["delta"])
    assert [i.control for i in sparse] == [False, False, False, True]

    dense = interleave(densify(b["events"], 100), b["controls"], b["delta"])
    assert [i.control for i in dense] == [False, False, False, True, False, False]
    assert [i.event.time for i in dense] == [100, 200, 300, 450, 400, 500]
    report(3, "reference interleavings and the sort-order counterexample hold")


def test_criterion_4_stopping_time_equivalence():
    rng = np.random.default_rng(4)
    started = time.monotonic()
    instances = 0
    for _ in range(1000):
        n = int(rng.integers(1, 201))  # N <= 200
        k = int(rng.integers(0, 51))  # K <= 50
        events = uniform_time_events(rng, n)
        controls = uniform_time_events(rng, k)
        delta_units = int(rng.choice([50, 100, 200, 500]))  # 0.5/1/2/5 seconds
        replay = ReplayPredictor(encode_arrival(events), AV.SIZE, AV.SEP)
        config = SamplerConfig(delta=delta_units / 100.0, seed=0)
        generated = generate_anticipatory(replay, controls, config)
        offline = interleave(events, controls, delta_units)
        assert list(generated.sequence) == list(offline)  # item-for-item
        instances += 1
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    report(4, f"{instances} online runs matched the offline interleave in {elapsed:.1f}s")


def test_criterion_5_round_trip_suite():
    rng = np.random.default_rng(5)
    for _ in range(10_000):
        events = random_events(rng, int(rng.integers(0, 25)), max_gap=120)
        mask = rng.random(len(events)) < 0.3
        seq = InterleavedSequence(
            [TaggedEvent(e, control=bool(m)) for e, m in zip(events, mask)]
        )
        assert decode_arrival(encode_arrival(seq)) == [seq]
    for _ in range(10_000):
        seq = random_events(
            rng, int(rng.integers(0, 25)), avoid_note_overlap=True, start_at_zero=True
        )
        assert decode_interarrival(encode_interarrival(seq)) == seq
    for _ in range(1_000):
        n = int(rng.integers(1, 120))
        original = EventSequence(sorted(random_events(rng, n), key=event_sort_key))
        mask = rng.random(n) < 0.3
        kept = EventSequence(e for e, m in zip(original, mask) if not m)
        marked = EventSequence(e for e, m in zip(original, mask) if m)
        assert split_and_sort(interleave(kept, marked, 500)) == original
    report(5, "2x10^4 codec round-trips and 10^3 split/sort inversions exact")


def test_criterion_6_metric_reproduction():
    stats = CorpusStats(125_050_497, 560.98 * 3600.0, "arrival")
    bps = bits_per_second(math.log(14.9) / 3.0, stats)
    assert abs(bps - 80.4) <= 0.1  # published value, +/- 0.1
    product = 1.59 * 3.90 * 2.40
    assert abs(product - 14.9) <= 0.1  # slot perplexities multiply to the event value
    report(6, f"bits/second {bps:.3f} within 0.1 of 80.4; 1.59*3.90*2.40 = {product:.4f}")


def test_criterion_7_density_guarantee():
    rng = np.random.default_rng(7)
    delta, target = 500, 100  # 5s anticipation, 1s density
    checked = 0
    for _ in range(1_000):
        n = int(rng.integers(2, 40))
        events = random_events(rng, n, max_gap=2_000)  # sparse, gaps up to 20s
        k = int(rng.integers(1, 12))
        times = np.sort(rng.integers(0, events.end_time + 1, size=k))
        controls = EventSequence(Event(int(t), 10, encode_note(0, 60)) for t in times)
        dense = densify(events, target)
        result = interleave(dense, controls, delta)
        seen: list[int] = []
        for item in result:
            if item.control:
                assert any(t >= item.event.time - delta for t in seen)
                checked += 1
            else:
                seen.append(item.event.time)
    report(7, f"{checked} controls each preceded by an event within 5s of their time")


def test_criterion_8_augmentation_composition():
    started = time.monotonic()
    rng = np.random.default_rng(8)
    corpus = [
        EventSequence(
            sorted(random_events(rng, 60, max_gap=20, n_instruments=3), key=event_sort_key)
        )
        for _ in range(8)
    ]
    copies = list(augment_corpus(corpus, AugmentationPolicy(factor=30), seed=0))
    assert len(copies) == 240
    for index in range(len(corpus)):
        mine = [c.pattern for c in copies if c.sequence_index == index]
        counts = {p: mine.count(p) for p in ("none", "span", "instrument", "random")}
        assert counts == {"none": 3, "span": 3, "instrument": 12, "random": 12}

    # instrument-choice frequencies: j uniform over 1..J-1 at J=5
    parts5 = EventSequence(Event(i * 10, 5, encode_note(i % 5, 60)) for i in range(300))
    subset_sizes = []
    for _ in range(10_000):
        mask = sample_instrument_controls(parts5, rng)
        subset_sizes.append(len({e.instrument for e, m in zip(parts5, mask) if m}))
    instrument_counts = np.bincount(subset_sizes, minlength=5)[1:5]
    p_instrument = scipy_stats.chisquare(instrument_counts).pvalue
    assert p_instrument > 0.01

    # random-anticipation rates: uniform over the nine deciles
    probe = EventSequence(Event(i, 0, 60) for i in range(2_000))
    observed = [
        int(round(sample_random_controls(probe, rng).mean() * 10)) for _ in range(10_000)
    ]
    rate_counts = np.bincount(observed, minlength=10)[1:10]
    assert rate_counts.sum() == 10_000
    p_rates = scipy_stats.chisquare(rate_counts).pvalue
    assert p_rates > 0.01
    elapsed = time.monotonic() - started
    assert elapsed < 120.0
    report(
        8,
        f"(3:3:12:12) per sequence exact; chi^2 p={p_instrument:.3f}/{p_rates:.3f} in {elapsed:.0f}s",
    )


def test_criterion_9_end_to_end_desk_scale(tmp_path: Path):
    started = time.monotonic()
    rng = np.random.default_rng(9)

    midi_dir = tmp_path / "midi"
    midi_dir.mkdir()
    for i in range(50):  # >= 50 small files
        seq = random_events(
            rng, int(rng.integers(110, 180)), max_gap=25, n_instruments=3,
            avoid_note_overlap=True,
        )
        (midi_dir / f"piece_{i:03d}.mid").write_bytes(write_midi(seq))

    data_dir = tmp_path / "data"
    manifest = preprocess_corpus(midi_dir, data_dir)
    assert len(manifest.accepted()) >= 40

    with open(data_dir / "train.txt") as f:
        train_seqs = [s.events() for s in read_events(f)]
    held_out = []
    for split in ("valid", "test"):
        with open(data_dir / f"{split}.txt") as f:
            held_out.extend(s.events() for s in read_events(f))
    if len(held_out) < 3:  # hash split may starve the small holdout
        held_out.extend(train_seqs[-3:])
        train_seqs = train_seqs[:-3]
    assert train_seqs and held_out

    policy = AugmentationPolicy(factor=10)
    rows = [encode_arrival(c.interleaved) for c in augment_corpus(train_seqs, policy, seed=1)]
    model = train_ngram(rows, order=3, alpha=0.01, vocab_size=AV.SIZE)

    eval_rows = [encode_arrival(seq) for seq in held_out]
    loss = cross_entropy(model, eval_rows, "arrival")
    stats = CorpusStats(loss.n_event_tokens, total_seconds(held_out))
    model_bps = bits_per_second(loss.nats_per_token, stats)
    uniform_bps = bits_per_second(math.log(AV.SIZE), stats)
    assert math.isfinite(model_bps)
    assert model_bps < uniform_bps  # strictly better than the uniform baseline

    # accompany the melodic line (highest mean pitch part) of a held-out piece
    melody_source = max(held_out, key=len)
    parts = sorted(melody_source.instruments())
    melody_part = max(
        parts,
        key=lambda k: np.mean([e.pitch for e in melody_source if e.instrument == k]),
    )
    controls = EventSequence(
        [e for e in melody_source if e.instrument == melody_part][:20]
    )
    config = SamplerConfig(delta=5.0, top_p=0.95, max_tokens=360, seed=2)
    result = generate_anticipatory(model, controls, config)

    assert result.sequence.controls() == controls  # every control surfaced
    times = [item.event.time for item in result.sequence if not item.control]
    assert times == sorted(times)  # grammar mask: non-decreasing times
    for item in result.sequence:
        if not item.control and not item.event.is_rest:
            assert 0 <= item.event.note < 16512
            assert 0 <= item.event.duration < 1000

    stripped = result.sequence.events()
    assert len(stripped) + len(controls) == len(result.sequence)
    merged = split_and_sort(result.sequence)
    assert sorted(merged, key=event_sort_key) == sorted(
        list(stripped) + list(controls), key=event_sort_key
    )
    elapsed = time.monotonic() - started
    assert elapsed < 300.0
    report(
        9,
        f"ingest/augment/train/evaluate/sample in {elapsed:.0f}s; "
        f"model {model_bps:.1f} bps < uniform {uniform_bps:.1f} bps",
    )


def test_criterion_10_midi_round_trip():
    rng = np.random.default_rng(10)
    for _ in range(1_000):
        seq = random_events(
            rng,
            int(rng.integers(0, 60)),
            n_instruments=int(rng.integers(1, 6)),
            avoid_note_overlap=True,
        )
        assert parse_midi(write_midi(seq)) == seq  # exact
    report(10, "1000 write/parse round-trips exact")
