#!/usr/bin/env python3
"""Conditional generation: accompany a fixed melody.

Trains the reference model on augmented synthetic data, then samples with
the melody supplied as anticipated controls. The sampler surfaces each
control to the model up to five seconds before its onset; the baseline loop
(no anticipation) only reveals a control after generation passes its time.
The merged result (generated events plus the melody) round-trips to MIDI.
"""

import tempfile
from pathlib import Path

import numpy as np

from anticipate.anticipation import split_and_sort
from anticipate.augment import AugmentationPolicy, augment_corpus
from anticipate.events import Event, EventSequence, encode_note
from anticipate.midi import parse_midi, write_midi
from anticipate.predictor import train_ngram
from anticipate.sampler import (
    SamplerConfig,
    generate_anticipatory,
    generate_autoregressive_infill,
)
from anticipate.tokenizer import encode_arrival
from anticipate.vocab import ArrivalVocab

rng = np.random.default_rng(7)


def synth_piece(n_events=120):
    t, events, pitch = 0, [], 64
    for _ in range(n_events):
        t += int(rng.integers(5, 35))
        pitch = int(np.clip(pitch + rng.integers(-3, 4), 40, 90))
        k = (0, 32)[int(rng.integers(2))]
        events.append(Event(t, int(rng.integers(10, 100)), encode_note(k, pitch)))
    return EventSequence(events)


corpus = [synth_piece() for _ in range(40)]
copies = augment_corpus(corpus, AugmentationPolicy(factor=10), seed=3)
model = train_ngram(
    [encode_arrival(c.interleaved) for c in copies],
    order=3, alpha=0.01, vocab_size=ArrivalVocab.SIZE,
)

# A simple rising melody on flute (program 73), one note per second.
melody = EventSequence(
    Event(i * 100, 80, encode_note(73, 60 + (i * 2) % 12)) for i in range(12)
)

config = SamplerConfig(delta=5.0, top_p=0.95, max_tokens=400, seed=11)
result = generate_anticipatory(model, melody, config)
generated = result.sequence.events()
print(f"anticipatory run: {len(generated)} events sampled around "
      f"{len(melody)} melody notes (truncated={result.truncated})")

positions = ["u" if item.control else "e" for item in result.sequence]
print("stream layout:", "".join(positions))

merged = split_and_sort(result.sequence).without_rests()
out = Path(tempfile.mkdtemp(prefix="anticipate-demo-")) / "accompaniment.mid"
out.write_bytes(write_midi(merged))
assert parse_midi(out.read_bytes()) == merged
print(f"merged accompaniment written to {out}")

baseline = generate_autoregressive_infill(model, melody, config)
print(f"baseline run (controls only revealed after their time): "
      f"{len(baseline.sequence.events())} events")
