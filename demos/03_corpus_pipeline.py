#!/usr/bin/env python3
"""The corpus pipeline end to end, at desk scale.

Synthesizes a small MIDI collection, ingests it (parse, filter, hash-split),
augments the train split with anticipated-control copies, trains the
count-based reference model, and scores held-out data in bits per second
against the uniform baseline.
"""

import math
import tempfile
from pathlib import Path

import numpy as np

from anticipate.augment import AugmentationPolicy, augment_corpus
from anticipate.corpus import preprocess_corpus
from anticipate.eventio import read_events
from anticipate.events import Event, EventSequence, encode_note
from anticipate.metrics import (
    CorpusStats, bits_per_second, cross_entropy, format_report, total_seconds,
)
from anticipate.midi import write_midi
from anticipate.predictor import train_ngram
from anticipate.tokenizer import encode_arrival, pack_training_examples
from anticipate.vocab import ArrivalVocab

rng = np.random.default_rng(0)


def synth_piece(n_events=140):
    """A meandering three-part piece; enough structure for counts to bite."""
    instruments = [0, 32, 48]
    t, events = 0, []
    pitch = 60
    for _ in range(n_events):
        t += int(rng.integers(5, 40))
        pitch = int(np.clip(pitch + rng.integers(-4, 5), 30, 100))
        k = instruments[int(rng.integers(3))]
        events.append(Event(t, int(rng.integers(10, 120)), encode_note(k, pitch)))
    return EventSequence(events)


work = Path(tempfile.mkdtemp(prefix="anticipate-demo-"))
midi_dir = work / "midi"
midi_dir.mkdir()
for i in range(60):
    (midi_dir / f"piece_{i:03d}.mid").write_bytes(write_midi(synth_piece()))

data = work / "data"
manifest = preprocess_corpus(midi_dir, data)
print(f"ingested {len(manifest.entries)} files, accepted {len(manifest.accepted())}")
for split in ("train", "valid", "test"):
    n = sum(1 for e in manifest.accepted() if e.split == split)
    print(f"  {split:5s} {n:3d} sequences")

with open(data / "train.txt") as f:
    train = [s.events() for s in read_events(f)]
held_out = []
for split in ("valid", "test"):
    with open(data / f"{split}.txt") as f:
        held_out.extend(s.events() for s in read_events(f))
if not held_out:  # tiny corpora can hash everything into train
    held_out, train = train[-5:], train[:-5]

# Ten interleaved copies per training sequence: 1 verbatim, 1 with span
# anticipation, 4 with instrument anticipation, 4 with random anticipation.
policy = AugmentationPolicy(factor=10)
copies = list(augment_corpus(train, policy, seed=1))
print(f"\naugmented {len(train)} sequences into {len(copies)} copies")

rows = [encode_arrival(c.interleaved) for c in copies]
packed = pack_training_examples(c.interleaved for c in copies)
print(f"packed {len(packed.examples)} fixed-length training examples "
      f"({packed.n_discarded} over-long windows discarded)")

model = train_ngram(rows, order=3, alpha=0.01, vocab_size=ArrivalVocab.SIZE)

eval_rows = [encode_arrival(seq) for seq in held_out]
report = cross_entropy(model, eval_rows, "arrival")
seconds = total_seconds(held_out)
print("\nheld-out evaluation:")
print("  " + format_report(report, seconds).replace("\n", "\n  "))
# the uniform baseline over the same event tokens
uniform = bits_per_second(math.log(ArrivalVocab.SIZE), CorpusStats(report.n_event_tokens, seconds))
print(f"  uniform_baseline_bps={uniform:.2f}")
