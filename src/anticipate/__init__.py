"""Anticipatory event/control modeling toolkit for symbolic music.

The pipeline: parse MIDI into quantized events, choose control subsets,
densify and interleave them so controls surface a fixed interval ahead of
the events they accompany, tokenize under the arrival or interarrival codec,
train or plug in a next-token predictor, sample with controls online, and
score everything in comparable bits per second.
"""

from .anticipation import (
    AnticipationConfig,
    densify,
    interleave,
    next_anticipated_controls,
    sort_order_interleave,
    split_and_sort,
)
from .augment import (
    AugmentationPolicy,
    augment_corpus,
    augment_sequence,
    sample_instrument_controls,
    sample_random_controls,
    sample_span_controls,
    split_by_mask,
)
from .corpus import CorpusManifest, preprocess_corpus, split_for_digest
from .events import (
    DRUM_INSTRUMENT,
    REST,
    Event,
    EventSequence,
    InterleavedSequence,
    TaggedEvent,
    encode_note,
    quantize_duration,
    seconds_to_units,
)
from .metrics import CorpusStats, LossReport, bits_per_second, corpus_stats, cross_entropy
from .midi import ChannelCapacityError, DeltaTimeError, MidiParseError, parse_midi, write_midi
from .predictor import (
    Distribution,
    ModelFileError,
    NGramModel,
    Predictor,
    ReplayPredictor,
    train_ngram,
)
from .sampler import (
    GenerationResult,
    SamplerConfig,
    generate_anticipatory,
    generate_autoregressive_infill,
    nucleus_sample,
)
from .tokenizer import (
    PackResult,
    TokenError,
    TrainingExample,
    decode_arrival,
    decode_interarrival,
    encode_arrival,
    encode_interarrival,
    pack_training_examples,
    read_tokens,
    write_tokens,
)
from .vocab import ArrivalVocab, InterarrivalVocab

__version__ = "0.1.0"
