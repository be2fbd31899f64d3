"""Corpus distribution summaries: tokens per sequence and instantaneous
token rate, for sanity-checking ingested corpora.

The token rate is measured in sliding 1-second windows advanced in 100ms
hops; each token is attributed to the time of the event (or onset/offset
item) it belongs to, so an event contributes all of its tokens at one
instant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .events import EventSequence, InterleavedSequence

RATE_WINDOW_UNITS = 100  # 1 second
RATE_HOP_UNITS = 10  # 100 ms


@dataclass
class CorpusHistogram:
    metric: str
    bin_edges: np.ndarray
    counts: np.ndarray
    mean: float
    std: float
    n: int


def _histogram(values: list[float], metric: str, bins: int = 30) -> CorpusHistogram:
    if not values:
        return CorpusHistogram(metric, np.array([]), np.array([], dtype=int), 0.0, 0.0, 0)
    arr = np.asarray(values, dtype=np.float64)
    counts, edges = np.histogram(arr, bins=bins)
    return CorpusHistogram(metric, edges, counts, float(arr.mean()), float(arr.std()), len(arr))


def _token_times(seq: InterleavedSequence | EventSequence, codec: str) -> np.ndarray:
    """One timestamp per token the sequence would produce under the codec, sorted."""
    time, duration = seq.columns[:2]
    if codec == "arrival":
        return np.sort(np.repeat(time, 3))
    # Interarrival: onset and offset items at their own times, plus a gap
    # token at the earlier item of each nonzero gap.
    items = np.sort(np.concatenate([time, time + duration]))
    return np.sort(np.concatenate([items, items[:-1][np.diff(items) > 0]]))


def sequence_token_length(seq: InterleavedSequence | EventSequence, codec: str) -> int:
    return len(_token_times(seq, codec))


def corpus_histograms(
    sequences: Iterable[InterleavedSequence | EventSequence], codec: str
) -> tuple[CorpusHistogram, CorpusHistogram]:
    """Histograms of tokens-per-sequence and instantaneous tokens/second."""
    lengths: list[float] = []
    rates: list[float] = []
    for seq in sequences:
        arr = _token_times(seq, codec)
        lengths.append(len(arr))
        if not len(arr):
            continue
        end = max(int(arr.max()), 0)
        for start in range(0, max(end - RATE_WINDOW_UNITS, 0) + 1, RATE_HOP_UNITS):
            lo = np.searchsorted(arr, start, side="left")
            hi = np.searchsorted(arr, start + RATE_WINDOW_UNITS, side="left")
            rates.append(float(hi - lo))
    return (
        _histogram(lengths, "tokens-per-sequence"),
        _histogram(rates, "tokens-per-second"),
    )


def format_histogram(hist: CorpusHistogram) -> str:
    """Tab-separated ``bin_low bin_high count`` rows plus a summary footer."""
    lines = [
        f"{hist.bin_edges[i]:.6g}\t{hist.bin_edges[i + 1]:.6g}\t{int(hist.counts[i])}"
        for i in range(len(hist.counts))
    ]
    lines.append(f"# metric={hist.metric} n={hist.n} mean={hist.mean:.6g} std={hist.std:.6g}")
    return "\n".join(lines)
