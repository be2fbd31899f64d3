"""Per-layer metrics of a traced run: the meters that count domain
quantities at layer boundaries, and the table of metrics read from spans.

Every traced run reports every metric in ``PER_LAYER``. A layer that a
workload does not exercise reports 0 (no calls, no time, no samples).
"""

from __future__ import annotations

import os

import numpy as np

from spans import LAYERS, Tracer
from workloads import WINDOW_ITEMS


def _parse(c, args, kwargs, result):
    c["midi.bytes"] += len(args[0])


def _manifest(c, args, kwargs, result):
    c["corpus.files"] += len(result.entries)
    c["corpus.rejected"] += len(result.rejected())


def _copy(c, args, kwargs, result):
    c["augment.copies"] += 1
    policy = args[1] if len(args) > 1 else kwargs["policy"]
    if policy.copy_patterns()[result.copy_index] == "instrument" and result.pattern == "random":
        c["augment.pattern_fallbacks"] += 1


def _densify(c, args, kwargs, result):
    c["anticipation.rests_inserted"] += len(result) - len(args[0])


def _interleave(c, args, kwargs, result):
    """Controls that surface after a plain event later than their own onset."""
    last = -1
    for item in result:
        if not item.control:
            last = item.event.time
        elif last > item.event.time:
            c["anticipation.late_controls"] += 1


def _encode(c, args, kwargs, result):
    c["tokenizer.encoded_tokens"] += len(result)


def _decode(c, args, kwargs, result):
    c["tokenizer.decoded_tokens"] += len(args[0])


def _pack(c, args, kwargs, result):
    c["tokenizer.pack_examples"] += len(result.examples)
    c["tokenizer.pack_discarded"] += result.n_discarded
    c["tokenizer.pack_clamped"] += result.n_clamped_times


def _train(c, args, kwargs, result):
    c["predictor.train_tokens"] += result.totals[0].get((), 0)


def _save(c, args, kwargs, result):
    c["predictor.model_bytes"] = os.path.getsize(args[1])


def _cross_entropy(c, args, kwargs, result):
    c["metrics.infinite_losses"] += len(result.infinite_positions)


def _generate(c, args, kwargs, result):
    c["sampler.sessions"] += 1
    c["sampler.truncated"] += int(result.truncated)
    c["sampler.slid_sessions"] += int(len(result.sequence) >= WINDOW_ITEMS)
    c["sampler.controls_surfaced"] += sum(1 for item in result.sequence if item.control)


def _response(c, args, kwargs, result):
    c["bridge.response_bytes"] += len(args[0])
    c["bridge.responses"] += 1


METERS = {
    "midi.parse_midi": _parse,
    "corpus.preprocess_corpus": _manifest,
    "augment.augment_corpus": _copy,
    "anticipation.densify": _densify,
    "anticipation.interleave": _interleave,
    "tokenizer.encode_arrival": _encode,
    "tokenizer.decode_arrival": _decode,
    "tokenizer.pack_training_examples": _pack,
    "predictor.train_ngram": _train,
    "predictor.NGramModel.save": _save,
    "metrics.cross_entropy": _cross_entropy,
    "sampler.generate_anticipatory": _generate,
    "sampler.generate_autoregressive_infill": _generate,
    "bridge.parse_response": _response,
}

# (name, unit, better); the order of BENCHMARK.json's per_layer list.
PER_LAYER = [
    ("midi.parse_s", "s", "lower"),
    ("midi.parse_mb_per_s", "MB/s", "higher"),
    ("midi.self_s", "s", "lower"),
    ("corpus.self_s", "s", "lower"),
    ("corpus.files", "count", "higher"),
    ("corpus.rejected", "count", "lower"),
    ("eventio.read_s", "s", "lower"),
    ("eventio.write_s", "s", "lower"),
    ("eventio.self_s", "s", "lower"),
    ("augment.self_s", "s", "lower"),
    ("augment.copies", "count", "higher"),
    ("augment.pattern_fallbacks", "count", "lower"),
    ("anticipation.densify_s", "s", "lower"),
    ("anticipation.interleave_s", "s", "lower"),
    ("anticipation.emit_s", "s", "lower"),
    ("anticipation.rests_inserted", "count", "lower"),
    ("anticipation.late_controls", "count", "lower"),
    ("anticipation.self_s", "s", "lower"),
    ("tokenizer.encode_tokens_per_s", "1/s", "higher"),
    ("tokenizer.decode_tokens_per_s", "1/s", "higher"),
    ("tokenizer.pack_s", "s", "lower"),
    ("tokenizer.pack_examples", "count", "higher"),
    ("tokenizer.pack_discarded", "count", "lower"),
    ("tokenizer.pack_clamped", "count", "lower"),
    ("tokenizer.io_s", "s", "lower"),
    ("tokenizer.self_s", "s", "lower"),
    ("predictor.train_s", "s", "lower"),
    ("predictor.train_tokens_per_s", "1/s", "higher"),
    ("predictor.save_s", "s", "lower"),
    ("predictor.load_s", "s", "lower"),
    ("predictor.model_mb", "MB", "lower"),
    ("predictor.calls", "count", "lower"),
    ("predictor.call_ms_p50", "ms", "lower"),
    ("predictor.call_ms_p99", "ms", "lower"),
    ("predictor.self_s", "s", "lower"),
    ("metrics.self_s", "s", "lower"),
    ("metrics.infinite_losses", "count", "lower"),
    ("metrics.heldout_bps", "bit/s", "lower"),
    ("sampler.self_s", "s", "lower"),
    ("sampler.nucleus_calls", "count", "lower"),
    ("sampler.nucleus_ms_p50", "ms", "lower"),
    ("sampler.nucleus_ms_p99", "ms", "lower"),
    ("sampler.sessions", "count", "higher"),
    ("sampler.truncated", "count", "lower"),
    ("sampler.slid_sessions", "count", "lower"),
    ("sampler.controls_surfaced", "count", "higher"),
    ("sampler.replay_tokens_per_s", "1/s", "higher"),
    ("bridge.round_trip_ms_p50", "ms", "lower"),
    ("bridge.round_trip_ms_p99", "ms", "lower"),
    ("bridge.parse_ms", "ms", "lower"),
    ("bridge.wait_ms", "ms", "lower"),
    ("bridge.response_bytes", "B", "lower"),
    ("bridge.server_start_s", "s", "lower"),
    ("bridge.self_s", "s", "lower"),
    ("bench.wall_s", "s", "lower"),
    ("bench.overhead_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.rate_per_s", "1/s", "higher"),
]


def _ms(values, p) -> float:
    return float(np.percentile(values, p)) * 1000 if values else 0.0


def _ratio(numerator, seconds) -> float:
    return numerator / seconds if seconds > 0 else 0.0


def collect(tracer: Tracer, set_by_workload: dict[str, float], rate_per_s: float) -> dict[str, float]:
    """Every ``PER_LAYER`` metric, from the spans and meters of a traced run."""
    c = tracer.counters
    total = lambda name: sum(tracer.durations(name))  # noqa: E731
    self_s = tracer.layer_self_s()
    out = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
    parse_s = total("midi.parse_midi")
    calls = tracer.durations("predictor.NGramModel.next_distribution")
    nucleus = tracer.durations("sampler.nucleus_sample")
    round_trips = tracer.durations("bridge.ExternalPredictor.next_distribution")
    out.update({
        "midi.parse_s": parse_s,
        "midi.parse_mb_per_s": _ratio(c["midi.bytes"] / 1e6, parse_s),
        "corpus.files": c["corpus.files"],
        "corpus.rejected": c["corpus.rejected"],
        "eventio.read_s": total("eventio.read_events"),
        "eventio.write_s": total("eventio.write_events"),
        "augment.copies": c["augment.copies"],
        "augment.pattern_fallbacks": c["augment.pattern_fallbacks"],
        "anticipation.densify_s": total("anticipation.densify"),
        "anticipation.interleave_s": total("anticipation.interleave"),
        "anticipation.emit_s": total("anticipation.next_anticipated_controls"),
        "anticipation.rests_inserted": c["anticipation.rests_inserted"],
        "anticipation.late_controls": c["anticipation.late_controls"],
        "tokenizer.encode_tokens_per_s": _ratio(c["tokenizer.encoded_tokens"],
                                                total("tokenizer.encode_arrival")),
        "tokenizer.decode_tokens_per_s": _ratio(c["tokenizer.decoded_tokens"],
                                                total("tokenizer.decode_arrival")),
        "tokenizer.pack_s": total("tokenizer.pack_training_examples"),
        "tokenizer.pack_examples": c["tokenizer.pack_examples"],
        "tokenizer.pack_discarded": c["tokenizer.pack_discarded"],
        "tokenizer.pack_clamped": c["tokenizer.pack_clamped"],
        "tokenizer.io_s": total("tokenizer.write_tokens") + total("tokenizer.read_tokens"),
        "predictor.train_s": total("predictor.train_ngram"),
        "predictor.train_tokens_per_s": _ratio(c["predictor.train_tokens"],
                                               total("predictor.train_ngram")),
        "predictor.save_s": total("predictor.NGramModel.save"),
        "predictor.load_s": total("predictor.NGramModel.load"),
        "predictor.model_mb": c["predictor.model_bytes"] / 1e6,
        "predictor.calls": len(calls),
        "predictor.call_ms_p50": _ms(calls, 50),
        "predictor.call_ms_p99": _ms(calls, 99),
        "metrics.infinite_losses": c["metrics.infinite_losses"],
        "metrics.heldout_bps": 0.0,
        "sampler.nucleus_calls": len(nucleus),
        "sampler.nucleus_ms_p50": _ms(nucleus, 50),
        "sampler.nucleus_ms_p99": _ms(nucleus, 99),
        "sampler.sessions": c["sampler.sessions"],
        "sampler.truncated": c["sampler.truncated"],
        "sampler.slid_sessions": c["sampler.slid_sessions"],
        "sampler.controls_surfaced": c["sampler.controls_surfaced"],
        "sampler.replay_tokens_per_s": 0.0,
        "bridge.round_trip_ms_p50": _ms(round_trips, 50),
        "bridge.round_trip_ms_p99": _ms(round_trips, 99),
        "bridge.parse_ms": _ms(tracer.durations("bridge.parse_response"), 50),
        "bridge.wait_ms": _ms(tracer.self_by_name("bridge.ExternalPredictor.next_distribution"), 50),
        "bridge.response_bytes": _ratio(c["bridge.response_bytes"], c["bridge.responses"]),
        "bridge.server_start_s": 0.0,
        "bench.wall_s": tracer.wall_s,
        "bench.overhead_s": tracer.wall_s - sum(self_s.values()) - tracer.overhead_s,
        "trace.overhead_s": tracer.overhead_s,
        "trace.spans": len(tracer.spans),
        "trace.rate_per_s": rate_per_s,
    })
    out.update(set_by_workload)
    return {name: float(out[name]) for name, _, _ in PER_LAYER}
