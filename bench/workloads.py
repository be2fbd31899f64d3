"""The workloads, their output checks and their metrics.

Each workload function receives a ``Run`` and fills in its end-to-end
metrics (``run.e2e``), the metrics under the names the workloads were
specified with (``run.named``) and its per-layer metrics (``run.layer``,
traced runs only).
Load is closed-loop with one client: one pipeline pass, scoring pass or
sampling session at a time, the next starting when the previous returns.

An untraced run repeats its unit of work until ``--seconds`` have passed.
A traced run does a fixed amount of work instead, so the per-layer counts
repeat exactly for a seed and two commits can be compared count for count.
"""

from __future__ import annotations

import contextlib
import math
import statistics
import sys
import time
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import anticipate.anticipation as anticipation
import anticipate.augment as augment
import anticipate.bridge as bridge
import anticipate.corpus as corpus
import anticipate.eventio as eventio
import anticipate.metrics as metrics
import anticipate.midi as midi
import anticipate.predictor as predictor
import anticipate.sampler as sampler
import anticipate.tokenizer as tokenizer
from anticipate.events import MAX_TIME_UNITS, EventSequence, InterleavedSequence, TaggedEvent
from anticipate.vocab import ArrivalVocab as AV

import synth

ORDER, ALPHA = 3, 0.01  # the n-gram the paper-scale pipeline trains
POLICY = augment.AugmentationPolicy()  # x30: 3 none, 3 span, 12 instrument, 12 random
CONFIG = anticipation.AnticipationConfig(delta=5.0, target_density=1.0)
TOP_P = 0.95
# Phase-A sessions stop before 300 items, so the sampler window (341 items)
# never slides; see NOTES.md for why the slide path is not measured.
SESSION_MAX_TOKENS = 900
WINDOW_ITEMS = (tokenizer.CONTEXT_LENGTH - 1) // 3
# Shares of --seconds on accompany: phase A (n-gram), B (replay), C (bridge).
PHASE_SHARES = (0.6, 0.15, 0.25)


@dataclass(frozen=True)
class Sizes:
    prep_pieces: int = 10  # ingest input: all but two go to train, plus two rejects
    warmup_pieces: int = 2  # prep-train set-up pass
    train_pieces: int = 5  # corpus of the model scored and sampled from
    heldout_pieces: int = 12
    heldout_rows: int = 8  # packed 1024-token rows per scoring pass
    melodies: int = 12
    replay_pieces: int = 12
    setup_repeats: int = 5  # set-up samples per untraced run, spread over its window
    trace_sessions: int = 240  # accompany phase A, traced run
    trace_replays: int = 60  # accompany phase B, traced run
    trace_bridge_sessions: int = 2


FULL = Sizes()
TINY = Sizes(prep_pieces=4, warmup_pieces=1, train_pieces=2, heldout_pieces=2,
             heldout_rows=1, melodies=2, replay_pieces=2, setup_repeats=1,
             trace_sessions=6, trace_replays=4, trace_bridge_sessions=1)


class Run:
    """State of one benchmark invocation."""

    def __init__(self, seed: int, seconds: float, sizes: Sizes, workdir: Path, tracer=None):
        self.seed = seed
        self.seconds = seconds
        self.sizes = sizes
        self.workdir = workdir
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.e2e: dict[str, float] = {}
        self.named: dict[str, dict] = {}
        self.layer: dict[str, float] = {}
        self.meta: dict = {}

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        """Count one output check; a failed check counts in ``failed``."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append(f"{name}: {detail}".rstrip(": "))
        return ok

    def attempt(self, name: str, fn, *args):
        """Run one operation; an exception counts it as failed and returns None."""
        try:
            result = fn(*args)
        except Exception as exc:  # noqa: BLE001 - one failed operation must not end the run
            self.check(name, False, f"{type(exc).__name__}: {exc}")
            return None
        self.check(name, True)
        return result

    def iterations(self, seconds: float, fixed: int, setup: Setup | None = None):
        """Untraced: indices until ``seconds`` of measuring pass (at least one).
        Traced: ``fixed``.

        With ``setup``, its remaining samples are taken between iterations at
        even shares of the window, and any still missing at its end. Set-up
        time does not count towards ``seconds``.
        """
        if self.tracer is not None:
            yield from range(fixed)
            return
        start, paused, i = time.perf_counter(), 0.0, 0
        while i == 0 or time.perf_counter() - start - paused < seconds:
            if setup is not None and setup.due(time.perf_counter() - start - paused, seconds):
                before = time.perf_counter()
                setup.sample()
                paused += time.perf_counter() - before
            yield i
            i += 1
        while setup is not None and setup.due(seconds, seconds):
            setup.sample()

    def traced(self):
        """Recording region for the traced run; a no-op context otherwise."""
        return self.tracer.region() if self.tracer is not None else contextlib.nullcontext()

    @contextlib.contextmanager
    def untraced(self):
        """Pause recording inside a traced region, e.g. for the bench's own checks."""
        recording = self.tracer is not None and self.tracer.on
        if recording:
            self.tracer.on = False
        try:
            yield
        finally:
            if recording:
                self.tracer.on = True

    def timing(self, name: str, values_s: list[float], percentiles) -> dict[int, float]:
        """Percentiles in ms of a timing sample, recorded with count and tail percentile."""
        out = {}
        for p in percentiles:
            value = percentile(values_s, p) * 1000
            out[p] = value
            self.named[f"{name}_p{p}"] = {
                "value": value, "unit": "ms", "samples": len(values_s),
                "tail_percentile": tail_percentile(len(values_s)),
            }
        return out


def percentile(values, p: float) -> float:
    return float(np.percentile(values, p)) if len(values) else 0.0


def tail_percentile(n: int) -> float | None:
    """The highest of p50/p90/p99/p99.9 with at least ten samples beyond it."""
    best = None
    for p in (50, 90, 99, 99.9):
        if n * (1 - p / 100) >= 10:
            best = p
    return best


def named(run: Run, name: str, value: float, unit: str, samples: int) -> None:
    run.named[name] = {"value": value, "unit": unit, "samples": samples}


class Stamped:
    """Pass-through predictor that stamps the return of every call."""

    def __init__(self, inner):
        self.inner = inner
        self.vocab_size = inner.vocab_size
        self.context_length = inner.context_length
        self.stamps: list[float] = []

    def next_distribution(self, z, context):
        dist = self.inner.next_distribution(z, context)
        self.stamps.append(time.perf_counter())
        return dist

    def gaps(self) -> list[float]:
        return np.diff(self.stamps).tolist() if len(self.stamps) > 1 else []


def machine_loop_ms() -> float:
    """Milliseconds of a fixed pure-Python loop: the machine's speed at this
    moment, independent of the program under test."""
    started = time.perf_counter()
    x = 0
    for i in range(200_000):
        x += i * i % 7
    return (time.perf_counter() - started) * 1000


class Setup:
    """The set-up samples of one run: ``setup_repeats`` of them untraced, one
    traced. The workload takes the first and uses its result;
    ``Run.iterations`` takes the rest over the measured window and drops
    their results, so the median sees the machine at several moments of the
    run, not one. Each sample is followed by a ``machine_loop_ms`` reading."""

    def __init__(self, run: Run, fn):
        self.run, self.fn = run, fn
        self.repeats = 1 if run.tracer is not None else run.sizes.setup_repeats
        self.times: list[float] = []
        self.loop_ms: list[float] = []

    def sample(self):
        """One timed set-up; returns its result."""
        started = time.perf_counter()
        result = self.fn()
        self.times.append(time.perf_counter() - started)
        self.loop_ms.append(machine_loop_ms())
        return result

    def due(self, measured_s: float, window_s: float) -> bool:
        return len(self.times) < self.repeats and measured_s >= window_s * len(self.times) / self.repeats

    def median(self) -> float:
        self.run.meta["setup_samples_s"] = self.times
        self.run.meta["machine_loop_ms"] = self.loop_ms
        return statistics.median(self.times)


# -- shared inputs ----------------------------------------------------------


def training_rows(run: Run) -> list[list[int]]:
    """Packed x30-augmented rows of the model corpus (input preparation, untimed)."""
    pieces = synth.corpus(run.seed, 1, run.sizes.train_pieces, 150, 400)
    copies = augment.augment_corpus(pieces, POLICY, seed=run.seed, config=CONFIG)
    packed = tokenizer.pack_training_examples(c.interleaved for c in copies)
    return [list(e.tokens) for e in packed.examples]


def train_save_load(run: Run, rows) -> predictor.NGramModel:
    path = run.workdir / "model.pkl"
    model = predictor.train_ngram(rows, ORDER, ALPHA, AV.SIZE)
    model.save(path)
    return predictor.NGramModel.load(path)


def melodies(run: Run) -> list[EventSequence]:
    """Held-out melody parts, cut to the 100-second token range."""
    pieces = synth.corpus(run.seed, 3, run.sizes.melodies, 150, 300)
    return [
        EventSequence(e for e in synth.melody_part(p) if e.time < MAX_TIME_UNITS)
        for p in pieces
    ]


def phase_a_session(i: int, seed: int, melody_list, model):
    """Session ``i`` of phase A: alternating anticipatory / baseline infill."""
    config = sampler.SamplerConfig(delta=CONFIG.delta, top_p=TOP_P, max_tokens=SESSION_MAX_TOKENS,
                                   grammar_mask=True, seed=seed * 1_000_003 + i)
    melody = melody_list[i % len(melody_list)]
    if i % 2 == 0:
        return sampler.generate_anticipatory(model, melody, config)
    return sampler.generate_autoregressive_infill(model, melody, config)


def check_session(run: Run, result, melody: EventSequence) -> None:
    controls = result.sequence.controls()
    if result.truncated:
        surfaced = list(controls) == list(melody)[: len(controls)]
    else:
        surfaced = controls == melody
    run.check("every control surfaces", surfaced,
              f"{len(controls)} of {len(melody)} controls, truncated={result.truncated}")
    times = [item.event.time for item in result.sequence if not item.control]
    run.check("plain-event times never decrease",
              all(a <= b for a, b in zip(times, times[1:])))


# -- prep-train -------------------------------------------------------------


def _write_midi_dir(directory: Path, files: dict[str, bytes]) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for name, data in files.items():
        (directory / name).write_bytes(data)


def _prep_pass(run: Run, midi_dir: Path, out_dir: Path) -> dict:
    """One offline corpus build: ingest, x30 augment, encode, pack, token-file
    write/read, order-3 train, model save."""
    manifest = corpus.preprocess_corpus(midi_dir, out_dir)
    with open(out_dir / "train.txt") as f:
        sources = [seq.events() for seq in eventio.read_events(f)]
    copies = list(augment.augment_corpus(sources, POLICY, seed=run.seed, config=CONFIG))
    encoded = [tokenizer.encode_arrival(c.interleaved) for c in copies]
    packed = tokenizer.pack_training_examples(c.interleaved for c in copies)
    rows = [list(e.tokens) for e in packed.examples]
    token_path = out_dir / "train.tokens"
    with open(token_path, "w") as f:
        tokenizer.write_tokens(f, rows, "arrival")
    with open(token_path) as f:
        codec, read_back = tokenizer.read_tokens(f)
    model = predictor.train_ngram(read_back, ORDER, ALPHA, AV.SIZE)
    model.save(out_dir / "model.pkl")
    return {"manifest": manifest, "sources": sources, "copies": copies, "encoded": encoded,
            "packed": packed, "rows": rows, "codec": codec, "read_back": read_back}


def _check_prep(run: Run, out: dict, expected_events: int, n_train: int, n_accepted: int) -> None:
    manifest = out["manifest"]
    run.check("ingest accepts every valid piece", len(manifest.accepted()) == n_accepted,
              f"{len(manifest.accepted())} != {n_accepted}")
    run.check("ingest rejects the short and the corrupt file", len(manifest.rejected()) == 2)
    events = sum(len(s) for s in out["sources"])
    run.check("train split holds every train event", events == expected_events,
              f"{events} != {expected_events}")
    run.check("x30 augmentation", len(out["copies"]) == POLICY.factor * n_train)
    for j in range(0, len(out["copies"]), 16):
        interleaved = out["copies"][j].interleaved
        run.check("decode_arrival(encode_arrival(x)) == x",
                  tokenizer.decode_arrival(out["encoded"][j]) == [interleaved], f"copy {j}")
    examples = out["packed"].examples
    whole = all(len(e) == tokenizer.CONTEXT_LENGTH and (len(e) - 1) % 3 == 0
                and e.tokens[0] in (AV.AR, AV.AAR) for e in examples)
    run.check("packed examples are 1024 tokens of whole triples", whole and len(examples) > 0)
    run.check("token file round trip", out["codec"] == "arrival" and out["read_back"] == out["rows"])


def prep_train(run: Run) -> None:
    sizes = run.sizes
    pieces = synth.corpus(run.seed, 1, sizes.prep_pieces, 150, 400)
    # The two shortest pieces go to valid and test, so every seed trains on
    # the same number of source events.
    shortest = sorted(range(len(pieces)), key=lambda i: len(pieces[i]))[:2]
    splits = ["train"] * len(pieces)
    splits[shortest[0]], splits[shortest[1]] = "valid", "test"
    warm = synth.corpus(run.seed, 6, sizes.warmup_pieces, 150, 400)
    piece_bytes = [synth.tagged_midi(p, s) for p, s in zip(pieces, splits)]
    warm_bytes = [synth.tagged_midi(p, "train") for p in warm]
    for p, data in zip(pieces + warm, piece_bytes + warm_bytes):
        run.check("MIDI write/parse round trip", midi.parse_midi(data) == p)
    files = {f"piece-{i:03d}.mid": data for i, data in enumerate(piece_bytes)}
    rng = np.random.default_rng([run.seed, 5])
    files["short.mid"] = synth.tagged_midi(synth.piece(rng, 60), "train")
    files["corrupt.mid"] = piece_bytes[-1][: len(piece_bytes[-1]) // 2]
    warm_files = {f"warm-{i:03d}.mid": data for i, data in enumerate(warm_bytes)}
    run.meta["input_digest"] = synth.digest(*files.values(), *warm_files.values())
    midi_dir, warm_dir = run.workdir / "midi", run.workdir / "warm-midi"
    _write_midi_dir(midi_dir, files)
    _write_midi_dir(warm_dir, warm_files)
    train_events = sum(len(p) for p, s in zip(pieces, splits) if s == "train")
    n_train = splits.count("train")
    run.meta["input_size"] = {"files": len(files), "train_pieces": n_train,
                              "train_events": train_events}

    # Set-up: a warm-up pass on a separate small corpus, so first-call costs
    # and any work a later change moves out of the pass show here. Untraced.
    def warm_up() -> None:
        _prep_pass(run, warm_dir, run.workdir / "warm-out")

    setup = Setup(run, warm_up)
    setup.sample()
    pass_s: list[float] = []
    with run.traced():
        for _ in run.iterations(run.seconds, 1, setup):
            started = time.perf_counter()
            out = run.attempt("pipeline pass", _prep_pass, run, midi_dir, run.workdir / "out")
            elapsed = time.perf_counter() - started
            if out is None:
                continue
            pass_s.append(elapsed)
            with run.untraced():
                _check_prep(run, out, train_events, n_train, len(pieces))
            del out
    run.e2e["setup_s"] = setup.median()
    rate = statistics.median(train_events / s for s in pass_s) if pass_s else 0.0
    run.e2e["rate_per_s"] = rate
    named(run, "prep_events_per_s", rate, "1/s", len(pass_s))
    steps = run.timing("pass_ms", pass_s, percentiles=(50, 90))
    run.e2e["step_ms_p50"], run.e2e["step_ms_p90"] = steps[50], steps[90]


# -- score ------------------------------------------------------------------


def _score_pass(model, rows):
    """Score held-out rows as ``evaluate`` does: decode for seconds, then loss."""
    sequences = []
    for row in rows:
        sequences.extend(tokenizer.decode_arrival(row))
    seconds = metrics.corpus_stats(sequences, "arrival").total_seconds
    report = metrics.cross_entropy(model, rows, "arrival")
    stats = metrics.CorpusStats(report.n_event_tokens, seconds, "arrival")
    return report, stats, metrics.bits_per_second(report.nats_per_token, stats)


def score(run: Run) -> None:
    rows = training_rows(run)
    heldout = synth.corpus(run.seed, 2, run.sizes.heldout_pieces, 150, 400)
    packed = tokenizer.pack_training_examples(InterleavedSequence.from_events(p) for p in heldout)
    held_rows = [list(e.tokens) for e in packed.examples[: run.sizes.heldout_rows]]
    run.check("held-out set has its stated size", len(held_rows) == run.sizes.heldout_rows)
    scored = sum(len(r) - 1 for r in held_rows)
    run.meta["input_digest"] = synth.digest(rows, held_rows)
    run.meta["input_size"] = {"train_tokens": sum(map(len, rows)), "heldout_rows": len(held_rows),
                              "heldout_tokens": scored}

    with run.traced():
        setup = Setup(run, lambda: train_save_load(run, rows))
        stamped = Stamped(setup.sample())
        pass_rates, gaps, first = [], array("d"), None
        for _ in run.iterations(run.seconds, 1, setup):
            stamped.stamps.clear()
            started = time.perf_counter()
            out = run.attempt("scoring pass", _score_pass, stamped, held_rows)
            elapsed = time.perf_counter() - started
            if out is None:
                continue
            pass_rates.append(scored / elapsed)
            gaps.extend(stamped.gaps())
            report, stats, bps = out
            uniform = math.log2(AV.SIZE) * stats.token_count / stats.total_seconds
            run.check("heldout_bps is finite and below the uniform baseline",
                      math.isfinite(bps) and bps < uniform, f"{bps} vs {uniform}")
            if first is None:
                first = out
            else:
                run.check("heldout loss repeats exactly",
                          report.nats_event == first[0].nats_event and bps == first[2])
    run.e2e["setup_s"] = setup.median()
    rate = statistics.median(pass_rates) if pass_rates else 0.0
    run.e2e["rate_per_s"] = rate
    named(run, "score_tokens_per_s", rate, "1/s", len(pass_rates))
    steps = run.timing("token_ms", gaps, percentiles=(50, 90, 99))
    run.e2e["step_ms_p50"], run.e2e["step_ms_p90"] = steps[50], steps[90]
    if first is not None:
        named(run, "heldout_bps", first[2], "bit/s", scored)
        run.layer["metrics.heldout_bps"] = first[2]
        run.meta["heldout_seconds"] = first[1].total_seconds


# -- accompany --------------------------------------------------------------


def _infill_reference(events: EventSequence, controls: EventSequence) -> list[TaggedEvent]:
    """Where the baseline loop must put controls: before the first event at or after them."""
    out, k = [], 0
    for event in events:
        while k < len(controls) and controls[k].time <= event.time:
            out.append(TaggedEvent(controls[k], control=True))
            k += 1
        out.append(TaggedEvent(event))
    out.extend(TaggedEvent(c, control=True) for c in controls[k:])
    return out


def _replay_inputs(run: Run) -> list[tuple]:
    """Held-out x30 copies short enough (< 341 items, < 90 s) that the sampler
    window never slides; each with its replay tokens and both references."""
    pieces = synth.corpus(run.seed, 4, run.sizes.replay_pieces, 100, 180)
    pieces = [EventSequence(e for e in p if e.time < 9000) for p in pieces]
    inputs = []
    for copy in augment.augment_corpus(pieces, POLICY, seed=run.seed, config=CONFIG):
        events, controls = copy.interleaved.events(), copy.interleaved.controls()
        inputs.append((tokenizer.encode_arrival(events), controls, list(copy.interleaved),
                       _infill_reference(events, controls)))
    return inputs


def _replay_session(j: int, inputs):
    tokens, controls, _, _ = inputs[j % len(inputs)]
    replay = predictor.ReplayPredictor(tokens, AV.SIZE, AV.SEP)
    config = sampler.SamplerConfig(delta=CONFIG.delta, top_p=TOP_P, seed=j)
    if j % 2 == 0:
        return sampler.generate_anticipatory(replay, controls, config)
    return sampler.generate_autoregressive_infill(replay, controls, config)


class _TimedPipe:
    """Wraps the bridge client's request pipe so writes show as spans."""

    def __init__(self, pipe, tracer):
        self.pipe, self.tracer = pipe, tracer

    def write(self, text):
        with self.tracer.span("bridge.write"):
            return self.pipe.write(text)

    def flush(self):
        with self.tracer.span("bridge.write"):
            return self.pipe.flush()

    def close(self):
        return self.pipe.close()


def _start_bridge(run: Run) -> tuple[bridge.ExternalPredictor, float]:
    """Start ``bridge.serve`` over the saved model in a child process; return
    the client and the seconds from start through the first reply."""
    here = Path(__file__).resolve().parent
    traced = run.tracer.span("bridge.server_start") if run.tracer else contextlib.nullcontext()
    with traced:
        started = time.perf_counter()
        client = bridge.ExternalPredictor(
            [sys.executable, str(here / "serve_model.py"), str(here.parent / "src"),
             str(run.workdir / "model.pkl")],
            AV.SIZE, timeout=60.0)
        try:
            with run.untraced():  # the first reply is server start, not a round trip
                client.next_distribution(AV.AR, [])
        except BaseException:
            client.close()
            raise
    return client, time.perf_counter() - started


def _sessions(run: Run, seconds: float, fixed: int, predictor_, melody_list, name: str,
              check, setup: Setup | None = None):
    """Closed-loop phase-A sessions, each passed to ``check(i, result)`` as it
    ends, untimed; no result is kept. Returns (tokens, busy s, token gaps)."""
    stamped = Stamped(predictor_)
    tokens, busy, gaps = 0, 0.0, array("d")
    for i in run.iterations(seconds, fixed, setup):
        stamped.stamps.clear()
        started = time.perf_counter()
        result = run.attempt(name, phase_a_session, i, run.seed, melody_list, stamped)
        busy += time.perf_counter() - started
        tokens += len(stamped.stamps)
        gaps.extend(stamped.gaps())
        if result is not None:
            with run.untraced():
                check(i, result)
    return tokens, busy, gaps


def accompany(run: Run) -> None:
    """Phase A: the in-process n-gram accompanies held-out melodies (the
    end-to-end metrics). Phase B: held-out copies replay through
    ``ReplayPredictor``. Phase C: the first phase-A sessions again, served by
    ``bridge.serve`` in a child process; they must match phase A token for
    token. Phases B and C are reported in the record and the per-layer
    metrics only, so a bridge change moves none of the end-to-end metrics."""
    rows = training_rows(run)
    melody_list = melodies(run)
    replays = _replay_inputs(run)
    window_ok = all(len(r[2]) < WINDOW_ITEMS for r in replays)
    run.check("replay copies stay under the sampler window", window_ok)
    run.meta["input_digest"] = synth.digest(rows, *melody_list, [r[0] for r in replays])
    run.meta["input_size"] = {"train_tokens": sum(map(len, rows)), "melodies": len(melody_list),
                              "replay_copies": len(replays),
                              "replay_items_max": max(len(r[2]) for r in replays)}
    sizes, seconds = run.sizes, run.seconds

    def check_phase_a(i, result):
        check_session(run, result, melody_list[i % len(melody_list)])

    def check_bridged(i, result):
        reference = phase_a_session(i, run.seed, melody_list, model)
        run.check("bridge output equals the in-process output",
                  list(result.sequence) == list(reference.sequence), f"session {i}")

    with run.traced():
        setup = Setup(run, lambda: train_save_load(run, rows))
        model = setup.sample()
        tokens, busy, gaps = _sessions(run, PHASE_SHARES[0] * seconds, sizes.trace_sessions,
                                       model, melody_list, "phase-A session", check_phase_a, setup)

        replay_tokens, replay_busy = 0, 0.0
        for j in run.iterations(PHASE_SHARES[1] * seconds, sizes.trace_replays):
            started = time.perf_counter()
            result = run.attempt("phase-B replay session", _replay_session, j, replays)
            replay_busy += time.perf_counter() - started
            if result is None:
                continue
            _, controls, anticipated, infilled = replays[j % len(replays)]
            replay_tokens += 3 * (len(result.sequence) - len(controls)) + 1
            reference = anticipated if j % 2 == 0 else infilled
            run.check("replay equals the offline interleaving", list(result.sequence) == reference)

        client, start_s = _start_bridge(run)
        try:
            if run.tracer is not None:
                client._proc.stdin = _TimedPipe(client._proc.stdin, run.tracer)
            bridge_tokens, bridge_busy, bridge_gaps = _sessions(
                run, PHASE_SHARES[2] * seconds, sizes.trace_bridge_sessions, client, melody_list,
                "bridge session", check_bridged)
        finally:
            client.close()

    run.e2e["setup_s"] = setup.median()
    rate = tokens / busy if busy else 0.0
    run.e2e["rate_per_s"] = rate
    named(run, "gen_tokens_per_s", rate, "1/s", tokens)
    steps = run.timing("token_gap_ms", gaps, percentiles=(50, 90, 99))
    run.e2e["step_ms_p50"], run.e2e["step_ms_p90"] = steps[50], steps[90]
    replay_rate = replay_tokens / replay_busy if replay_busy else 0.0
    named(run, "replay_tokens_per_s", replay_rate, "1/s", replay_tokens)
    run.layer["sampler.replay_tokens_per_s"] = replay_rate
    bridge_rate = bridge_tokens / bridge_busy if bridge_busy else 0.0
    named(run, "bridge_gen_tokens_per_s", bridge_rate, "1/s", bridge_tokens)
    run.timing("bridge_token_gap_ms", bridge_gaps, percentiles=(50, 90))
    named(run, "bridge_server_start_s", start_s, "s", 1)
    run.layer["bridge.server_start_s"] = start_s


WORKLOADS = {
    "prep-train": prep_train,
    "score": score,
    "accompany": accompany,
}
