"""Command-line entry point wiring the pipeline end to end.

One command with subcommands: ``ingest`` a MIDI directory, ``tokenize`` /
``detokenize`` event text, ``densify`` and ``interleave`` event streams,
``augment`` a corpus, ``train-ngram`` a reference predictor, ``sample`` from
it, ``evaluate`` log-loss, and ``golden`` for the built-in reference checks.

Flags may also come from a flat ``key=value`` config file (``--config``);
explicit flags win, unknown keys are rejected. The sampling seed falls back
to the ``ANTICIPATE_SEED`` environment variable. Exit codes: 0 success, 1
usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from pathlib import Path

from . import golden as golden_mod
from .anticipation import AnticipationConfig, densify, interleave, split_and_sort
from .augment import AugmentationPolicy, augment_corpus
from .corpus import preprocess_corpus
from .eventio import read_events, write_events
from .events import REST, EventSequence, InterleavedSequence
from .metrics import CorpusStats, corpus_stats, cross_entropy, format_report, report_row
from .midi import ChannelCapacityError, MidiParseError, write_midi
from .predictor import NGramModel, train_ngram
from .sampler import SamplerConfig, generate_anticipatory, generate_autoregressive_infill
from .tokenizer import (
    TokenError,
    _relativize_sequence,
    decode_arrival,
    decode_interarrival,
    encode_arrival,
    encode_interarrival,
    pack_training_examples,
    read_tokens,
    write_tokens,
)
from .vocab import CODEC_VOCABS
from .vocab import ArrivalVocab as AV

SEED_ENV = "ANTICIPATE_SEED"

# Defaults applied after merging config-file values; argparse flags use
# default=None so an absent flag is distinguishable from an explicit one.
DEFAULTS: dict[str, dict[str, object]] = {
    "ingest": {},
    "tokenize": {"codec": "arrival", "relativize": False, "pack": False, "raw": False},
    "detokenize": {"codec": None},
    "densify": {"target_density": 1.0},
    "interleave": {"delta": 5.0},
    "augment": {"factor": 30, "seed": 0, "delta": 5.0, "target_density": 1.0, "pack": False},
    "train-ngram": {"order": 3, "alpha": 0.01},
    "sample": {
        "mode": "anticipatory",
        "top_p": 0.95,
        "delta": 5.0,
        "max_tokens": 3069,
        "seed": 0,
        "out": "events",
        "grammar_mask": True,
    },
    "evaluate": {},
    "golden": {},
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anticipate",
        description="Event/control interleaving toolkit for symbolic music.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_)
        p.add_argument("--config", default=None, help="flat key=value config file")
        return p

    p = add("ingest", "preprocess a directory of MIDI files into split event text")
    p.add_argument("input_dir")
    p.add_argument("output_dir")

    p = add("tokenize", "encode event text as tokens")
    p.add_argument("input", nargs="?", default="-")
    p.add_argument("output", nargs="?", default="-")
    p.add_argument("--codec", choices=["arrival", "interarrival"], default=None)
    p.add_argument("--relativize", action="store_true", default=None,
                   help="shift each sequence to start at time zero")
    p.add_argument("--pack", action="store_true", default=None,
                   help="emit fixed-length training examples (arrival only)")
    p.add_argument("--raw", action="store_true", default=None,
                   help="omit the per-sequence control code and separator preamble")

    p = add("detokenize", "decode a token file back to event text")
    p.add_argument("input", nargs="?", default="-")
    p.add_argument("output", nargs="?", default="-")
    p.add_argument("--codec", choices=["arrival", "interarrival"], default=None,
                   help="expected codec; must match the file header")

    p = add("densify", "insert rests so no inter-event gap exceeds the target")
    p.add_argument("input", nargs="?", default="-")
    p.add_argument("output", nargs="?", default="-")
    p.add_argument("--target-density", dest="target_density", type=float, default=None,
                   help="maximum gap in seconds")

    p = add("interleave", "anticipate C-tagged controls among plain events")
    p.add_argument("input", nargs="?", default="-")
    p.add_argument("output", nargs="?", default="-")
    p.add_argument("--delta", type=float, default=None, help="anticipation interval in seconds")

    p = add("augment", "emit interleaved training copies of an event corpus")
    p.add_argument("input", nargs="?", default="-")
    p.add_argument("output", nargs="?", default="-")
    p.add_argument("--factor", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--target-density", dest="target_density", type=float, default=None)
    p.add_argument("--labels", default=None, help="sidecar label file (default OUTPUT.labels)")
    p.add_argument("--pack", action="store_true", default=None,
                   help="emit packed training examples instead of sequence lines")

    p = add("train-ngram", "count-train the reference n-gram on a token file")
    p.add_argument("input")
    p.add_argument("model")
    p.add_argument("--order", type=int, default=None)
    p.add_argument("--alpha", type=float, default=None)

    p = add("sample", "generate events, optionally conditioned on controls")
    p.add_argument("output", nargs="?", default="-")
    p.add_argument("--model", required=True)
    p.add_argument("--mode", choices=["anticipatory", "baseline"], default=None)
    p.add_argument("--controls", default=None, help="event text file of control events")
    p.add_argument("--top-p", dest="top_p", type=float, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--max-tokens", dest="max_tokens", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", choices=["events", "midi"], default=None)
    p.add_argument("--no-grammar-mask", dest="grammar_mask", action="store_false", default=None)

    p = add("evaluate", "cross-entropy of a model over a token file")
    p.add_argument("input")
    p.add_argument("--model", required=True)
    p.add_argument("--report", default=None, help="also write the report to this path")

    add("golden", "run the built-in reference checks")
    return parser


def _parse_config_value(raw: str, default: object):
    if isinstance(default, bool):
        if raw.lower() in ("1", "true", "yes", "on"):
            return True
        if raw.lower() in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"expected a boolean, got {raw!r}")
    if isinstance(default, int):
        return int(raw)
    if isinstance(default, float):
        return float(raw)
    return raw


def _resolve_options(args: argparse.Namespace) -> argparse.Namespace | str:
    """Merge config-file values and defaults; returns an error string on bad keys."""
    defaults = DEFAULTS.get(args.command, {})
    config: dict[str, str] = {}
    if getattr(args, "config", None):
        try:
            text = Path(args.config).read_text()
        except OSError as exc:
            return f"cannot read config file: {exc}"
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                return f"{args.config}:{lineno}: expected key=value"
            key, _, value = line.partition("=")
            key = key.strip().replace("-", "_")
            if key not in defaults:
                return f"{args.config}:{lineno}: unknown key {key!r}"
            config[key] = value.strip()
    for key, default in defaults.items():
        if getattr(args, key, None) is not None:
            continue
        if key in config:
            try:
                setattr(args, key, _parse_config_value(config[key], default))
            except ValueError as exc:
                return f"config key {key}: {exc}"
        elif key == "seed" and os.environ.get(SEED_ENV):
            setattr(args, key, int(os.environ[SEED_ENV]))
        else:
            setattr(args, key, default)
    return args


@contextmanager
def _open_in(path: str):
    if path == "-":
        yield sys.stdin
    else:
        with open(path) as f:
            yield f


@contextmanager
def _open_out(path: str):
    if path == "-":
        yield sys.stdout
    else:
        with open(path, "w") as f:
            yield f


def _cmd_ingest(args) -> int:
    manifest = preprocess_corpus(args.input_dir, args.output_dir)
    accepted = len(manifest.accepted())
    print(f"accepted {accepted} of {len(manifest.entries)} files -> {args.output_dir}")
    return 0


def _cmd_tokenize(args) -> int:
    with _open_in(args.input) as f:
        sequences = read_events(f)
    if args.relativize:
        sequences = [_relativize_sequence(s) for s in sequences]
    if args.pack:
        if args.codec != "arrival":
            print("error: --pack requires the arrival codec", file=sys.stderr)
            return 1
        result = pack_training_examples(sequences)
        rows = [list(ex.tokens) for ex in result.examples]
    elif args.codec == "arrival":
        rows = [
            encode_arrival(
                s,
                z=None if args.raw else (AV.AAR if s.has_controls else AV.AR),
                leading_sep=not args.raw,
            )
            for s in sequences
        ]
    else:
        rows = [encode_interarrival(s, leading_sep=not args.raw) for s in sequences]
    with _open_out(args.output) as f:
        write_tokens(f, rows, args.codec)
    return 0


def _cmd_detokenize(args) -> int:
    with _open_in(args.input) as f:
        codec, rows = read_tokens(f)
    if args.codec is not None and args.codec != codec:
        raise TokenError(f"file holds {codec} tokens, --codec asked for {args.codec}")
    sequences: list[InterleavedSequence] = []
    for row in rows:
        if codec == "arrival":
            sequences.extend(s for s in decode_arrival(row) if len(s))
        else:
            sequences.append(InterleavedSequence.from_events(decode_interarrival(row)))
    with _open_out(args.output) as f:
        write_events(f, sequences)
    return 0


def _cmd_densify(args) -> int:
    config = AnticipationConfig(target_density=args.target_density)
    with _open_in(args.input) as f:
        sequences = read_events(f)
    out: list[EventSequence] = []
    for i, seq in enumerate(sequences):
        if seq.has_controls:
            raise TokenError(f"sequence {i}: densify expects plain events, found controls")
        out.append(densify(seq.events(), config.density_units))
    with _open_out(args.output) as f:
        write_events(f, out)
    return 0


def _cmd_interleave(args) -> int:
    config = AnticipationConfig(delta=args.delta)
    with _open_in(args.input) as f:
        sequences = read_events(f)
    out = [
        interleave(seq.events(), seq.controls(), config.delta_units) for seq in sequences
    ]
    with _open_out(args.output) as f:
        write_events(f, out)
    return 0


def _cmd_augment(args) -> int:
    policy = AugmentationPolicy(factor=args.factor, span_length=args.delta)
    config = AnticipationConfig(delta=args.delta, target_density=args.target_density)
    with _open_in(args.input) as f:
        sequences = [s.events() for s in read_events(f)]
    copies = list(augment_corpus(sequences, policy, args.seed, config))

    labels_path = args.labels
    if labels_path is None:
        labels_path = (args.output + ".labels") if args.output != "-" else "-"
    if args.pack:
        result = pack_training_examples(c.interleaved for c in copies)
        rows = [list(ex.tokens) for ex in result.examples]
        with _open_out(args.output) as f:
            write_tokens(f, rows, "arrival")
    else:
        rows = [encode_arrival(c.interleaved) for c in copies]
        with _open_out(args.output) as f:
            write_tokens(f, rows, "arrival")
        if labels_path != args.output:
            with _open_out(labels_path) as f:
                for c in copies:
                    f.write(f"{c.sequence_index}\t{c.copy_index}\t{c.pattern}\n")
    n_rest = sum(int((c.interleaved.columns[2] == REST).sum()) for c in copies)
    print(
        f"emitted {len(copies)} copies of {len(sequences)} sequences; "
        f"{n_rest} rest events inserted",
        file=sys.stderr,
    )
    return 0


def _cmd_train_ngram(args) -> int:
    with _open_in(args.input) as f:
        codec, rows = read_tokens(f)
    model = train_ngram(rows, args.order, args.alpha, CODEC_VOCABS[codec].SIZE)
    model.save(args.model)
    print(f"trained order-{args.order} model on {len(rows)} rows -> {args.model}")
    return 0


def _cmd_sample(args) -> int:
    model = NGramModel.load(args.model)
    controls = EventSequence()
    if args.controls:
        with _open_in(args.controls) as f:
            control_seqs = read_events(f)
        controls = EventSequence(
            sorted((item.event for s in control_seqs for item in s), key=lambda e: e.time)
        )
    config = SamplerConfig(
        delta=args.delta,
        top_p=args.top_p,
        max_tokens=args.max_tokens,
        grammar_mask=bool(args.grammar_mask),
        seed=args.seed,
    )
    if args.mode == "anticipatory":
        result = generate_anticipatory(model, controls, config)
    else:
        result = generate_autoregressive_infill(model, controls, config)
    if result.truncated:
        print("generation hit the token budget before a separator", file=sys.stderr)
    if args.out == "midi":
        data = write_midi(split_and_sort(result.sequence).without_rests())
        if args.output == "-":
            sys.stdout.buffer.write(data)
        else:
            Path(args.output).write_bytes(data)
    else:
        with _open_out(args.output) as f:
            write_events(f, [result.sequence])
    return 0


def _cmd_evaluate(args) -> int:
    with _open_in(args.input) as f:
        codec, rows = read_tokens(f)
    model = NGramModel.load(args.model)
    vocab = CODEC_VOCABS[codec].SIZE
    if model.vocab_size != vocab:
        raise TokenError(
            f"model vocabulary {model.vocab_size} does not match {codec} codec ({vocab})"
        )
    if codec == "arrival":
        sequences: list = []
        for row in rows:
            sequences.extend(decode_arrival(row))
        seconds = corpus_stats(sequences, codec).total_seconds
    else:
        seconds = corpus_stats([decode_interarrival(row) for row in rows], codec).total_seconds
    report = cross_entropy(model, rows, codec)
    # Normalize by the tokens scored in the event buckets, matching the
    # per-token loss the report carries.
    stats = CorpusStats(report.n_event_tokens, seconds, codec)
    text = format_report(report, stats) + "\n" + report_row(report, stats)
    print(text)
    if args.report:
        Path(args.report).write_text(text + "\n")
    return 0


def _cmd_golden(args) -> int:
    checks = golden_mod.run_checks()
    failed = 0
    for check in checks:
        if check.passed:
            print(f"PASS {check.name}")
        else:
            failed += 1
            print(f"FAIL {check.name}: {check.detail}")
    print(f"{len(checks) - failed}/{len(checks)} golden checks passed")
    return 0 if failed == 0 else 2


_COMMANDS = {
    "ingest": _cmd_ingest,
    "tokenize": _cmd_tokenize,
    "detokenize": _cmd_detokenize,
    "densify": _cmd_densify,
    "interleave": _cmd_interleave,
    "augment": _cmd_augment,
    "train-ngram": _cmd_train_ngram,
    "sample": _cmd_sample,
    "evaluate": _cmd_evaluate,
    "golden": _cmd_golden,
}


def cli_dispatch(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    resolved = _resolve_options(args)
    if isinstance(resolved, str):
        print(f"error: {resolved}", file=sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](resolved)
    except (ValueError, TokenError, MidiParseError, ChannelCapacityError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
