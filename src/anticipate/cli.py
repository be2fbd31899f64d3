"""Command-line entry point wiring the pipeline end to end.

One command with subcommands: ``ingest`` a MIDI directory, ``tokenize`` /
``detokenize`` event text, ``densify`` and ``interleave`` event streams,
``augment`` a corpus, ``train-ngram`` a reference predictor, ``sample`` from
it, ``evaluate`` log-loss, and ``golden`` for the built-in reference checks.

Each subcommand is declared once, its parser binding its handler, and the
``input`` and ``output`` of the five that stream (``-``, the default, is stdin
or stdout) once for all five; each option is declared and defaulted once, in
argparse. A flat ``key=value`` config file (``--config``) may set any
optional flag of its subcommand but ``--config`` and the required ``--model``:
the key is the flag's name (``top_p`` or ``top-p``), an on/off flag takes a
boolean word, and each value is checked as the flag would be. An explicit flag
beats the config file, which beats the ``ANTICIPATE_SEED`` environment variable
(the default of ``--seed``, a non-negative int from any source), which beats
the built-in default.

Exit codes: 0 success, 1 usage error, 2 data error. Argparse checks each
value's type, and ``--seed``'s range, whether it comes from a flag, a config
line or the environment: a bad one is a usage error. The library checks the
other ranges (``--top-p``, ``--max-tokens``, ``--delta``, ``--target-density``,
``--factor``, ``--order``, ``--alpha``) where the value is used, so a value
out of range exits 2 with the library's message, such as ``error: top_p must
be in (0, 1]``.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import golden as golden_mod
from .anticipation import AnticipationConfig, densify, interleave, split_and_sort
from .augment import AugmentationPolicy, augment_corpus
from .corpus import preprocess_corpus
from .eventio import read_events, write_events
from .events import EventSequence, InterleavedSequence
from .metrics import cross_entropy, format_report, report_row, total_seconds
from .midi import write_midi
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
_BOOL_WORDS = {"1": True, "true": True, "yes": True, "on": True,
               "0": False, "false": False, "no": False, "off": False}


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The command parser and the parser of each subcommand, by name (argparse's own map)."""
    parser = argparse.ArgumentParser(
        prog="anticipate",
        description="Event/control interleaving toolkit for symbolic music.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_: str, handler, streams: bool = False) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_)
        if streams:
            p.add_argument("input", nargs="?", default="-")
            p.add_argument("output", nargs="?", default="-")
        p.add_argument("--config", default=None, help="flat key=value config file")
        p.set_defaults(handler=handler)
        return p

    def add_seed(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=_seed, default=0)

    p = add("ingest", "preprocess a directory of MIDI files into split event text", _cmd_ingest)
    p.add_argument("input_dir")
    p.add_argument("output_dir")

    p = add("tokenize", "encode event text as tokens", _cmd_tokenize, streams=True)
    p.add_argument("--codec", choices=["arrival", "interarrival"], default="arrival")
    p.add_argument("--relativize", action="store_true",
                   help="shift each sequence to start at time zero")
    p.add_argument("--pack", action="store_true",
                   help="emit fixed-length training examples (arrival only)")
    p.add_argument("--raw", action="store_true",
                   help="omit the per-sequence control code and separator preamble")

    p = add("detokenize", "decode a token file back to event text", _cmd_detokenize, streams=True)
    p.add_argument("--codec", choices=["arrival", "interarrival"], default=None,
                   help="expected codec; must match the file header")

    p = add("densify", "insert rests so no inter-event gap exceeds the target",
            _cmd_densify, streams=True)
    p.add_argument("--target-density", type=float, default=AnticipationConfig.target_density,
                   help="maximum gap in seconds")

    p = add("interleave", "anticipate C-tagged controls among plain events",
            _cmd_interleave, streams=True)
    p.add_argument("--delta", type=float, default=AnticipationConfig.delta,
                   help="anticipation interval in seconds")

    p = add("augment", "emit interleaved training copies of an event corpus",
            _cmd_augment, streams=True)
    p.add_argument("--factor", type=int, default=AugmentationPolicy.factor)
    add_seed(p)
    p.add_argument("--delta", type=float, default=AnticipationConfig.delta,
                   help="anticipation interval and span length in seconds")
    p.add_argument("--target-density", type=float, default=AnticipationConfig.target_density)
    p.add_argument("--labels", default=None, help="sidecar label file (default OUTPUT.labels)")
    p.add_argument("--pack", action="store_true",
                   help="emit packed training examples instead of sequence lines")

    p = add("train-ngram", "count-train the reference n-gram on a token file", _cmd_train_ngram)
    p.add_argument("input")
    p.add_argument("model")
    p.add_argument("--order", type=int, default=3)
    p.add_argument("--alpha", type=float, default=0.01)

    p = add("sample", "generate events, optionally conditioned on controls", _cmd_sample)
    p.add_argument("output", nargs="?", default="-")
    p.add_argument("--model", required=True)
    p.add_argument("--mode", choices=["anticipatory", "baseline"], default="anticipatory")
    p.add_argument("--controls", default=None, help="event text file of control events")
    p.add_argument("--top-p", type=float, default=SamplerConfig.top_p)
    p.add_argument("--delta", type=float, default=SamplerConfig.delta)
    p.add_argument("--max-tokens", type=int, default=SamplerConfig.max_tokens)
    add_seed(p)
    p.add_argument("--out", choices=["events", "midi"], default="events")
    p.add_argument("--no-grammar-mask", dest="grammar_mask", action="store_false")

    p = add("evaluate", "cross-entropy of a model over a token file", _cmd_evaluate)
    p.add_argument("input")
    p.add_argument("--model", required=True)
    p.add_argument("--report", default=None, help="also write the report to this path")

    add("golden", "run the built-in reference checks", _cmd_golden)
    return parser, sub.choices


def _seed(text: str) -> int:
    """``--seed``'s type: a non-negative int, as numpy's generators take."""
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative int, got {text!r}")
    return int(text)


def _config_flags(path: str, parser: argparse.ArgumentParser) -> list[str]:
    """The flags of ``parser`` that a key=value config file stands for; an
    on/off flag is emitted when its boolean word asks for the flag's effect."""
    options = {a.dest: a for a in parser._actions
               if a.option_strings and not a.required and a.dest not in ("config", "help")}
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        parser.error(f"cannot read config file: {exc}")
    flags: list[str] = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            parser.error(f"{path}:{lineno}: expected key=value")
        key, _, value = line.partition("=")
        key, value = key.strip().replace("-", "_"), value.strip()
        action = options.get(key)
        if action is None:
            parser.error(f"{path}:{lineno}: unknown key {key!r}")
        flag = action.option_strings[0]
        if action.nargs != 0:
            flags.append(f"{flag}={value}")
        elif value.lower() not in _BOOL_WORDS:
            parser.error(f"config key {key}: expected a boolean, got {value!r}")
        elif _BOOL_WORDS[value.lower()] == action.const:
            flags.append(flag)
    return flags


@contextmanager
def _open(path: str, mode: str = "r"):
    """``path`` opened in ``mode``; ``-`` is stdin, or stdout (its byte buffer for ``"wb"``)."""
    if path != "-":
        with open(path, mode) as f:
            yield f
    elif mode == "r":
        yield sys.stdin
    else:
        yield sys.stdout.buffer if "b" in mode else sys.stdout


def _cmd_ingest(args) -> int:
    manifest = preprocess_corpus(args.input_dir, args.output_dir)
    accepted = len(manifest.accepted())
    print(f"accepted {accepted} of {len(manifest.entries)} files -> {args.output_dir}")
    return 0


def _cmd_tokenize(args) -> int:
    if args.pack and args.codec != "arrival":
        print("error: --pack requires the arrival codec", file=sys.stderr)
        return 1
    with _open(args.input) as f:
        sequences = read_events(f)
    if args.relativize:
        sequences = [_relativize_sequence(s) for s in sequences]
    if args.pack:
        rows = [ex.tokens for ex in pack_training_examples(sequences).examples]
    elif args.codec == "arrival":
        rows = [
            encode_arrival(s, z=None if args.raw else (AV.AAR if s.has_controls else AV.AR))
            for s in sequences
        ]
    else:
        rows = [encode_interarrival(s, leading_sep=not args.raw) for s in sequences]
    with _open(args.output, "w") as f:
        write_tokens(f, rows, args.codec)
    return 0


def _decoded(codec: str, rows: list[list[int]]) -> list[InterleavedSequence]:
    """The sequences of token rows: each arrival row's non-empty segments, or
    each interarrival row's events."""
    if codec == "arrival":
        return [s for row in rows for s in decode_arrival(row) if len(s)]
    return [InterleavedSequence.from_events(decode_interarrival(row)) for row in rows]


def _cmd_detokenize(args) -> int:
    with _open(args.input) as f:
        codec, rows = read_tokens(f)
    if args.codec is not None and args.codec != codec:
        raise TokenError(f"file holds {codec} tokens, --codec asked for {args.codec}")
    with _open(args.output, "w") as f:
        write_events(f, _decoded(codec, rows))
    return 0


def _read_plain(path: str, stage: str) -> list[EventSequence]:
    """The sequences of an event file for a stage that takes plain events only."""
    with _open(path) as f:
        sequences = read_events(f)
    for i, seq in enumerate(sequences):
        if seq.has_controls:
            raise TokenError(f"sequence {i}: {stage} expects plain events, found controls")
    return [seq.events() for seq in sequences]


def _cmd_densify(args) -> int:
    config = AnticipationConfig(target_density=args.target_density)
    out = [densify(seq, config.density_units) for seq in _read_plain(args.input, "densify")]
    with _open(args.output, "w") as f:
        write_events(f, out)
    return 0


def _cmd_interleave(args) -> int:
    config = AnticipationConfig(delta=args.delta)
    with _open(args.input) as f:
        sequences = read_events(f)
    out = [
        interleave(seq.events(), seq.controls(), config.delta_units) for seq in sequences
    ]
    with _open(args.output, "w") as f:
        write_events(f, out)
    return 0


def _cmd_augment(args) -> int:
    config = AnticipationConfig(delta=args.delta, target_density=args.target_density)
    policy = AugmentationPolicy(factor=args.factor)
    sequences = _read_plain(args.input, "augment")
    copies = list(augment_corpus(sequences, policy, args.seed, config))

    labels_path = args.labels
    if labels_path is None:
        labels_path = (args.output + ".labels") if args.output != "-" else "-"
    if args.pack:
        rows = [ex.tokens for ex in pack_training_examples(c.interleaved for c in copies).examples]
    else:
        rows = [encode_arrival(c.interleaved) for c in copies]
    with _open(args.output, "w") as f:
        write_tokens(f, rows, "arrival")
    if not args.pack and labels_path != args.output:
        with _open(labels_path, "w") as f:
            for c in copies:
                f.write(f"{c.sequence_index}\t{c.copy_index}\t{c.pattern}\n")
    n_rest = sum(len(c.interleaved) - len(sequences[c.sequence_index]) for c in copies)
    print(
        f"emitted {len(copies)} copies of {len(sequences)} sequences; "
        f"{n_rest} rest events inserted",
        file=sys.stderr,
    )
    return 0


def _cmd_train_ngram(args) -> int:
    with _open(args.input) as f:
        codec, rows = read_tokens(f)
    model = train_ngram(rows, args.order, args.alpha, CODEC_VOCABS[codec].SIZE)
    model.save(args.model)
    print(f"trained order-{args.order} model on {len(rows)} rows -> {args.model}")
    return 0


def _cmd_sample(args) -> int:
    model = NGramModel.load(args.model)
    controls = EventSequence()
    if args.controls:
        with _open(args.controls) as f:
            # every item of every sequence, flags dropped, stably sorted by time
            columns = np.hstack([controls.columns, *(s.columns[:3] for s in read_events(f))])
        controls = EventSequence._of(columns[:, np.argsort(columns[0], kind="stable")])
    config = SamplerConfig(
        delta=args.delta,
        top_p=args.top_p,
        max_tokens=args.max_tokens,
        grammar_mask=args.grammar_mask,
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
        with _open(args.output, "wb") as f:
            f.write(data)
    else:
        with _open(args.output, "w") as f:
            write_events(f, [result.sequence])
    return 0


def _cmd_evaluate(args) -> int:
    with _open(args.input) as f:
        codec, rows = read_tokens(f)
    seconds = total_seconds(_decoded(codec, rows))
    if seconds <= 0:
        raise TokenError(f"{args.input}: no music to score ({len(rows)} rows of 0 seconds)")
    model = NGramModel.load(args.model)
    report = cross_entropy(model, rows, codec)
    text = format_report(report, seconds) + "\n" + report_row(report, seconds)
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


def cli_dispatch(argv: list[str]) -> int:
    parser, subparsers = build_parser()
    try:
        # The first pass finds the subcommand and its config file. The second
        # puts the config's flags ahead of the user's, with the seed's default
        # read from the environment: a seed flag or key beats a bad variable.
        args = parser.parse_args(argv)
        command = subparsers[args.command]
        flags = _config_flags(args.config, command) if args.config else []
        if hasattr(args, "seed") and os.environ.get(SEED_ENV):
            command.set_defaults(seed=os.environ[SEED_ENV])
        args = parser.parse_args([args.command, *flags, *argv[argv.index(args.command) + 1:]])
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:  # every data error is a ValueError subclass
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
