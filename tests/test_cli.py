"""End-to-end CLI behavior: exit codes, subcommand wiring, config handling."""

from __future__ import annotations

import hashlib
import io
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from anticipate import golden
from anticipate.cli import cli_dispatch
from anticipate.eventio import read_events, write_events
from anticipate.events import EventSequence
from anticipate.midi import parse_midi, write_midi
from anticipate.predictor import train_ngram
from anticipate.tokenizer import encode_arrival, read_tokens, write_tokens
from anticipate.vocab import ArrivalVocab as AV, InterarrivalVocab as IV

from conftest import random_events


def run(*argv) -> int:
    return cli_dispatch(list(argv))


@pytest.fixture
def twinkle_file(tmp_path) -> Path:
    path = tmp_path / "twinkle.txt"
    with open(path, "w") as f:
        write_events(f, [golden.twinkle_events()])
    return path


@pytest.fixture
def corpus_file(tmp_path, rng) -> Path:
    path = tmp_path / "corpus.txt"
    seqs = [
        random_events(rng, 60, max_gap=25, n_instruments=3, start_at_zero=True)
        for _ in range(6)
    ]
    with open(path, "w") as f:
        write_events(f, seqs)
    return path


class TestExitCodes:
    def test_no_arguments_usage(self, capsys):
        assert run() == 1

    def test_unknown_subcommand(self):
        assert run("frobnicate") == 1

    def test_golden_passes(self, capsys):
        assert run("golden") == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out and "PASS" in out

    def test_golden_names_a_failing_check(self, monkeypatch, capsys):
        monkeypatch.setattr(golden, "SCENARIO_C_ORDER", "eeeeeu")
        assert run("golden") == 2
        lines = capsys.readouterr().out.splitlines()
        assert "FAIL interleave-dense: expected 'eeeeeu', got 'eeeuee'" in lines
        assert lines[-1] == f"{len(lines) - 2}/{len(lines) - 1} golden checks passed"

    def test_data_error_is_two(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("#codec=arrival vocab=55028\n1 2\n")
        assert run("detokenize", str(bad), str(tmp_path / "out.txt")) == 2

    def test_token_outside_vocabulary_is_a_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.tok"
        bad.write_text("#codec=arrival vocab=55028\n0 10048 99999999999999999999\n")
        assert run("detokenize", str(bad), str(tmp_path / "out.txt")) == 2
        assert "line 2" in capsys.readouterr().err

    def test_time_earlier_than_its_stream_is_a_data_error(self, tmp_path, capsys):
        # event text of these triples would not read back: 100 follows 500
        bad = tmp_path / "bad.tok"
        bad.write_text("#codec=arrival vocab=55028\n500 10010 11060 100 10010 11062\n")
        assert run("detokenize", str(bad), str(tmp_path / "out.txt")) == 2
        assert "plain event time 100 is earlier" in capsys.readouterr().err

    def test_malformed_event_file_is_a_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("0 1 60\n0 2000 60\n")
        assert run("tokenize", "--codec", "arrival", str(bad), str(tmp_path / "out.tok")) == 2
        assert "line 2" in capsys.readouterr().err

    def test_help_is_success(self):
        assert run("--help") == 0

    def test_huge_order_is_a_data_error(self, tmp_path, capsys):
        tokens = tmp_path / "t.tok"
        tokens.write_text("#codec=arrival vocab=55028\n0 10048 11060 50 10048 11062\n")
        model = tmp_path / "model.npz"
        assert run("train-ngram", "--order", "100000000", str(tokens), str(model)) == 2
        assert "must not exceed 2**63" in capsys.readouterr().err
        assert not model.exists()

    def test_alpha_that_overflows_the_denominator_is_a_data_error(self, tmp_path, capsys):
        tokens = tmp_path / "t.tok"
        tokens.write_text("#codec=arrival vocab=55028\n0 10048 11060 50 10048 11062\n")
        model = tmp_path / "model.npz"
        assert run("train-ngram", "--alpha", "1e304", str(tokens), str(model)) == 2
        assert "alpha * vocab_size must be finite" in capsys.readouterr().err
        assert not model.exists()

    def test_pickled_model_is_a_data_error(self, tmp_path, twinkle_file, capsys):
        tokens = tmp_path / "twinkle.tok"
        assert run("tokenize", "--codec", "arrival", str(twinkle_file), str(tokens)) == 0
        model = tmp_path / "model.pkl"
        model.write_bytes(pickle.dumps({"order": 3}))
        assert run("evaluate", "--model", str(model), str(tokens)) == 2
        assert "not a readable .npz model file" in capsys.readouterr().err


class TestTokenizeDetokenize:
    def test_twinkle_matches_reference_tokens(self, twinkle_file, tmp_path, capsys):
        assert run("tokenize", "--codec", "arrival", str(twinkle_file), "-") == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert [int(t) for t in lines[-1].split()] == golden.TWINKLE_ARRIVAL_TOKENS

    def test_interarrival_reference(self, twinkle_file, capsys):
        assert run("tokenize", "--codec", "interarrival", str(twinkle_file), "-") == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert [int(t) for t in lines[-1].split()] == golden.TWINKLE_INTERARRIVAL_TOKENS

    def test_roundtrip_through_files(self, corpus_file, tmp_path):
        tokens = tmp_path / "tokens.txt"
        back = tmp_path / "back.txt"
        assert run("tokenize", "--codec", "arrival", str(corpus_file), str(tokens)) == 0
        assert run("detokenize", str(tokens), str(back)) == 0
        with open(corpus_file) as f:
            original = read_events(f)
        with open(back) as f:
            restored = read_events(f)
        assert restored == original

    def test_out_of_range_times_fail(self, tmp_path):
        path = tmp_path / "long.txt"
        path.write_text("20000 10 60\n")
        assert run("tokenize", "--codec", "arrival", str(path), "-") == 2

    def test_relativize_rescues_late_start(self, tmp_path, capsys):
        path = tmp_path / "late.txt"
        path.write_text("20000 10 60\n20010 10 61\n")
        assert run("tokenize", "--codec", "arrival", "--relativize", str(path), "-") == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert [int(t) for t in lines[-1].split()][4] == 0

    def test_raw_flag_omits_preamble(self, twinkle_file, capsys):
        assert run("tokenize", "--codec", "arrival", "--raw", str(twinkle_file), "-") == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert [int(t) for t in lines[-1].split()] == golden.TWINKLE_ARRIVAL_TOKENS[4:]

    def test_codec_mismatch_on_detokenize(self, twinkle_file, tmp_path):
        tokens = tmp_path / "t.tok"
        assert run("tokenize", "--codec", "arrival", str(twinkle_file), str(tokens)) == 0
        assert run("detokenize", "--codec", "interarrival", str(tokens), "-") == 2

    def test_densify_rejects_controls(self, tmp_path):
        path = tmp_path / "mix.txt"
        path.write_text("100 10 60\nC 700 10 48\n")
        assert run("densify", str(path), "-") == 2

    def test_interarrival_files_detokenize_and_evaluate(self, twinkle_file, tmp_path, capsys):
        tokens, back, model = tmp_path / "t.itok", tmp_path / "back.txt", tmp_path / "m.npz"
        assert run("tokenize", "--codec", "interarrival", str(twinkle_file), str(tokens)) == 0
        assert run("detokenize", str(tokens), str(back)) == 0
        assert back.read_text() == twinkle_file.read_text()
        assert run("train-ngram", "--order", "2", str(tokens), str(model)) == 0
        capsys.readouterr()
        assert run("evaluate", "--model", str(model), str(tokens)) == 0
        out = capsys.readouterr().out
        assert "codec=interarrival" in out and "seconds=7.95" in out

    def test_pack_refuses_the_interarrival_codec(self, twinkle_file, tmp_path, monkeypatch,
                                                 capsys):
        # refused before the input is read, so a malformed file gives the usage error too
        bad = tmp_path / "bad.txt"
        bad.write_text("not an event line\n")
        out = tmp_path / "packed.tok"
        for source in (twinkle_file, bad):
            assert run("tokenize", "--pack", "--codec", "interarrival", str(source),
                       str(out)) == 1
            assert capsys.readouterr().err == "error: --pack requires the arrival codec\n"
            assert not out.exists()
        stdin = io.StringIO("0 10 60\n")
        monkeypatch.setattr(sys, "stdin", stdin)
        assert run("tokenize", "--pack", "--codec", "interarrival", "-", str(out)) == 1
        assert stdin.tell() == 0  # standard input is left unread


class TestDensifyInterleave:
    def test_densify_inserts_rests(self, tmp_path, capsys):
        path = tmp_path / "sparse.txt"
        path.write_text("100 10 60\n200 10 60\n500 10 60\n")
        assert run("densify", "--target-density", "1.0", str(path), "-") == 0
        out = capsys.readouterr().out
        assert "300 0 R" in out and "400 0 R" in out

    def test_interleave_tagged_controls(self, tmp_path, capsys):
        path = tmp_path / "mix.txt"
        path.write_text("100 10 60\n300 10 60\n500 10 60\nC 700 10 48\n")
        assert run("interleave", "--delta", "5.0", str(path), "-") == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == ["100 10 60", "300 10 60", "C 700 10 48", "500 10 60"]

    @pytest.mark.parametrize("pack", [[], ["--pack"]])
    def test_augment_a_densified_file(self, tmp_path, pack):
        # the densified file holds rests, which no pattern may make controls
        sparse, dense = tmp_path / "sparse.txt", tmp_path / "dense.txt"
        sparse.write_text("".join(f"{300 * i} 10 {60 + i % 12}\n" for i in range(30)))
        assert run("densify", "--target-density", "1.0", str(sparse), str(dense)) == 0
        assert " R" in dense.read_text()
        assert run("augment", "--factor", "10", *pack, str(dense), str(tmp_path / "out")) == 0

    @pytest.mark.parametrize("densified, inserted", [(False, 9), (True, 0)])
    def test_augment_reports_only_the_rests_it_inserts(self, tmp_path, capsys, densified,
                                                       inserted):
        # rests that densify wrote are the input's, not inserted by augment
        plain, dense = tmp_path / "plain.txt", tmp_path / "dense.txt"
        plain.write_text("0 5 60\n1000 5 62\n")
        assert run("densify", str(plain), str(dense)) == 0
        assert dense.read_text().count(" R\n") == 9
        capsys.readouterr()
        source = dense if densified else plain
        assert run("augment", "--factor", "10", str(source), str(tmp_path / "out.tok")) == 0
        assert capsys.readouterr().err == (
            f"emitted 10 copies of 1 sequences; {inserted} rest events inserted\n")


def _written(write, rows, *args) -> str:
    f = io.StringIO()
    write(f, rows, *args)
    return f.getvalue()


_TWINKLE_TEXT = _written(write_events, [golden.twinkle_events()])
_TWINKLE_TOKENS = _written(write_tokens, [encode_arrival(golden.twinkle_events(), z=AV.AR)],
                           "arrival")

# The five subcommands that read ``input`` and write ``output``, each with an
# input and its usage line (whitespace collapsed), which must not change.
_STREAM_COMMANDS = {
    "tokenize": (
        _TWINKLE_TEXT,
        "[-h] [--config CONFIG] [--codec {arrival,interarrival}] [--relativize] [--pack] "
        "[--raw] [input] [output]"),
    "detokenize": (
        _TWINKLE_TOKENS,
        "[-h] [--config CONFIG] [--codec {arrival,interarrival}] [input] [output]"),
    "densify": (
        "100 10 60\n200 10 60\n500 10 60\n",
        "[-h] [--config CONFIG] [--target-density TARGET_DENSITY] [input] [output]"),
    "interleave": (
        "100 10 60\n300 10 60\n500 10 60\nC 700 10 48\n",
        "[-h] [--config CONFIG] [--delta DELTA] [input] [output]"),
    "augment": (
        _TWINKLE_TEXT,
        "[-h] [--config CONFIG] [--factor FACTOR] [--seed SEED] [--delta DELTA] "
        "[--target-density TARGET_DENSITY] [--labels LABELS] [--pack] [input] [output]"),
}


@pytest.mark.parametrize("command", _STREAM_COMMANDS)
def test_streams_default_to_stdin_and_stdout(tmp_path, monkeypatch, capsys, command):
    text = _STREAM_COMMANDS[command][0]
    source, target = tmp_path / "in.txt", tmp_path / "out.txt"
    source.write_text(text)
    assert run(command, str(source), str(target)) == 0
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    capsys.readouterr()
    assert run(command) == 0
    out = capsys.readouterr().out
    assert out and out == target.read_text()


@pytest.mark.parametrize("command", _STREAM_COMMANDS)
def test_stream_commands_keep_their_usage_line(capsys, command):
    assert run(command, "--help") == 0
    usage = capsys.readouterr().out.partition("\n\n")[0]
    assert " ".join(usage.split()) == f"usage: anticipate {command} {_STREAM_COMMANDS[command][1]}"


# Runs the CLI under a 1 GiB address-space limit, which binds this child only.
_LIMITED_CLI = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from anticipate.cli import main
sys.argv[0] = "anticipate"
main()
"""


def _limited_cli(argv: list[str]) -> subprocess.CompletedProcess:
    """The CLI run on ``argv`` in a child process, one BLAS thread, within 60 s."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join(sys.path)}
    return subprocess.run([sys.executable, "-c", _LIMITED_CLI, *argv],
                          env=env, capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("argv", [
    ["tokenize", "--codec", "interarrival"], ["densify"], ["augment", "--factor", "10"],
], ids=lambda argv: argv[0])
def test_added_items_past_the_budget_exit_two_under_a_memory_limit(tmp_path, argv):
    # 10**12 units (about 317 years) would ask for about 10**9 gap tokens,
    # 10**10 rests or 5 * 10**8 span starts; each is refused before allocating
    path = tmp_path / "far.txt"
    path.write_text("0 10 60\n1000000000000 10 61\n")
    proc = _limited_cli([*argv, str(path), str(tmp_path / "out")])
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ") and "over the budget of" in proc.stderr


# Events at 0 and within 400 units of 2**63 - 1, and one control among them.
_NEAR_INT64_MAX = [f"{t} 10 60\n" for t in (0, 2**63 - 401, 2**63 - 301, 2**63 - 201)]
_NEAR_INT64_MAX_CONTROL = f"C {2**63 - 351} 10 72\n"


def test_interleave_near_int64_max_releases_a_control_by_its_due_time(tmp_path, capsys):
    # the control is due 500 units before its time, so it follows the event
    # at 2**63 - 401, where the online rule releases it
    path = tmp_path / "top.txt"
    path.write_text("".join(_NEAR_INT64_MAX) + _NEAR_INT64_MAX_CONTROL)
    assert run("interleave", "--delta", "5.0", str(path), "-") == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [line.strip() for line in (*_NEAR_INT64_MAX[:2], _NEAR_INT64_MAX_CONTROL,
                                               *_NEAR_INT64_MAX[2:])]


def test_augment_refuses_control_lines(tmp_path, capsys):
    path, out = tmp_path / "mix.txt", tmp_path / "out.tok"
    path.write_text("100 10 60\nC 700 10 48\n")
    assert run("augment", str(path), str(out)) == 2
    assert "sequence 0: augment expects plain events, found controls" in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "out.tok.labels").exists()


@pytest.mark.parametrize("argv", [
    ["tokenize"], ["tokenize", "--pack"], ["interleave"], ["augment"],
], ids=" ".join)
def test_rest_control_refused_when_read(tmp_path, capsys, argv):
    # the rest control comes after 400 events, in what would be a packed tail
    path = tmp_path / "rest.txt"
    path.write_text("".join(f"{10 * i} 5 60\n" for i in range(400)) + "C 4000 0 R\n")
    assert run(*argv, str(path), str(tmp_path / "out")) == 2
    assert capsys.readouterr().err == (
        "error: sequence on lines 1-401: rest events cannot be controls (index 400)\n")


@pytest.fixture(scope="module")
def small_model(tmp_path_factory) -> Path:
    model = tmp_path_factory.mktemp("model") / "model.npz"
    rows = [encode_arrival(random_events(np.random.default_rng(3), 40), z=AV.AR)]
    train_ngram(rows, order=2, alpha=0.01, vocab_size=AV.SIZE).save(model)
    return model


# Each stage on the events near 2**63 - 1, with and without their control, and
# the exit code it must give.
@pytest.mark.parametrize("stage, with_control, without_control", [
    (["tokenize"], 2, 2),
    (["tokenize", "--pack"], 0, 0),
    (["tokenize", "--codec", "interarrival"], 2, 2),
    (["densify"], 2, 2),
    (["interleave"], 0, 0),
    (["augment", "--factor", "10"], 2, 2),
    (["augment", "--factor", "10", "--pack"], 2, 2),
    (["sample", "--controls"], 2, 2),
], ids=lambda value: " ".join(value) if isinstance(value, list) else str(value))
def test_hostile_event_files_through_every_stage(tmp_path, small_model, stage, with_control,
                                                 without_control):
    for control, expected in ((_NEAR_INT64_MAX_CONTROL, with_control), ("", without_control)):
        path = tmp_path / "top.txt"
        path.write_text("".join(_NEAR_INT64_MAX) + control)
        argv = ([*stage, str(path), "--model", str(small_model), str(tmp_path / "out")]
                if stage[0] == "sample" else [*stage, str(path), str(tmp_path / "out")])
        proc = _limited_cli(argv)
        assert proc.returncode == expected, (control, proc.stderr)
        assert "Traceback" not in proc.stderr


# Event lines whose fields int() takes but write_events never writes, and the
# field each error names.
_HOSTILE_EVENT_LINES = {"+5 10 60": "time '+5'", "1_000 10 60": "time '1_000'",
                        "٣ 10 60": "time '٣'", "-0 0 60": "time '-0'",
                        "C 5 10 ٦٠": "note '٦٠'"}


@pytest.mark.parametrize("stage", [["tokenize"], ["densify"], ["interleave"],
                                   ["augment", "--factor", "10"], ["sample", "--controls"]],
                         ids=" ".join)
def test_hostile_event_fields_through_every_stage(tmp_path, small_model, capsys, stage):
    path, out = tmp_path / "hostile.txt", tmp_path / "out"
    for line, field in _HOSTILE_EVENT_LINES.items():
        path.write_text(f"0 10 60\n{line}\n", encoding="utf-8")
        argv = ([*stage, str(path), "--model", str(small_model), str(out)]
                if stage[0] == "sample" else [*stage, str(path), str(out)])
        assert run(*argv) == 2, line
        assert capsys.readouterr().err == f"error: line 2: {field} is not an unsigned decimal\n"
        assert not out.exists(), line


# Ten events near 0 and ten near 10**8 units: each masked augment copy adds
# 999 999 rests, within one call's budget, but two copies pass it.
_FAR_APART = [f"{t + 10 * i} 5 60\n" for t in (0, 10**8) for i in range(10)]


@pytest.mark.parametrize("stage, expected", [
    (["tokenize"], 2),
    (["tokenize", "--pack"], 0),
    (["tokenize", "--codec", "interarrival"], 0),
    (["densify"], 0),
    (["interleave"], 0),
    (["augment", "--factor", "10"], 2),
    (["augment", "--factor", "10", "--pack"], 2),
    (["augment", "--factor", "30", "--pack"], 2),
    (["sample", "--controls"], 2),
], ids=lambda value: " ".join(value) if isinstance(value, list) else str(value))
def test_rests_of_a_whole_augment_run_share_one_budget(tmp_path, small_model, stage, expected):
    path = tmp_path / "far.txt"
    path.write_text("".join(_FAR_APART))
    argv = ([*stage, str(path), "--model", str(small_model), str(tmp_path / "out")]
            if stage[0] == "sample" else [*stage, str(path), str(tmp_path / "out")])
    proc = _limited_cli(argv)
    assert proc.returncode == expected, proc.stderr
    assert "Traceback" not in proc.stderr
    if stage[0] == "augment":
        assert proc.stderr == "error: 1999998 rests asked for, over the budget of 1048576\n"


_TWINKLE_HEADER, _TWINKLE_BODY = _TWINKLE_TOKENS.split("\n", 1)


def _with_field(field: str) -> str:
    """The twinkle token file with ``field`` in place of its row's fifth id."""
    fields = _TWINKLE_BODY.split(" ")
    return "\n".join([_TWINKLE_HEADER, " ".join([*fields[:4], field, *fields[5:]])])


# Token files no writer produces: an id in another syntax, a header of another
# spelling or size, and an id past int64.
_HOSTILE_TOKEN_FILES = {
    **{f"id {field}": _with_field(field) for field in ["+5", "1_000", "٣", "-1"]},
    "vocab=055028": "#codec=arrival vocab=055028\n" + _TWINKLE_BODY,
    "interarrival size": f"#codec=arrival vocab={IV.SIZE}\n" + _TWINKLE_BODY,
    "5 000-digit size": "#codec=arrival vocab=" + "5" * 5_000 + "\n" + _TWINKLE_BODY,
    "id past int64": _with_field(str(2**63)),
}


def _token_stage(stage: str, path: Path, out: Path, model: Path) -> list[str]:
    """The argv of a CLI stage that reads the token file at ``path``."""
    return {"detokenize": ["detokenize", str(path), str(out)],
            "train-ngram": ["train-ngram", str(path), str(out)],
            "evaluate": ["evaluate", str(path), "--model", str(model)]}[stage]


@pytest.mark.parametrize("stage", ["detokenize", "train-ngram", "evaluate"])
def test_hostile_token_files_through_every_stage(tmp_path, small_model, stage):
    path, out = tmp_path / "hostile.tok", tmp_path / "out"
    for name, text in _HOSTILE_TOKEN_FILES.items():
        path.write_text(text)
        proc = _limited_cli(_token_stage(stage, path, out, small_model))
        assert proc.returncode == 2, (name, proc.stderr)
        assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr, name
        assert not out.exists(), name


@pytest.mark.parametrize("stage", ["detokenize", "train-ngram", "evaluate"])
def test_crlf_and_tabs_read_as_the_canonical_token_file(tmp_path, small_model, stage):
    path, out = tmp_path / "twinkle.tok", tmp_path / "out"
    outcomes = []
    for text in (_TWINKLE_TOKENS, _TWINKLE_TOKENS.replace(" ", "\t").replace("\n", "\r\n")):
        path.write_bytes(text.encode())
        proc = _limited_cli(_token_stage(stage, path, out, small_model))
        outcomes.append((proc.returncode, proc.stdout, proc.stderr,
                         out.read_bytes() if out.exists() else None))
    assert outcomes[0][0] == 0 and outcomes[0][1:] != ("", "", None)
    assert outcomes[1] == outcomes[0]


def test_sample_refuses_an_interarrival_model(tmp_path, twinkle_file, capsys):
    tokens, model, out = tmp_path / "twinkle.tok", tmp_path / "model.npz", tmp_path / "out.txt"
    assert run("tokenize", "--codec", "interarrival", str(twinkle_file), str(tokens)) == 0
    assert run("train-ngram", "--order", "2", str(tokens), str(model)) == 0
    capsys.readouterr()
    assert run("sample", "--model", str(model), str(out)) == 2
    assert capsys.readouterr().err == (
        f"error: predictor vocabulary {IV.SIZE} does not match the arrival vocabulary "
        f"({AV.SIZE})\n")
    assert not out.exists()


def test_evaluate_refuses_a_model_of_the_other_codec(tmp_path, twinkle_file, capsys):
    arrival, interarrival = tmp_path / "twinkle.tok", tmp_path / "twinkle.itok"
    model, report = tmp_path / "model.npz", tmp_path / "report.txt"
    assert run("tokenize", str(twinkle_file), str(arrival)) == 0
    assert run("tokenize", "--codec", "interarrival", str(twinkle_file), str(interarrival)) == 0
    assert run("train-ngram", "--order", "2", str(interarrival), str(model)) == 0
    capsys.readouterr()
    assert run("evaluate", "--model", str(model), str(arrival), "--report", str(report)) == 2
    assert capsys.readouterr() == ("", (
        f"error: row 0: predictor vocabulary {IV.SIZE} does not match the arrival vocabulary "
        f"({AV.SIZE})\n"))
    assert not report.exists()


@pytest.mark.parametrize("rows", ["", "0 10000 11060\n"], ids=["no rows", "zero seconds"])
def test_evaluate_refuses_a_file_with_no_music(tmp_path, small_model, capsys, rows):
    tokens, report = tmp_path / "empty.tok", tmp_path / "report.txt"
    tokens.write_text("#codec=arrival vocab=55028\n" + rows)
    assert run("evaluate", "--model", str(small_model), str(tokens), "--report", str(report)) == 2
    assert capsys.readouterr() == ("", f"error: {tokens}: no music to score "
                                       f"({rows.count(chr(10))} rows of 0 seconds)\n")
    assert not report.exists()


class TestConfigValues:
    @pytest.fixture
    def mix_file(self, tmp_path) -> Path:
        path = tmp_path / "mix.txt"
        path.write_text("100 10 60\n300 10 60\nC 700 10 48\n")
        return path

    @pytest.mark.parametrize("value", ["inf", "nan", "1e17"])
    def test_interleave_rejects_delta(self, mix_file, capsys, value):
        assert run("interleave", "--delta", value, str(mix_file), "-") == 2
        assert "error: delta must be" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["inf", "nan", "1e17"])
    def test_densify_rejects_target_density(self, twinkle_file, capsys, value):
        assert run("densify", "--target-density", value, str(twinkle_file), "-") == 2
        assert "error: target_density must be" in capsys.readouterr().err

    @pytest.mark.parametrize("command, option, field, file", [
        ("interleave", "--delta", "delta", "mix_file"),
        ("densify", "--target-density", "target_density", "twinkle_file"),
    ])
    def test_interval_below_one_grid_unit_is_rejected(self, request, capsys, command, option,
                                                       field, file):
        path = str(request.getfixturevalue(file))
        assert run(command, option, "0.004", path, "-") == 2
        assert f"error: {field} must be at least one 10 ms grid unit" in capsys.readouterr().err
        assert run(command, option, "0.01", path, "-") == 0

    @pytest.mark.parametrize("option, value", [
        ("--delta", "inf"), ("--delta", "nan"), ("--delta", "1e17"), ("--max-tokens", "-5"),
    ])
    def test_sample_rejects_config(self, tmp_path, rng, capsys, option, value):
        model = tmp_path / "model.npz"
        rows = [encode_arrival(random_events(rng, 20), z=AV.AR)]
        train_ngram(rows, order=2, alpha=0.01, vocab_size=AV.SIZE).save(model)
        assert run("sample", "--model", str(model), option, value, "-") == 2
        field = option[2:].replace("-", "_")
        assert f"error: {field} must be" in capsys.readouterr().err


class TestSampleMidi:
    @pytest.fixture
    def controls(self, tmp_path) -> Path:
        path = tmp_path / "controls.txt"
        with open(path, "w") as f:
            write_events(f, [EventSequence(list(golden.twinkle_events())[:4])])
        return path

    def test_stdout_gets_the_bytes_a_file_gets(self, tmp_path, small_model, controls,
                                               capsysbinary):
        argv = ["sample", "--model", str(small_model), "--controls", str(controls),
                "--max-tokens", "60", "--seed", "3", "--out", "midi"]
        out = tmp_path / "gen.mid"
        assert run(*argv, str(out)) == 0
        capsysbinary.readouterr()
        assert run(*argv, "-") == 0
        data = capsysbinary.readouterr().out
        assert data == out.read_bytes()
        parse_midi(data)

    def test_baseline_mode_writes_event_text(self, tmp_path, small_model, controls, capsys):
        out = tmp_path / "gen.txt"
        assert run("sample", "--mode", "baseline", "--model", str(small_model), "--controls",
                   str(controls), "--max-tokens", "60", "--seed", "3", str(out)) == 0
        with open(out) as f:
            (sequence,) = read_events(f)
        with open(controls) as f:
            (given,) = read_events(f)
        placed = sequence.controls()
        assert len(sequence.events()) and list(placed) == list(given.events())[: len(placed)]

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_zero_budget_reports_the_truncation(self, tmp_path, small_model, twinkle_file,
                                                capsys, seed):
        assert run("sample", "--max-tokens", "0", "--controls", str(twinkle_file), "--model",
                   str(small_model), "--seed", str(seed), str(tmp_path / "gen.txt")) == 0
        assert capsys.readouterr().err == "generation hit the token budget before a separator\n"
        # the notes of every control, and no sampled event, are in the file
        lines = (tmp_path / "gen.txt").read_text().splitlines()
        assert len(lines) == 14 and all(line.startswith("C ") for line in lines)

    def test_a_failing_midi_write_leaves_no_file(self, tmp_path, small_model, capsys):
        # sixteen melodic instruments, one more than the channels carry
        controls = tmp_path / "controls.txt"
        controls.write_text("".join(f"{10 * i} 5 {128 * i + 60}\n" for i in range(16)))
        out = tmp_path / "gen.mid"
        assert run("sample", "--model", str(small_model), "--controls", str(controls),
                   "--seed", "3", "--out", "midi", str(out)) == 2
        assert capsys.readouterr().err.endswith(
            "error: more than 15 distinct non-drum instruments cannot share one file\n")
        assert not out.exists()


class TestPipeline:
    def test_ingest_augment_train_evaluate_sample(self, tmp_path, rng):
        midi_dir = tmp_path / "midi"
        midi_dir.mkdir()
        for i in range(6):
            seq = random_events(rng, 120, max_gap=25, avoid_note_overlap=True)
            (midi_dir / f"s{i}.mid").write_bytes(write_midi(seq))
        out = tmp_path / "data"
        assert run("ingest", str(midi_dir), str(out)) == 0
        assert (out / "manifest.tsv").exists()

        merged = tmp_path / "all.txt"
        text = "\n\n".join(
            (out / f"{s}.txt").read_text().strip()
            for s in ("train", "valid", "test")
            if (out / f"{s}.txt").read_text().strip()
        )
        merged.write_text(text + "\n")

        tokens = tmp_path / "aug.tok"
        assert run("augment", "--factor", "10", "--seed", "1", str(merged), str(tokens)) == 0
        assert Path(str(tokens) + ".labels").exists()

        model = tmp_path / "model.pkl"
        assert run("train-ngram", "--order", "2", "--alpha", "0.01", str(tokens), str(model)) == 0

        report = tmp_path / "report.txt"
        assert run("evaluate", "--model", str(model), str(tokens), "--report", str(report)) == 0
        assert "bits_per_second=" in report.read_text()

        controls = tmp_path / "controls.txt"
        with open(controls, "w") as f:
            write_events(f, [EventSequence(list(golden.twinkle_events())[:4])])
        sample_out = tmp_path / "gen.txt"
        assert (
            run(
                "sample",
                "--model", str(model),
                "--controls", str(controls),
                "--mode", "anticipatory",
                "--max-tokens", "120",
                "--seed", "3",
                str(sample_out),
            )
            == 0
        )
        with open(sample_out) as f:
            generated = read_events(f)
        assert len(generated) == 1
        assert len(generated[0].controls()) == 4

        midi_out = tmp_path / "gen.mid"
        assert (
            run(
                "sample",
                "--model", str(model),
                "--controls", str(controls),
                "--max-tokens", "120",
                "--seed", "3",
                "--out", "midi",
                str(midi_out),
            )
            == 0
        )
        parse_midi(midi_out.read_bytes())  # must be a valid file

    def test_augment_delta_output_pinned(self, tmp_path):
        # sha256 of the token and label files, computed when the span length
        # was a policy field that the command set to --delta
        rng = np.random.default_rng(2024)
        corpus = tmp_path / "corpus.txt"
        with open(corpus, "w") as f:
            write_events(f, [random_events(rng, 60, max_gap=40, n_instruments=int(rng.integers(1, 4)),
                                           start_at_zero=True) for _ in range(6)])
        tokens = tmp_path / "out.tok"
        assert run("augment", "--delta", "2.5", "--factor", "10", "--seed", "3",
                   str(corpus), str(tokens)) == 0
        assert hashlib.sha256(tokens.read_bytes()).hexdigest() == (
            "231bdd72bc2c53222f7a54a1bee8150659611fcc9c8e61295874351e380db75b")
        assert hashlib.sha256((tmp_path / "out.tok.labels").read_bytes()).hexdigest() == (
            "ad6963bb33b6505b70bb21d7754c1060469714db6b2612a470f1a4774c82ebc5")

    def test_idempotent_given_seed(self, corpus_file, tmp_path):
        a, b = tmp_path / "a.tok", tmp_path / "b.tok"
        for target in (a, b):
            assert run("augment", "--factor", "10", "--seed", "9", str(corpus_file), str(target)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_sample_merges_control_sequences_stably_by_time(self, tmp_path, rng):
        # every item of every sequence is a control, flags dropped; equal
        # times keep file order (62 before 61)
        model = tmp_path / "model.npz"
        rows = [encode_arrival(random_events(rng, 40), z=AV.AR)]
        train_ngram(rows, order=2, alpha=0.01, vocab_size=AV.SIZE).save(model)
        split = tmp_path / "split.txt"
        split.write_text("300 10 62\nC 500 5 64\n\n100 10 60\n300 20 61\n")
        merged = tmp_path / "merged.txt"
        merged.write_text("100 10 60\n300 10 62\n300 20 61\n500 5 64\n")
        outputs = []
        for controls in (split, merged):
            out = tmp_path / f"{controls.stem}.out"
            assert run("sample", "--model", str(model), "--controls", str(controls),
                       "--max-tokens", "60", "--seed", "3", str(out)) == 0
            outputs.append(out.read_text())
        assert outputs[0] == outputs[1]
        assert outputs[0].count("C ") == 4


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path, corpus_file):
        config = tmp_path / "run.conf"
        config.write_text("factor=10\nseed=4\n")
        out = tmp_path / "out.tok"
        assert run("augment", "--config", str(config), str(corpus_file), str(out)) == 0
        explicit = tmp_path / "explicit.tok"
        assert run(
            "augment", "--factor", "10", "--seed", "4", str(corpus_file), str(explicit)
        ) == 0
        assert out.read_bytes() == explicit.read_bytes()

    def test_flags_override_config(self, tmp_path, corpus_file):
        config = tmp_path / "run.conf"
        config.write_text("seed=4\n")
        a = tmp_path / "a.tok"
        b = tmp_path / "b.tok"
        assert run("augment", "--config", str(config), "--seed", "5", "--factor", "10",
                   str(corpus_file), str(a)) == 0
        assert run("augment", "--factor", "10", "--seed", "5", str(corpus_file), str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_key_rejected(self, tmp_path, corpus_file):
        config = tmp_path / "run.conf"
        config.write_text("volume=11\n")
        assert run("augment", "--config", str(config), str(corpus_file), "-") == 1

    def test_the_bound_handler_is_no_config_key(self, tmp_path, corpus_file, capsys):
        config = tmp_path / "run.conf"
        config.write_text("handler=golden\n")
        assert run("augment", "--config", str(config), str(corpus_file), "-") == 1
        assert "unknown key 'handler'" in capsys.readouterr().err

    def test_seed_env_fallback(self, tmp_path, corpus_file, monkeypatch):
        a, b = tmp_path / "a.tok", tmp_path / "b.tok"
        monkeypatch.setenv("ANTICIPATE_SEED", "77")
        assert run("augment", "--factor", "10", str(corpus_file), str(a)) == 0
        monkeypatch.delenv("ANTICIPATE_SEED")
        assert run("augment", "--factor", "10", "--seed", "77", str(corpus_file), str(b)) == 0
        assert a.read_bytes() == b.read_bytes()


class TestTokenizePack:
    def test_pack_emits_fixed_length_examples(self, tmp_path, rng):
        path = tmp_path / "big.txt"
        seqs = [
            random_events(rng, 400, max_gap=20, start_at_zero=True) for _ in range(3)
        ]
        with open(path, "w") as f:
            write_events(f, seqs)
        out = tmp_path / "packed.tok"
        assert run("tokenize", "--codec", "arrival", "--pack", str(path), str(out)) == 0
        with open(out) as f:
            codec, rows = read_tokens(f)
        assert codec == "arrival"
        assert rows and all(len(row) == 1024 for row in rows)


class TestConfigChecks:
    """Config values and the seed variable are parsed as the flags they stand for."""

    @pytest.fixture
    def model_file(self, tmp_path, rng) -> Path:
        model = tmp_path / "model.npz"
        rows = [encode_arrival(random_events(rng, 60), z=AV.AR)]
        train_ngram(rows, order=2, alpha=0.01, vocab_size=AV.SIZE).save(model)
        return model

    @staticmethod
    def conf(tmp_path, text: str) -> str:
        path = tmp_path / "run.conf"
        path.write_text(text)
        return str(path)

    @pytest.mark.parametrize("command, text, message", [
        ("tokenize", "codec=bogus", "argument --codec: invalid choice: 'bogus'"),
        ("sample", "out=wav", "argument --out: invalid choice: 'wav'"),
        ("sample", "mode=anticipatry", "argument --mode: invalid choice: 'anticipatry'"),
        ("augment", "factor=x", "argument --factor: invalid int value: 'x'"),
        ("augment", "pack=maybe", "config key pack: expected a boolean, got 'maybe'"),
        ("augment", "# a comment, then a blank line\n\nfactor 10", "run.conf:3: expected key=value"),
    ])
    def test_bad_value_is_a_usage_error(self, tmp_path, twinkle_file, model_file, capsys,
                                        command, text, message):
        args = ["--model", str(model_file)] if command == "sample" else [str(twinkle_file)]
        out = tmp_path / "out"
        assert run(command, "--config", self.conf(tmp_path, text), *args, str(out)) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, text, flag", [
        ("tokenize", "relativize=true", "--relativize"),
        ("sample", "grammar_mask=false", "--no-grammar-mask"),
    ])
    def test_on_off_key_matches_flag(self, tmp_path, model_file, capsys, command, text, flag):
        # Late times fail without --relativize; this small model samples an
        # ungrammatical triple without the mask. Each flag thus flips the exit code.
        late = tmp_path / "late.txt"
        late.write_text("20000 10 60\n20010 10 61\n")
        args = {"tokenize": [str(late)],
                "sample": ["--model", str(model_file), "--seed", "3", "--max-tokens", "60"]}
        results = []
        for extra in (["--config", self.conf(tmp_path, text)], [flag], []):
            out = tmp_path / f"out{len(results)}"
            code = run(command, *extra, *args[command], str(out))
            results.append((code, capsys.readouterr().err, out.exists() and out.read_bytes()))
        assert results[0] == results[1]
        assert results[2][0] != results[0][0]

    def test_undecodable_config_is_a_usage_error(self, tmp_path, twinkle_file, capsys):
        config = tmp_path / "run.conf"
        config.write_bytes(b"factor=\xff\n")
        assert run("augment", "--config", str(config), str(twinkle_file), "-") == 1
        assert "cannot read config file" in capsys.readouterr().err

    def test_bad_seed_variable_is_a_usage_error(self, twinkle_file, tmp_path, monkeypatch,
                                                capsys):
        monkeypatch.setenv("ANTICIPATE_SEED", "abc")
        assert run("augment", "--factor", "10", str(twinkle_file), str(tmp_path / "a.tok")) == 1
        assert "argument --seed: expected a non-negative int, got 'abc'" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["flag", "variable", "config"])
    def test_non_ascii_digit_seed_is_a_usage_error(self, tmp_path, twinkle_file, monkeypatch,
                                                   capsys, source):
        # ``str.isdecimal`` and ``int`` take "٣" as 3; a seed, like a token id, is ASCII digits
        given = {"flag": ["--seed", "٣"], "variable": [],
                 "config": ["--config", self.conf(tmp_path, "seed=٣\n")]}[source]
        if source == "variable":
            monkeypatch.setenv("ANTICIPATE_SEED", "٣")
        out = tmp_path / "a.tok"
        assert run("augment", "--factor", "10", *given, str(twinkle_file), str(out)) == 1
        assert "argument --seed: expected a non-negative int, got '٣'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["augment", "sample"])
    @pytest.mark.parametrize("source", ["flag", "variable", "config"])
    def test_negative_seed_is_a_usage_error(self, tmp_path, twinkle_file, model_file,
                                            monkeypatch, capsys, command, source):
        # numpy's generators take no negative seed; argparse refuses it first
        args = ["--model", str(model_file)] if command == "sample" else [str(twinkle_file)]
        given = {"flag": ["--seed", "-1"], "variable": [],
                 "config": ["--config", self.conf(tmp_path, "seed=-2\n")]}[source]
        if source == "variable":
            monkeypatch.setenv("ANTICIPATE_SEED", "-1")
        out = tmp_path / "out"
        assert run(command, *given, *args, str(out)) == 1
        negative = "-2" if source == "config" else "-1"
        assert (f"argument --seed: expected a non-negative int, got '{negative}'"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_seed_flag_and_config_beat_bad_seed_variable(self, twinkle_file, tmp_path,
                                                         monkeypatch):
        a, b, c = tmp_path / "a.tok", tmp_path / "b.tok", tmp_path / "c.tok"
        assert run("augment", "--factor", "10", "--seed", "5", str(twinkle_file), str(a)) == 0
        monkeypatch.setenv("ANTICIPATE_SEED", "abc")
        assert run("augment", "--factor", "10", "--seed", "5", str(twinkle_file), str(b)) == 0
        config = self.conf(tmp_path, "seed=5\n")
        assert run("augment", "--factor", "10", "--config", config, str(twinkle_file),
                   str(c)) == 0
        assert a.read_bytes() == b.read_bytes() == c.read_bytes()

    def test_negative_factor_is_a_data_error(self, twinkle_file, tmp_path, capsys):
        assert run("augment", "--factor", "-10", str(twinkle_file), str(tmp_path / "a.tok")) == 2
        assert "error: factor must be at least 1" in capsys.readouterr().err

    def test_path_keys(self, tmp_path, twinkle_file, model_file):
        labels = tmp_path / "copies.labels"
        tokens = tmp_path / "aug.tok"
        config = self.conf(tmp_path, f"factor=10\nlabels={labels}\n")
        assert run("augment", "--config", config, str(twinkle_file), str(tokens)) == 0
        assert len(labels.read_text().splitlines()) == 10
        assert not Path(str(tokens) + ".labels").exists()

        controls = tmp_path / "controls.txt"
        with open(controls, "w") as f:
            write_events(f, [EventSequence(list(golden.twinkle_events())[:4])])
        generated = tmp_path / "gen.txt"
        config = self.conf(tmp_path, f"controls={controls}\nmax_tokens=60\nseed=3\n")
        assert run("sample", "--model", str(model_file), "--config", config,
                   str(generated)) == 0
        with open(generated) as f:
            assert len(read_events(f)[0].controls()) == 4

        report = tmp_path / "report.txt"
        config = self.conf(tmp_path, f"report={report}\n")
        assert run("evaluate", "--model", str(model_file), "--config", config, str(tokens)) == 0
        assert "bits_per_second=" in report.read_text()
