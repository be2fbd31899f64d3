"""Self-check of the benchmark at tiny size, with no timing gate.

    python3 bench/selfcheck.py

Runs every workload briefly (``--tiny --seconds 1``), untraced and traced,
and checks the result schema against ``BENCHMARK.json``, that every output
check passed, that each workload exercises the layers it is meant to, that
inputs are a pure function of the seed, and that the benchmark refuses to
run where the program's source is missing. Exits 1 on any failure. Run from
the root of a checkout.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Per-layer metrics that must be nonzero on each workload's traced run.
EXERCISED = {
    "prep-train": ["midi.parse_s", "corpus.files", "corpus.rejected", "eventio.read_s",
                   "augment.copies", "anticipation.densify_s", "tokenizer.pack_examples",
                   "tokenizer.encode_tokens_per_s", "predictor.train_s", "predictor.save_s"],
    "score": ["tokenizer.decode_tokens_per_s", "predictor.calls", "metrics.self_s",
              "metrics.heldout_bps", "predictor.load_s"],
    "accompany": ["sampler.sessions", "sampler.nucleus_calls", "anticipation.emit_s",
                  "sampler.replay_tokens_per_s", "predictor.calls", "bridge.round_trip_ms_p50",
                  "bridge.parse_ms", "bridge.wait_ms", "bridge.response_bytes",
                  "bridge.server_start_s"],
}

failures: list[str] = []


def expect(ok: bool, message: str) -> None:
    if not ok:
        failures.append(message)
        print(f"FAIL {message}")


def run(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    command = [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_result(workload: str, trace: int, proc) -> tuple[dict, dict]:
    where = f"{workload} trace={trace}"
    expect(proc.returncode == 0, f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}")
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        expect(False, f"{where}: fewer than two output lines")
        return {}, {}
    result, record = json.loads(lines[-1]), json.loads(lines[-2])["record"]
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{where}: result keys")
    expect(isinstance(result["attempted"], int) and result["attempted"] >= 1, f"{where}: attempted")
    expect(result["failed"] == 0 and result["correct"] is True,
           f"{where}: output checks failed: {record.get('errors')}")
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    expect(set(result["metrics"]) == {m["name"] for m in spec}, f"{where}: metric names")
    for m in spec:
        got = result["metrics"].get(m["name"], {})
        value = got.get("value")
        expect(isinstance(value, (int, float)) and math.isfinite(value),
               f"{where}: {m['name']} is not a finite number")
        expect(got.get("unit") == m["unit"], f"{where}: {m['name']} unit")
        if not trace:
            expect(value is not None and value > 0, f"{where}: {m['name']} is not positive")
    for key in ("input_digest", "src_lines", "environment", "named_metrics", "failed_ratio"):
        expect(key in record, f"{where}: record lacks {key}")
    return result, record


def main() -> int:
    for workload in [w["name"] for w in SPEC["workloads"]]:
        for trace in (0, 1):
            result, _ = check_result(workload, trace, run(workload, 7, trace))
            if trace and result:
                for name in EXERCISED[workload]:
                    expect(result["metrics"][name]["value"] > 0,
                           f"{workload}: traced {name} is 0, layer not exercised")
        print(f"ok {workload}")

    _, first = check_result("score", 0, run("score", 7, 0))
    _, again = check_result("score", 0, run("score", 7, 0))
    _, other = check_result("score", 0, run("score", 8, 0))
    if first and again and other:
        expect(first["input_digest"] == again["input_digest"], "same seed, different inputs")
        expect(first["named_metrics"]["heldout_bps"] == again["named_metrics"]["heldout_bps"],
               "heldout_bps does not repeat exactly for a seed")
        expect(first["input_digest"] != other["input_digest"], "another seed, same inputs")
    print("ok seed determinism")

    bare = ROOT / ".bench_work" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "bench", bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run("score", 7, 0, cwd=bare)
        expect(proc.returncode != 0, "runs without the program's source")
        expect('"correct"' not in proc.stdout, "prints a result without the program's source")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok refuses to run without src/")

    print("selfcheck:", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
