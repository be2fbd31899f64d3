"""Repeat the benchmark over several seeds and summarise it as one
trajectory point.

    python3 bench/trajectory.py --seeds 1-10 [--label NAME] [--out PATH]

For every workload in ``BENCHMARK.json`` it makes one untraced run per seed
and one traced run on the first seed, one run at a time, each at the
benchmark's ``run_seconds``. Each end-to-end metric gets its median,
quartiles (``statistics.quantiles(values, n=4)``) and spread, the quartile
distance as a share of the median, compared with a third of the bound in
``BENCHMARK.json``. Tracing overhead is the traced run's rate against the
untraced median. Run from the root of a checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    command = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(command)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def _summary(values: list[float], bound: float | None) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    spread = (q3 - q1) / median if median else float("inf")
    out = {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": values}
    if bound is not None:
        out["bound"] = bound
        out["steady"] = spread < bound / 3
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--label", default="")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = _seeds(args.seeds)
    seconds = spec["run_seconds"]

    point = {"label": args.label, "seeds": seeds, "seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        records, results = [], []
        for seed in seeds:
            started = time.perf_counter()
            record, result = _run(workload, seed, seconds, 0)
            print(f"{workload} seed={seed} {time.perf_counter() - started:.1f}s correct={result['correct']} "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
                  file=sys.stderr)
            records.append(record)
            results.append(result)
        traced_record, traced = _run(workload, seeds[0], seconds, 1)
        e2e = {name: _summary([r["metrics"][name]["value"] for r in results], bounds.get(name))
               for name in results[0]["metrics"]}
        named = {name: _summary([r["named_metrics"][name]["value"] for r in records], None)
                 for name in records[0]["named_metrics"]}
        loop_ms = _summary([statistics.median(r["machine_loop_ms"]) for r in records], None)
        per_layer = {name: m["value"] for name, m in traced["metrics"].items()}
        point["workloads"][workload] = {
            "correct": all(r["correct"] for r in results) and traced["correct"],
            "failed": sum(r["failed"] for r in results) + traced["failed"],
            "attempted": sum(r["attempted"] for r in results) + traced["attempted"],
            "input_digests": {str(s): r["input_digest"] for s, r in zip(seeds, records)},
            "end_to_end": e2e,
            "named": named,
            "machine_loop_ms": loop_ms,
            "per_layer_traced_seed": seeds[0],
            "per_layer": per_layer,
            "tracing_overhead": 1 - per_layer["trace.rate_per_s"] / e2e["rate_per_s"]["median"],
        }
        for name, s in e2e.items():
            flag = "" if s.get("steady", True) else "  <-- spread above a third of the bound"
            print(f"  {workload} {name}: median {s['median']:.5g} spread {s['spread']:.3f}{flag}",
                  file=sys.stderr)
        print(f"  {workload} machine_loop_ms: median {loop_ms['median']:.4g} "
              f"spread {loop_ms['spread']:.3f}", file=sys.stderr)
    point["src_lines"] = records[0]["src_lines"]
    point["environment"] = records[0]["environment"]
    text = json.dumps(point, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
