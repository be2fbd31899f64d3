"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the program under test is imported from
that checkout's ``src/``. The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``, with the end-to-end
metrics of ``BENCHMARK.json`` when ``--trace 0`` and its per-layer metrics
when ``--trace 1``. The line before it is the full record: the metrics under
the names the workloads were specified with, sample counts, the input
digest, ``src/`` line count and the environment. See NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
END_TO_END = ("setup_s", "peak_rss_mb", "rate_per_s", "step_ms_p50", "step_ms_p90")


def _import_program():
    """Import ``anticipate`` from this checkout's ``src/`` and nowhere else."""
    sys.path[:0] = [str(SRC), str(HERE)]
    try:
        import anticipate
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import anticipate from {SRC}: {exc}")
    if Path(anticipate.__file__).resolve().parent != (SRC / "anticipate").resolve():
        raise SystemExit(f"bench: anticipate was imported from {anticipate.__file__}, not {SRC}")


def _peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


def _environment() -> dict:
    import numpy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "machine": platform.machine(), "system": platform.system(),
            "cpus": os.cpu_count()}


def _src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (SRC / "anticipate").glob("*.py"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the self-check; numbers are not comparable")
    args = parser.parse_args(argv)

    _import_program()
    import layers
    import workloads
    from spans import Tracer

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    tracer = None
    if args.trace:
        tracer = Tracer(layers.METERS)
        tracer.install()
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    sizes = workloads.TINY if args.tiny else workloads.FULL
    run = workloads.Run(args.seed, args.seconds, sizes, workdir, tracer)
    try:
        workloads.WORKLOADS[args.workload](run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    run.e2e["peak_rss_mb"] = _peak_rss_mb(resource.RUSAGE_SELF)
    run.meta["child_peak_rss_mb"] = _peak_rss_mb(resource.RUSAGE_CHILDREN)

    if tracer is not None:
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{args.workload}-{args.seed}.jsonl")
        values = layers.collect(tracer, run.layer, run.e2e["rate_per_s"])
        units = {name: unit for name, unit, _ in layers.PER_LAYER}
    else:
        values = {name: run.e2e[name] for name in END_TO_END}
        units = {"setup_s": "s", "peak_rss_mb": "MB", "rate_per_s": "1/s",
                 "step_ms_p50": "ms", "step_ms_p90": "ms"}
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny,
        "input_digest": run.meta.pop("input_digest"),
        "src_lines": _src_lines(), "environment": _environment(),
        "named_metrics": run.named,
        "failed_ratio": run.failed / max(run.attempted, 1),
        "errors": run.errors, **run.meta,
    }
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": run.failed == 0 and run.attempted > 0,
                      "attempted": run.attempted, "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
