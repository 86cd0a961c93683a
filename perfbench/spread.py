#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workloads mu_los verify --seeds 1 2 3 4 5

Runs `run.py` once per (workload, seed), serially, with the `run_seconds` of
BENCHMARK.json, and prints for each end-to-end metric the median of the runs
and the distance between their first and third quartile as a share of that
median, next to a third of the metric's bound. Each run's wall time is
printed too, to show how long a set of runs takes.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import stats
from run import RUNS_DIR

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path, default=None,
                        help="write every run's result line here as JSON")
    args = parser.parse_args(argv)
    runs = {}
    ok = True
    for workload in args.workloads:
        for seed in args.seeds:
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            start = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            wall = time.perf_counter() - start
            result = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.stdout else {}
            summary = RUNS_DIR / f"{workload}-seed{seed}-trace0" / "summary.json"
            if summary.exists():
                facts = json.loads(summary.read_text())
                result["outputs_sha256"] = facts["outputs_sha256"]
                result["machine"] = facts["machine"]
            ok = ok and proc.returncode == 0 and result.get("correct", False)
            runs.setdefault(workload, []).append(result)
            values = {k: round(v["value"], 4) for k, v in result.get("metrics", {}).items()}
            print(f"{workload} seed {seed}: exit {proc.returncode} in {wall:.1f} s {values}",
                  flush=True)
    for workload, results in runs.items():
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results if "metrics" in r]
            spread = stats.quartile_spread(values) if len(values) > 1 else float("nan")
            flag = "" if spread < metric["bound"] / 3 else "  <-- above a third of the bound"
            print(f"{workload:13s} {metric['name']:15s} median {statistics.median(values):.6g}"
                  f" spread {spread:.4f} (bound/3 {metric['bound'] / 3:.4f}){flag}")
    if args.out:
        args.out.write_text(json.dumps(runs, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
