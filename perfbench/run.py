#!/usr/bin/env python3
"""Sweep-cell benchmark for irsma.

    python3 perfbench/run.py --workload mu_los --seed 1 --seconds 35 --trace 0

Each run calls the public entry point `irsma.cli.main` in-process, in chunks:
one `sweep` call (mu_los, su_multipath) or one `verify` battery (verify) per
chunk, chunk k with seed `seed * 1000 + k` (modulo 2**64). With `--trace 0`
it runs the fixed chunks and then every chunk expected to end within
`--seconds`, timing the set-up in fresh interpreters between them, and
reports the end-to-end metrics over all chunks. With `--trace 1` it runs
only the fixed chunks, each once untraced and once with every layer function
wrapped (see tracing.py), and reports the per-layer metrics. Every chunk's
outputs are checked from outside. The last line of standard output is one
JSON object; the exit status is non-zero if any check failed. Metric names
and units come from BENCHMARK.json at the root of the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUNS_DIR = ROOT / ".perfbench_runs"

sys.path.insert(0, str(BENCH_DIR))
import stats  # noqa: E402
import tracing  # noqa: E402

SCHEMES = ("PROPOSED", "FPA", "AS", "MA_RPS", "FPA_RPS")
ORDER_TOL = 1e-9  # per-cell PROPOSED >= max(FPA, AS) and MA_RPS >= FPA_RPS
SETUP_PROBES = 15
MAX_CHUNKS = 1000
SEED_MODULUS = 2 ** 64


@dataclass(frozen=True)
class Workload:
    command: str  # irsma subcommand
    config: str | None  # file under perfbench/workloads
    fixed_chunks: int  # always run; the traced run, digest and rates use these


WORKLOADS = {
    "mu_los": Workload("sweep", "mu_los.yaml", 3),
    "su_multipath": Workload("sweep", "su_multipath.yaml", 4),
    "verify": Workload("verify", None, 1),
}


@dataclass
class Chunk:
    units: int  # sweep cells, or 1 verify battery
    wall_s: float
    cpu_s: float  # whole process, BLAS helper threads included
    digest: str
    attempted: int
    problems: list[str] = field(default_factory=list)
    rates: dict = field(default_factory=dict)  # (param, realization) -> {scheme: rate}
    checks: int = 0


def _cpu_s() -> float:
    """CPU time of this process, all threads (BLAS helpers included)."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _sha256(paths) -> str:
    digest = hashlib.sha256()
    for p in paths:
        digest.update(p.read_bytes())
    return digest.hexdigest()


def chunk_seed(seed: int, k: int) -> int:
    """Seed of chunk k of a run. Any integer --seed works: irsma seeds numpy's
    SeedSequence, which takes every non-negative integer, and the modulus
    keeps the result non-negative."""
    return (seed * MAX_CHUNKS + k) % SEED_MODULUS


def check_sweep(out: Path, values, realizations: int) -> tuple[int, list[str], dict]:
    """Records of one sweep chunk: every (cell, scheme) present and finite, and
    the nesting orderings per cell. Returns (attempted, problems, rates)."""
    path = out / "records.csv"
    rates: dict = {}
    if path.exists():
        with open(path, newline="") as fh:
            for row in csv.DictReader(fh):
                if row["metric"] == "sum_rate":
                    key = (float(row["param"]), int(row["realization"]))
                    rates.setdefault(key, {})[row["scheme"]] = float(row["value"])
    problems = []
    cells = [(float(v), r) for v in values for r in range(realizations)]
    for cell in cells:
        got = rates.get(cell, {})
        for scheme in SCHEMES:
            if scheme not in got:
                problems.append(f"cell {cell}: no {scheme} record")
            elif not math.isfinite(got[scheme]):
                problems.append(f"cell {cell}: {scheme} rate {got[scheme]!r}")
        if len(got) == len(SCHEMES) and all(map(math.isfinite, got.values())):
            if got["PROPOSED"] < max(got["FPA"], got["AS"]) - ORDER_TOL:
                problems.append(f"cell {cell}: PROPOSED < max(FPA, AS)")
            if got["MA_RPS"] < got["FPA_RPS"] - ORDER_TOL:
                problems.append(f"cell {cell}: MA_RPS < FPA_RPS")
    if len(rates) != len(cells):
        problems.append(f"{len(rates)} cells in records.csv, expected {len(cells)}")
    return len(cells) * len(SCHEMES), problems, rates


def check_verify(out: Path, code: int) -> tuple[int, list[str], int]:
    """Reports of one verify battery: every check passed and the exit status
    is 0. Returns (attempted, problems, number of checks)."""
    problems = []
    rows = []
    for path in sorted(out.glob("verify_*.csv")):
        with open(path, newline="") as fh:
            rows.extend((path.name, row) for row in csv.DictReader(fh))
    for name, row in rows:
        if row["passed"] != "1":
            problems.append(f"{name}: check failed: {row['check']}")
    if not rows:
        problems.append("verify wrote no report")
    if code != 0 and not problems:
        problems.append(f"verify returned {code} with every check passed")
    return max(len(rows), 1), problems, len(rows)


class Runner:
    def __init__(self, name: str, seed: int, run_dir: Path):
        import irsma.cli
        import yaml

        self.cli = irsma.cli
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.run_dir = run_dir
        self.config = None  # the workload's config file
        self.sweep = None  # its sweep section
        if self.workload.config:
            self.config = BENCH_DIR / "workloads" / self.workload.config
            with open(self.config) as fh:
                self.sweep = yaml.safe_load(fh)["sweep"]

    def run_chunk(self, k: int, tracer: tracing.Tracer | None = None) -> Chunk:
        out = self.run_dir / (f"chunk{k}" + ("_traced" if tracer else ""))
        shutil.rmtree(out, ignore_errors=True)
        argv = [self.workload.command, "--seed", str(chunk_seed(self.seed, k)),
                "--out", str(out)]
        sweep = self.sweep
        if sweep:
            argv += ["--config", str(self.config), "--threads", "1"]
        captured = io.StringIO()
        root = tracer.span("cli.main", "cli") if tracer else contextlib.nullcontext()
        cpu0 = _cpu_s()
        start = time.perf_counter()
        with contextlib.redirect_stdout(captured), root:
            code = self.cli.main(argv)
        wall = time.perf_counter() - start
        cpu = _cpu_s() - cpu0
        (out / "stdout.txt").write_text(captured.getvalue())
        if sweep:
            attempted, problems, rates = check_sweep(out, sweep["values"],
                                                     sweep["realizations"])
            if code != 0:
                problems.append(f"sweep returned {code}")
            units = len(sweep["values"]) * sweep["realizations"]
            return Chunk(units, wall, cpu, _sha256(out.glob("records.csv")),
                         attempted, problems, rates)
        attempted, problems, checks = check_verify(out, code)
        return Chunk(1, wall, cpu, _sha256(sorted(out.glob("verify_*.csv"))),
                     attempted, problems, checks=checks)

    def setup_probe(self) -> float:
        argv = [sys.executable, str(BENCH_DIR / "setup_probe.py")]
        if self.config:
            argv.append(str(self.config))
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        return float(proc.stdout.strip().splitlines()[-1])


def quality(chunks: list[Chunk]) -> dict:
    """Mean PROPOSED rate and mean per-cell PROPOSED - FPA over the cells."""
    cells = [r for c in chunks for r in c.rates.values()
             if "PROPOSED" in r and "FPA" in r]
    if not cells:
        return {"quality.proposed_rate_bps_hz": 0.0, "quality.ma_gain_bps_hz": 0.0}
    return {
        "quality.proposed_rate_bps_hz": statistics.fmean(r["PROPOSED"] for r in cells),
        "quality.ma_gain_bps_hz": statistics.fmean(r["PROPOSED"] - r["FPA"] for r in cells),
    }


def timed_run(runner: Runner, seconds: float) -> tuple[dict, list[Chunk], list[str]]:
    # The set-up probes are spread over the run, inside its time, so that one
    # slow spell of the shared host does not hit all of them.
    # After the fixed chunks, a chunk starts only if a chunk of median length
    # would end by the deadline, so a run ends near it, not up to a chunk past it.
    setup, chunks = [], []
    start = time.perf_counter()
    while len(chunks) < MAX_CHUNKS and (
            len(chunks) < runner.workload.fixed_chunks
            or time.perf_counter() - start
            + statistics.median(c.wall_s for c in chunks) <= seconds):
        share = (time.perf_counter() - start) / seconds
        while len(setup) < min(SETUP_PROBES, 1 + int(SETUP_PROBES * share)):
            setup.append(runner.setup_probe())
        chunks.append(runner.run_chunk(len(chunks)))
    while len(setup) < SETUP_PROBES:
        setup.append(runner.setup_probe())
    units = sum(c.units for c in chunks)
    metrics = {
        "units_per_s": units / sum(c.wall_s for c in chunks),
        "cpu_s_per_unit": sum(c.cpu_s for c in chunks) / units,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    info = [f"units/s per chunk: {stats.describe(c.units / c.wall_s for c in chunks)}",
            f"CPU s per unit per chunk: {stats.describe(c.cpu_s / c.units for c in chunks)}",
            f"set-up s per probe: {stats.describe(setup)}"]
    return metrics, chunks, info


def _span_totals(spans: list[tracing.Span], selfs: list[float]) -> dict:
    totals: dict = {}
    for span, self_s in zip(spans, selfs):
        t = totals.setdefault(span.name, {"calls": 0, "s": 0.0, "self_s": 0.0, "counts": {}})
        t["calls"] += 1
        t["s"] += span.seconds
        t["self_s"] += self_s
        for key, n in span.counts.items():
            t["counts"][key] = t["counts"].get(key, 0) + n
    return totals


def layer_metrics(spans: list[tracing.Span], units: int, overhead: float,
                  checks: int) -> dict:
    selfs = tracing.self_times(spans)
    totals = _span_totals(spans, selfs)
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "counts": {}}

    def get(name, key):
        t = totals.get(name, empty)
        return t[key] if key in ("calls", "s", "self_s") else t["counts"].get(key, 0)

    m = {}
    cg = "mu_opt.manifold_cg"
    for key in ("calls", "s", "self_s", "iters", "backtracks",
                "exit.tol", "exit.max_iter", "exit.line_search"):
        m[f"{cg}.{key}"] = get(cg, key)
    m[f"{cg}.obj_evals"] = get(cg, "mu_opt.neg_sum_rate")
    m[f"{cg}.grad_evals"] = get(cg, "mu_opt.euclidean_grad_f2")
    m[f"{cg}.converged_ratio"] = m[f"{cg}.exit.tol"] / max(m[f"{cg}.calls"], 1)
    for key in ("calls", "s", "self_s", "iters"):
        m[f"mu_opt.wmmse.{key}"] = get("mu_opt.wmmse", key)
    m["mu_opt.wmmse.precoder_solves"] = get("mu_opt.wmmse", "mu_opt._wmmse_precoder")
    sps = "mu_opt.sequential_position_search"
    m[f"{sps}.calls"] = get(sps, "calls")
    m[f"{sps}.s"] = get(sps, "s")
    m[f"{sps}.candidates"] = get(sps, "mu_opt.sum_rate")
    for name, extra in (("mu_opt.ao_multi_user", "outer_iters"), ("su_opt.bcd_irs", "sweeps"),
                        ("su_opt.graph_position_select", None),
                        ("su_opt.ao_single_user", "outer_iters"), ("channel.matrix", "columns")):
        m[f"{name}.calls"] = get(name, "calls")
        m[f"{name}.s"] = get(name, "s")
        if extra:
            m[f"{name}.{extra}"] = get(name, extra)
    cells = [s.seconds for s in spans if s.name == "harness.run_cell"]
    m["harness.run_cell.calls"] = len(cells)
    m["harness.run_cell.s_p50"] = statistics.median(cells) if cells else 0.0
    m["harness.draw_realization.s"] = get("harness.draw_realization", "s")
    for scheme in SCHEMES:
        m[f"harness.run_scheme.s.{scheme}"] = sum(
            s.seconds for s in spans if s.name == "harness.run_scheme" and s.tag == scheme)
    for check in ("verify_single_ma_equivalence", "verify_far_field_no_gain",
                  "verify_fluctuation_monotonicity"):
        m[f"analysis.{check}.s"] = get(f"analysis.{check}", "s")
    m["analysis.checks"] = checks
    root_s = sum(s.seconds for s in spans if s.parent < 0)
    layer_self: dict = {}
    for span, self_s in zip(spans, selfs):
        layer_self[span.layer] = layer_self.get(span.layer, 0.0) + self_s
    for layer in (*tracing.LAYERS, "cli"):
        m[f"layer.{layer}.self_s"] = layer_self.get(layer, 0.0)
        m[f"layer.{layer}.self_share"] = layer_self.get(layer, 0.0) / root_s
    m["trace.units"] = units
    m["trace.overhead_ratio"] = overhead
    return m


def traced_run(runner: Runner) -> tuple[dict, list[Chunk], list[str]]:
    tracer = tracing.Tracer()
    plain, traced = [], []
    for k in range(runner.workload.fixed_chunks):
        # alternate which copy runs first, so warm-up is not charged to one side
        for traced_first in ((False, True) if k % 2 else (True, False)):
            if traced_first:
                with tracer.installed():
                    traced.append(runner.run_chunk(k, tracer))
            else:
                plain.append(runner.run_chunk(k))
        if traced[-1].digest != plain[-1].digest:
            traced[-1].problems.append(f"chunk {k}: outputs differ with tracing on")
    traced[-1].problems.extend(tracer.violations)
    overhead = sum(c.wall_s for c in plain) / sum(c.wall_s for c in traced)
    metrics = layer_metrics(tracer.spans, sum(c.units for c in traced), overhead,
                            sum(c.checks for c in traced))
    metrics.update(quality(traced))
    with open(runner.run_dir / "spans.jsonl", "w") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span.__dict__) + "\n")
    cells = [s.seconds for s in tracer.spans if s.name == "harness.run_cell"]
    info = [f"traced s per cell: {stats.describe(cells)}"] if cells else []
    return metrics, plain + traced, info


def machine_facts() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    lines = sum(len(p.read_text().splitlines()) for p in (SRC / "irsma").rglob("*.py"))
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "src_irsma_lines": lines,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "irsma" / "__init__.py").is_file():
        print(f"error: no irsma sources under {SRC}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    why = {w["name"]: w["why"] for w in spec["workloads"]}[args.workload]
    sys.path.insert(0, str(SRC))
    import irsma

    if Path(irsma.__file__).resolve().parent != (SRC / "irsma").resolve():
        print(f"error: irsma imported from {irsma.__file__}, not {SRC}", file=sys.stderr)
        return 2

    run_dir = RUNS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    runner = Runner(args.workload, args.seed, run_dir)
    if args.trace:
        metrics, chunks, info = traced_run(runner)
    else:
        metrics, chunks, info = timed_run(runner, args.seconds)
    fixed = chunks[:runner.workload.fixed_chunks]
    if not args.trace:
        info += [f"{k}: {v!r}" for k, v in quality(fixed).items() if runner.config]

    problems = [p for c in chunks for p in c.problems]
    attempted = sum(c.attempted for c in chunks)
    failed = min(len(problems), attempted)
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    facts = machine_facts()
    digest = hashlib.sha256("".join(c.digest for c in fixed).encode()).hexdigest()
    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "chunks": [[c.units, c.wall_s, c.cpu_s] for c in chunks],
        "units": sum(c.units for c in chunks),
        "outputs_sha256": digest, "failed_ratio": failed / attempted,
        "problems": problems, "machine": facts, "metrics": metrics,
    }
    (run_dir / "summary.json").write_text(json.dumps(summary, indent=1) + "\n")

    print(f"# {args.workload} ({why}); seed {args.seed}; "
          f"{len(chunks)} chunks, {summary['units']} units")
    for line in info:
        print(f"# {line}")
    print(f"# outputs sha256 (first {len(fixed)} chunks): {digest}")
    print("# machine: " + ", ".join(f"{k}={v}" for k, v in facts.items()))
    print(f"# failed_ratio: {failed}/{attempted}")
    for p in problems[:20]:
        print(f"# FAILED: {p}")
    for name in units:
        print(f"# {name}: {metrics[name]!r} {units[name]}")
    result = {
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
