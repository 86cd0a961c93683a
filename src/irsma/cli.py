"""Command-line harness: sweep, verify, profile, convergence."""

from __future__ import annotations

import argparse
import csv
import logging
import re
import sys
from pathlib import Path

import numpy as np

from . import analysis, harness, su_opt
from .config import Scenario, load_config, scenario_from_dict
from .errors import IrsmaError
from .rng import substream

_log = logging.getLogger(__name__)


def _load(args) -> tuple[Scenario, dict]:
    data = load_config(args.config) if args.config else {}
    scenario = scenario_from_dict(data.get("scenario", {}))
    if args.seed is not None:
        scenario = scenario.replace(master_seed=args.seed)
    return scenario, data


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_sweep(args) -> int:
    """Run the sweep and write its records. Returns 1 when any cell failed
    at run time; `run_sweep` catches a failed cell, so an `IrsmaError` that
    escapes is a rejection before the first cell."""
    scenario, data = _load(args)
    sweep_cfg = dict(data.get("sweep", {}))
    if args.realizations is not None:
        sweep_cfg["realizations"] = args.realizations
    if args.seed is not None:
        sweep_cfg["seed"] = args.seed
    sweep_cfg.setdefault("seed", scenario.master_seed)
    spec = harness.sweep_spec_from_dict(sweep_cfg)
    result = harness.run_sweep(spec, scenario)
    out = _outdir(args)
    result.to_csv(out / "records.csv")
    result.summary_csv(out / "summary.csv")
    for (scheme, value), (mean, hw, n) in sorted(harness.summarize(result).items()):
        print(f"{scheme:10s} {spec.parameter}={value:g}: "
              f"{mean:.4f} +/- {hw:.4f} bits/s/Hz (n={n})")
    if result.failed:
        _log.error("%d of %d cells failed", len(result.failed),
                   len(spec.values) * spec.realizations)
        return 1
    return 0


def cmd_verify(args) -> int:
    scenario, _ = _load(args)
    reports = analysis.verify_all(scenario)
    out = _outdir(args)
    ok = True
    for i, report in enumerate(reports):
        print(report.to_text())
        slug = re.sub(r"[^A-Za-z0-9]+", "_", report.title).strip("_")
        report.write_csv(out / f"verify_{i}_{slug}.csv")
        ok = ok and report.passed
    return 0 if ok else 1


def cmd_profile(args) -> int:
    """Gain fluctuation along the transmit region, optimized vs random phases."""
    scenario, _ = _load(args)
    rng = substream(scenario.master_seed, "profile")
    scen = scenario.replace(num_users=1)
    realization = harness.draw_realization(scen, rng)
    context = harness.cell_context(scen, realization)
    grid = context.fine
    h_iu = realization.h_iu[0]

    # not run_scheme: this random start is also the plotted "random" profile,
    # and run_scheme does not return the start it draws
    phi_rand = su_opt.random_reflection(rng, realization.bs_irs.geometry.num_elements)
    sol = su_opt.ao_single_user(h_iu, context.fine_columns, grid, phi_rand,
                                su_opt.fpa_indices(grid, scen.num_mas),
                                scen.transmit_power, scen.noise_power)
    labels = ("optimized", "random")
    offsets, gains, spreads = analysis.fluctuation_profile(
        h_iu, (sol.phi, phi_rand), realization.bs_irs, scen.region(),
        resolution=args.resolution)
    with open(_outdir(args) / "profile.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["reflection", "offset_m", "gain"])
        for label, gain, spread in zip(labels, gains, spreads):
            print(f"{label}: max-min spread {spread:.2f} dB")
            for s, g in zip(offsets, gain):
                writer.writerow([label, repr(float(s)), repr(float(g))])
    return 0


def cmd_convergence(args) -> int:
    """Dump the outer-loop rate trace of the joint optimizer on one draw."""
    scenario, _ = _load(args)
    rng = substream(scenario.master_seed, "convergence")
    realization = harness.draw_realization(scenario, rng)
    context = harness.cell_context(scenario, realization)
    sol = harness.run_scheme(harness.PROPOSED, scenario, context, rng=rng).solution
    if scenario.num_users == 1:
        trace = [float(np.log2(1 + g)) for g in sol.trace]
    else:
        trace = sol.trace
    with open(_outdir(args) / "convergence.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "sum_rate"])
        for i, v in enumerate(trace):
            writer.writerow([i, repr(v)])
    print(f"converged in {sol.iterations} outer iterations, "
          f"final rate {trace[-1]:.4f} bits/s/Hz")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="irsma",
        description="Simulation harness for the reflecting-surface-assisted "
                    "movable-antenna downlink.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("sweep", cmd_sweep), ("verify", cmd_verify),
                     ("profile", cmd_profile), ("convergence", cmd_convergence)):
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None, help="YAML config path")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", type=str, default="out")
        if name == "sweep":
            p.add_argument("--realizations", type=int, default=None)
            p.add_argument("--threads", type=int, choices=(1,), default=1,
                           help="sweeps run serially; the flag stays so that "
                                "benchmark scripts passing 1 still parse")
        if name == "profile":
            p.add_argument("--resolution", type=int, default=200)
        p.set_defaults(func=fn)
    return parser


def main(argv=None) -> int:
    """Run one subcommand. Each computes everything before it writes, so an
    `IrsmaError` that escapes it (a config that cannot run) has written
    nothing: it is logged as one error, and the status is 2."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except IrsmaError as exc:
        _log.error("%s rejected: %s", args.command, exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
