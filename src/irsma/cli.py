"""Command-line harness: sweep, verify, profile, convergence."""

from __future__ import annotations

import argparse
import csv
import dataclasses
import logging
import re
import sys
from pathlib import Path

from . import analysis, harness, su_opt
from .config import Scenario, load_config, scenario_from_dict
from .errors import InvalidParameterError, IrsmaError
from .rng import substream

_log = logging.getLogger(__name__)


def _load(args) -> tuple[Scenario, dict]:
    data = load_config(args.config) if args.config else {}
    scenario = scenario_from_dict(data.get("scenario"))
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
    spec = harness.sweep_spec_from_dict(data.get("sweep"))
    if args.seed is not None or "seed" not in data["sweep"]:
        spec = dataclasses.replace(spec, seed=scenario.master_seed)  # equals --seed if given
    if args.realizations is not None:
        spec = dataclasses.replace(spec, realizations=args.realizations)
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
    for i, report in enumerate(reports):
        print(report.to_text())
        slug = re.sub(r"[^A-Za-z0-9]+", "_", report.title).strip("_")
        report.write_csv(out / f"verify_{i}_{slug}.csv")
    return 0 if all(report.passed for report in reports) else 1


def _proposed_on_one_draw(scenario: Scenario, stream: str):
    """One cell drawn from the `stream` substream, its random start reflection
    and its PROPOSED solution from that start: (context, phi, solution)."""
    rng = substream(scenario.master_seed, stream)
    context = harness.cell_context(scenario, rng)
    phi = su_opt.random_reflection(rng, context.h_iu.shape[1])
    return context, phi, harness.run_scheme(harness.PROPOSED, scenario, context, phi)


def cmd_profile(args) -> int:
    """Gain fluctuation along the transmit region, optimized vs random phases."""
    if args.resolution < 1:
        raise InvalidParameterError(f"resolution must be >= 1, got {args.resolution}")
    scenario, _ = _load(args)
    # the random start is also the plotted "random" profile
    context, phi_rand, sol = _proposed_on_one_draw(scenario.replace(num_users=1), "profile")
    offsets, gains, spreads = analysis.fluctuation_profile(
        context.h_iu[0], (sol.phi, phi_rand), context.bs_irs, scenario.region(),
        resolution=args.resolution)
    with open(_outdir(args) / "profile.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["reflection", "offset_m", "gain"])
        for label, gain, spread in zip(("optimized", "random"), gains, spreads):
            print(f"{label}: max-min spread {spread:.2f} dB")
            for s, g in zip(offsets, gain):
                writer.writerow([label, repr(float(s)), repr(float(g))])
    return 0


def cmd_convergence(args) -> int:
    """Dump the outer-loop rate trace of the joint optimizer on one draw."""
    scenario, _ = _load(args)
    _, _, sol = _proposed_on_one_draw(scenario, "convergence")
    with open(_outdir(args) / "convergence.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "sum_rate"])
        for i, v in enumerate(sol.trace):
            writer.writerow([i, repr(v)])
    print(f"converged in {sol.iterations} outer iterations, "
          f"final rate {sol.rate:.4f} bits/s/Hz")
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
