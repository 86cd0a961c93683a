"""Sweep harness: schemes, determinism, persistence and the CLI surface."""

import csv
import dataclasses
import logging
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from irsma import analysis, channel, harness, mu_opt, su_opt
from irsma.cli import main as cli_main
from irsma.config import Scenario, load_config
from irsma.errors import DegenerateGeometryError, InfeasibleSpacingError, InvalidParameterError
from irsma.rng import substream

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


@pytest.fixture(scope="module")
def scenario():
    return Scenario(irs_num_y=6, irs_num_z=6, master_seed=21)


@pytest.fixture(scope="module")
def small_spec():
    return harness.SweepSpec(parameter="bs_irs_distance", values=(2.0, 5.0),
                             realizations=2, seed=21)


@pytest.fixture(scope="module")
def small_result(scenario, small_spec):
    return harness.run_sweep(small_spec, scenario)


def _no_cell(*args):
    raise AssertionError("a cell ran")


def _rejected(caplog, rc, out) -> str:
    """Check that a command that exited with `rc` and was to write into `out`
    was rejected at load: status 2, no output directory, and one log record,
    an ERROR from irsma.cli. Returns its message."""
    assert rc == 2, caplog.text
    assert not out.exists()
    assert [(r.name, r.levelno) for r in caplog.records] == [("irsma.cli", logging.ERROR)]
    return caplog.records[0].getMessage()


def _rejection(caplog, tmp_path, command, config=None, *flags) -> str:
    """Run `irsma COMMAND FLAGS`, with a config file that holds `config` unless
    it is None, and check that it is rejected at load (`_rejected`). Returns
    its message."""
    out = tmp_path / "out"
    argv = [command, *flags, "--out", str(out)]
    if config is not None:
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(config)
        argv += ["--config", str(cfg)]
    with caplog.at_level(logging.WARNING):
        rc = cli_main(argv)
    return _rejected(caplog, rc, out)


def _default_blas_env() -> dict:
    """This environment with `src` importable and no BLAS thread variable, so
    that OpenBLAS picks its own thread count."""
    blas_vars = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in blas_vars}
    env["PYTHONPATH"] = str(Path(harness.__file__).resolve().parents[1])
    return env


class TestSweepSpec:
    def test_unknown_parameter(self):
        with pytest.raises(InvalidParameterError):
            harness.SweepSpec(parameter="bogus", values=(1,))

    def test_empty_values(self):
        with pytest.raises(InvalidParameterError):
            harness.SweepSpec(parameter="region_length", values=())

    def test_unknown_scheme(self):
        with pytest.raises(InvalidParameterError):
            harness.SweepSpec(parameter="region_length", values=(0.3,),
                              schemes=("NOPE",))

    def test_bad_realizations(self):
        with pytest.raises(InvalidParameterError):
            harness.SweepSpec(parameter="region_length", values=(0.3,),
                              realizations=0)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(InvalidParameterError):
            harness.sweep_spec_from_dict({"parameter": "region_length",
                                          "values": [0.3], "bogus": 1})

    def test_apply_parameter(self, scenario):
        def apply(parameter, value):
            return scenario.replace(**{harness.SWEEPABLE[parameter]: value})

        assert apply("bs_irs_distance", 3.0).bs_distance == 3.0
        assert apply("region_length", 0.4).region_length == 0.4
        assert apply("num_paths", 4).num_paths == 4
        with pytest.raises(InvalidParameterError):
            harness.SweepSpec(parameter="bogus", values=(1,))

    def test_fractional_path_count_rejected(self, scenario, monkeypatch):
        applied = scenario.replace(**{harness.SWEEPABLE["num_paths"]: 2.0})
        assert applied.num_paths == 2 and type(applied.num_paths) is int
        with pytest.raises(InvalidParameterError, match="num_paths must be an integer"):
            scenario.replace(**{harness.SWEEPABLE["num_paths"]: 1.5})
        monkeypatch.setattr(harness, "run_cell", _no_cell)
        spec = harness.SweepSpec(parameter="num_paths", values=(1, 1.5, 1.9), realizations=1)
        with pytest.raises(InvalidParameterError, match="got 1.5 at num_paths=1.5"):
            harness.run_sweep(spec, scenario)


class TestRealization:
    def test_shared_channels_fingerprint(self, scenario):
        # the same substream gives the same draw, another one a different draw
        scen = scenario.replace(num_paths=2)
        h_a, bs_irs_a = harness.draw_realization(scen, substream(1, "c"))
        h_b, bs_irs_b = harness.draw_realization(scen, substream(1, "c"))
        np.testing.assert_array_equal(h_a, h_b)
        assert bs_irs_a.clusters == bs_irs_b.clusters
        h_c, bs_irs_c = harness.draw_realization(scen, substream(2, "c"))
        assert not np.array_equal(h_a, h_c)
        assert bs_irs_a.clusters != bs_irs_c.clusters

    def test_multipath_clusters_present(self, scenario):
        _, bs_irs = harness.draw_realization(scenario.replace(num_paths=3),
                                             substream(1, "c"))
        assert bs_irs.clusters is not None
        assert len(bs_irs.clusters.clusters) == 3


@pytest.fixture
def matrix_calls(monkeypatch):
    """Column count of every `BsIrsModel.matrix` call."""
    calls = []
    original = channel.BsIrsModel.matrix

    def counting(self, positions, los=None):
        calls.append(len(positions))
        return original(self, positions, los)

    monkeypatch.setattr(channel.BsIrsModel, "matrix", counting)
    return calls


def _context(scenario, seed=0):
    return harness.cell_context(scenario, substream(seed, "c"))


class TestCellContext:
    def test_columns_match_grids(self, scenario):
        ctx = _context(scenario)
        bs_irs = ctx.bs_irs
        np.testing.assert_array_equal(ctx.fine_columns, bs_irs.matrix(ctx.fine.points))
        # the coarse points are fine points, and their columns those fine columns
        assert ctx.coarse.points.tobytes() == ctx.fine.points[ctx.coarse_on_fine].tobytes()
        grid, columns = ctx.grid(harness.AS)
        assert grid is ctx.coarse
        assert (columns.tobytes() == ctx.fine_columns[:, ctx.coarse_on_fine].tobytes()
                == bs_irs.matrix(ctx.coarse.points).tobytes())
        for scheme in (harness.PROPOSED, harness.FPA, harness.MA_RPS, harness.FPA_RPS):
            grid, columns = ctx.grid(scheme)
            assert grid is ctx.fine and columns is ctx.fine_columns

    def test_run_cell_builds_columns_once(self, scenario, small_spec, matrix_calls):
        records = harness.run_cell(scenario.replace(bs_distance=2.0), small_spec, 0, 0)
        assert len(records) == len(harness.ALL_SCHEMES)
        assert len(matrix_calls) == 1

    def test_run_cell_without_as_builds_columns_once(self, scenario, matrix_calls):
        schemes = tuple(s for s in harness.ALL_SCHEMES if s != harness.AS)
        spec = harness.SweepSpec(parameter="bs_irs_distance", values=(2.0,),
                                 schemes=schemes, realizations=1, seed=21)
        records = harness.run_cell(scenario.replace(bs_distance=2.0), spec, 0, 0)
        assert sorted(r.scheme for r in records) == sorted(schemes)
        assert len(matrix_calls) == 1

    @pytest.mark.parametrize("num_paths", [8, 0], ids=["multipath", "los"])
    def test_sweep_shares_los_columns_per_value(self, monkeypatch, num_paths):
        # The default 15x15 surface makes the fine grid's (225, 100) columns
        # 352 KiB, above numpy's 256 KiB temporary-elision threshold, and the
        # coarse grid's (225, 20) columns 70 KiB, below it. The multipath
        # columns built on a shared LoS must round as a model without the
        # shared LoS does, on either grid.
        contexts, shares, los_builds = [], [], []
        original_context, original_los = harness.cell_context, channel.nusw_los_matrix

        def recording(scen, rng, shared=None):
            shares.append(shared)
            contexts.append(original_context(scen, rng, shared))
            return contexts[-1]

        def counting(positions, geometry, wavelength):
            los_builds.append(len(positions))
            return original_los(positions, geometry, wavelength)

        monkeypatch.setattr(harness, "cell_context", recording)
        monkeypatch.setattr(channel, "nusw_los_matrix", counting)
        spec = harness.SweepSpec(parameter="bs_irs_distance", values=(2.0, 4.0),
                                 realizations=3, seed=5)
        result = harness.run_sweep(spec, Scenario(num_users=1, num_paths=num_paths))
        assert not result.failed and len(contexts) == 6
        # the fine grid only, once per value for its three realizations
        assert los_builds == [100, 100]
        los = [shared[3] for shared in shares]
        assert all(a is los[0] for a in los[:3])
        assert all(a is los[3] for a in los[3:]) and los[3] is not los[0]
        for ctx, shared_los in zip(contexts, los):
            bs_irs = ctx.bs_irs
            alone = channel.BsIrsModel(bs_irs.geometry, bs_irs.wavelength, bs_irs.clusters)
            assert ctx.fine_columns.nbytes > 256 * 1024
            coarse_columns = ctx.grid(harness.AS)[1]
            for points, columns in ((ctx.fine.points, ctx.fine_columns),
                                    (ctx.coarse.points, coarse_columns)):
                assert columns.tobytes() == alone.matrix(points).tobytes()
            assert (coarse_columns.tobytes()
                    == ctx.fine_columns[:, ctx.coarse_on_fine].tobytes())
            with pytest.raises(ValueError, match="read-only"):
                shared_los[0, 0] = 0
            # a LoS-only cell's columns are its value's shared LoS columns
            assert (ctx.fine_columns is shared_los) == (num_paths == 0)

    def test_cell_on_its_own_builds_private_columns(self, scenario):
        ctx, other = _context(scenario), _context(scenario)
        assert ctx.fine_columns is not other.fine_columns
        assert ctx.fine_columns.tobytes() == other.fine_columns.tobytes()
        with pytest.raises(ValueError, match="read-only"):  # as in a sweep
            ctx.fine_columns[0, 0] = 0

    @pytest.mark.parametrize("num_users", [1, 3], ids=["single_user", "multi_user"])
    @pytest.mark.parametrize("arg", ["h_iu", "grid_columns"])
    def test_nonfinite_cell_rejected(self, scenario, monkeypatch, arg, num_users):
        # the first draw, or the first cell's columns, end in a NaN; in the
        # columns that is the last grid point, which is no starting position
        target = (channel, "_draw_users") if arg == "h_iu" else (channel.BsIrsModel, "matrix")
        original, calls = getattr(*target), []

        def corrupting(*args):
            out = original(*args)
            calls.append(1)
            if len(calls) == 1:
                out = out.copy()
                out.flat[-1] = np.nan
            return out

        monkeypatch.setattr(*target, corrupting)
        scen = scenario.replace(num_users=num_users)
        with pytest.raises(InvalidParameterError, match=f"^non-finite entries in {arg}$"):
            harness.cell_context(scen, substream(0, "c"))
        calls.clear()
        spec = harness.SweepSpec(parameter="bs_irs_distance", values=(2.0,),
                                 realizations=2, seed=21, schemes=(harness.FPA,))
        result = harness.run_sweep(spec, scen)
        assert result.failed == [(2.0, 0)]
        assert [(r.scheme, r.realization) for r in result.records] == [(harness.FPA, 1)]

    @pytest.mark.parametrize("num_users", [1, 3])
    def test_cell_scans_its_columns_once(self, scenario, small_spec, monkeypatch,
                                         num_users):
        # one scan in `cell_context`, none in the five schemes' solvers
        scans, original = [], su_opt._require_finite

        def counting(**arrays):
            scans.extend(name for name in arrays if name == "grid_columns")
            return original(**arrays)

        monkeypatch.setattr(su_opt, "_require_finite", counting)
        monkeypatch.setattr(mu_opt, "_require_finite", counting)
        records = harness.run_cell(scenario.replace(num_users=num_users, bs_distance=2.0),
                                   small_spec, 0, 0)
        assert len(records) == len(harness.ALL_SCHEMES)
        assert scans == ["grid_columns"]


def _start(seed, *tags):
    """A random start reflection for the 6 x 6 surfaces of these tests."""
    return su_opt.random_reflection(substream(seed, *tags), 36)


class TestRunScheme:
    def test_unknown_scheme(self, scenario):
        with pytest.raises(InvalidParameterError):
            harness.run_scheme("BOGUS", scenario, _context(scenario), _start(0, "i"))

    def test_single_user_rate_is_log_snr(self):
        s = Scenario(irs_num_y=6, irs_num_z=6, num_users=1, master_seed=4)
        context = _context(s, seed=4)
        sol = harness.run_scheme(harness.FPA, s, context, _start(4, "i"))
        assert sol.rate > 0
        gamma = su_opt.snr(context.h_iu[0], sol.phi, context.fine_columns[:, sol.indices],
                           sol.w, s.transmit_power, s.noise_power)
        assert sol.rate == np.log2(1 + gamma)

    @pytest.mark.parametrize("num_users", [1, 3])
    def test_both_loops_return_one_solution_type(self, scenario, num_users):
        s = scenario.replace(num_users=num_users)
        sol = harness.run_scheme(harness.FPA, s, _context(s), _start(0, "i"))
        assert type(sol) is su_opt.Solution
        assert sol.w.shape == ((s.num_mas,) if num_users == 1 else (s.num_mas, num_users))
        assert {type(v) for v in [sol.rate, *sol.trace]} == {float}

    @pytest.mark.parametrize("scheme", [harness.MA_RPS, harness.FPA_RPS])
    def test_random_phase_schemes_keep_their_start(self, scenario, scheme):
        phi = _start(0, "i")
        sol = harness.run_scheme(scheme, scenario, _context(scenario), phi)
        assert sol.phi.tobytes() == phi.tobytes()

    @pytest.mark.parametrize("num_users", [1, 3])
    def test_solutions_number_the_fine_grid(self, scenario, small_spec, monkeypatch,
                                            num_users):
        # AS solves on the coarse grid, yet its solution numbers fine points too
        solved, original = [], harness.run_scheme

        def recording(scheme, scen, context, *args, **kwargs):
            solved.append((scheme, context, original(scheme, scen, context, *args, **kwargs)))
            return solved[-1][2]

        monkeypatch.setattr(harness, "run_scheme", recording)
        harness.run_cell(scenario.replace(num_users=num_users, bs_distance=2.0),
                         small_spec, 0, 0)
        assert sorted(scheme for scheme, _, _ in solved) == sorted(harness.ALL_SCHEMES)
        for scheme, context, sol in solved:
            assert (context.fine.points[sol.indices].tobytes()
                    == sol.positions.tobytes()), scheme


class TestCellStarts:
    """`run_cell` starts each scheme from the phases of its warm run if it has
    one, else from the cell's "rps" draw (MA_RPS, FPA_RPS), else from the cell's
    one "init" draw, which keeps FPA's tag whichever scheme draws it."""

    @pytest.mark.parametrize("num_users", [1, 3])
    @pytest.mark.parametrize("schemes, starts", [
        (harness.ALL_SCHEMES, {harness.FPA_RPS: "rps", harness.MA_RPS: "warm rps",
                               harness.FPA: "init", harness.AS: "init",
                               harness.PROPOSED: "warm"}),
        ((harness.MA_RPS,), {harness.MA_RPS: "rps"}),
        ((harness.PROPOSED,), {harness.PROPOSED: "init"}),
        ((harness.AS, harness.PROPOSED), {harness.AS: "init", harness.PROPOSED: "warm"}),
    ], ids=["all", "ma_rps", "proposed", "as_proposed"])
    def test_start_rule(self, monkeypatch, num_users, schemes, starts):
        calls = []
        original = harness.run_scheme

        def recording(scheme, scen, context, phi, *, warm=None):
            calls.append((scheme, phi.copy(), warm))
            return original(scheme, scen, context, phi, warm=warm)

        monkeypatch.setattr(harness, "run_scheme", recording)
        scen = Scenario(irs_num_y=6, irs_num_z=6, num_users=num_users)
        spec = harness.SweepSpec(parameter="bs_irs_distance", values=(3.0,),
                                 schemes=schemes, realizations=1, seed=5)
        harness.run_cell(scen.replace(bs_distance=3.0), spec, 0, 0)
        assert {scheme: warm is not None for scheme, _, warm in calls} == {
            scheme: start.startswith("warm") for scheme, start in starts.items()}
        for scheme, phi, warm in calls:
            if starts[scheme].startswith("warm"):
                assert phi.tobytes() == warm.phi.tobytes()
            if starts[scheme].endswith("rps"):
                assert phi.tobytes() == _start(5, "rps", 0, 0).tobytes()
            elif starts[scheme] == "init":
                assert phi.tobytes() == _start(5, "init", 0, 0, harness.FPA).tobytes()


class TestZeroGainControls:
    """Where moving the antennas cannot raise the sum rate, PROPOSED may not beat
    FPA: FPA and AS share their start, so a gap here would be start noise."""

    @staticmethod
    def _worst_gain(scen) -> float:
        spec = harness.SweepSpec(parameter="bs_irs_distance", values=(2.0, 5.0),
                                 realizations=5, seed=7)
        result = harness.run_sweep(spec, scen)
        cells = {}
        for r in result.records:
            cells.setdefault((r.param, r.realization), {})[r.scheme] = r.rate
        assert not result.failed and len(cells) == 10
        return max(cell[harness.PROPOSED] - cell[harness.FPA] for cell in cells.values())

    def test_one_point_region(self):
        # every scheme's one antenna stays at the region center
        scen = Scenario(irs_num_y=6, irs_num_z=6, num_mas=1, num_users=3, region_length=0.0)
        assert self._worst_gain(scen) <= 1e-5

    def test_rank_one_far_field_channel(self, monkeypatch):
        # columns g u v(t)^H: moving an antenna turns only its column's phase,
        # which the precoder absorbs
        original = harness.draw_realization

        class FarFieldModel:
            def __init__(self, scen):
                self.scen = scen

            def matrix(self, positions, los=None):
                s = self.scen
                center = s.region().center_array
                return channel.far_field_bs_irs(
                    positions, s.geometry(), [1.0, 0.0, 0.0], -center / np.linalg.norm(center),
                    s.wavelength / (4 * np.pi * s.bs_distance), s.wavelength)

        def drawing(scen, rng):
            return original(scen, rng)[0], FarFieldModel(scen)

        monkeypatch.setattr(harness, "draw_realization", drawing)
        assert self._worst_gain(Scenario(irs_num_y=6, irs_num_z=6, num_users=3)) <= 1e-5


# one cell of the single-user multipath sweep and one of the multi-user LoS sweep
_CACHE_CELLS = {
    "k1_multipath": Scenario(num_users=1, num_paths=8, user_distance_range=(30.0, 30.0)),
    "k3_los": Scenario(num_users=3, num_paths=0),
}


def _run_cell_at_2m(monkeypatch, scen):
    """The records of one cell at 2 m, and the solution of each scheme."""
    solutions, original = {}, harness.run_scheme

    def recording(scheme, *args, **kwargs):
        solutions[scheme] = original(scheme, *args, **kwargs)
        return solutions[scheme]

    monkeypatch.setattr(harness, "run_scheme", recording)
    spec = harness.SweepSpec(parameter="bs_irs_distance", values=(2.0,), realizations=1)
    return harness.run_cell(scen.replace(bs_distance=2.0), spec, 0, 0), solutions


class TestSolveCache:
    """`run_scheme` solves through the cell's cache, `su_opt._solved`."""

    @pytest.mark.parametrize("cell", sorted(_CACHE_CELLS))
    def test_reuse_changes_no_byte(self, monkeypatch, cell):
        records, solutions = _run_cell_at_2m(monkeypatch, _CACHE_CELLS[cell])

        def straight(solves, solver, *args):
            return solver(*args)[0]

        for module in (su_opt, mu_opt):
            monkeypatch.setattr(module, "_solved", straight)
        records_off, solutions_off = _run_cell_at_2m(monkeypatch, _CACHE_CELLS[cell])
        assert records == records_off and solutions.keys() == solutions_off.keys()
        for scheme, sol in solutions.items():
            off = solutions_off[scheme]
            assert sol.phi.tobytes() == off.phi.tobytes(), scheme
            assert sol.w.tobytes() == off.w.tobytes(), scheme
            assert sol.indices == off.indices and sol.trace == off.trace, scheme

    @pytest.mark.parametrize("cell, solvers", [("k1_multipath", ("bcd_irs",)),
                                               ("k3_los", ("wmmse", "manifold_cg"))])
    def test_as_reuses_its_first_solves(self, monkeypatch, cell, solvers):
        # AS starts where FPA does, on the same antenna positions, so its first
        # solves repeat FPA's
        calls, schemes = [], []
        original_solved, original_run = su_opt._solved, harness.run_scheme

        def counting(solves, solver, *args):
            stored = len(solves)
            result = original_solved(solves, solver, *args)
            calls.append((schemes[-1], solver.__name__, len(solves) == stored))
            return result

        def running(scheme, *args, **kwargs):
            schemes.append(scheme)
            return original_run(scheme, *args, **kwargs)

        for module in (su_opt, mu_opt):
            monkeypatch.setattr(module, "_solved", counting)
        monkeypatch.setattr(harness, "run_scheme", running)
        spec = harness.SweepSpec(parameter="bs_irs_distance", values=(2.0,), realizations=1)
        harness.run_cell(_CACHE_CELLS[cell].replace(bs_distance=2.0), spec, 0, 0)
        for name in solvers:
            hits = [hit for scheme, solver, hit in calls if solver == name]
            first_as = [hit for scheme, solver, hit in calls
                        if solver == name and scheme == harness.AS][0]
            assert first_as and not hits[0], name

    def test_stored_results_are_read_only(self, monkeypatch):
        _, solutions = _run_cell_at_2m(monkeypatch, _CACHE_CELLS["k3_los"])
        for sol in (solutions[harness.FPA], solutions[harness.AS]):
            with pytest.raises(ValueError, match="read-only"):
                sol.phi[0] = 1.0


class TestCellOrderings:
    def test_proposed_dominates_per_instance(self, small_result):
        by = {}
        for r in small_result.records:
            by.setdefault((r.param, r.realization), {})[r.scheme] = r.rate
        for cell in by.values():
            assert cell[harness.PROPOSED] >= cell[harness.FPA] - 1e-9
            assert cell[harness.PROPOSED] >= cell[harness.AS] - 1e-9
            assert cell[harness.MA_RPS] >= cell[harness.FPA_RPS] - 1e-9


class TestRunSweep:
    def test_record_count(self, small_result, small_spec):
        expected = (len(small_spec.values) * len(small_spec.schemes)
                    * small_spec.realizations)
        assert len(small_result.records) == expected
        keys = {(r.scheme, r.param, r.realization) for r in small_result.records}
        assert len(keys) == expected

    def test_byte_identical_csv(self, scenario, small_spec, small_result,
                                tmp_path):
        rerun = harness.run_sweep(small_spec, scenario)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        small_result.to_csv(p1)
        rerun.to_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_csv_schema(self, small_result, tmp_path):
        path = tmp_path / "records.csv"
        small_result.to_csv(path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["scheme", "param", "realization", "metric", "value"]
        metrics = {r[3] for r in rows[1:]}
        assert metrics == {"sum_rate", "iterations"}

    def test_unfit_layout_rejected_before_first_cell(self, monkeypatch):
        # a 0.01 m region cannot hold 4 antennas, so every cell would fail
        monkeypatch.setattr(harness, "run_cell", _no_cell)
        bad = Scenario(irs_num_y=6, irs_num_z=6, region_length=0.01, master_seed=0)
        spec = harness.SweepSpec(parameter="bs_irs_distance", values=(2.0,),
                                 realizations=1, seed=0)
        with pytest.raises(InfeasibleSpacingError,
                           match="2-point grid at bs_irs_distance=2.0"):
            harness.run_sweep(spec, bad)

    def test_negative_length_rejected_before_first_cell(self, scenario, monkeypatch):
        monkeypatch.setattr(harness, "run_cell", _no_cell)
        spec = harness.SweepSpec(parameter="region_length", values=(0.3, -0.1),
                                 realizations=1)
        with pytest.raises(InvalidParameterError,
                           match="non-negative at region_length=-0.1$"):
            harness.run_sweep(spec, scenario)

    @pytest.mark.parametrize("parameter, values, repeat", [
        ("bs_irs_distance", (2.0, 4.0, 2), "2"),
        ("num_paths", (0, 1, 1.0), "1.0"),
    ], ids=["float_and_int", "int_and_float"])
    def test_repeated_value_rejected_before_first_cell(self, scenario, monkeypatch,
                                                       parameter, values, repeat):
        # its records would pool with those of the first in `summary.csv`
        monkeypatch.setattr(harness, "run_cell", _no_cell)
        spec = harness.SweepSpec(parameter=parameter, values=values, realizations=1)
        with pytest.raises(InvalidParameterError,
                           match=f"^sweep value repeats an earlier one at {parameter}={repeat}$"):
            harness.run_sweep(spec, scenario)

    def test_one_failed_cell_is_logged(self, scenario, monkeypatch, caplog):
        original = harness.cell_context

        def failing(scen, rng, shared=None):
            if scen.bs_distance == 5.0:
                raise InfeasibleSpacingError("forced")
            return original(scen, rng, shared)

        monkeypatch.setattr(harness, "cell_context", failing)
        spec = harness.SweepSpec(parameter="bs_irs_distance", values=(2.0, 5.0),
                                 realizations=1, seed=21, schemes=(harness.FPA,))
        with caplog.at_level(logging.WARNING, logger="irsma.harness"):
            res = harness.run_sweep(spec, scenario)
        assert [(r.scheme, r.param) for r in res.records] == [(harness.FPA, 2.0)]
        warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == 1
        assert warnings[0].name == "irsma.harness"
        assert "value=5.0 realization=0 failed" in warnings[0].getMessage()
        assert "forced" in warnings[0].getMessage()

    def test_failed_los_build_fails_each_cell_of_its_value(self, scenario, monkeypatch):
        # nothing is kept from a value whose LoS build raised, so each of its
        # cells builds again and fails; the load-time checks build no columns
        original, builds = channel.nusw_los_matrix, []

        def failing(positions, geometry, wavelength):
            builds.append(len(positions))
            if np.linalg.norm(positions.mean(axis=0)) < 3:  # the 2 m value
                raise DegenerateGeometryError("forced")
            return original(positions, geometry, wavelength)

        monkeypatch.setattr(channel, "nusw_los_matrix", failing)
        spec = harness.SweepSpec(parameter="bs_irs_distance", values=(2.0, 5.0),
                                 realizations=2, seed=21, schemes=(harness.FPA,))
        result = harness.run_sweep(spec, scenario)
        assert result.failed == [(2.0, 0), (2.0, 1)]
        assert [(r.param, r.realization) for r in result.records] == [(5.0, 0), (5.0, 1)]
        assert builds == [100, 100, 100]

    def test_one_scenario_per_value(self, scenario, monkeypatch):
        # the load-time check builds each value's scenario, and every cell of
        # the value runs on it
        applied, cells = [], []
        original_replace, original_cell = Scenario.replace, harness.run_cell

        def counting(scen, **kwargs):
            applied.append(kwargs)
            return original_replace(scen, **kwargs)

        def recording(scen, *args):
            cells.append(scen)
            return original_cell(scen, *args)

        monkeypatch.setattr(Scenario, "replace", counting)
        monkeypatch.setattr(harness, "run_cell", recording)
        spec = harness.SweepSpec(parameter="bs_irs_distance", values=(2.0, 5.0),
                                 realizations=3, seed=21, schemes=(harness.FPA,))
        result = harness.run_sweep(spec, scenario)
        assert not result.failed and len(result.records) == 6
        assert applied == [{"bs_distance": 2.0}, {"bs_distance": 5.0}]
        assert [scen.bs_distance for scen in cells] == [2.0] * 3 + [5.0] * 3
        assert cells[0] is cells[2] and cells[3] is cells[5]

    def test_programming_error_propagates(self, scenario, monkeypatch):
        def broken(scen, rng, shared=None):
            raise TypeError("forced bug")

        monkeypatch.setattr(harness, "cell_context", broken)
        spec = harness.SweepSpec(parameter="bs_irs_distance", values=(2.0,),
                                 realizations=1, seed=21, schemes=(harness.FPA,))
        with pytest.raises(TypeError, match="forced bug"):
            harness.run_sweep(spec, scenario)


class TestSummarize:
    def test_single_realization(self):
        spec = harness.SweepSpec(parameter="bs_irs_distance", values=(1.0,),
                                 realizations=1)
        res = harness.SweepResult(spec, [
            harness.Record("FPA", 1.0, 0, 3.5, 2)])
        out = harness.summarize(res)
        assert out[("FPA", 1.0)] == (3.5, 0.0, 1)

    def test_constant_records_zero_halfwidth(self):
        spec = harness.SweepSpec(parameter="bs_irs_distance", values=(1.0,),
                                 realizations=2)
        res = harness.SweepResult(spec, [
            harness.Record("FPA", 1.0, 0, 2.0, 1),
            harness.Record("FPA", 1.0, 1, 2.0, 1)])
        mean, hw, n = harness.summarize(res)[("FPA", 1.0)]
        assert (mean, hw, n) == (2.0, 0.0, 2)

    def test_mean_of_two_four(self):
        spec = harness.SweepSpec(parameter="bs_irs_distance", values=(1.0,),
                                 realizations=2)
        res = harness.SweepResult(spec, [
            harness.Record("FPA", 1.0, 0, 2.0, 1),
            harness.Record("FPA", 1.0, 1, 4.0, 1)])
        mean, hw, n = harness.summarize(res)[("FPA", 1.0)]
        assert mean == 3.0 and n == 2 and hw > 0


class TestCli:
    def test_sweep_subcommand(self, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(
            "scenario: {irs_num_y: 6, irs_num_z: 6, num_users: 1}\n"
            "sweep: {parameter: bs_irs_distance, values: [2.0], realizations: 1,"
            " schemes: [FPA, PROPOSED]}\n")
        out = tmp_path / "out"
        rc = cli_main(["sweep", "--config", str(cfg), "--seed", "3",
                       "--out", str(out)])
        assert rc == 0
        assert (out / "records.csv").exists()
        assert (out / "summary.csv").exists()

    def test_verify_subcommand(self, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("scenario: {irs_num_y: 6, irs_num_z: 6}\n")
        out = tmp_path / "out"
        rc = cli_main(["verify", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        assert any(out.glob("verify_*.csv"))

    def test_verify_claims_script(self, tmp_path):
        # the script runs from a checkout, where no `irsma` command is installed
        script = Path(__file__).resolve().parents[1] / "scripts" / "verify_claims.sh"
        out = tmp_path / "out"
        proc = subprocess.run(["bash", str(script), "--out", str(out)],
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert len(list(out.glob("verify_*.csv"))) == 4

    def test_records_independent_of_blas_threads(self, tmp_path):
        """A sweep writes the same records with BLAS on one thread as with
        the thread count OpenBLAS picks. On the 15x15 surface and the
        100-point grid, each product against the grid columns exceeds the
        4,096 entries from which OpenBLAS threads a product; on the 33x33
        surface, so does the manifold CG's (9, 1089) gradient product."""
        configs = {
            "multi_user": "sweep: {parameter: bs_irs_distance, values: [3.0], "
                          "realizations: 1}",
            "multi_user_33x33": "scenario: {irs_num_y: 33, irs_num_z: 33}\n"
                                "sweep: {parameter: bs_irs_distance, values: [3.0], "
                                "realizations: 2}",
            "single_user": "scenario: {num_users: 1, num_paths: 8}\n"
                           "sweep: {parameter: bs_irs_distance, values: [3.0], "
                           "realizations: 2}",
        }
        threaded = _default_blas_env()
        for name, text in configs.items():
            cfg = tmp_path / f"{name}.yaml"
            cfg.write_text(text + "\n")
            records = []
            for label, env in (("one", dict(threaded, OPENBLAS_NUM_THREADS="1")),
                               ("default", threaded)):
                out = tmp_path / f"{name}_{label}"
                subprocess.run([sys.executable, "-m", "irsma.cli", "sweep", "--config",
                                str(cfg), "--out", str(out)], env=env, check=True,
                               capture_output=True, timeout=120)
                records.append((out / "records.csv").read_bytes())
            assert records[0] == records[1], name

    @pytest.mark.parametrize("args", [
        ["verify", "--seed", "1000"],
        ["profile", "--config", "configs/single_user_equivalence.yaml"],
        ["convergence"],
    ], ids=["verify", "profile", "convergence"])
    def test_outputs_independent_of_blas_threads(self, tmp_path, args):
        """`verify`, `profile` and `convergence` print and write the same
        bytes with BLAS on one thread as with the thread count OpenBLAS picks."""
        threaded = _default_blas_env()
        outputs = []
        for label, env in (("one", dict(threaded, OPENBLAS_NUM_THREADS="1")),
                           ("default", threaded)):
            out = tmp_path / label
            proc = subprocess.run([sys.executable, "-m", "irsma.cli", *args, "--out",
                                   str(out)], env=env, capture_output=True, timeout=120,
                                  cwd=Path(__file__).resolve().parents[1])
            assert proc.returncode == 0, proc.stderr
            files = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
            outputs.append((proc.stdout, files))
        assert outputs[0][1] and outputs[0] == outputs[1]

    def test_profile_subcommand(self, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("scenario: {irs_num_y: 6, irs_num_z: 6}\n")
        out = tmp_path / "out"
        rc = cli_main(["profile", "--config", str(cfg), "--out", str(out),
                       "--resolution", "40"])
        assert rc == 0
        assert (out / "profile.csv").exists()

    def test_profile_builds_segment_columns_once(self, tmp_path, matrix_calls):
        # the fine grid for the optimizer, then one segment build shared by
        # the optimized and the random reflection
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("scenario: {irs_num_y: 6, irs_num_z: 6}\n")
        rc = cli_main(["profile", "--config", str(cfg), "--out", str(tmp_path / "out"),
                       "--resolution", "40"])
        assert rc == 0
        assert matrix_calls == [100, 40]

    @pytest.mark.parametrize("command", ["verify", "profile", "convergence"])
    @pytest.mark.parametrize("flag", ["--threads", "--realizations"])
    def test_sweep_only_flags_rejected(self, command, flag):
        with pytest.raises(SystemExit) as exc:
            cli_main([command, flag, "2"])
        assert exc.value.code == 2

    def test_threads_flag_accepts_only_one(self, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(
            "scenario: {irs_num_y: 6, irs_num_z: 6, num_users: 1}\n"
            "sweep: {parameter: bs_irs_distance, values: [2.0], realizations: 1,"
            " schemes: [FPA]}\n")
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            cli_main(["sweep", "--config", str(cfg), "--threads", "2", "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()
        assert cli_main(["sweep", "--config", str(cfg), "--threads", "1",
                         "--out", str(out)]) == 0
        assert (out / "records.csv").exists()

    @pytest.mark.parametrize("num_users", [1, 3])
    def test_zero_length_region_runs_one_antenna(self, tmp_path, monkeypatch, num_users):
        # a 0 m region is one grid point, so the movable antenna stays at the
        # region center like the fixed one
        placed = []
        original = harness.run_scheme

        def recording(scheme, scen, context, *args, **kwargs):
            sol = original(scheme, scen, context, *args, **kwargs)
            placed.append((scen.region_length, scen.region().center_array,
                           sol.positions))
            return sol

        monkeypatch.setattr(harness, "run_scheme", recording)
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(
            f"scenario: {{irs_num_y: 6, irs_num_z: 6, num_mas: 1, num_users: {num_users}}}\n"
            "sweep: {parameter: region_length, values: [0.0, 0.3], realizations: 2}\n")
        out = tmp_path / "out"
        assert cli_main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        at_zero = [(center, pos) for length, center, pos in placed if length == 0.0]
        assert len(at_zero) == 2 * len(harness.ALL_SCHEMES)
        for center, pos in at_zero:
            np.testing.assert_array_equal(pos, [center])
        with open(out / "records.csv") as fh:
            rows = [r for r in csv.DictReader(fh) if r["metric"] == "sum_rate"]
        assert {r["param"] for r in rows} == {"0.0", "0.3"}
        rates = {}
        for r in rows:
            if r["param"] == "0.0":
                rates.setdefault(r["realization"], {})[r["scheme"]] = float(r["value"])
        # equal up to the outer loops' relative stopping tolerance; for one
        # user the optimized phases co-phase the single antenna's cascade, so
        # the phase-optimizing schemes meet too
        pairs = [(harness.MA_RPS, harness.FPA_RPS)]
        if num_users == 1:
            pairs += [(harness.PROPOSED, harness.FPA), (harness.AS, harness.FPA)]
        for cell in rates.values():
            for ma, fpa in pairs:
                assert cell[ma] == pytest.approx(cell[fpa], rel=1e-3)

    def test_zero_length_region_rejects_four_antennas(self, tmp_path, caplog):
        assert _rejection(
            caplog, tmp_path, "sweep",
            "scenario: {irs_num_y: 6, irs_num_z: 6, num_mas: 4}\n"
            "sweep: {parameter: region_length, values: [0.0, 0.3], realizations: 1}\n") == (
            "sweep rejected: 4 antennas 5 grid steps apart do not fit on the 1-point "
            "grid at region_length=0.0")
        # a library call raises the same rejection
        spec = harness.SweepSpec(parameter="region_length", values=(0.0, 0.3),
                                 realizations=1, schemes=(harness.FPA,))
        with pytest.raises(InfeasibleSpacingError,
                           match="1-point grid at region_length=0.0"):
            harness.run_sweep(spec, Scenario(irs_num_y=6, irs_num_z=6))

    def test_scenario_num_realizations_rejected_at_load(self, tmp_path, caplog):
        assert _rejection(caplog, tmp_path, "verify", "scenario: {num_realizations: 5}\n") == (
            "verify rejected: unknown scenario keys: ['num_realizations']")

    def test_negative_swept_length_rejected_at_load(self, tmp_path, monkeypatch, caplog):
        monkeypatch.setattr(harness, "run_cell", _no_cell)
        assert _rejection(
            caplog, tmp_path, "sweep",
            "scenario: {irs_num_y: 6, irs_num_z: 6}\n"
            "sweep: {parameter: region_length, values: [-0.1, 0.3], realizations: 1}\n") == (
            "sweep rejected: region length must be non-negative at region_length=-0.1")

    @pytest.mark.parametrize("command", ["verify", "profile", "convergence"])
    def test_negative_region_length_rejected_at_load(self, tmp_path, caplog, command):
        config = "scenario: {irs_num_y: 6, irs_num_z: 6, region_length: -0.1}\n"
        assert _rejection(caplog, tmp_path, command, config) == (
            f"{command} rejected: region length must be non-negative")

    @pytest.mark.parametrize("distance", [0.0, -2.0])
    @pytest.mark.parametrize("command", ["sweep", "verify", "profile", "convergence"])
    def test_nonpositive_bs_distance_rejected_at_load(self, tmp_path, monkeypatch, caplog,
                                                      command, distance):
        # a base station on or behind the surface has no link to model
        monkeypatch.setattr(harness, "run_cell", _no_cell)
        assert _rejection(
            caplog, tmp_path, command,
            f"scenario: {{irs_num_y: 6, irs_num_z: 6, bs_distance: {distance}}}\n"
            f"sweep: {{parameter: bs_irs_distance, values: [2.0], realizations: 1}}\n") == (
            f"{command} rejected: bs_distance must be positive")

    @pytest.mark.parametrize("distance", [0.0, -2.0])
    def test_nonpositive_swept_bs_distance_rejected_at_load(self, tmp_path, monkeypatch,
                                                            caplog, distance):
        # rejected before the first cell, with no partial records
        monkeypatch.setattr(harness, "run_cell", _no_cell)
        assert _rejection(
            caplog, tmp_path, "sweep",
            "scenario: {irs_num_y: 6, irs_num_z: 6, region_length: 0.606}\n"
            f"sweep: {{parameter: bs_irs_distance, values: [{distance}, 2.0],"
            " realizations: 1}\n") == (
            f"sweep rejected: bs_distance must be positive at bs_irs_distance={distance}")

    @pytest.mark.parametrize("command", ["sweep", "verify", "profile", "convergence"])
    def test_region_behind_the_surface_rejected_at_load(self, tmp_path, monkeypatch, caplog,
                                                        command):
        # at 0.2 m, 26 of the 0.6 m segment's 100 fine points lie at x < 0
        monkeypatch.setattr(harness, "run_cell", _no_cell)
        assert _rejection(
            caplog, tmp_path, command,
            "scenario: {irs_num_y: 6, irs_num_z: 6, num_users: 1, bs_distance: 0.2}\n"
            "sweep: {parameter: bs_irs_distance, values: [2.0], realizations: 1}\n") == (
            f"{command} rejected: transmit region must lie in front of the surface")

    def test_swept_region_behind_the_surface_rejected_at_load(self, tmp_path, monkeypatch,
                                                              caplog):
        monkeypatch.setattr(harness, "run_cell", _no_cell)
        assert _rejection(
            caplog, tmp_path, "sweep",
            "scenario: {irs_num_y: 6, irs_num_z: 6, num_users: 1}\n"
            "sweep: {parameter: bs_irs_distance, values: [2.0, 0.2], realizations: 1}\n") == (
            "sweep rejected: transmit region must lie in front of the surface"
            " at bs_irs_distance=0.2")

    @pytest.mark.parametrize("config, message", [
        ("sweep: {parameter: bogus, values: [1.0]}",
         "unknown sweep parameter 'bogus'"),
        ("sweep: {parameter: bs_irs_distance, values: [2.0], bogus: 1}",
         "unknown sweep keys: ['bogus']"),
        ("scenario: {region_length: -0.1}\n"
         "sweep: {parameter: bs_irs_distance, values: [2.0]}",
         "region length must be non-negative"),
        ("scenario: {bogus: 1}\nsweep: {parameter: bs_irs_distance, values: [2.0]}",
         "unknown scenario keys: ['bogus']"),
        ("sweep: {parameter: bs_irs_distance, values: [2.0], seed: -3}",
         "sweep seed must be >= 0"),
        # YAML 1.1 reads 1e3, without a dot, as a string
        ("sweep: {parameter: bs_irs_distance, values: [2.0], realizations: 1e3}",
         "sweep realizations must be an integer, got '1e3'"),
        ("sweep: {parameter: bs_irs_distance, values: [2.0], seed: 1.5}",
         "sweep seed must be an integer, got 1.5"),
        ("sweep: {parameter: bs_irs_distance, values: 2.0}",
         "sweep values must be a non-empty list, got 2.0"),
        ("sweep: {parameter: bs_irs_distance, values: [2.0], schemes: FPA}",
         "sweep schemes must be a non-empty list, got 'FPA'"),
        ("sweep: {parameter: [bs_irs_distance], values: [2.0]}",
         "unknown sweep parameter ['bs_irs_distance']"),
        (None, "missing sweep keys: ['parameter', 'values']"),
        ("scenario: {irs_num_y: 6}", "missing sweep keys: ['parameter', 'values']"),
        ("sweep:", "missing sweep keys: ['parameter', 'values']"),
        ("sweep: {parameter: bs_irs_distance, realizations: 1}",
         "missing sweep keys: ['values']"),
        ("sweep: 5", "sweep section must be a mapping, got 5"),
        ("scenario: foo\nsweep: {parameter: bs_irs_distance, values: [2.0]}",
         "scenario section must be a mapping, got 'foo'"),
        ("- sweep", "a config must be a mapping, got list"),
        ("sweep: {parameter: bs_irs_distance, values: [2.0], realizations: true}",
         "sweep realizations must be an integer, got True"),
        ("sweep: {parameter: bs_irs_distance, values: [2.0], seed: false}",
         "sweep seed must be an integer, got False"),
        ("sweep: {parameter: bs_irs_distance, values: [2.0, 2]}",
         "sweep value repeats an earlier one at bs_irs_distance=2"),
    ], ids=["bogus_parameter", "unknown_sweep_key", "bad_scenario_value",
            "unknown_scenario_key", "negative_seed", "string_realizations",
            "fractional_seed", "scalar_values", "scalar_schemes", "list_parameter",
            "no_config", "no_sweep_section", "null_sweep_section", "missing_values",
            "scalar_sweep_section", "scalar_scenario_section", "list_config",
            "bool_realizations", "bool_seed", "repeated_value"])
    def test_bad_sweep_config_rejected_with_status_2(self, tmp_path, caplog, config,
                                                    message):
        config = None if config is None else config + "\n"
        assert _rejection(caplog, tmp_path, "sweep", config) == f"sweep rejected: {message}"

    @pytest.mark.parametrize("command", ["sweep", "verify"])
    @pytest.mark.parametrize("scenario_cfg, message", [
        ("user_distance_range: [-50, -30]", "user distances must be positive"),
        ("user_distance_range: [0, 0]", "user distances must be positive"),
        ("rician_factor: .inf", "rician_factor must be finite, got inf"),
        ("irs_num_y: 0", "element counts must be positive"),
        ("num_mas: 2.5", "num_mas must be an integer, got 2.5"),
        # YAML 1.1 reads a number without a dot, such as 5e9, as a string
        ("carrier_frequency: 5e9", "carrier_frequency must be a number, got '5e9'"),
        ("master_seed: -1", "master_seed must be >= 0"),
        ("user_distance_range: 40", "user_distance_range must be 2 numbers, got 40"),
        ("user_distance_range: [30]", "user_distance_range must be 2 numbers, got (30,)"),
        ("bs_direction: [1, 0]", "bs_direction must be 3 numbers, got (1, 0)"),
        ("num_mas: [1, 2]", "num_mas must be a number, got (1, 2)"),
        ("user_distance_range: [50, 30]",
         "user_distance_range must be (low, high), got (50, 30)"),
        ("user_azimuth_range: [1.0, -1.0]",
         "user_azimuth_range must be (low, high), got (1.0, -1.0)"),
        # a YAML bool is a numbers.Real, and would load as 1
        ("num_mas: true", "num_mas must be a number, got True"),
        ("bs_direction: [1, 0, true]", "bs_direction must be a number, got (1, 0, True)"),
        # keys of mixed types, which `sorted` alone cannot order
        ("1: 2, a: 3", "unknown scenario keys: [1, 'a']"),
        # checked with or without scattered paths, since a num_paths sweep may start at 0
        ("scatterer_box_size: [0, 2, 2]", "scatterer box must have positive side lengths"),
        # the surface in x = 0 faces +x, and a user lies along cos(el) cos(az) in x
        ("user_azimuth_range: [3.0, 3.1]",
         "user_azimuth_range must lie in (-pi/2, pi/2), got (3.0, 3.1)"),
        ("user_elevation_range: [-1.6, 0.0]",
         "user_elevation_range must lie in (-pi/2, pi/2), got (-1.6, 0.0)"),
        # gains would grow with distance
        ("pathloss_exponent: -3", "pathloss_exponent must be >= 0, got -3.0"),
    ], ids=["negative_distances", "zero_distances", "infinite_rician_factor",
            "empty_surface", "fractional_antenna_count", "string_frequency",
            "negative_master_seed", "scalar_range", "short_range", "short_direction",
            "list_count", "reversed_distance_range", "reversed_azimuth_range",
            "bool_count", "bool_direction", "non_string_keys", "zero_box_side",
            "azimuth_behind_the_surface", "elevation_behind_the_surface",
            "negative_pathloss_exponent"])
    def test_bad_scenario_rejected_at_load(self, tmp_path, monkeypatch, caplog, command,
                                           scenario_cfg, message):
        # rejected before any cell or check runs
        monkeypatch.setattr(harness, "run_cell", _no_cell)
        monkeypatch.setattr(analysis, "verify_all", _no_cell)
        config = (f"scenario: {{irs_num_z: 6, {scenario_cfg}}}\n"
                  "sweep: {parameter: bs_irs_distance, values: [2.0], realizations: 1}\n")
        assert _rejection(caplog, tmp_path, command, config) == f"{command} rejected: {message}"

    @pytest.mark.parametrize("command", ["verify", "profile", "convergence"])
    @pytest.mark.parametrize("config, message", [
        ("scenario: foo", "scenario section must be a mapping, got 'foo'"),
        ("- scenario", "a config must be a mapping, got list"),
    ], ids=["scalar_scenario_section", "list_config"])
    def test_malformed_config_rejected_at_load(self, tmp_path, caplog, command, config,
                                               message):
        # `sweep` is a case of test_bad_sweep_config_rejected_with_status_2
        assert _rejection(caplog, tmp_path, command, config + "\n") == (
            f"{command} rejected: {message}")

    @pytest.mark.parametrize("command", ["sweep", "verify", "profile", "convergence"])
    @pytest.mark.parametrize("content, detail", [
        (None, "[Errno 2] No such file or directory: '{path}'"),
        (b"scenario: {a: [1, 2}\n",
         "while parsing a flow sequence in \"{path}\", line 1, column 15 expected ',' "
         "or ']', but got '}}' in \"{path}\", line 1, column 20"),
        (b"\xff scenario: {}\n",
         "unacceptable character #x00ff: invalid start byte in \"{path}\", position 0"),
    ], ids=["missing_file", "bad_yaml", "not_utf8"])
    def test_unreadable_config_rejected(self, tmp_path, caplog, command, content, detail):
        # one error line, not a traceback with the status of a failed cell or check
        cfg = tmp_path / "cfg.yaml"
        if content is not None:
            cfg.write_bytes(content)
        assert _rejection(caplog, tmp_path, command, None, "--config", str(cfg)) == (
            f"{command} rejected: cannot load config {cfg}: {detail.format(path=cfg)}")

    @pytest.mark.parametrize("command", ["sweep", "verify", "profile", "convergence"])
    @pytest.mark.parametrize("config, key, mapping_at, key_at", [
        ("scenario: {irs_num_y: 6, irs_num_z: 6, num_mas: 4, num_mas: 2}\n"
         "sweep: {parameter: bs_irs_distance, values: [2.0], realizations: 1}\n",
         "num_mas", (1, 11), (1, 52)),
        ("scenario: {irs_num_y: 6, irs_num_z: 6}\n"
         "sweep: {parameter: bs_irs_distance, values: [2.0], realizations: 1}\n"
         "sweep: {parameter: bs_irs_distance, values: [3.0], realizations: 1}\n",
         "sweep", (1, 1), (3, 1)),
    ], ids=["scenario_key", "sweep_section"])
    def test_repeated_key_rejected(self, tmp_path, caplog, command, config, key,
                                   mapping_at, key_at):
        # PyYAML would keep the last of the two values without a word
        message = _rejection(caplog, tmp_path, command, config)
        cfg = tmp_path / "cfg.yaml"
        detail = (f"while constructing a mapping in \"{cfg}\", line {mapping_at[0]}, "
                  f"column {mapping_at[1]} found repeated key '{key}' in \"{cfg}\", "
                  f"line {key_at[0]}, column {key_at[1]}")
        assert message == f"{command} rejected: cannot load config {cfg}: {detail}"

    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.yaml")), ids=lambda p: p.stem)
    def test_shipped_config_loads_as_plain_yaml(self, path):
        with open(path, "rb") as fh:
            assert load_config(path) == yaml.safe_load(fh)

    @pytest.mark.parametrize("config", ["sweep: 5", "scenario:\nsweep: {bogus: 1}", ""],
                             ids=["scalar_sweep_section", "null_scenario_section",
                                  "empty_config"])
    def test_verify_reads_only_the_scenario_section(self, tmp_path, monkeypatch, config):
        # only `sweep` reads the sweep section, and a null section is the defaults
        scenarios = []
        monkeypatch.setattr(analysis, "verify_all", lambda s: scenarios.append(s) or [])
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(config + "\n")
        assert cli_main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        assert scenarios == [Scenario()]

    @pytest.mark.parametrize("resolution", ["0", "-3"])
    def test_profile_resolution_below_one_rejected(self, tmp_path, caplog, resolution):
        assert _rejection(caplog, tmp_path, "profile", None, "--resolution", resolution) == (
            f"profile rejected: resolution must be >= 1, got {resolution}")

    def test_profile_resolution_one_runs(self, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("scenario: {irs_num_y: 6, irs_num_z: 6}\n")
        out = tmp_path / "out"
        assert cli_main(["profile", "--config", str(cfg), "--out", str(out),
                         "--resolution", "1"]) == 0
        with open(out / "profile.csv") as fh:
            rows = list(csv.reader(fh))
        assert [r[0] for r in rows[1:]] == ["optimized", "random"]  # one point each

    @pytest.mark.parametrize("command", ["sweep", "verify", "profile", "convergence"])
    def test_negative_seed_flag_rejected_at_load(self, tmp_path, caplog, command):
        config = ("scenario: {irs_num_y: 6, irs_num_z: 6}\n"
                  "sweep: {parameter: bs_irs_distance, values: [2.0], realizations: 1}\n")
        assert _rejection(caplog, tmp_path, command, config, "--seed", "-1") == (
            f"{command} rejected: master_seed must be >= 0")

    def test_fractional_path_count_rejected_at_load(self, tmp_path, monkeypatch, caplog):
        monkeypatch.setattr(harness, "run_cell", _no_cell)
        assert _rejection(
            caplog, tmp_path, "sweep",
            "scenario: {irs_num_y: 6, irs_num_z: 6}\n"
            "sweep: {parameter: num_paths, values: [1, 1.5, 1.9], realizations: 1}\n") == (
            "sweep rejected: num_paths must be an integer, got 1.5 at num_paths=1.5")

    def test_infeasible_layout_rejected_at_load(self, tmp_path, monkeypatch, caplog):
        monkeypatch.setattr(harness, "run_cell", _no_cell)
        assert _rejection(
            caplog, tmp_path, "sweep",
            "scenario: {irs_num_y: 6, irs_num_z: 6, num_mas: 30}\n"
            "sweep: {parameter: bs_irs_distance, values: [2.0, 3.0], realizations: 1}\n") == (
            "sweep rejected: 30 antennas 5 grid steps apart do not fit on the "
            "100-point grid at bs_irs_distance=2.0")

    def test_failed_cell_sets_exit_status(self, tmp_path, monkeypatch, caplog):
        original = harness.cell_context

        def failing(scen, rng, shared=None):
            if scen.bs_distance == 5.0:
                raise InfeasibleSpacingError("forced")
            return original(scen, rng, shared)

        monkeypatch.setattr(harness, "cell_context", failing)
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(
            "scenario: {irs_num_y: 6, irs_num_z: 6}\n"
            "sweep: {parameter: bs_irs_distance, values: [2.0, 5.0], realizations: 1,"
            " schemes: [FPA]}\n")
        out = tmp_path / "out"
        with caplog.at_level(logging.WARNING):
            rc = cli_main(["sweep", "--config", str(cfg), "--seed", "3", "--out", str(out)])
        assert rc == 1
        with open(out / "records.csv") as fh:
            rows = list(csv.reader(fh))
        assert {(r[0], r[1]) for r in rows[1:]} == {("FPA", "2.0")}
        errors = [r for r in caplog.records if r.levelno == logging.ERROR]
        assert [(r.name, r.getMessage()) for r in errors] == [
            ("irsma.cli", "1 of 2 cells failed")]

    def test_convergence_subcommand(self, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("scenario: {irs_num_y: 6, irs_num_z: 6}\n")
        out = tmp_path / "out"
        rc = cli_main(["convergence", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        with open(out / "convergence.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["iteration", "sum_rate"]
        rates = [float(r[1]) for r in rows[1:]]
        assert all(b >= a - 1e-9 for a, b in zip(rates, rates[1:]))


# The load boundary, fuzzed. Each Scenario field draws from values its
# checks admit, values they exclude, and values of the wrong type. In range,
# sizes stay small (at most 5 x 5 elements, 4 antennas, 3 users, 3 paths and
# 200 grid points), so a config that runs is one small cell.
def _floats(low, high):
    return st.floats(low, high, allow_nan=False, allow_infinity=False)


def _vector(entry, size):
    return st.lists(entry, min_size=size, max_size=size)


def _pair(low, high):
    return _vector(_floats(low, high), 2).map(sorted)


def _spoiled(vector, entry):
    """`vector` with one entry replaced by a value from `entry`."""
    return st.tuples(vector, st.integers(0, 2), entry).map(
        lambda t: [e if i != t[1] % len(t[0]) else t[2] for i, e in enumerate(t[0])])


_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
_HALF_PI = math.pi / 2
# field -> (values its checks admit, values they exclude); a bs_direction
# with x <= 0 puts the region centre, and so one of its ends, at x <= 0
_FIELDS = {
    "carrier_frequency": (_floats(1e9, 1e10), _floats(-1e10, 0) | _NON_FINITE),
    "num_mas": (st.integers(1, 4), st.integers(-3, 0) | st.just(2.5)),
    "num_users": (st.integers(1, 3), st.integers(-3, 0) | st.just(1.5)),
    "transmit_power": (_floats(1e-3, 10.0), _floats(-1.0, 0) | _NON_FINITE),
    "noise_power": (_floats(1e-10, 1e-6), _floats(-1.0, 0) | _NON_FINITE),
    "min_spacing": (st.none() | _floats(3e-3, 0.1), _floats(-1.0, 0) | _NON_FINITE),
    "sample_spacing": (st.none() | _floats(3e-3, 0.05), _floats(-1.0, 0) | _NON_FINITE),
    "rician_factor": (_floats(0, 10.0), _floats(-10.0, -1e-9) | _NON_FINITE),
    "pathloss_exponent": (_floats(2.0, 4.0), _floats(-4.0, -1e-9) | _NON_FINITE),
    "num_paths": (st.integers(0, 3), st.integers(-3, -1) | st.just(0.5)),
    "master_seed": (st.integers(0, 2**63), st.integers(-3, -1) | st.just(0.5)),
    "irs_num_y": (st.integers(1, 5), st.integers(-3, 0) | st.just(2.5)),
    "irs_num_z": (st.integers(1, 5), st.integers(-3, 0) | st.just(2.5)),
    "region_length": (_floats(0, 0.6), _floats(-1.0, -1e-9) | _NON_FINITE),
    "region_axis": (_vector(_floats(-1.0, 1.0), 3).filter(any),
                    st.just([0.0, 0.0, 0.0]) | _spoiled(_vector(_floats(-1.0, 1.0), 3),
                                                        _NON_FINITE)),
    "bs_distance": (_floats(2.0, 10.0), _floats(-10.0, 0) | _NON_FINITE),
    "bs_direction": (st.tuples(_floats(1e-3, 1.0), _floats(-1.0, 1.0), _floats(-1.0, 1.0))
                     .map(list),
                     st.tuples(_floats(-1.0, 0), _floats(-1.0, 1.0), _floats(-1.0, 1.0))
                     .map(list)),
    "user_distance_range": (_pair(10.0, 60.0), _spoiled(_pair(10.0, 60.0),
                                                       _floats(-60.0, 0) | _NON_FINITE)),
    "user_azimuth_range": (_pair(-1.57, 1.57), _spoiled(
        _pair(-1.57, 1.57), _floats(_HALF_PI, 4.0) | _floats(-4.0, -_HALF_PI) | _NON_FINITE)),
    "user_elevation_range": (_pair(-1.57, 1.57), _spoiled(
        _pair(-1.57, 1.57), _floats(_HALF_PI, 4.0) | _floats(-4.0, -_HALF_PI) | _NON_FINITE)),
    "scatterer_box_size": (_vector(_floats(0.1, 3.0), 3), _spoiled(
        _vector(_floats(0.1, 3.0), 3), _floats(-3.0, 0) | _NON_FINITE)),
}
_DEFAULTS = {f.name: f.default for f in dataclasses.fields(Scenario)}


def _wrong_type(name):
    default = _DEFAULTS[name]
    if not isinstance(default, tuple):  # None is the default of the two spacings
        return st.sampled_from(["5e9", "abc", True, False, [1.0], {"a": 1.0}]
                               + ([] if default is None else [None]))
    size = len(default)
    return st.sampled_from([40.0, "abc", None, [1.0] * (size + 1), [1.0] * (size - 1),
                            [True] + [1.0] * (size - 1), ["1.0"] * size])


@st.composite
def _load_boundary_cases(draw):
    """(config, spoiled). `config` is a sweep with in-range values for the
    surface, a few other fields and the swept value. `spoiled` holds one copy
    of it per field and one for the swept value, each with that one value
    out of range or of the wrong type."""
    names = sorted(_FIELDS)
    drawn = draw(st.lists(st.sampled_from(names), max_size=8, unique=True))
    # the surface is always drawn, as its default of 15 x 15 elements is not small
    scenario = {name: draw(_FIELDS[name][0])
                for name in sorted({"irs_num_y", "irs_num_z", *drawn})}
    parameter = draw(st.sampled_from(sorted(harness.SWEEPABLE)))
    swept = harness.SWEEPABLE[parameter]
    sweep = {"parameter": parameter, "values": [draw(_FIELDS[swept][0])],
             "realizations": 1, "seed": 0}
    spoiled = []
    for name in [*names, None]:  # None: the swept value
        value = draw(_FIELDS[name or swept][1] | _wrong_type(name or swept))
        spoiled.append({"scenario": {**scenario, name: value} if name else scenario,
                        "sweep": sweep if name else {**sweep, "values": [value]}})
    return {"scenario": scenario, "sweep": sweep}, spoiled


def _sweep_rates(caplog, config) -> dict | None:
    """Run `irsma sweep` on `config`. Return None if it is rejected at load
    (`_rejected`); else check that it ran every cell (status 0) to finite
    records, and return the one cell's rates by scheme."""
    caplog.clear()
    with tempfile.TemporaryDirectory() as tmp, caplog.at_level(logging.WARNING):
        cfg, out = Path(tmp) / "cfg.yaml", Path(tmp) / "out"
        cfg.write_text(yaml.safe_dump(config))
        rc = cli_main(["sweep", "--config", str(cfg), "--out", str(out)])
        if rc != 0:
            _rejected(caplog, rc, out)
            return None
        with open(out / "records.csv") as fh:
            rows = list(csv.DictReader(fh))
    assert all(math.isfinite(float(r["value"])) for r in rows)
    return {r["scheme"]: float(r["value"]) for r in rows if r["metric"] == "sum_rate"}


# no shrinking: an example runs 24 configs, and shrinking a failure takes minutes
@settings(max_examples=30, deadline=None, derandomize=True, database=None,
          phases=[Phase.generate], suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_load_boundary_cases())
def test_config_is_rejected_at_load_or_every_cell_runs(caplog, case):
    """`irsma sweep` on one realization either rejects a config at load, as it
    must when one value lies outside its field's checks, or runs its one cell
    with finite records and the orderings PROPOSED >= max(FPA, AS) and
    MA_RPS >= FPA_RPS. A cell that fails at run time (status 1) fails."""
    config, spoiled = case
    for bad in spoiled:
        assert _sweep_rates(caplog, bad) is None, f"ran: {bad}"
    rates = _sweep_rates(caplog, config)
    if rates is not None:
        assert sorted(rates) == sorted(harness.ALL_SCHEMES)
        assert rates[harness.PROPOSED] >= max(rates[harness.FPA], rates[harness.AS]) - 1e-9
        assert rates[harness.MA_RPS] >= rates[harness.FPA_RPS] - 1e-9


_THREAD_CPU_PROBE = """
import time
from irsma import analysis, harness
from irsma.config import Scenario

spec = harness.SweepSpec(parameter="bs_irs_distance", values=(3.0,), realizations=1)
jobs = {
    "verify": lambda: analysis.verify_all(Scenario()),
    "multi_user_los": lambda: harness.run_cell(Scenario().replace(bs_distance=3.0), spec, 0, 0),
    "single_user_multipath": lambda: harness.run_cell(
        Scenario(num_users=1, num_paths=8).replace(bs_distance=3.0), spec, 0, 0),
}
# the BLAS workers that start with numpy spin for about 0.1 s before they sleep
time.sleep(0.5)
for name, job in jobs.items():
    process, main = time.process_time(), time.thread_time()
    job()
    main = time.thread_time() - main
    print(name, time.process_time() - process - main, main)
"""


def test_no_cpu_outside_calling_thread():
    """A verify battery, a multi-user LoS cell and a single-user multipath cell
    run on the calling thread: with the thread count OpenBLAS picks, all other
    threads of the process together spend at most 5 % of the main thread's CPU."""
    proc = subprocess.run([sys.executable, "-c", _THREAD_CPU_PROBE], env=_default_blas_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 3
    for line in lines:
        _, other, main = line.split()
        assert float(other) <= 0.05 * float(main), line
