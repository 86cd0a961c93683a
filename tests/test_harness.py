"""Sweep harness: schemes, determinism, persistence and the CLI surface."""

import csv
import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from irsma import analysis, channel, harness
from irsma.cli import main as cli_main
from irsma.config import Scenario
from irsma.errors import InfeasibleSpacingError, InvalidParameterError
from irsma.rng import substream


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
        assert harness.apply_parameter(scenario, "bs_irs_distance", 3.0).bs_distance == 3.0
        assert harness.apply_parameter(scenario, "region_length", 0.4).region_length == 0.4
        assert harness.apply_parameter(scenario, "num_paths", 4).num_paths == 4
        with pytest.raises(InvalidParameterError):
            harness.apply_parameter(scenario, "bogus", 1)

    def test_fractional_path_count_rejected(self, scenario, monkeypatch):
        applied = harness.apply_parameter(scenario, "num_paths", 2.0)
        assert applied.num_paths == 2 and type(applied.num_paths) is int
        with pytest.raises(InvalidParameterError, match="num_paths must be an integer"):
            harness.apply_parameter(scenario, "num_paths", 1.5)
        monkeypatch.setattr(harness, "run_cell", _no_cell)
        spec = harness.SweepSpec(parameter="num_paths", values=(1, 1.5, 1.9), realizations=1)
        with pytest.raises(InvalidParameterError, match="got 1.5 at num_paths=1.5"):
            harness.run_sweep(spec, scenario)


class TestRealization:
    def test_shared_channels_fingerprint(self, scenario):
        # the same substream gives the same draw, another one a different draw
        scen = scenario.replace(num_paths=2)
        a = harness.draw_realization(scen, substream(1, "c"))
        b = harness.draw_realization(scen, substream(1, "c"))
        np.testing.assert_array_equal(a.h_iu, b.h_iu)
        assert a.bs_irs.clusters == b.bs_irs.clusters
        c = harness.draw_realization(scen, substream(2, "c"))
        assert not np.array_equal(a.h_iu, c.h_iu)
        assert a.bs_irs.clusters != c.bs_irs.clusters

    def test_multipath_clusters_present(self, scenario):
        real = harness.draw_realization(scenario.replace(num_paths=3),
                                        substream(1, "c"))
        assert real.bs_irs.clusters is not None
        assert len(real.bs_irs.clusters.clusters) == 3


@pytest.fixture
def matrix_calls(monkeypatch):
    """Column count of every `BsIrsModel.matrix` call."""
    calls = []
    original = channel.BsIrsModel.matrix

    def counting(self, positions):
        calls.append(len(positions))
        return original(self, positions)

    monkeypatch.setattr(channel.BsIrsModel, "matrix", counting)
    return calls


def _context(scenario, seed=0):
    return harness.cell_context(
        scenario, harness.draw_realization(scenario, substream(seed, "c")))


class TestCellContext:
    def test_columns_match_grids(self, scenario):
        ctx = _context(scenario)
        bs_irs = ctx.realization.bs_irs
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
        records = harness.run_cell(scenario, small_spec, 2.0, 0, 0)
        assert len(records) == len(harness.ALL_SCHEMES)
        assert len(matrix_calls) == 1

    def test_run_cell_without_as_builds_columns_once(self, scenario, matrix_calls):
        schemes = tuple(s for s in harness.ALL_SCHEMES if s != harness.AS)
        spec = harness.SweepSpec(parameter="bs_irs_distance", values=(2.0,),
                                 schemes=schemes, realizations=1, seed=21)
        records = harness.run_cell(scenario, spec, 2.0, 0, 0)
        assert sorted(r.scheme for r in records) == sorted(schemes)
        assert len(matrix_calls) == 1

    @pytest.mark.parametrize("num_paths", [8, 0], ids=["multipath", "los"])
    def test_sweep_shares_los_columns_per_value(self, monkeypatch, num_paths):
        # The default 15x15 surface makes the fine grid's (225, 100) columns
        # 352 KiB, above numpy's 256 KiB temporary-elision threshold, and the
        # coarse grid's (225, 20) columns 70 KiB, below it. The multipath
        # columns built on a shared LoS must round as a model without the
        # shared LoS does, on either grid.
        contexts, los_builds = [], []
        original_context, original_los = harness.cell_context, channel.nusw_los_matrix

        def recording(scen, realization):
            contexts.append(original_context(scen, realization))
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
        caches = [ctx.realization.bs_irs._los_cache for ctx in contexts]
        assert all(c is caches[0] for c in caches[:3])
        assert all(c is caches[3] for c in caches[3:]) and caches[3] is not caches[0]
        for ctx in contexts:
            bs_irs = ctx.realization.bs_irs
            alone = channel.BsIrsModel(bs_irs.geometry, bs_irs.wavelength, bs_irs.clusters)
            assert ctx.fine_columns.nbytes > 256 * 1024
            coarse_columns = ctx.grid(harness.AS)[1]
            for points, columns in ((ctx.fine.points, ctx.fine_columns),
                                    (ctx.coarse.points, coarse_columns)):
                assert columns.tobytes() == alone.matrix(points).tobytes()
            assert (coarse_columns.tobytes()
                    == ctx.fine_columns[:, ctx.coarse_on_fine].tobytes())
            for shared in bs_irs._los_cache.values():
                with pytest.raises(ValueError, match="read-only"):
                    shared[0, 0] = 0
            if num_paths == 0:
                with pytest.raises(ValueError, match="read-only"):
                    ctx.fine_columns[0, 0] = 0

    def test_cell_on_its_own_builds_private_columns(self, scenario):
        ctx = _context(scenario)
        assert ctx.realization.bs_irs._los_cache is None
        ctx.fine_columns[0, 0] = 0  # nothing shared, so writable


class TestRunScheme:
    def test_unknown_scheme(self, scenario):
        with pytest.raises(InvalidParameterError):
            harness.run_scheme("BOGUS", scenario, _context(scenario),
                               rng=substream(0, "i"))

    def test_rps_requires_phi(self, scenario):
        with pytest.raises(InvalidParameterError):
            harness.run_scheme(harness.MA_RPS, scenario, _context(scenario),
                               rng=substream(0, "i"))

    def test_single_user_rate_is_log_snr(self):
        s = Scenario(irs_num_y=6, irs_num_z=6, num_users=1, master_seed=4)
        run = harness.run_scheme(harness.FPA, s, _context(s, seed=4),
                                 rng=substream(4, "i"))
        assert run.rate > 0
        assert run.solution.snr == pytest.approx(2 ** run.rate - 1, rel=1e-9)


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
                           match="2-point fine grid at bs_irs_distance=2.0"):
            harness.run_sweep(spec, bad)

    def test_negative_length_rejected_before_first_cell(self, scenario, monkeypatch):
        monkeypatch.setattr(harness, "run_cell", _no_cell)
        spec = harness.SweepSpec(parameter="region_length", values=(0.3, -0.1),
                                 realizations=1)
        with pytest.raises(InvalidParameterError,
                           match="non-negative at region_length=-0.1$"):
            harness.run_sweep(spec, scenario)

    def test_one_failed_cell_is_logged(self, scenario, monkeypatch, caplog):
        original = harness.cell_context

        def failing(scen, realization):
            if scen.bs_distance == 5.0:
                raise InfeasibleSpacingError("forced")
            return original(scen, realization)

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

    def test_programming_error_propagates(self, scenario, monkeypatch):
        def broken(scen, realization):
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
        4,096 entries from which OpenBLAS threads a product."""
        configs = {
            "multi_user": "sweep: {parameter: bs_irs_distance, values: [3.0], "
                          "realizations: 1}",
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

        def recording(scheme, scen, context, **kwargs):
            run = original(scheme, scen, context, **kwargs)
            placed.append((scen.region_length, scen.region().center_array,
                           run.solution.positions))
            return run

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
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(
            "scenario: {irs_num_y: 6, irs_num_z: 6, num_mas: 4}\n"
            "sweep: {parameter: region_length, values: [0.0, 0.3], realizations: 1}\n")
        out = tmp_path / "out"
        with caplog.at_level(logging.WARNING):
            rc = cli_main(["sweep", "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        assert not out.exists()
        assert "do not fit on the 1-point fine grid at region_length=0.0" in \
            caplog.records[0].getMessage()
        # a library call raises the same rejection
        spec = harness.SweepSpec(parameter="region_length", values=(0.0, 0.3),
                                 realizations=1, schemes=(harness.FPA,))
        with pytest.raises(InfeasibleSpacingError,
                           match="1-point fine grid at region_length=0.0"):
            harness.run_sweep(spec, Scenario(irs_num_y=6, irs_num_z=6))

    def test_scenario_num_realizations_rejected_at_load(self, tmp_path, caplog):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("scenario: {num_realizations: 5}\n")
        out = tmp_path / "out"
        with caplog.at_level(logging.WARNING):
            rc = cli_main(["verify", "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        assert not out.exists()
        assert [(r.name, r.levelno) for r in caplog.records] == [("irsma.cli", logging.ERROR)]
        assert caplog.records[0].getMessage() == (
            "verify rejected: unknown scenario keys: ['num_realizations']")

    def test_negative_swept_length_rejected_at_load(self, tmp_path, monkeypatch, caplog):
        monkeypatch.setattr(harness, "run_cell", _no_cell)
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(
            "scenario: {irs_num_y: 6, irs_num_z: 6}\n"
            "sweep: {parameter: region_length, values: [-0.1, 0.3], realizations: 1}\n")
        out = tmp_path / "out"
        with caplog.at_level(logging.WARNING):
            rc = cli_main(["sweep", "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        assert not out.exists()
        assert [(r.name, r.levelno) for r in caplog.records] == [("irsma.cli", logging.ERROR)]
        assert caplog.records[0].getMessage() == (
            "sweep rejected: region length must be non-negative at region_length=-0.1")

    @pytest.mark.parametrize("command", ["verify", "profile", "convergence"])
    def test_negative_region_length_rejected_at_load(self, tmp_path, caplog, command):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("scenario: {irs_num_y: 6, irs_num_z: 6, region_length: -0.1}\n")
        out = tmp_path / "out"
        with caplog.at_level(logging.WARNING):
            rc = cli_main([command, "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        assert not out.exists()
        assert [(r.name, r.levelno) for r in caplog.records] == [("irsma.cli", logging.ERROR)]
        assert caplog.records[0].getMessage() == (
            f"{command} rejected: region length must be non-negative")

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
    ], ids=["bogus_parameter", "unknown_sweep_key", "bad_scenario_value",
            "unknown_scenario_key", "negative_seed"])
    def test_bad_sweep_config_rejected_with_status_2(self, tmp_path, caplog, config,
                                                    message):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(config + "\n")
        out = tmp_path / "out"
        with caplog.at_level(logging.WARNING):
            rc = cli_main(["sweep", "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        assert not out.exists()
        assert [(r.name, r.levelno) for r in caplog.records] == [("irsma.cli", logging.ERROR)]
        assert caplog.records[0].getMessage() == f"sweep rejected: {message}"

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
    ], ids=["negative_distances", "zero_distances", "infinite_rician_factor",
            "empty_surface", "fractional_antenna_count", "string_frequency",
            "negative_master_seed"])
    def test_bad_scenario_rejected_at_load(self, tmp_path, monkeypatch, caplog, command,
                                           scenario_cfg, message):
        # rejected before any cell or check runs
        monkeypatch.setattr(harness, "run_cell", _no_cell)
        monkeypatch.setattr(analysis, "verify_all", _no_cell)
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(f"scenario: {{irs_num_z: 6, {scenario_cfg}}}\n"
                       "sweep: {parameter: bs_irs_distance, values: [2.0], realizations: 1}\n")
        out = tmp_path / "out"
        with caplog.at_level(logging.WARNING):
            rc = cli_main([command, "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        assert not out.exists()
        assert [(r.name, r.levelno) for r in caplog.records] == [("irsma.cli", logging.ERROR)]
        assert caplog.records[0].getMessage() == f"{command} rejected: {message}"

    @pytest.mark.parametrize("command", ["sweep", "verify", "profile", "convergence"])
    def test_negative_seed_flag_rejected_at_load(self, tmp_path, caplog, command):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("scenario: {irs_num_y: 6, irs_num_z: 6}\n"
                       "sweep: {parameter: bs_irs_distance, values: [2.0], realizations: 1}\n")
        out = tmp_path / "out"
        with caplog.at_level(logging.WARNING):
            rc = cli_main([command, "--config", str(cfg), "--seed", "-1", "--out", str(out)])
        assert rc == 2
        assert not out.exists()
        assert [(r.name, r.levelno, r.getMessage()) for r in caplog.records] == [
            ("irsma.cli", logging.ERROR, f"{command} rejected: master_seed must be >= 0")]

    def test_fractional_path_count_rejected_at_load(self, tmp_path, monkeypatch, caplog):
        monkeypatch.setattr(harness, "run_cell", _no_cell)
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(
            "scenario: {irs_num_y: 6, irs_num_z: 6}\n"
            "sweep: {parameter: num_paths, values: [1, 1.5, 1.9], realizations: 1}\n")
        out = tmp_path / "out"
        with caplog.at_level(logging.WARNING):
            rc = cli_main(["sweep", "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        assert not out.exists()
        assert [r.getMessage() for r in caplog.records] == [
            "sweep rejected: num_paths must be an integer, got 1.5 at num_paths=1.5"]

    def test_infeasible_layout_rejected_at_load(self, tmp_path, monkeypatch, caplog):
        monkeypatch.setattr(harness, "run_cell", _no_cell)
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(
            "scenario: {irs_num_y: 6, irs_num_z: 6, num_mas: 30}\n"
            "sweep: {parameter: bs_irs_distance, values: [2.0, 3.0], realizations: 1}\n")
        out = tmp_path / "out"
        with caplog.at_level(logging.WARNING):
            rc = cli_main(["sweep", "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        assert not out.exists()
        assert [(r.name, r.levelno) for r in caplog.records] == [("irsma.cli", logging.ERROR)]
        assert caplog.records[0].getMessage() == (
            "sweep rejected: 30 antennas 5 grid steps apart do not fit on the "
            "100-point fine grid at bs_irs_distance=2.0")

    def test_failed_cell_sets_exit_status(self, tmp_path, monkeypatch, caplog):
        original = harness.cell_context

        def failing(scen, realization):
            if scen.bs_distance == 5.0:
                raise InfeasibleSpacingError("forced")
            return original(scen, realization)

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


_THREAD_CPU_PROBE = """
import time
from irsma import analysis, harness
from irsma.config import Scenario

spec = harness.SweepSpec(parameter="bs_irs_distance", values=(3.0,), realizations=1)
jobs = {
    "verify": lambda: analysis.verify_all(Scenario()),
    "multi_user_los": lambda: harness.run_cell(Scenario(), spec, 3.0, 0, 0),
    "single_user_multipath": lambda: harness.run_cell(
        Scenario(num_users=1, num_paths=8), spec, 3.0, 0, 0),
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
