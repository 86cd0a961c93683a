"""Unit tests for the benchmark's own helpers.

    python3 -m pytest perfbench/tests -q
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import stats  # noqa: E402
from run import MAX_CHUNKS, SEED_MODULUS, chunk_seed  # noqa: E402
from tracing import Span, Tracer, cg_exit_reason, self_times  # noqa: E402


class FakeTrace:
    def __init__(self, objective, grad_norm):
        self.objective = objective
        self.grad_norm = grad_norm


def test_self_time_subtracts_direct_children_only():
    # root [0, 100] > a [10, 60] > b [20, 50]; root > c [70, 90]
    spans = [Span("root", "cli", 0, 100), Span("a", "mu_opt", 10, 60, parent=0),
             Span("b", "channel", 20, 50, parent=1), Span("c", "su_opt", 70, 90, parent=0)]
    got = self_times(spans)
    assert got == pytest.approx([30e-9, 20e-9, 30e-9, 20e-9])
    assert sum(got) == pytest.approx(spans[0].seconds)


def test_tracer_nests_spans_and_attributes_counts_to_innermost():
    tracer = Tracer()
    with tracer.span("cell", "harness"):
        with tracer.span("solver", "mu_opt"):
            tracer.count("solves", 3)
        tracer.count("draws")
    with tracer.span("cell", "harness"):
        pass
    cell, solver, second = tracer.spans
    assert (cell.parent, solver.parent, second.parent) == (-1, 0, -1)
    assert (cell.root, solver.root, second.root) == (0, 0, 2)
    assert solver.counts == {"solves": 3} and cell.counts == {"draws": 1}
    assert all(s.end >= s.start for s in tracer.spans)
    assert self_times(tracer.spans)[0] <= cell.seconds


def test_cg_exit_reasons():
    assert cg_exit_reason(FakeTrace([3, 2, 1], [1.0, 0.1, 1e-7]), 1e-6, 500) == "tol"
    assert cg_exit_reason(FakeTrace([0.0] * 6, [1.0] * 6), 1e-6, 5) == "max_iter"
    assert cg_exit_reason(FakeTrace([3, 2], [1.0, 0.5]), 1e-6, 500) == "line_search"
    # already stationary at the start: no step taken, converged
    assert cg_exit_reason(FakeTrace([1.0], [0.0]), 1e-6, 500) == "tol"
    # reaching the tolerance on the last allowed step counts as converged
    assert cg_exit_reason(FakeTrace([0.0] * 6, [1.0] * 5 + [1e-9]), 1e-6, 5) == "tol"


def test_tail_percentile_keeps_ten_samples_beyond():
    assert stats.tail_percentile(19) is None
    assert stats.tail_percentile(40) == 75.0  # 10 beyond p75
    assert stats.tail_percentile(99) == 75.0  # p90 leaves 9
    assert stats.tail_percentile(100) == 90.0
    assert stats.tail_percentile(200) == 95.0
    assert stats.tail_percentile(1000) == 99.0
    assert stats.tail_percentile(10_000) == 99.9
    for n in [*range(1, 300), 999, 1000, 1001, 9999, 10_000, 10_001]:
        p = stats.tail_percentile(n)
        values = list(range(n))

        def beyond(q):
            threshold = stats.percentile(values, q)
            return sum(v > threshold for v in values)

        if p is not None:
            assert beyond(p) >= 10
        assert all(beyond(q) < 10 for q in stats.TAIL_PERCENTILES if p is None or q > p)


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 90) == 90
    assert stats.percentile(values, 99.9) == 100
    assert stats.percentile([5.0], 75) == 5.0
    assert stats.describe([1.0, 2.0, 3.0]) == "median 2, n=3"


def test_quartile_spread():
    assert stats.quartile_spread([10.0] * 5) == 0.0
    assert stats.quartile_spread([8.0, 9.0, 10.0, 11.0, 12.0]) == pytest.approx(3.0 / 10.0)


def _write_records(path, rows):
    lines = ["scheme,param,realization,metric,value"]
    lines += [f"{s},{p!r},{r},sum_rate,{v!r}" for s, p, r, v in rows]
    path.write_text("\n".join(lines) + "\n")


def test_check_sweep_flags_missing_nonfinite_and_misordered_records(tmp_path):
    import run

    good = {"PROPOSED": 5.0, "FPA": 4.0, "AS": 4.5, "MA_RPS": 3.0, "FPA_RPS": 2.0}
    rows = [(s, 1.0, 0, v) for s, v in good.items()]
    _write_records(tmp_path / "records.csv", rows)
    attempted, problems, rates = run.check_sweep(tmp_path, [1.0], 1)
    assert (attempted, problems) == (5, [])
    assert rates[(1.0, 0)] == good

    rows = [(s, 1.0, 0, v) for s, v in dict(good, PROPOSED=4.4).items()]  # < AS
    rows += [(s, 2.0, 0, v) for s, v in dict(good, MA_RPS=float("nan")).items()]
    rows += [("FPA", 3.0, 0, 1.0)]
    _write_records(tmp_path / "records.csv", rows)
    attempted, problems, _ = run.check_sweep(tmp_path, [1.0, 2.0, 3.0], 1)
    assert attempted == 15
    text = "\n".join(problems)
    assert "(1.0, 0): PROPOSED < max(FPA, AS)" in text
    assert "(2.0, 0): MA_RPS rate nan" in text
    assert text.count("(3.0, 0): no") == 4
    assert len(problems) == 6


def test_tracer_restores_every_patched_function():
    root = Path(__file__).resolve().parents[2]
    sys.path.insert(0, str(root / "src"))
    import irsma.cli  # noqa: F401
    from irsma import channel, harness, mu_opt, su_opt

    before = (mu_opt.manifold_cg, mu_opt._wmmse_precoder, su_opt.cascaded_row,
              channel.BsIrsModel.__dict__["matrix"], su_opt.SamplingGrid.__dict__["from_region"],
              harness.run_cell)
    tracer = Tracer()
    with tracer.installed():
        assert mu_opt.manifold_cg is not before[0]
        assert su_opt.cascaded_row is channel.cascaded_row  # patched in both modules
        scenario = irsma.Scenario(irs_num_y=4, irs_num_z=4, num_users=2)
        grid = su_opt.SamplingGrid.from_region(scenario.region(), scenario.sample_spacing,
                                               scenario.min_spacing)
    after = (mu_opt.manifold_cg, mu_opt._wmmse_precoder, su_opt.cascaded_row,
             channel.BsIrsModel.__dict__["matrix"], su_opt.SamplingGrid.__dict__["from_region"],
             harness.run_cell)
    assert all(a is b for a, b in zip(before, after))
    assert [s.name for s in tracer.spans] == ["su_opt.from_region"]
    assert grid.num_points == 100


def test_solution_invariants_report_each_violation():
    from types import SimpleNamespace

    import numpy as np
    import tracing

    tracer = Tracer()
    span = Span("mu_opt.ao_multi_user", "mu_opt", 0, 1)
    positions = np.array([[0.0, 0, 0], [0.03, 0, 0]])
    ok = SimpleNamespace(phi=np.exp(1j * np.arange(4.0)), trace=[1.0, 2.0, 2.0],
                         positions=positions, iterations=2, w=np.eye(2) * 0.5)
    args = {"min_spacing": 0.03, "power": 0.5}
    tracing._inspect_ao_multi_user(tracer, span, args, ok)
    assert tracer.violations == [] and span.counts == {"outer_iters": 2}

    bad = SimpleNamespace(phi=np.full(4, 1.1 + 0j), trace=[2.0, 1.0],
                          positions=positions * 0.5, iterations=1, w=np.eye(2))
    tracing._inspect_ao_multi_user(tracer, span, args, bad)
    assert len(tracer.violations) == 4


def test_chunk_seed_takes_any_integer_seed():
    assert [chunk_seed(3, k) for k in range(3)] == [3000, 3001, 3002]
    for seed in (-17, 2 ** 32, 2 ** 70 + 5, -(2 ** 70)):
        seeds = {chunk_seed(seed, k) for k in range(MAX_CHUNKS)}
        assert len(seeds) == MAX_CHUNKS
        assert all(0 <= s < SEED_MODULUS for s in seeds)
