"""The shipped sweeps' outputs, byte for byte.

Runs `COMMANDS` of `scripts/records_digest.py` in-process and compares the
sha256 of every output file with `tests/data/records/digests.txt` (the
script's own output), and each sweep's `records.csv` with the copy stored
next to it. When a records file differs, the message tabulates the drift per
config, scheme and swept value. The reference was made with numpy 2.4.6 on
OpenBLAS 0.3.31, whose run-time kernel was `SkylakeX`; a BLAS kernel that
rounds differently fails these tests by design. The failure message names
the kernel that runs, and the table shows whether the drift is rounding or
behaviour.

After a change that moves the records on purpose, refresh the reference
with `python3 scripts/records_digest.py OUT > tests/data/records/digests.txt`
and copy each `OUT/<config>/records.csv` to `tests/data/records/<config>.csv`.
"""

import csv
import ctypes
import importlib.util
import io
from pathlib import Path

import numpy as np
import pytest

from irsma import harness
from irsma.config import Scenario, load_config, scenario_from_dict

REFERENCE = Path(__file__).parent / "data" / "records"
CONFIGS = Path(__file__).resolve().parents[1] / "configs"
REFERENCE_KERNEL = "SkylakeX"  # the OpenBLAS kernel that made the references


def _openblas_kernel() -> str:
    """The run-time kernel of numpy's bundled OpenBLAS, or "unknown" if numpy
    has no such library."""
    numpy_dir = Path(np.__file__).resolve().parent
    libs = [*(numpy_dir.parent / "numpy.libs").glob("libscipy_openblas*"),
            *(numpy_dir / ".dylibs").glob("libscipy_openblas*")]
    try:
        corename = ctypes.CDLL(str(libs[0])).scipy_openblas_get_corename64_
    except (IndexError, OSError, AttributeError):
        return "unknown"
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


def _kernels() -> str:
    return f"OpenBLAS kernel {_openblas_kernel()}, references made on {REFERENCE_KERNEL}"


def _records_digest():
    path = Path(__file__).resolve().parents[1] / "scripts" / "records_digest.py"
    spec = importlib.util.spec_from_file_location("records_digest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


DIGEST = _records_digest()


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("records")
    DIGEST.run(out)
    return out


def _rows(text: str) -> dict:
    return {tuple(row[:4]): row[4] for row in csv.reader(io.StringIO(text))
            if row[0] != "scheme"}


def drift_table(changed: dict) -> str:
    """One line per config, scheme and swept value with a changed row: the
    rows that differ (or exist on one side only) and the largest |delta rate|
    over the rates present on both sides. `changed` maps a config to its
    (reference, new) records text."""
    lines = [f"{'config':28s} {'scheme':9s} {'value':>6s} {'rows':>9s}  max |delta rate|"]
    for cfg, (want_text, got_text) in changed.items():
        want, got = _rows(want_text), _rows(got_text)
        groups: dict = {}
        for key in sorted(want.keys() | got.keys()):
            group = groups.setdefault(key[:2], [0, 0, 0.0])
            group[0] += 1
            if want.get(key) != got.get(key):
                group[1] += 1
                if key[3] == "sum_rate" and key in want and key in got:
                    group[2] = max(group[2], abs(float(got[key]) - float(want[key])))
        for (scheme, value), (total, diff, delta) in groups.items():
            if diff:
                lines.append(f"{cfg:28s} {scheme:9s} {value:>6s} {diff:>4d} of {total:<2d} "
                             f" {delta:.3g}")
    return "\n".join(lines)


def test_records_match_reference(outputs):
    changed = {}
    for cfg in DIGEST.SWEEPS:
        want = (REFERENCE / f"{cfg}.csv").read_text()
        got = (outputs / cfg / "records.csv").read_text()
        if got != want:
            changed[cfg] = (want, got)
    assert not changed, (f"records drifted from tests/data/records ({_kernels()}):\n"
                         + drift_table(changed))


def test_output_digests_match_reference(outputs):
    want = (REFERENCE / "digests.txt").read_text().splitlines()
    got = DIGEST.digest_lines(outputs)
    assert len(want) == 41
    differ = sorted(set(want) ^ set(got), key=lambda line: line[66:])
    assert got == want, (f"output digests differ ({_kernels()}; - reference, + now):\n"
                         + "\n".join(("- " if line in want else "+ ") + line
                                     for line in differ))


def test_kernel_name_is_read_or_unknown(monkeypatch, tmp_path):
    assert _openblas_kernel()  # the running kernel, such as SkylakeX or Haswell
    monkeypatch.setattr(np, "__file__", str(tmp_path / "numpy" / "__init__.py"))
    assert _openblas_kernel() == "unknown"


def test_drift_table_counts_rows_and_rate_change():
    want = ("scheme,param,realization,metric,value\n"
            "FPA,1.0,0,sum_rate,2.0\nFPA,1.0,0,iterations,3\n"
            "FPA,2.0,0,sum_rate,1.0\nFPA,2.0,0,iterations,3\n")
    got = want.replace("sum_rate,2.0", "sum_rate,2.5").replace("1.0,0,iterations,3",
                                                               "1.0,0,iterations,4")
    lines = drift_table({"cfg": (want, got)}).splitlines()
    assert len(lines) == 2
    assert lines[1].split() == ["cfg", "FPA", "1.0", "2", "of", "2", "0.5"]


def test_shipped_scenarios_stay_where_records_ignore_the_blas_threads():
    # OpenBLAS threads a product from 4,096 entries, and its threaded kernels
    # round unlike the one-thread kernel. `_grid_product` keeps every block
    # below that only while its joined 5-column blocks of an (M,) x do: M < 820.
    # Beyond it the records matched at one and two threads in every probe, but
    # nothing guarantees it.
    scenarios = {"default": Scenario()}
    for path in sorted(CONFIGS.glob("*.yaml")):
        data = load_config(path)
        base, sweep = scenario_from_dict(data["scenario"]), data.get("sweep")
        scenarios[path.name] = base
        for value in sweep["values"] if sweep else ():
            scenarios[f"{path.name} at {value}"] = base.replace(
                **{harness.SWEEPABLE[sweep["parameter"]]: value})
    assert len(scenarios) > 6
    for label, s in scenarios.items():
        m = s.irs_num_y * s.irs_num_z
        assert m < 820, (label, m)


def test_every_shipped_sweep_has_a_digest():
    # scripts/run_all_sweeps.sh runs configs/*_sweep.yaml
    with_sweep = {p.stem for p in CONFIGS.glob("*.yaml") if load_config(p).get("sweep")}
    assert with_sweep == set(DIGEST.SWEEPS) == {p.stem for p in CONFIGS.glob("*_sweep.yaml")}
