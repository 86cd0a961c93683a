#!/usr/bin/env python3
"""Print one sha256 per output file of the five shipped sweeps
(--realizations 2 --seed 0), of `irsma verify --seed 0`, of `irsma profile`
on the single-user equivalence config and of `irsma convergence` on the
default and the single-user scenario (all --seed 0), and of `irsma verify`
at seeds 1000, 1002 and 7000.

The extra verify seeds catch last-digit drift in the closed-form gains that
seed 0 misses. Run it on two commits and diff the output to check that a
change keeps the outputs of all four subcommands byte-identical. The outputs
do not depend on the BLAS thread count (tests/test_harness.py checks each);
the pin to one thread stays so that the digests compare with those of older
commits, whose sweeps rounded differently on more threads.

Each command runs in this process through `irsma.cli.main`; its standard
output goes to `OUT_DIR/<name>.stdout` and its files to `OUT_DIR/<name>/`.
The lines are those that `sha256sum` prints for every file under OUT_DIR,
sorted by path. tests/data/records/digests.txt is the output at the last
change that moved the records on purpose, and tests/test_records.py runs
`COMMANDS` against it.

Usage: python3 scripts/records_digest.py [OUT_DIR]   (default: a temp dir)
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SWEEPS = ("single_user_multipath_sweep", "multi_user_los_sweep",
          "multi_user_multipath_sweep", "region_length_sweep", "path_count_sweep")
_EQUIVALENCE = str(ROOT / "configs" / "single_user_equivalence.yaml")

# (output name, argv without --out), in the order the digests were first made
COMMANDS = [
    *((cfg, ["sweep", "--config", str(ROOT / "configs" / f"{cfg}.yaml"),
             "--realizations", "2", "--seed", "0"]) for cfg in SWEEPS),
    ("verify", ["verify", "--seed", "0"]),
    *((f"verify_{seed}", ["verify", "--seed", str(seed)]) for seed in (1000, 1002, 7000)),
    ("profile", ["profile", "--config", _EQUIVALENCE, "--seed", "0"]),
    ("convergence", ["convergence", "--seed", "0"]),
    ("convergence_single_user", ["convergence", "--config", _EQUIVALENCE, "--seed", "0"]),
]


def run(out: Path) -> None:
    """Run `COMMANDS` into `out`; raise if one exits with a non-zero status."""
    from irsma.cli import main as cli_main

    for name, argv in COMMANDS:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            status = cli_main(argv + ["--out", str(out / name)])
        if status != 0:
            raise RuntimeError(f"{name} exited with {status}")
        (out / f"{name}.stdout").write_text(stdout.getvalue())


def digest_lines(out: Path) -> list[str]:
    """`sha256sum` lines of every file under `out`, sorted by path."""
    files = sorted(p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file())
    return [f"{hashlib.sha256((out / f).read_bytes()).hexdigest()}  ./{f}" for f in files]


def main(argv: list[str]) -> int:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"  # read once, when numpy loads
    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(argv[0] if argv else tmp)
        out.mkdir(parents=True, exist_ok=True)
        run(out)
        print("\n".join(digest_lines(out)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
