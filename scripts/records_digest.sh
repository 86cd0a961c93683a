#!/usr/bin/env bash
# Print one sha256 per output file of the five shipped sweeps
# (--realizations 2 --seed 0), of `irsma verify --seed 0`, of `irsma profile`
# on the single-user equivalence config and of `irsma convergence` on the
# default and the single-user scenario (all --seed 0), and of `irsma verify`
# at seeds 1000, 1002 and 7000. The extra verify seeds catch last-digit drift
# in the closed-form gains that seed 0 misses. Run it on two commits and diff
# the output to check that a change keeps the outputs of all four subcommands
# byte-identical. The outputs of all four subcommands do not depend on the
# BLAS thread count (tests/test_harness.py checks each); the pin to one
# thread stays so that the digests compare with those of older commits, whose
# sweeps rounded differently on more threads.
# Usage: scripts/records_digest.sh [OUT_DIR]   (default: a fresh temp dir)
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-$(mktemp -d)}"
mkdir -p "$OUT"
export OPENBLAS_NUM_THREADS=1 PYTHONPATH=src
for cfg in single_user_multipath_sweep multi_user_los_sweep \
           multi_user_multipath_sweep region_length_sweep path_count_sweep; do
    python -m irsma.cli sweep --config "configs/$cfg.yaml" --realizations 2 \
        --seed 0 --out "$OUT/$cfg" > "$OUT/$cfg.stdout"
done
python -m irsma.cli verify --seed 0 --out "$OUT/verify" > "$OUT/verify.stdout"
for seed in 1000 1002 7000; do
    python -m irsma.cli verify --seed "$seed" --out "$OUT/verify_$seed" \
        > "$OUT/verify_$seed.stdout"
done
SU=configs/single_user_equivalence.yaml
python -m irsma.cli profile --config "$SU" --seed 0 --out "$OUT/profile" \
    > "$OUT/profile.stdout"
python -m irsma.cli convergence --seed 0 --out "$OUT/convergence" \
    > "$OUT/convergence.stdout"
python -m irsma.cli convergence --config "$SU" --seed 0 \
    --out "$OUT/convergence_single_user" > "$OUT/convergence_single_user.stdout"
(cd "$OUT" && find . -type f | LC_ALL=C sort | xargs sha256sum)
