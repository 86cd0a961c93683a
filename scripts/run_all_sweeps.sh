#!/usr/bin/env bash
# Run every shipped benchmark sweep (configs/*_sweep.yaml) and collect
# plot-ready CSVs under out/.
# Usage: scripts/run_all_sweeps.sh [--realizations N]
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

EXTRA=("$@")
for path in configs/*_sweep.yaml; do
    cfg=$(basename "$path" .yaml)
    echo "== $cfg"
    python -m irsma.cli sweep --config "$path" --out "out/$cfg" "${EXTRA[@]}"
done
