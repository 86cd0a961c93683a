#!/usr/bin/env bash
# Run every shipped benchmark sweep and collect plot-ready CSVs under out/.
# Usage: scripts/run_all_sweeps.sh [--realizations N]
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

EXTRA=("$@")
for cfg in single_user_multipath_sweep multi_user_los_sweep \
           multi_user_multipath_sweep region_length_sweep path_count_sweep; do
    echo "== $cfg"
    python -m irsma.cli sweep --config "configs/$cfg.yaml" --out "out/$cfg" "${EXTRA[@]}"
done
