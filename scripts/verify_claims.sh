#!/usr/bin/env bash
# Run the numerical verification reports (equivalence, far-field invariance,
# fluctuation monotonicity). Exits nonzero if any check fails.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
python -m irsma.cli verify --out out/verify "$@"
