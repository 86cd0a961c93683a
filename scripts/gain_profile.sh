#!/usr/bin/env bash
# Sample the effective channel power gain along the movable-antenna segment
# under optimized and random reflection phases.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
python -m irsma.cli profile --config configs/single_user_equivalence.yaml \
    --out out/profile "$@"
