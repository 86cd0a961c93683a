#!/usr/bin/env bash
# Dump the outer-loop sum-rate trace of the joint optimizer on one channel draw.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
python -m irsma.cli convergence --out out/convergence "$@"
