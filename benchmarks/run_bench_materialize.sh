#!/bin/sh
# Regenerate BENCH_materialize.json at the repo root with the default
# grid: the one step-1 builder at three sizes, serial and with a
# two-worker fork pool. Extra arguments are passed through to the
# harness and override the grid, e.g.:
#   benchmarks/run_bench_materialize.sh --sizes 200 --n-jobs 1
set -e
cd "$(dirname "$0")/.."
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" \
    python benchmarks/bench_materialize.py \
    --sizes 500 1000 2000 --n-jobs 1 2 \
    --out BENCH_materialize.json "$@"
python benchmarks/bench_materialize.py --validate BENCH_materialize.json
