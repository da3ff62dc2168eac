#!/usr/bin/env bash
# Build the benchmark and run it. With no arguments: every workload, untraced then traced
# (about four minutes). Arguments are passed through, e.g.
#   usf_perf/run.sh --smoke
#   usf_perf/run.sh --aa --seed 7
#   usf_perf/run.sh --workload sync_churn --seed 1 --seconds 15 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
exec cargo run --release --offline --quiet --manifest-path usf_perf/Cargo.toml -- "$@"
