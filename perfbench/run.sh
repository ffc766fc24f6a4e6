#!/usr/bin/env bash
# Build the benchmark from source and run one workload:
#   bash perfbench/run.sh --workload W --seed N --seconds S --trace 0|1
# Run from the root of a KGModel checkout; see perfbench/README.md.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f BENCHMARK.json ]; then
  echo "perfbench: not a KGModel checkout (dune-project, lib/ and BENCHMARK.json needed)" >&2
  exit 2
fi
# keep every build artifact inside the checkout
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/main.exe >&2
exec ./_build/default/perfbench/main.exe "$@"
