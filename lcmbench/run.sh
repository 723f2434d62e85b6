#!/bin/sh
# Build the benchmark from the source tree it is run in, then run it.
# Run from the repository root; arguments go to the benchmark unchanged:
#   sh lcmbench/run.sh --workload stencil --seed 1 --seconds 15 --trace 0
set -eu
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "lcmbench: run from the root of the lcm source tree (no dune-project or lib/ here)" >&2
  exit 2
fi
# The shared dune cache lives outside the tree; keep every write inside it.
DUNE_CACHE=disabled dune build --root . --display quiet ./lcmbench/bench.exe >&2
exec ./_build/default/lcmbench/bench.exe "$@"
