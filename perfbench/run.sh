#!/bin/sh
# Build the benchmark from source and run one workload; see
# perfbench/README.md.  Run from the repository root:
#   sh perfbench/run.sh --workload steady_day --seed 42 --seconds 20 --trace 0
# Build output goes to stderr, so the result object stays the last
# line of stdout.
set -e
if [ ! -f dune-project ] || [ ! -d lib/fleet ]; then
  echo "perfbench: run from the root of a complete checkout" >&2
  exit 2
fi
DUNE_CACHE=disabled dune build --root . --display quiet ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
