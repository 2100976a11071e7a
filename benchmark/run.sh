#!/usr/bin/env bash
# Build the benchmark from source and run it; arguments pass through to
# benchmark/main.exe (see benchmark/README.md). Run from anywhere inside
# a full source checkout. Build output goes to stderr, so the last line
# of stdout is the benchmark's JSON result. The build stays inside the
# checkout: no shared dune cache.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "benchmark/run.sh: $(pwd) is not a full source checkout (no dune-project or lib/)" >&2
  exit 2
fi
DUNE_CACHE=disabled dune build --root . benchmark/main.exe 1>&2
exec ./_build/default/benchmark/main.exe "$@"
