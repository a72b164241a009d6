#!/usr/bin/env bash
# Build the benchmark from source in the current checkout (the repository
# root) and run it with the given arguments.  The build writes only to
# _build/ here; the dune cache is disabled so nothing lands outside.
set -euo pipefail
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
