#!/bin/sh
# Build the benchmark from source in this checkout, then run it with the
# given arguments (see README.md).  Build output goes to stderr so the
# benchmark's result stays the last line of stdout; the shared dune cache
# is off so nothing is written outside the checkout.
set -e
cd "$(dirname "$0")/.."
dune build --root . --cache=disabled ./perfbench/protolat_bench.exe 1>&2
exec ./_build/default/perfbench/protolat_bench.exe "$@"
