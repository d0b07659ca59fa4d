#!/bin/sh
# Smoke script: full build, test suite (with the warm-block fast path on
# and off), a short multi-seed fault soak, the latency-attribution and
# timeline exports (with their consistency / JSON well-formedness
# checks), a quick multi-flow sweep, a quick latency-provenance spans
# report (with its bit-exact conservation check), a quick host-lifecycle
# chaos sweep, a quick fabric incast export plus its --jobs byte-identity
# check, byte-for-byte checks of the multi-flow and fabric JSON reports
# against the golden files in test/golden/, a pair bit-identity check
# plus replays of the committed chaos repro files, the benchmark smoke
# (pinned workload digests), a quick end-to-end
# bench table, and a bench regression gate against the committed
# BENCH_*.json history.
# Usage: scripts/ci.sh  (run from the repository root)
set -eu

dune build @all
dune runtest
# the suite must also pass with the memoized basic-block fast path
# disabled: every simulation then takes the per-instruction reference
# path the fast path is checked against
PROTOLAT_FASTPATH=0 dune runtest --force
# ... and with the on-disk simulation cache explicitly off (the suite
# already defaults it off; this leg pins the knob itself)
PROTOLAT_SIMCACHE=0 dune runtest --force
# ... and with the span ledger knob pinned off: engine results must be
# bit-identical either way, and the span tests force the ledger on
# explicitly so they still exercise it under this leg
PROTOLAT_SPANS=0 dune runtest --force
# cross-process simulation-cache reuse: the same quick bench table twice
# against one shared store — the second invocation must serve its replay
# measurements from the cache populated by the first
SIMCACHE_TMP=$(mktemp -t protolat-ci-simcache.XXXXXX)
trap 'rm -f "$SIMCACHE_TMP"' EXIT
PROTOLAT_SIMCACHE="$SIMCACHE_TMP" dune exec bench/main.exe -- quick only table1
PROTOLAT_SIMCACHE="$SIMCACHE_TMP" dune exec bench/main.exe -- quick only table1
dune exec bin/protolat_cli.exe -- soak --quick --seeds 2
dune build @profile-quick
dune build @trace-quick
dune build @mflow-quick
dune build @spans-quick
dune build @chaos-quick
dune build @fabric-quick
# fabric cells fan out across domains: the JSON report must be
# byte-identical at one and at two jobs
FABRIC_J1=$(mktemp -t protolat-ci-fabric-j1.XXXXXX)
FABRIC_J2=$(mktemp -t protolat-ci-fabric-j2.XXXXXX)
trap 'rm -f "$SIMCACHE_TMP" "$FABRIC_J1" "$FABRIC_J2"' EXIT
dune exec bin/protolat_cli.exe -- fabric --fan-ins 2,8 --seeds 2 --json -j 1 > "$FABRIC_J1"
dune exec bin/protolat_cli.exe -- fabric --fan-ins 2,8 --seeds 2 --json -j 2 > "$FABRIC_J2"
cmp "$FABRIC_J1" "$FABRIC_J2"
# golden reports: every counter the multi-flow and fabric reports print
# (hit rate, key compares, retransmits, sweeps, timer high-water, digests)
# must match the committed files byte-for-byte, so a simulator speedup
# that moved a single event fails here
GOLDEN=$(mktemp -t protolat-ci-golden.XXXXXX)
trap 'rm -f "$SIMCACHE_TMP" "$FABRIC_J1" "$FABRIC_J2" "$GOLDEN"' EXIT
dune exec bin/protolat_cli.exe -- mflow --flows 64 --seeds 2 --json > "$GOLDEN"
cmp "$GOLDEN" test/golden/mflow_64x2.json
dune exec bin/protolat_cli.exe -- fabric --fan-ins 2,16 --seeds 2 --json > "$GOLDEN"
cmp "$GOLDEN" test/golden/fabric_2_16x2.json
dune build @search-quick
# the benchmark's smoke: every workload at 2 inputs x 1 pass against its
# pinned smoke digest and every per-input oracle
dune build @perfbench/bench-smoke
# pair bit-identity: an explicit --topo pair must reproduce the default
# two-host wiring byte-for-byte (the topology-first API's compatibility
# contract; the star:2 detour through the switch must differ)
PAIR_A=$(mktemp -t protolat-ci-pair-a.XXXXXX)
PAIR_B=$(mktemp -t protolat-ci-pair-b.XXXXXX)
trap 'rm -f "$SIMCACHE_TMP" "$FABRIC_J1" "$FABRIC_J2" "$GOLDEN" "$PAIR_A" "$PAIR_B"' EXIT
dune exec bin/protolat_cli.exe -- run -s tcpip -c ALL -r 8 > "$PAIR_A"
dune exec bin/protolat_cli.exe -- run -s tcpip -c ALL -r 8 --topo pair --hosts 2 > "$PAIR_B"
diff "$PAIR_A" "$PAIR_B"
dune exec bin/protolat_cli.exe -- run -s tcpip -c ALL -r 8 --topo star > "$PAIR_B"
if diff -q "$PAIR_A" "$PAIR_B" > /dev/null; then
  echo "ci: star:2 run unexpectedly identical to pair" >&2
  exit 1
fi
# the committed minimal repro must replay bit-identically: the buggy one
# to exactly its recorded at-most-once violation, the fixed one cleanly
dune exec bin/protolat_cli.exe -- chaos --replay test/repro/chaos_dedup_bug.json
dune exec bin/protolat_cli.exe -- chaos --replay test/repro/chaos_dedup_fixed.json
dune exec bench/main.exe -- quick only table1
scripts/bench_compare.sh
