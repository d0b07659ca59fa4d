#!/bin/sh
# Smoke script: full build, the test suite (the engine's fast path is
# checked against the per-instruction reference by the suite's
# differential tests, and span recording on against off), a short
# multi-seed fault soak, the timeline export (with its JSON
# well-formedness check), a quick latency-provenance spans report (with
# its bit-exact conservation check), a fabric incast export's --jobs
# byte-identity check, byte-for-byte checks of the TCP and RPC
# multi-flow, chaos matrix, fabric and per-function profile JSON reports
# against the golden files in test/golden/ (each run once, with --check:
# drained cells and well-formed JSON, or attribution sums that match the
# aggregate report), a check that the 19-flow RPC run ends in a checked
# report (exit 0 or 1) and never in a crash, the benchmark smoke (pinned
# workload digests), a pair bit-identity check plus replays of the
# committed chaos repro files, the full default layout search
# re-simulated through the full path (--check) against its pinned digest,
# checks that an unknown table name and a layout search with a bad
# geometry or a budget below the named layouts are rejected as usage
# errors, and a quick end-to-end paper table (protolat tables --quick
# table1).
# Usage: scripts/ci.sh  (run from the repository root)
set -eu

dune build @all
dune runtest
dune exec bin/protolat_cli.exe -- soak --quick --seeds 2
dune build @trace-quick
dune build @spans-quick
# fabric cells fan out across domains: the JSON report must be
# byte-identical at one and at two jobs
FABRIC_J1=$(mktemp -t protolat-ci-fabric-j1.XXXXXX)
FABRIC_J2=$(mktemp -t protolat-ci-fabric-j2.XXXXXX)
trap 'rm -f "$FABRIC_J1" "$FABRIC_J2"' EXIT
dune exec bin/protolat_cli.exe -- fabric --fan-ins 2,8 --seeds 2 --json -j 1 > "$FABRIC_J1"
dune exec bin/protolat_cli.exe -- fabric --fan-ins 2,8 --seeds 2 --json -j 2 > "$FABRIC_J2"
cmp "$FABRIC_J1" "$FABRIC_J2"
# golden reports: every counter the multi-flow and fabric reports print
# (hit rate, key compares, retransmits, sweeps, timer high-water, digests)
# must match the committed files byte-for-byte, so a simulator speedup
# that moved a single event fails here; --check adds nothing to a --json
# report's stdout, and fails the run if a cell did not drain
GOLDEN=$(mktemp -t protolat-ci-golden.XXXXXX)
trap 'rm -f "$FABRIC_J1" "$FABRIC_J2" "$GOLDEN"' EXIT
dune exec bin/protolat_cli.exe -- mflow --flows 64 --seeds 2 --json --check > "$GOLDEN"
cmp "$GOLDEN" test/golden/mflow_64x2.json
# the RPC multi-flow cell (kept at 18 flows or fewer: from 19 on the RPC
# run collapses, a known open defect) and the host-lifecycle chaos matrix
dune exec bin/protolat_cli.exe -- mflow -s rpc --flows 1,8 --seeds 2 --json --check > "$GOLDEN"
cmp "$GOLDEN" test/golden/mflow_rpc_1_8x2.json
# at 19 flows the collapse must come back as a report: every request
# completed (exit 0) or the stuck flows named as a liveness.flows
# violation (exit 1); an uncaught exception (exit 125) fails here
STATUS=0
dune exec bin/protolat_cli.exe -- mflow -s rpc --flows 19 --seeds 1 --json --check > "$GOLDEN" || STATUS=$?
if [ "$STATUS" -gt 1 ]; then
  echo "ci: protolat mflow -s rpc --flows 19 exited $STATUS, not 0 or 1" >&2
  exit 1
fi
dune exec bin/protolat_cli.exe -- chaos --quick --json --check > "$GOLDEN"
cmp "$GOLDEN" test/golden/chaos_quick.json
dune exec bin/protolat_cli.exe -- fabric --fan-ins 2,16 --seeds 2 --json --check > "$GOLDEN"
cmp "$GOLDEN" test/golden/fabric_2_16x2.json
# the metered path's goldens: per-function and per-layer attribution of
# both stacks at the slowest and fastest versions, which depends on the
# function names every meter site records (--check: the attribution sums
# match the aggregate report)
for stack in tcpip rpc; do
  for version in BAD ALL; do
    dune exec bin/protolat_cli.exe -- profile -s "$stack" -c "$version" --json --check > "$GOLDEN"
    cmp "$GOLDEN" "test/golden/profile_${stack}_${version}.json"
  done
done
# the full default search (8 cells x 600 evaluations): every cell's best
# layout must re-simulate bit-identically through the full path, and the
# digest must be the one tier-1 pins
SEARCH_DIGEST=$(dune exec bin/protolat_cli.exe -- search --check | sed -n 's/^digest \([0-9a-f]*\) .*/\1/p')
if [ "$SEARCH_DIGEST" != 1fabb7d4fdaa540d74c09d34a799f28f ]; then
  echo "ci: protolat search digest '$SEARCH_DIGEST', not the pinned 1fabb7d4fdaa540d74c09d34a799f28f" >&2
  exit 1
fi
# the benchmark's smoke: every workload at 2 inputs x 1 pass against its
# pinned smoke digest and every per-input oracle
dune build @perfbench/bench-smoke
# pair bit-identity: an explicit --topo pair must reproduce the default
# two-host wiring byte-for-byte (the topology-first API's compatibility
# contract; the star:2 detour through the switch must differ)
PAIR_A=$(mktemp -t protolat-ci-pair-a.XXXXXX)
PAIR_B=$(mktemp -t protolat-ci-pair-b.XXXXXX)
trap 'rm -f "$FABRIC_J1" "$FABRIC_J2" "$GOLDEN" "$PAIR_A" "$PAIR_B"' EXIT
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
# a mistyped table name is a usage error (cmdliner's exit 124), never an
# empty success
STATUS=0
dune exec bin/protolat_cli.exe -- tables tabel4 > /dev/null 2>&1 || STATUS=$?
if [ "$STATUS" -ne 124 ]; then
  echo "ci: protolat tables tabel4 exited $STATUS, not a usage error" >&2
  exit 1
fi
# so are a layout search geometry that is not a power of two and a budget
# that cannot score the five named layouts ($args splits into flag and value)
for args in "--geometry 3" "--budget 2"; do
  STATUS=0
  dune exec bin/protolat_cli.exe -- search $args > /dev/null 2>&1 || STATUS=$?
  if [ "$STATUS" -ne 124 ]; then
    echo "ci: protolat search $args exited $STATUS, not a usage error" >&2
    exit 1
  fi
done
dune exec bin/protolat_cli.exe -- tables --quick table1
