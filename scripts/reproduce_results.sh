#!/usr/bin/env bash
# Run every scenario behind the study's figures and tables, in dependency
# order, into one output directory.
#
# Usage: scripts/reproduce_results.sh [OUT_DIR] [extra simcli args...]
#   scripts/reproduce_results.sh                     quick pass, default sizes
#   scripts/reproduce_results.sh out --trials 1000   full-size trial counts
#
# Every run is seeded and no output records wall time, so a repeated
# invocation with the same arguments, at any --jobs, rewrites every file byte
# for byte (the manifests' jobs entry aside). Pass --jobs N to fan trials out
# over up to N processes, at most one per core.
set -euo pipefail

out="${1:-out}"
shift || true

run() {
    echo "==> simcli $*"
    python3 -m adhocmimo.experiments_cli "$@" --out "$out"
}

# link-level inputs: analytic SINR maps, oracle cross-check, rate tables
run sinr-map "$@"
run ber-validate "$@"
run rate-table "$@"

# network-level results, all reading the tables built above
run mst-sweep --build-tables "$@"
run loss-ratio --build-tables "$@"
run dprc-sweep --build-tables "$@"

echo "results in $out/"
