#!/usr/bin/env bash
# Run every scenario behind the study's figures and tables, in dependency
# order, into one output directory.
#
# Usage: scripts/reproduce_results.sh [OUT_DIR] [extra simcli args...]
#   scripts/reproduce_results.sh                 quick pass, default sizes
#   scripts/reproduce_results.sh out --paper     full-size trial counts
#
# Every run is seeded, so a repeated invocation with the same arguments
# rewrites byte-identical CSVs, apart from the runtime_ms column of the
# trial CSVs. Pass --jobs N to fan trials out over N processes.
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
