#!/usr/bin/env bash
# Run every scenario behind the study's figures and tables, in dependency
# order. Each scenario writes into its own OUT_DIR/<scenario>/, so each keeps
# its manifest.json; all of them share the rate tables in OUT_DIR/tables
# through a tables symlink.
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
    mkdir -p "$out/tables" "$out/$1"
    ln -sfn ../tables "$out/$1/tables"
    python3 -m adhocmimo.experiments_cli "$@" --out "$out/$1"
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
