#!/usr/bin/env python3
"""Time one simcli scenario on two source trees, side by side in one process.

Usage:
    python3 scripts/ab_inprocess.py OLD_TREE NEW_TREE [--pairs N] -- <simcli args>

Each tree is a checkout of this repository; its src/adhocmimo is imported
under a package name of its own, so both trees live in one interpreter and
share its numpy, allocator and host. After one untimed warm-up call per
side, each pair calls run_experiment once per tree on the same spec, each
call into a fresh output directory, old first in odd pairs and new first in
even ones; the sweeps (mst-sweep, loss-ratio, dprc-sweep) get the tree's own
shipped rate tables (tests/data/tables) staged first, untimed. A call is
timed in process CPU time, so pass --jobs 1: pool workers are not counted.

Prints each side's median and quartiles (numpy.percentile, linear), the
number of pairs in which the new tree took less time, and the median of
the pairs' new/old ratios, which drifts less with the host's speed than the
ratio of the medians. Example:

    python3 scripts/ab_inprocess.py ../parent . --pairs 60 -- ber-validate --nrx 1
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import importlib.util
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

# the scenarios that read rate tables instead of building them
SWEEPS = ("mst-sweep", "loss-ratio", "dprc-sweep")


def load_cli(tree: Path, alias: str):
    """The tree's adhocmimo.experiments_cli, imported as <alias>.experiments_cli."""
    pkg = tree / "src" / "adhocmimo"
    spec = importlib.util.spec_from_file_location(
        alias, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[alias] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{alias}.experiments_cli")


def timed_run(cli, spec, tables: Path, work: Path) -> float:
    """CPU seconds of one run_experiment call into a fresh directory."""
    out = Path(tempfile.mkdtemp(dir=work))
    run = dataclasses.replace(spec, out_dir=out)
    if spec.scenario in SWEEPS:
        (out / "tables").mkdir()
        for n_rx in spec.n_rx_values:
            for name in spec.flag_names:
                fname = cli.table_filename(n_rx, name)
                shutil.copyfile(tables / fname, out / "tables" / fname)
    t0 = time.process_time()
    cli.run_experiment(run)
    elapsed = time.process_time() - t0
    shutil.rmtree(out)
    return elapsed


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    cut = argv.index("--")
    parser = argparse.ArgumentParser(description="in-process A/B timing of two trees")
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--pairs", type=int, default=20)
    args = parser.parse_args(argv[:cut])
    simcli_args = argv[cut + 1:]
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    sides = {}
    for name, tree in (("old", args.old), ("new", args.new)):
        cli = load_cli(tree.resolve(), f"adhocmimo_{name}")
        spec = cli.spec_from_args(simcli_args)
        sides[name] = (cli, spec, tree.resolve() / "tests" / "data" / "tables")
    times = {"old": [], "new": []}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for side in sides.values():
            timed_run(*side, work)   # warm-up: first calls, lazily built tables
        for i in range(args.pairs):
            order = ("old", "new") if i % 2 == 0 else ("new", "old")
            for name in order:
                times[name].append(timed_run(*sides[name], work))

    print(f"simcli {' '.join(simcli_args)}: {args.pairs} pairs, CPU s per call")
    for name, tree in (("old", args.old), ("new", args.new)):
        q1, med, q3 = np.percentile(times[name], [25, 50, 75])
        print(f"  {name} {tree}: median {med:.4f} s (q1 {q1:.4f}, q3 {q3:.4f})")
    old, new = np.array(times["old"]), np.array(times["new"])
    ratio = np.median(new) / np.median(old)
    print(f"  new faster in {int(np.sum(new < old))} of {args.pairs} pairs; "
          f"ratio of medians {ratio:.4f} ({100 * (ratio - 1):+.1f}%), "
          f"median of the pairs' ratios {np.median(new / old):.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
