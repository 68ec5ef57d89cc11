"""The benchmark workloads and the checks on their outputs.

Each workload is one simcli scenario. Its items are the units the scenario
completes (threshold searches, BER points, per-trial DPRC runs); an item
fails when its scenario exits with an error or when the check below rejects
its part of the output. The checks accept anything the project's own gates
accept on purpose (regenerated fixtures, a different GA that still respects
the invariants) and reject wrong outputs. Why each workload exists is in
README.md beside this file.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

K_VALUES = (2, 6, 10)
FLAG_NAMES = ("ideal", "imp")


@dataclass
class CheckResult:
    failed: int = 0
    notes: list[str] = field(default_factory=list)
    quality: dict[str, tuple[float, str]] = field(default_factory=dict)

    def fail(self, items: int, note: str) -> None:
        self.failed += items
        self.notes.append(note)


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str
    jobs: int
    flags: tuple[str, ...]        # simcli flags besides --seed/--jobs/--out
    stage_tables: bool            # copy the shipped rate tables in during set-up
    items: int                    # items per scenario invocation
    why: str

    def argv(self, seed: int, jobs: int, out: Path) -> list[str]:
        argv = [self.scenario, *self.flags, "--seed", str(seed),
                "--jobs", str(jobs), "--out", str(out)]
        if self.scenario == "rate-table":
            argv += ["--table-seed", str(seed)]
        return argv


# Sizes: one scenario run takes 2-5 s on a 2-vCPU guest, so that a timed
# loop holds many repetitions; README.md says how they were chosen.
DPRC_TRIALS = 10
RATE_NRX = 1
BER_NRX = (1,)
BER_U = (1, 2, 4)
BER_SINR_DB = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0)
DPRC_TRACE_TRIALS = 5   # simcli's default --trace-trials

# Not timed (README.md says why): selfcheck.py builds these tables at the
# shipped settings and checks them against tests/data/tables.
RATE_TABLES = Workload(
    "rate-tables", "rate-table", 2, ("--nrx", str(RATE_NRX)), False,
    RATE_NRX * 4 * len(FLAG_NAMES),
    "BER kernel (erfc axis loop, 15-node RFO quadrature) builds the N1 ideal/imp "
    "tables by bisection",
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ber-validate", "ber-validate", 1, ("--nrx", *map(str, BER_NRX)), False,
            len(BER_NRX) * len(BER_U) * len(BER_SINR_DB),
            "18 analytic BER points with fresh channels (rng, mmse_weights) plus the "
            "mc_oracle; no bisection, no network layers",
        ),
        Workload(
            "dprc-sweep", "dprc-sweep", 1, ("--trials", str(DPRC_TRIALS)), True,
            DPRC_TRIALS * len(K_VALUES) * len(FLAG_NAMES),
            "DPRC golden-section best response, warm-started GA reference and trace CSVs "
            "on N4 tables; bypasses the BER kernel",
        ),
    )
}


# ---------------------------------------------------------------------------
# canonical outputs

def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def canonical_bytes(path: Path) -> bytes:
    """Output bytes with the nondeterministic parts removed: the runtime_ms
    CSV column, and the manifest's jobs entry (so --jobs 2 and --jobs 1 runs
    of the same inputs compare equal)."""
    if path.suffix == ".csv":
        header, rows = _read_csv(path)
        if "runtime_ms" in header:
            drop = header.index("runtime_ms")
            buf = io.StringIO(newline="")
            writer = csv.writer(buf)
            for row in [header, *rows]:
                writer.writerow(row[:drop] + row[drop + 1:])
            return buf.getvalue().encode()
    if path.name == "manifest.json":
        doc = json.loads(path.read_text())
        doc.pop("jobs", None)
        return json.dumps(doc, indent=2, sort_keys=True).encode()
    return path.read_bytes()


def digest_outputs(out_dir: Path, outputs: list[str]) -> tuple[str, dict[str, str], int]:
    """sha256 over all canonical outputs, per-file sha256s, and their size."""
    total = hashlib.sha256()
    per_file: dict[str, str] = {}
    size = 0
    for rel in sorted(outputs):
        data = canonical_bytes(out_dir / rel)
        per_file[rel] = hashlib.sha256(data).hexdigest()
        total.update(rel.encode() + b"\0" + data + b"\0")
        size += len(data)
    return total.hexdigest(), per_file, size


# ---------------------------------------------------------------------------
# per-workload checks

def _check_rate_tables(out: Path, ref_dir: Path, res: CheckResult) -> None:
    per_table = RATE_NRX * 4
    r_base = json.loads((out / "manifest.json").read_text())["params"]["r_base_bps"]
    devs = []
    for name in FLAG_NAMES:
        fname = f"rates_N{RATE_NRX}_{name}.json"
        path = out / "tables" / fname
        if not path.exists():
            res.fail(per_table, f"{fname}: missing")
            continue
        doc = json.loads(path.read_text())
        entries = doc["entries"]
        rates = [e["rate_bps"] for e in entries]
        thrs = [e["threshold_db"] for e in entries]
        bad = (
            not entries
            or any(b <= a for a, b in zip(rates, rates[1:]))
            or any(b <= a for a, b in zip(thrs, thrs[1:]))
            or any(e["rate_bps"] != r_base * e["m"] * e["u"] for e in entries)
            or not all(math.isfinite(t) for t in thrs)
        )
        if bad:
            res.fail(per_table, f"{fname}: modes not ascending or rate != r_base*m*u")
            continue
        ref_path = ref_dir / fname
        ref = json.loads(ref_path.read_text())
        if ref.get("build") == doc.get("build"):
            # same build settings as the shipped fixture: must match byte for byte
            if path.read_bytes() != ref_path.read_bytes():
                res.fail(per_table, f"{fname}: differs from the shipped fixture")
                continue
        else:
            res.notes.append(f"{fname}: byte comparison with the fixture skipped "
                             "(build seed or draws differ)")
        ref_thr = {(e["m"], e["u"]): e["threshold_db"] for e in ref["entries"]}
        devs += [abs(e["threshold_db"] - ref_thr[(e["m"], e["u"])])
                 for e in entries if (e["m"], e["u"]) in ref_thr]
    res.quality["table_dev_db"] = (max(devs) if devs else float("nan"), "dB")


def _check_ber(out: Path, res: CheckResult) -> None:
    want = {(s, n, u) for n in BER_NRX for u in BER_U for s in BER_SINR_DB}
    parsed = {}
    for fname in ("ber_analytic.csv", "ber_oracle.csv"):
        path = out / fname
        if not path.exists():
            res.fail(len(want), f"{fname}: missing")
            return
        _, rows = _read_csv(path)
        parsed[fname] = {(float(r[0]), int(r[2]), int(r[3])):
                         (float(r[5]), float(r[6]), float(r[7])) for r in rows}
    agree = 0
    for key in sorted(want):
        a = parsed["ber_analytic.csv"].get(key)
        o = parsed["ber_oracle.csv"].get(key)
        if a is None or o is None or not all(map(math.isfinite, a + o)):
            res.fail(1, f"BER point {key}: missing or not finite")
            continue
        # PRIMARY 2's rule: 3 combined standard errors plus one oracle bit error
        if abs(a[0] - o[0]) <= 3.0 * math.hypot(a[1], o[1]) + 1.0 / o[2]:
            agree += 1
    extra = (len(parsed["ber_analytic.csv"]) - len(want), len(parsed["ber_oracle.csv"]) - len(want))
    if extra != (0, 0):
        res.notes.append(f"unexpected BER rows beyond the {len(want)}-point grid: {extra}")
    res.quality["oracle_agree_frac"] = (agree / len(want), "ratio")


def _trial_rows(path: Path, n_rx_values, n_trials, res: CheckResult, value_cols):
    """Rows keyed by (trial, K, n_rx, impaired); fails items that are missing
    or repeated. Returns {key: [values...]}."""
    header, rows = _read_csv(path)
    idx = [header.index(c) for c in value_cols]
    want = {(t, k, n, imp) for t in range(n_trials) for k in K_VALUES
            for n in n_rx_values for imp in ("false", "true")}
    got: dict[tuple, list[int]] = {}
    dup = 0
    for r in rows:
        key = (int(r[0]), int(r[1]), int(r[2]), r[3])
        if key in got:
            dup += 1
        got[key] = [int(r[i]) for i in idx]
    missing = want - set(got)
    if missing or dup or set(got) - want:
        res.fail(len(missing) + dup + len(set(got) - want),
                 f"{path.name}: {len(missing)} missing, {dup} repeated rows")
    return {k: v for k, v in got.items() if k in want}


def _check_means(agg: list[dict], got: dict, n_rx_values, res: CheckResult, fname: str) -> None:
    """Every (K, n_rx, flags) group has an aggregate mean that agrees with the
    CSV, whose values are rounded to whole bps (so a mean may move by 0.5)."""
    means = {(e["k"], e["n_rx"], e["flags"]): e for e in agg}
    bad, items = [], 0
    for k in K_VALUES:
        for n in n_rx_values:
            for name in FLAG_NAMES:
                imp = "false" if name == "ideal" else "true"
                vals = [v[0] for (_, kk, nn, i), v in got.items()
                        if (kk, nn, i) == (k, n, imp)]
                entry = means.get((k, n, name))
                if (entry is None or not vals or len(vals) != entry["n_trials"]
                        or abs(sum(vals) / len(vals) - entry["mean_bps"]) > 0.5):
                    bad.append(f"K={k} n_rx={n} {name}")
                    items += len(vals)
    if bad:
        res.fail(items, f"{fname}: {len(bad)} group means missing or disagreeing "
                        f"with the CSV, e.g. {bad[0]}")


def _check_dprc(out: Path, res: CheckResult) -> None:
    path = out / "dprc_trials.csv"
    if not path.exists():
        res.fail(WORKLOADS["dprc-sweep"].items, "dprc_trials.csv: missing")
        return
    got = _trial_rows(path, (4,), DPRC_TRIALS, res, ["dprc_bps", "mst_bps"])
    above = [key for key, (d, m) in got.items() if d > m]
    if above:
        res.fail(len(above), f"dprc_bps > mst_bps in {len(above)} trials, e.g. {above[0]}")
    agg = json.loads((out / "dprc_aggregate.json").read_text())["mean_dprc"]
    _check_means(agg, got, (4,), res, "dprc_aggregate.json")
    for t in range(min(DPRC_TRACE_TRIALS, DPRC_TRIALS)):
        for k in K_VALUES:
            for name in FLAG_NAMES:
                trace = out / f"dprc_trace_k{k}_n4_{name}_t{t}.csv"
                if not trace.exists() or trace.stat().st_size == 0:
                    res.fail(1, f"{trace.name}: missing")
    dprc = sum(d for d, _ in got.values())
    mst = sum(m for _, m in got.values())
    res.quality["mean_mst_mbps"] = (mst / len(got) / 1e6, "Mbps")
    res.quality["dprc_ratio"] = (dprc / mst, "ratio")


def check_outputs(workload: Workload, out: Path, ref_dir: Path) -> CheckResult:
    res = CheckResult()
    if workload.scenario == "rate-table":
        _check_rate_tables(out, ref_dir, res)
    elif workload.scenario == "ber-validate":
        _check_ber(out, res)
    else:
        _check_dprc(out, res)
    res.failed = min(res.failed, workload.items)
    return res
