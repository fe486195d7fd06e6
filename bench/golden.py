"""Golden results and the check every benchmark run applies to its output.

Each golden table ``goldens/<name>.csv`` holds the result records of one
workload configuration for config seeds 1..GOLDEN_SEEDS, recorded from
the package at the commit that introduced the benchmark.  Floats are
stored at full precision (``repr``) because ``results.csv`` rounds to 12
significant digits, which is coarser than the 1e-12 relative tolerance.

Re-record (only when a change is meant to alter results) with:
    python3 bench/golden.py --record
"""
from __future__ import annotations

import csv
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN_DIR = HERE / "goldens"
FIELDS = ("scheme", "snr_db", "esr", "ecr", "epr", "stderr", "delta_mean", "n_clusters_mean")
RATE_RTOL = 1e-12      # esr, ecr, epr, stderr
SUM_ATOL = 1e-9        # esr == ecr + epr


def load(name: str, seed: int) -> list[list]:
    """Golden records of table ``name`` for one config seed, in file order."""
    rows = []
    with open(GOLDEN_DIR / f"{name}.csv", newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            if int(row["seed"]) == seed:
                rows.append([row["scheme"]] + [float(row[f]) for f in FIELDS[1:]])
    if not rows:
        raise KeyError(f"no golden records for {name} seed {seed}")
    return rows


def _close(a: float, b: float, rtol: float) -> bool:
    return a == b or abs(a - b) <= rtol * max(abs(a), abs(b))


def record_ok(got: list, want: list) -> bool:
    """One result record against its golden: labels, split and cluster count exact,
    rates to RATE_RTOL, and the additive decomposition esr == ecr + epr."""
    scheme, snr, esr, ecr, epr, _, delta, n_clusters = got
    return (scheme == want[0] and snr == want[1]
            and delta == want[6] and n_clusters == want[7]
            and all(_close(g, w, RATE_RTOL) for g, w in zip(got[2:6], want[2:6]))
            and math.isfinite(esr) and abs(esr - (ecr + epr)) <= SUM_ATOL)


def count_failed(records: list[list], golden: list[list]) -> int:
    """Records that fail the golden check; a missing or extra record fails too."""
    failed = sum(1 for got, want in zip(records, golden) if not record_ok(got, want))
    return failed + abs(len(records) - len(golden))


def record_all(seeds: range) -> None:
    from run import Runner
    from workloads import GOLDENS

    GOLDEN_DIR.mkdir(exist_ok=True)
    runner = Runner(HERE.parent)
    try:
        for name, workload in GOLDENS.items():
            with open(GOLDEN_DIR / f"{name}.csv", "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(("seed",) + FIELDS)
                for seed in seeds:
                    report = runner.experiment(workload.config_overrides(seed))
                    for rec in report["records"]:
                        writer.writerow([seed, rec[0]] + [repr(float(v)) for v in rec[1:]])
                    print(f"{name} seed {seed}: {len(report['records'])} records",
                          file=sys.stderr)
    finally:
        runner.close()


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    from workloads import GOLDEN_SEEDS
    record_all(range(1, GOLDEN_SEEDS + 1))
