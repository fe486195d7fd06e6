"""Collect benchmark results into one BENCH_<n>.json trajectory entry.

Usage: python3 bench/summarize.py OUT.json [NOTE]

Reads every ``.bench_work/results/*.json`` written by ``bench/run.py`` and
writes, per workload, the median and quartiles of each metric over the
runs found (one run per seed), the machine of the runs and the
golden-check totals.  Traced runs are summarised separately from untraced
ones.
"""
from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarize(results: list[dict]) -> dict:
    out: dict = {}
    for r in sorted(results, key=lambda r: (r["workload"], r["trace"], r["seed"])):
        entry = out.setdefault(r["workload"], {}).setdefault(
            "traced" if r["trace"] else "untraced",
            {"seeds": [], "attempted": 0, "failed": 0, "machine": r["machine"], "metrics": {}})
        entry["seeds"].append(r["seed"])
        entry["attempted"] += r["attempted"]
        entry["failed"] += r["failed"]
        for name, m in r["metrics"].items():
            entry["metrics"].setdefault(name, {"unit": m["unit"], "values": []})[
                "values"].append(m["value"])
    for runs in out.values():
        for entry in runs.values():
            for m in entry["metrics"].values():
                values = m.pop("values")
                q = (statistics.quantiles(values, n=4) if len(values) > 1
                     else [values[0]] * 3)
                m.update(median=q[1], q1=q[0], q3=q[2], n=len(values))
    return out


def main(argv: list[str]) -> int:
    if not argv:
        sys.exit(__doc__)
    results = [json.loads(p.read_text(encoding="utf-8"))
               for p in sorted((ROOT / ".bench_work" / "results").glob("*.json"))]
    doc = {"note": argv[1] if len(argv) > 1 else "", "workloads": summarize(results)}
    Path(argv[0]).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
