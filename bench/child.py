"""One measured rscf process: set up, optionally run one experiment, report JSON.

Usage: python3 bench/child.py '<json spec>'

The spec holds ``overrides`` (rscf ``key=value`` strings), ``out_dir``,
``trace`` and ``setup_only``, and optionally ``spans_path``.  The last
line of standard output is a JSON object with ``ready`` (the
``time.monotonic()`` reading just before ``run_experiment`` is called,
which the parent subtracts from its spawn time to get the set-up time),
and for an experiment ``wall_s``, ``peak_rss_mb`` and every result record
at full precision.  The package must be imported from ``src/`` next to
this directory; anything else exits with code 2.
"""
from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(spec: dict) -> dict:
    import numpy
    import rscf
    from rscf import config as rscf_config

    if Path(rscf.__file__).resolve().parent != ROOT / "src" / "rscf":
        print(f"rscf imported from {rscf.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        sys.exit(2)
    config = rscf_config.resolve(None, spec["overrides"])
    ready = time.monotonic()
    if spec.get("setup_only"):
        return {"ready": ready}

    tracer = None
    if spec.get("trace"):
        from tracing import Tracer
        tracer = Tracer()
        tracer.install(rscf)
    started = time.perf_counter()
    records, rows = rscf.harness.run_experiment(config, spec["out_dir"])
    wall = time.perf_counter() - started

    usage_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    usage_workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    out = Path(spec["out_dir"])
    report = {
        "ready": ready,
        "wall_s": wall,
        # main process peak plus the largest reaped worker's peak (ru_maxrss is in KiB)
        "peak_rss_mb": (usage_self + usage_workers) / 1024.0,
        "n_realizations": config.n_realizations,
        "records": [[r.scheme, r.snr_db, r.esr, r.ecr, r.epr, r.stderr, r.delta_mean,
                     r.n_clusters_mean] for r in records],
        "n_rows": len(rows),
        "csv_lines": len((out / "results.csv").read_text(encoding="utf-8").splitlines()),
        "jsonl_lines": len((out / "trials.jsonl").read_text(encoding="utf-8").splitlines()),
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        tracer.uninstall()
        report["layers"] = tracer.summary(config.m)
        report["missing"] = tracer.missing
        if spec.get("spans_path"):
            tracer.write_spans(spec["spans_path"])
    return report


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
