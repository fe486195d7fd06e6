"""rscf benchmark: timed, golden-checked runs of one workload.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout that has ``src/rscf``.  Every
experiment runs ``rscf.harness.run_experiment`` in a fresh child process
(``bench/child.py``) with single-threaded BLAS, writing its outputs to a
temporary directory under ``.bench_work/``.  Within ``--seconds`` the
run first spawns set-up probes, then repeats the experiment and
reports medians.  Every run's records are checked against the golden
table of the workload (see golden.py); the seed picks the config seed.

With ``--trace 0`` the metrics are the end-to-end ones (wall_s,
realizations_per_s, setup_s, peak_rss_mb).  With ``--trace 1`` untraced
and traced experiments alternate at one worker, and the metrics are the
per-layer ones from tracing.py plus the tracing overhead.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; ``failed / attempted`` is the error rate.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import golden
from tracing import PER_LAYER_METRICS, STAGES
from workloads import WORKLOADS, config_seed

HERE = Path(__file__).resolve().parent

SETUP_PROBES = 10       # set-up-only processes per run, on top of one per experiment
MIN_EXPERIMENTS = 3     # untraced experiments per run (traced runs: pairs, at least 2)
EXPERIMENT_TIMEOUT_S = 120.0
PROBE_TIMEOUT_S = 60.0
END_TO_END_UNITS = {"wall_s": "s", "realizations_per_s": "1/s", "setup_s": "s",
                    "peak_rss_mb": "MB"}


class ChildFailed(RuntimeError):
    """A measured process exited non-zero, timed out or printed no report."""


class Runner:
    """Spawns measured child processes of one checkout."""

    def __init__(self, root: Path):
        self.root = root
        self.work = root / ".bench_work"
        self.work.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="run-", dir=self.work))
        self._count = 0
        # single-threaded BLAS keeps one process per core, and workers=2 at two threads
        self.env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                        PYTHONPATH=os.pathsep.join(
                            [str(root / "src")] + ([os.environ["PYTHONPATH"]]
                                                   if os.environ.get("PYTHONPATH") else [])))

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)

    def setup_probe(self, overrides: list[str]) -> float:
        return self._spawn({"overrides": overrides, "setup_only": True},
                           PROBE_TIMEOUT_S)["setup_s"]

    def experiment(self, overrides: list[str], trace: bool = False,
                   spans_path: Path | None = None) -> dict:
        self._count += 1
        out_dir = self.tmp / f"exp-{self._count}"
        try:
            return self._spawn({"overrides": overrides, "out_dir": str(out_dir),
                                "trace": trace,
                                "spans_path": str(spans_path) if spans_path else None},
                               EXPERIMENT_TIMEOUT_S)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)

    def _spawn(self, spec: dict, timeout: float) -> dict:
        cmd = [sys.executable, str(HERE / "child.py"), json.dumps(spec)]
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=self.root, env=self.env, text=True,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                start_new_session=True)
        try:
            out, err = proc.communicate(timeout=timeout)
        except BaseException:
            # the child leads its own process group, which holds any pool workers
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
        if proc.returncode != 0:
            raise ChildFailed(f"exit code {proc.returncode}: {err.strip()[-2000:]}")
        try:
            report = json.loads(out.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError) as exc:
            raise ChildFailed(f"no report from child: {exc}") from exc
        report["setup_s"] = report["ready"] - spawned
        return report


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def machine_info() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version()}


class Tally:
    """Golden-check counts over all experiments of one run."""

    def __init__(self, golden_rows: list[list]):
        self.golden_rows = golden_rows
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def check(self, report: dict) -> None:
        records = report["records"]
        failed = golden.count_failed(records, self.golden_rows)
        if (report["csv_lines"] != len(records) + 1
                or report["jsonl_lines"] != report["n_rows"]):
            failed = len(self.golden_rows)
        self.attempted += len(self.golden_rows)
        self.failed += failed
        if failed:
            self.errors.append(f"{failed} records failed the golden check")

    def abort(self, exc: Exception) -> None:
        """An aborted run counts every one of its records as failed."""
        self.attempted += len(self.golden_rows)
        self.failed += len(self.golden_rows)
        self.errors.append(f"experiment aborted: {exc}")


def measure(runner: Runner, overrides: list[str], golden_rows: list[list],
            seconds: float, trace: bool, spans_path: Path) -> dict:
    """Set-up probes, then experiments until the time is up; raw samples per kind."""
    deadline = time.monotonic() + seconds
    tally = Tally(golden_rows)
    setup = [runner.setup_probe(overrides) for _ in range(SETUP_PROBES)]
    runs: dict[bool, list[dict]] = {False: [], True: []}
    kinds = (False, True) if trace else (False,)
    minimum = 2 * len(kinds) if trace else MIN_EXPERIMENTS
    last = 0.0
    i = 0
    while i < minimum or time.monotonic() + last < deadline:
        traced = kinds[i % len(kinds)]
        i += 1
        started = time.monotonic()
        try:
            # spans of the first traced experiment are kept on disk
            first_traced = traced and not runs[True]
            report = runner.experiment(overrides, traced, spans_path if first_traced else None)
        except ChildFailed as exc:
            tally.abort(exc)
            continue
        finally:
            last = time.monotonic() - started
        tally.check(report)
        setup.append(report["setup_s"])
        runs[traced].append(report)
    return {"setup": setup, "runs": runs, "tally": tally}


def end_to_end(sample: dict) -> dict:
    runs = sample["runs"][False]
    if not runs:
        return {}
    wall = statistics.median(r["wall_s"] for r in runs)
    return {
        "wall_s": wall,
        "realizations_per_s": runs[0]["n_realizations"] / wall,
        "setup_s": statistics.median(sample["setup"]),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
    }


def per_layer(sample: dict) -> dict:
    untraced, traced = sample["runs"][False], sample["runs"][True]
    if not traced or not untraced:
        return {}
    out = {name: statistics.median(r["layers"][name] for r in traced)
           for name, _, _ in PER_LAYER_METRICS if not name.startswith("trace.")}
    out["trace.traced_wall_s"] = statistics.median(r["wall_s"] for r in traced)
    out["trace.untraced_wall_s"] = statistics.median(r["wall_s"] for r in untraced)
    out["trace.overhead_s"] = out["trace.traced_wall_s"] - out["trace.untraced_wall_s"]
    return out


def report_lines(args, cseed: int, sample: dict, metrics: dict, units: dict,
                 machine: dict) -> list[str]:
    tally = sample["tally"]
    lines = [f"workload {args.workload}  seed {args.seed} (config seed {cseed})  "
             f"trace {args.trace}  seconds {args.seconds}",
             "machine " + json.dumps(machine, sort_keys=True)]
    walls = {kind: [r["wall_s"] for r in runs] for kind, runs in sample["runs"].items()}
    for kind, values in walls.items():
        if values:
            q1, q2, q3 = _quartiles(values)
            lines.append(f"{'traced' if kind else 'untraced'} wall_s: median {q2:.4f} "
                         f"q1 {q1:.4f} q3 {q3:.4f} max {max(values):.4f} n {len(values)}")
    q1, q2, q3 = _quartiles(sample["setup"])
    lines.append(f"setup_s: median {q2:.4f} q1 {q1:.4f} q3 {q3:.4f} "
                 f"max {max(sample['setup']):.4f} n {len(sample['setup'])}")
    rate = tally.failed / tally.attempted if tally.attempted else 1.0
    lines.append(f"error_rate: {tally.failed}/{tally.attempted} = {rate:.6g}")
    lines += [f"error: {e}" for e in tally.errors[:5]]
    if args.trace and metrics:
        total = metrics["trace.traced_wall_s"]
        lines.append(f"stage table (traced run, {total:.4f} s):")
        for stage in STAGES:
            t = metrics[f"stage.{stage}_s"]
            lines.append(f"  {stage:<18} {t:9.4f} s  {100 * t / total:5.1f}%")
        lines.append(f"  {'uncovered':<18} {100 * metrics['stage.uncovered_share']:21.1f}%")
        missing = sample["runs"][True][0].get("missing")
        if missing:
            lines.append("not traced (missing): " + ", ".join(missing))
    for name, value in metrics.items():
        lines.append(f"{name} = {value:.6g} {units[name]}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = HERE.parent
    if not (root / "src" / "rscf" / "__init__.py").is_file():
        print(f"no rscf package under {root / 'src'}: run from a full checkout",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    cseed = config_seed(args.seed)
    golden_rows = golden.load(workload.golden, cseed)
    # traced runs see one process only, so they run at one worker
    overrides = workload.config_overrides(cseed, workers=1 if args.trace else None)

    runner = Runner(root)
    spans_path = runner.work / f"spans-{args.workload}-seed{args.seed}.jsonl"
    try:
        sample = measure(runner, overrides, golden_rows, args.seconds, bool(args.trace),
                         spans_path)
    finally:
        runner.close()

    if args.trace:
        metrics = per_layer(sample)
        units = {name: unit for name, unit, _ in PER_LAYER_METRICS}
    else:
        metrics = end_to_end(sample)
        units = END_TO_END_UNITS
    runs = sample["runs"][False] + sample["runs"][True]
    machine = dict(machine_info(), numpy=runs[0]["numpy"] if runs else None,
                   workers=1 if args.trace else workload.workers)
    tally = sample["tally"]
    result = {
        "correct": tally.failed == 0 and bool(metrics),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, config_seed=cseed,
                  trace=args.trace, machine=machine, setup_samples=sample["setup"],
                  wall_samples={str(k): [r["wall_s"] for r in v]
                                for k, v in sample["runs"].items()})
    results_dir = runner.work / "results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")

    print("\n".join(report_lines(args, cseed, sample, metrics, units, machine)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
