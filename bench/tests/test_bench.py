"""Self-tests of the benchmark: tracing leaves results intact, and the golden
check counts corrupted and aborted runs as failures.

Run with:  python3 -m pytest bench/tests -q
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import golden  # noqa: E402
import run  # noqa: E402
from tracing import PER_LAYER_METRICS, STAGES, Tracer  # noqa: E402
from workloads import CONVENTIONAL_SCHEMES, GOLDEN_SEEDS, WORKLOADS, config_seed  # noqa: E402

import rscf  # noqa: E402
from rscf.config import resolve  # noqa: E402

# small enough for a test, and seed 5 redraws one realization on a
# rank-deficient zero-forcing Gram matrix, so the failure path is traced too
SMALL = ["n_realizations=3", "n_err=10", "seed=5",
         "schemes=BS-MF,RS-BS-MF,CF-ZF-SP,RS-CF-ZF-SP,RS-CF-MMSE-RD"]


@pytest.fixture(scope="module")
def runner():
    r = run.Runner(ROOT)
    yield r
    r.close()


def _outputs(out: Path) -> tuple[bytes, bytes]:
    return (out / "results.csv").read_bytes(), (out / "trials.jsonl").read_bytes()


def test_traced_run_is_byte_identical_to_untraced(tmp_path):
    config = resolve(None, SMALL)
    rscf.harness.run_experiment(config, tmp_path / "plain")
    tracer = Tracer()
    tracer.install(rscf)
    try:
        rscf.harness.run_experiment(config, tmp_path / "traced")
    finally:
        tracer.uninstall()
    assert _outputs(tmp_path / "traced") == _outputs(tmp_path / "plain")
    assert not tracer.missing

    m = tracer.summary(config.m)
    assert set(m) == {n for n, _, _ in PER_LAYER_METRICS if not n.startswith("trace.")}
    assert m["harness.realization.calls"] == 3
    assert m["harness.realization.redraws"] == m["precoding.private.failures"] == 1
    assert m["harness.realization.attempts"] == 4
    # realizations x SNR points x RS schemes, plus the RS-BS-MF search that ran
    # in the redrawn attempt before CF-ZF-SP failed
    assert m["power.search.calls"] == 3 * 7 * 3 + 1
    assert m["power.search.candidates_per_call"] == 20
    root = tracer.spans[0]
    assert root.layer == "harness.run"
    stages = sum(m[f"stage.{s}_s"] for s in STAGES)
    assert stages == pytest.approx((1 - m["stage.uncovered_share"]) * (root.end - root.start))
    # uninstall restores every patched attribute
    assert rscf.harness.run_experiment.__module__ == "rscf.harness"
    assert not hasattr(rscf.harness.run_experiment, "__wrapped__")


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _, _ in PER_LAYER_METRICS]
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)


def test_config_seed_maps_every_seed_onto_a_golden():
    assert config_seed(1) == 1
    assert sorted(config_seed(s) for s in range(1, GOLDEN_SEEDS + 1)) == list(
        range(1, GOLDEN_SEEDS + 1))
    assert all(1 <= config_seed(s) <= GOLDEN_SEEDS for s in (-7, 0, 17, 10**9))


def test_corrupted_golden_row_raises_error_rate(runner):
    overrides = WORKLOADS["reference"].config_overrides(1)
    overrides = [o for o in overrides if not o.startswith("n_realizations")] + [
        "n_realizations=1", "n_err=10"]
    report = runner.experiment(overrides)
    good = [list(r) for r in report["records"]]

    tally = run.Tally(good)
    tally.check(report)
    assert (tally.failed, tally.attempted) == (0, len(good))

    for column, value in ((2, good[5][2] * (1 + 1e-11)),              # esr beyond 1e-12
                          (6, good[5][6] + 0.05)):                     # chosen split
        corrupted = [list(r) for r in good]
        corrupted[5][column] = value
        tally = run.Tally(corrupted)
        tally.check(report)
        assert (tally.failed, tally.attempted) == (1, len(good))


def test_golden_tolerances():
    want = ["RS-CF-MF-SP", 10.0, 3.0, 1.0, 2.0, 0.1, 0.25, 2.0]

    def changed(*pairs):
        got = list(want)
        for column, value in pairs:
            got[column] = value
        return got

    assert golden.record_ok(list(want), want)
    assert golden.record_ok(changed((2, 3.0 * (1 + 1e-13)), (3, 1.0 * (1 + 1e-13)),
                                    (4, 2.0 * (1 + 1e-13))), want)
    assert not golden.record_ok(changed((5, 0.1 * (1 + 1e-11))), want)    # stderr
    assert not golden.record_ok(changed((6, 0.25 + 2 ** -54)), want)      # split: exact
    assert not golden.record_ok(changed((7, 2.0 + 1e-15)), want)          # clusters: exact
    broken = ["RS-CF-MF-SP", 10.0, 3.0, 1.0, 2.0 - 1e-6, 0.1, 0.25, 2.0]
    assert not golden.record_ok(list(broken), broken)                   # esr != ecr + epr
    assert golden.count_failed([want], [want, want]) == 1


def test_aborted_run_counts_every_record_as_failed(runner):
    # cluster_mode=auto with threshold selection exhausts the redraws of
    # realization 4 at seed 1 (see NOTES.md), so every experiment aborts
    overrides = [f"schemes={CONVENTIONAL_SCHEMES}", "n_err=10", "cluster_mode=auto",
                 "selection=threshold", "n_realizations=5", "seed=1"]
    golden_rows = [["x"] + [0.0] * 7] * 77
    sample = run.measure(runner, overrides, golden_rows, seconds=0.0, trace=False,
                         spans_path=runner.work / "unused.jsonl")
    tally = sample["tally"]
    assert not sample["runs"][False]
    assert tally.attempted == run.MIN_EXPERIMENTS * 77
    assert tally.failed == tally.attempted
    assert run.end_to_end(sample) == {}
