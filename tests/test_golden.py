"""The benchmark's golden results, checked at tier 1.

Every benchmark run checks its result records against the full-precision
goldens in ``bench/goldens``: split fractions exact, rates to 1e-12
relative.  This test applies the same check, with the benchmark's own
code, to config seed 1 of each workload and to config seeds 2 to 4 of
each workload with its own golden, so a faster path that moves a split
fraction fails here and not only inside the benchmark.  Like the
benchmark, it also checks that ``trials.jsonl`` has one line per trial row
and ``results.csv`` one per record plus its header.
``reference-w2`` runs two forked workers and is checked against the
``reference`` golden, as the benchmark does.
"""
import importlib.util
import sys
from pathlib import Path

import pytest

from rscf import config, harness

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while it loads
    spec.loader.exec_module(module)
    return module


golden = load_bench("golden")
workloads = load_bench("workloads")


def assert_matches_golden(workload, seed, out_dir):
    cfg = config.resolve(None, workload.config_overrides(seed))
    records, rows = harness.run_experiment(cfg, out_dir)
    got = [[r.scheme, r.snr_db, r.esr, r.ecr, r.epr, r.stderr, r.delta_mean, r.n_clusters_mean]
           for r in records]
    want = golden.load(workload.golden, seed)
    assert [g[:2] for g, w in zip(got, want) if not golden.record_ok(g, w)] == []
    assert golden.count_failed(got, want) == 0
    # the benchmark fails every record of a run whose files disagree with these counts
    lines = {name: len((out_dir / name).read_text(encoding="utf-8").splitlines())
             for name in ("results.csv", "trials.jsonl")}
    assert lines == {"results.csv": len(records) + 1, "trials.jsonl": len(rows)}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_config_seed_1_matches_golden(name, tmp_path):
    # reference-w2 runs two forked workers and is checked against the reference golden
    assert_matches_golden(workloads.WORKLOADS[name], 1, tmp_path)


@pytest.mark.parametrize("seed", [2, 3, 4])
@pytest.mark.parametrize("name", sorted(workloads.GOLDENS))
def test_config_seeds_2_to_4_match_golden(name, seed, tmp_path):
    # a split fraction that flips on another seed's draws fails here too
    assert_matches_golden(workloads.GOLDENS[name], seed, tmp_path)
