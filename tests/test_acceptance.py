"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The ergodic-curve criteria share one full-scale reference run (100
realizations x 100 error draws over the 0..30 dB grid with the default
master seed); everything else uses freshly seeded instances on the
fixture network of ``fixture_network.py``.  Run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from rscf import channel as chan
from rscf import harness
from rscf import precoding as prec
from rscf import rates
from rscf.config import ExperimentConfig
from rscf.harness import random_instance, seeded_rng

from fixture_network import FIXTURE


def report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:02d}] {status} — {detail}")
    return ok


@pytest.fixture(scope="module")
def reference_run():
    config = ExperimentConfig()
    start = time.perf_counter()
    records, rows = harness.run_experiment(config)
    elapsed = time.perf_counter() - start
    esr = {(r.scheme, r.snr_db): r.esr for r in records}
    return config, esr, elapsed


def test_criterion_01_closed_form_equivalence():
    # 1000 seeded instances, three estimate-quality levels, all five
    # constructions; closed forms match the rate kernel's one-draw view to 1e-9.
    start = time.perf_counter()
    kinds = tuple(prec.CONSTRUCTIONS)
    levels = (0.0, 0.025, 0.1)
    count = 1000
    worst = harness._closed_form_residual(
        random_instance(i, replace(FIXTURE, sigma_e2=levels[i % len(levels)]),
                        kind=kinds[i % len(kinds)])
        for i in range(count))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed <= 60.0
    assert report(1, ok, f"{count} instances, max rel residual {worst:.2e}, "
                         f"{elapsed:.1f} s"), worst
    assert worst <= 1e-9
    assert elapsed <= 60.0


def test_criterion_02_zero_split_collapse():
    worst = harness._zero_split_residual(
        random_instance(seed, FIXTURE, kind=prec.LABEL_MF_SP, delta=0.0) for seed in range(100))
    ok = worst <= 1e-12
    assert report(2, ok, f"100 realizations, max |difference| {worst:.2e}"), worst


def test_criterion_03_power_budget():
    worst_budget, _, worst_trace = harness._budget_residuals(
        random_instance(seed, FIXTURE, kind=kind, delta=(seed % 10) / 10.0)
        for seed in range(50) for kind in (prec.LABEL_ZF_SP, prec.LABEL_MMSE_SP))
    ok = worst_budget <= 1e-9 and worst_trace <= 1e-9
    assert report(3, ok, f"amplitude budget residual {worst_budget:.2e}, "
                         f"trace residual {worst_trace:.2e}")


def test_criterion_04_zf_orthogonality():
    worst_norm, worst_mui = harness._zf_residuals(
        random_instance(seed, replace(FIXTURE, sigma_e2=0.0), kind=prec.LABEL_ZF_SP)
        for seed in range(50))
    ok = worst_norm <= 1e-9 and worst_mui <= 1e-18
    assert report(4, ok, f"max residual {worst_norm:.2e}, max MUI/signal {worst_mui:.2e}")


def test_criterion_05_rate_split_gain_band(reference_run):
    config, esr, elapsed = reference_run
    gains = [(esr[("RS-CF-MF-SP", s)] / esr[("CF-MF", s)] - 1.0) * 100.0
             for s in config.snr_grid_db]
    always_above = all(esr[("RS-CF-MF-SP", s)] >= esr[("CF-MF", s)]
                       for s in config.snr_grid_db)
    peak = max(gains)
    ok = always_above and 3.0 <= peak <= 15.0 and elapsed <= 600.0
    assert report(5, ok, f"gains % {['%.1f' % g for g in gains]}, peak {peak:.2f}, "
                         f"run {elapsed:.0f} s")


def test_criterion_06_mmse_high_snr_trend(reference_run):
    config, esr, _ = reference_run
    rs_slope = esr[("RS-CF-MMSE-SP", 30.0)] - esr[("RS-CF-MMSE-SP", 20.0)]
    cf_slope = esr[("CF-MMSE", 30.0)] - esr[("CF-MMSE", 20.0)]
    ok = rs_slope > cf_slope and cf_slope < 1.0
    assert report(6, ok, f"rate-split slope {rs_slope:.3f} vs plain slope {cf_slope:.3f}")


def test_criterion_07_cf_vs_bs_ordering(reference_run):
    config, esr, _ = reference_run
    diffs = {s: esr[("CF-MF", s)] - esr[("BS-MF", s)] for s in config.snr_grid_db}
    ok = all(d > 0 for d in diffs.values())
    detail = " ".join(f"{s:.0f}dB:{d:+.2f}" for s, d in diffs.items())
    assert report(7, ok, detail)


def test_criterion_08_partition_invariants():
    bad = harness._partition_violations(FIXTURE, (
        np.random.default_rng(seed).lognormal(sigma=1.8, size=(8, 4)) for seed in range(1000)))
    ok = bad == 0
    assert report(8, ok, f"1000 selection matrices, {bad} violations")


def test_criterion_09_complexity_scaling():
    r1 = harness._synthetic_flops_per_ap(32, 16, cluster_size=4)
    r2 = harness._synthetic_flops_per_ap(64, 32, cluster_size=4)
    change = abs(r2 - r1) / r1
    ok = change < 0.05
    assert report(9, ok, f"per-AP cost {r1:.2f} -> {r2:.2f}, change {change * 100:.2f}%")


def test_criterion_09_counted_from_the_constructions(monkeypatch):
    # criterion 9's bound on the factorisations the SVD beams and RU-MMSE-RD
    # actually run on drawn networks at n_c = K/4: a*b*min(a, b) per SVD of an
    # (a, b) matrix and k^3 per (k, k) inverse, per AP, averaged over 5 seeds
    costs = []
    svd, inv = np.linalg.svd, np.linalg.inv

    def counted_svd(a, *args, **kwargs):
        costs.append(a.shape[0] * a.shape[1] * min(a.shape))
        return svd(a, *args, **kwargs)

    def counted_inv(a):
        costs.append(a.shape[0] ** 3)
        return inv(a)

    per_ap = []
    for m, k in ((32, 16), (64, 32)):
        network = replace(ExperimentConfig(), m=m, k=k, cluster_mode="fixed", n_c=k // 4)
        total = 0.0
        for seed in range(5):
            inputs = random_instance(seed, network, kind=prec.LABEL_RU_MMSE_RD)
            costs.clear()
            with monkeypatch.context() as patch:
                patch.setattr(np.linalg, "svd", counted_svd)
                patch.setattr(np.linalg, "inv", counted_inv)
                prec.common_precoder(inputs.g_bar, inputs.partition)
                prec.construct(prec.LABEL_RU_MMSE_RD, inputs.g_bar, inputs.partition,
                               inputs.power.pt, inputs.sigma_w2)
            assert len(costs) == 2 * inputs.partition.n_clusters
            total += sum(costs) / m
        per_ap.append(total / 5)
    r1, r2 = per_ap
    change = abs(r2 - r1) / r1
    ok = change < 0.05
    assert report(9, ok, f"counted per-AP cost {r1:.2f} -> {r2:.2f}, "
                         f"change {change * 100:.2f}%")


def test_criterion_10_channel_moments():
    sigma_e2 = 0.025
    zeta = np.full((1000, 100), 0.43)
    g = seeded_rng(123)
    real = chan.draw_channel(zeta, math.sqrt(sigma_e2), chan.complex_normal(g, zeta.shape),
                             chan.complex_normal(g, zeta.shape))
    var_hat = float(np.mean(np.abs(real.g_hat) ** 2)) / 0.43
    var_err = float(np.mean(np.abs(real.g_err) ** 2)) / 0.43
    ok = abs(var_hat - 1.0) <= 0.02 and abs(var_err - sigma_e2) <= 0.02 * sigma_e2
    assert report(10, ok, f"Var(est)/zeta = {var_hat:.4f}, "
                          f"Var(err)/zeta = {var_err:.5f} (target {sigma_e2})")


def test_criterion_11_worker_determinism(tmp_path):
    small = ExperimentConfig(n_realizations=6, n_err=12, snr_grid_db=(0.0, 20.0),
                             schemes=("CF-MF", "RS-CF-MF-SP", "RS-CF-MMSE-RD"), seed=2)
    harness.run_experiment(small, out_dir=tmp_path / "w1")
    harness.run_experiment(replace(small, workers=3),
                           out_dir=tmp_path / "w3")
    same_csv = ((tmp_path / "w1" / "results.csv").read_bytes()
                == (tmp_path / "w3" / "results.csv").read_bytes())
    same_log = ((tmp_path / "w1" / "trials.jsonl").read_bytes()
                == (tmp_path / "w3" / "trials.jsonl").read_bytes())
    ok = same_csv and same_log
    assert report(11, ok, f"1 vs 3 workers: csv identical {same_csv}, "
                          f"log identical {same_log}")
