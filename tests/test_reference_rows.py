"""A realization's trial rows rebuilt from the model, one user, draw and fraction at a time.

The run evaluates a realization through stacked SNR axes, one-budget sets,
slice chunks, per-slice views and stacked allocations written back to
entries.  This reference rebuilds every (scheme, SNR) row from plain
pieces instead: the scheme's precoders as ``realization_precoders`` builds
them at that point's own budget, the side's error stack redrawn from its
seed, ``sinr_oracle`` per user, draw and grid fraction, and the first
fraction within the search's near-tie tolerance of the best score
(differential testing: McKeeman, Digital Technical Journal 10(1), 1998).
"""
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from rscf import channel as chan
from rscf import checks, harness
from rscf import power as pw
from rscf.config import ExperimentConfig, parse_scheme

BASE = ExperimentConfig(n_realizations=2, n_err=4, snr_grid_db=(0.0, 15.0, 30.0), seed=5)


def candidates(config, partition, pt):
    """(delta, allocation) of every split candidate, in the search's order."""
    k, n_c, grid = config.k, partition.n_clusters, pw.delta_grid(config.power_grid_step)
    if config.power_mode == "per_cluster_exhaustive" and n_c <= 2:
        table = sorted((round(sum(combo), 12), combo)
                       for combo in itertools.product(grid, repeat=n_c)
                       if round(sum(combo), 12) < 1.0 - 1e-12)
        return [(total, pw.PowerAllocation(np.sqrt(np.array(combo) * pt),
                                           pw.uniform_private(pt, total, k), total, pt))
                for total, combo in table]
    return [(delta, pw.equal_split(pt, delta, n_c, k)) for delta in grid]


def oracle_rates(draws, partition, pset, alloc):
    """Sum rate and per-user mean common and private rates over the draws."""
    k = draws[0].g_hat.shape[1]
    mean = {}
    for stream in ("common", "private"):
        mean[stream] = np.mean([[math.log2(1.0 + checks.sinr_oracle(
            u, checks.RateInputs(draw, None, partition, pset, None, alloc), stream))
            for u in range(k)] for draw in draws], axis=0)
    s_a = sum(mean["common"][list(u)].min() for u in partition.user_sets) + mean["private"].sum()
    return s_a, mean["common"], mean["private"]


def reference_rows(config, index, attempt):
    """(scheme, snr) -> (delta, s_a, mean_cr, mean_pr, cluster_of) of one realization."""
    sigma_e = math.sqrt(config.sigma_e2)
    rows = {}
    for snr in config.snr_grid_db:
        sides, built = harness.realization_precoders(config, index, snr)
        pt = chan.pt_for_snr(sides[False].realization.g_true, snr)
        draws = {}
        for bs, side in sides.items():
            real = side.realization
            err = chan.draw_error_matrices(real.zeta, sigma_e, config.n_err, harness.seeded_rng(
                config.seed, index, attempt, harness._ERRDRAWS))
            # each draw is an error matrix and the true channel it implies
            draws[bs] = [real._replace(g_true=real.epsilon * (real.g_hat - e), g_err=e)
                         for e in err]
        for label, (partition, pset) in built.items():
            spec = parse_scheme(label)
            options = (candidates(config, partition, pt) if spec.rs
                       else [(0.0, pw.no_split(pt, config.k))])
            scored = [(delta, oracle_rates(draws[spec.bs], partition, pset, alloc))
                      for delta, alloc in options]
            top = max(score[0] for _, score in scored)
            delta, score = next((delta, score) for delta, score in scored
                                if score[0] >= top - 1e-10 * abs(top))
            rows[label, snr] = delta, *score, tuple(partition.cluster_of_users(config.k))
    return rows


def assert_block_matches(config, block):
    """Every row of a realization's block against :func:`reference_rows` of its attempt."""
    rows = list(harness.TrialRows([block]))
    want = reference_rows(config, block.realization, block.redraws)
    assert len(rows) == len(want)
    for row in rows:
        delta, s_a, mean_cr, mean_pr, cluster_of = want[row.scheme, row.snr_db]
        where = (block.realization, row.scheme, row.snr_db)
        assert row.delta == delta and row.cluster_of == cluster_of, where
        assert row.s_a == pytest.approx(s_a, rel=1e-9, abs=1e-12), where
        for got, ref in ((row.mean_cr, mean_cr), (row.mean_pr, mean_pr)):
            np.testing.assert_allclose(got, ref, rtol=1e-9, atol=1e-12, err_msg=str(where))


@pytest.mark.parametrize("overrides, slices", [
    pytest.param({}, None, id="default"),
    pytest.param({"schemes": ("BS-MF", "RS-BS-MF", "BS-ZF", "RS-BS-ZF", "RS-BS-MMSE")}, None,
                 id="bs-only"),
    pytest.param({}, 1, id="one-slice-chunks"),
    pytest.param({"power_mode": "per_cluster_exhaustive", "power_grid_step": 0.1,
                  "schemes": ("RS-CF-MF-SP", "RS-CF-ZF-SP", "RS-CF-ZF-RD", "RS-CF-MMSE-RD",
                              "RS-BS-MF", "CF-ZF")}, None, id="per-cluster-exhaustive")])
def test_rows_match_the_plain_reference(monkeypatch, overrides, slices):
    config = replace(BASE, **overrides)
    if slices is not None:
        monkeypatch.setattr(harness, "_CHUNK_BYTES", slices * 16 * config.n_err * config.k ** 2)
    for index in range(config.n_realizations):
        assert_block_matches(config, harness.run_realization(config, index))
