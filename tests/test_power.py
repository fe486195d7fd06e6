import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from rscf import channel as chan
from rscf import power as pw
from rscf import precoding as prec
from rscf import rates
from rscf.config import ExperimentConfig
from rscf.harness import _build_private, random_instance, seeded_rng

from fixture_network import FIXTURE


class TestUniformPrivate:
    def test_no_common_fraction(self):
        a = pw.uniform_private(1.0, 0.0, 4)
        np.testing.assert_allclose(a ** 2, 0.25)

    def test_with_common_fraction(self):
        a = pw.uniform_private(1.0, 0.2, 4)
        np.testing.assert_allclose(a ** 2, 0.2)

    def test_budget_identities(self):
        for delta in (0.0, 0.15, 0.6, 0.95):
            alloc = pw.equal_split(3.7, delta, 3, 5)
            assert np.sum(alloc.a_c ** 2) == pytest.approx(delta * 3.7, rel=1e-12)
            assert np.sum(alloc.a_p ** 2) == pytest.approx((1 - delta) * 3.7, rel=1e-12)
            assert np.all(alloc.a_c == alloc.a_c[0])

    def test_rejects_full_common(self):
        with pytest.raises(ValueError):
            pw.uniform_private(1.0, 1.0, 4)


class TestDeltaGrid:
    def test_default_step(self):
        grid = pw.delta_grid(0.05)
        assert grid[0] == 0.0 and grid[-1] == pytest.approx(0.95)
        assert len(grid) == 20
        np.testing.assert_allclose(np.diff(grid), 0.05)

    def test_unit_step_collapses_to_zero(self):
        assert pw.delta_grid(1.0) == (0.0,)

    def test_non_divisor_step(self):
        assert pw.delta_grid(0.3) == pytest.approx([0.0, 0.3, 0.6, 0.9])

    def test_halving_refines(self):
        coarse = set(pw.delta_grid(0.1))
        fine = set(pw.delta_grid(0.05))
        assert coarse <= fine

    def test_rejects_bad_step(self):
        for mu in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                pw.delta_grid(mu)


def search_setup(seed, sigma_e2=0.025, kind=prec.LABEL_MF_SP, network=FIXTURE):
    return random_instance(seed, replace(network, sigma_e2=sigma_e2), kind=kind)


def errors(inputs, n_err, rng, sigma_e=math.sqrt(0.025)):
    """The stack the harness draws once per side and attempt, on the instance's gains."""
    return chan.draw_error_matrices(inputs.realization.zeta, sigma_e, n_err, rng)


def search(inputs, err, sigma_e, mu, mode="equal_split"):
    """One split search of the instance's precoders over the stack ``err``, and the
    kernel's score of its winner."""
    bundle = rates.project_precoders(inputs.realization.g_hat, err, inputs.precoders,
                                     inputs.partition)
    alloc, _ = pw.allocate_common(bundle, sigma_e, inputs.sigma_w2, inputs.power.pt, mu=mu,
                                  mode=mode)
    return alloc, rates.asr_from_bundle(bundle, alloc, inputs.sigma_w2, sigma_e)


class TestAllocateCommon:
    def test_never_below_zero_split(self):
        for seed in range(8):
            inputs = search_setup(seed)
            sigma_e = math.sqrt(0.025)
            err = errors(inputs, 30, seeded_rng(seed, 77))
            alloc, best = search(inputs, err, sigma_e, 0.05)
            base = rates.average_sum_rate(
                inputs.realization.g_hat, err, sigma_e, inputs.partition,
                inputs.precoders,
                pw.equal_split(inputs.power.pt, 0.0, inputs.partition.n_clusters, 4),
                inputs.sigma_w2)
            assert best.s_a >= base.s_a - 1e-12

    def test_unit_step_returns_zero_split(self):
        inputs = search_setup(1)
        alloc, _ = search(inputs, errors(inputs, 10, seeded_rng(3)), math.sqrt(0.025), 1.0)
        assert alloc.delta == 0.0
        assert np.all(alloc.a_c == 0.0)

    def test_deterministic(self):
        inputs = search_setup(2)
        a1, r1 = search(inputs, errors(inputs, 20, seeded_rng(9)), math.sqrt(0.025), 0.05)
        a2, r2 = search(inputs, errors(inputs, 20, seeded_rng(9)), math.sqrt(0.025), 0.05)
        assert a1.delta == a2.delta and r1.s_a == r2.s_a

    def test_coarse_grid_near_fine_grid_optimum(self):
        # the 0.01 grid evaluated by the same machinery is the oracle: the
        # 0.05 winner must come close in value, and on most draws the
        # winning fractions agree to within one coarse step (the sampled
        # objective is occasionally multi-modal, so value closeness is the
        # robust part of the check)
        close_delta = 0
        for seed in range(10):
            inputs = search_setup(seed)
            err = errors(inputs, 40, seeded_rng(11))
            coarse, rc = search(inputs, err, math.sqrt(0.025), 0.05)
            fine, rf = search(inputs, err, math.sqrt(0.025), 0.01)
            assert rf.s_a >= rc.s_a - 1e-12
            assert rc.s_a >= 0.95 * rf.s_a
            close_delta += abs(coarse.delta - fine.delta) <= 0.05 + 1e-12
        assert close_delta >= 7

    def test_refinement_never_decreases(self):
        inputs = search_setup(4)
        err = errors(inputs, 25, seeded_rng(13))
        _, coarse = search(inputs, err, math.sqrt(0.025), 0.1)
        _, fine = search(inputs, err, math.sqrt(0.025), 0.05)
        assert fine.s_a >= coarse.s_a - 1e-12

    def test_split_found_on_noisy_estimates(self):
        # with imperfect estimates the matched filter benefits from a
        # nonzero common fraction on most realizations
        hits = 0
        for seed in range(10):
            inputs = search_setup(seed, sigma_e2=0.025)
            alloc, _ = search(inputs, errors(inputs, 30, seeded_rng(seed, 5)),
                              math.sqrt(0.025), 0.05)
            hits += alloc.delta > 0.0
        assert hits >= 6

    def test_budget_of_returned_allocation(self):
        inputs = search_setup(5)
        alloc, _ = search(inputs, errors(inputs, 20, seeded_rng(1)), math.sqrt(0.025), 0.05)
        total = np.sum(alloc.a_c ** 2) + np.sum(alloc.a_p ** 2)
        assert total == pytest.approx(alloc.pt, rel=1e-12)

    def test_per_cluster_exhaustive_contract(self):
        # the exhaustive mode scans one fraction per cluster; its winner
        # must respect the budget and never fall below the no-split point
        for seed in range(6):
            inputs = search_setup(seed)
            if inputs.partition.n_clusters > 2:
                continue
            sigma_e = math.sqrt(0.025)
            err = errors(inputs, 25, seeded_rng(21))
            alloc, best = search(inputs, err, sigma_e, 0.1, mode="per_cluster_exhaustive")
            assert alloc.delta < 1.0
            total = np.sum(alloc.a_c ** 2) + np.sum(alloc.a_p ** 2)
            assert total == pytest.approx(alloc.pt, rel=1e-12)
            base = rates.average_sum_rate(
                inputs.realization.g_hat, err, sigma_e, inputs.partition,
                inputs.precoders,
                pw.equal_split(inputs.power.pt, 0.0, inputs.partition.n_clusters, 4),
                inputs.sigma_w2)
            assert best.s_a >= base.s_a - 1e-12

    def test_per_cluster_exhaustive_falls_back_beyond_two_clusters(self):
        # the per-cluster grid grows exponentially; beyond two clusters
        # the search falls back to the equal split
        for seed in range(20):
            inputs = search_setup(seed)
            if inputs.partition.n_clusters <= 2:
                continue
            args = (inputs, errors(inputs, 15, seeded_rng(31)), math.sqrt(0.025), 0.2)
            ex_alloc, ex = search(*args, mode="per_cluster_exhaustive")
            eq_alloc, eq = search(*args, mode="equal_split")
            assert ex_alloc.delta == eq_alloc.delta
            assert ex.s_a == eq.s_a
            np.testing.assert_array_equal(ex_alloc.a_c, eq_alloc.a_c)
            return
        pytest.skip("no instance with more than two clusters in the scanned seeds")

    def test_unknown_mode_rejected(self):
        inputs = search_setup(6)
        with pytest.raises(ValueError):
            bundle = rates.project_precoders(inputs.realization.g_hat,
                                             errors(inputs, 10, seeded_rng(0), 0.1),
                                             inputs.precoders, inputs.partition)
            pw.allocate_common(bundle, 0.1, inputs.sigma_w2, 1.0, mu=0.05,
                               mode="simulated-annealing")


class TestFlatObjective:
    # zero forcing with perfect estimates: every split has the same sum rate
    # up to rounding, so the tie rule, not the rounding, picks the fraction
    def flat_search(self):
        inputs = search_setup(0, sigma_e2=0.0, kind=prec.LABEL_ZF_SP)
        err = errors(inputs, 30, seeded_rng(0, 41), 0.0)
        assert not err.any()
        bundle = rates.project_precoders(inputs.realization.g_hat, err, inputs.precoders,
                                         inputs.partition)
        return pw.allocate_common(bundle, 0.0, inputs.sigma_w2, inputs.power.pt, mu=0.05)

    def test_near_tie_keeps_the_smallest_fraction(self):
        alloc, n_tied = self.flat_search()
        assert n_tied == 20
        assert alloc.delta == 0.0 and np.all(alloc.a_c == 0.0)

    def test_search_never_calls_the_kernel(self, monkeypatch):
        def kernel(*args, **kwargs):
            raise AssertionError("the split search called the rate kernel")
        monkeypatch.setattr(rates, "asr_from_bundle", kernel)
        _, n_tied = self.flat_search()
        assert n_tied == 20


def loop_search(g_hat, err, sigma_e, partition, precoders, sigma_w2, pt, mu, mode):
    """Oracle: the rate kernel on every candidate allocation; the first candidate
    within 1e-10 relative of the best score wins."""
    n_c, k = partition.n_clusters, g_hat.shape[1]
    if mode == "per_cluster_exhaustive" and n_c <= 2:
        candidates = []
        for combo in itertools.product(pw.delta_grid(mu), repeat=n_c):
            total = round(sum(combo), 12)
            if total < 1.0 - 1e-12:
                candidates.append((total, combo))
        candidates.sort()
        allocations = [pw.PowerAllocation(np.sqrt(np.asarray(combo) * pt),
                                          pw.uniform_private(pt, total, k), total, pt)
                       for total, combo in candidates]
    else:
        allocations = [pw.equal_split(pt, d, n_c, k) for d in pw.delta_grid(mu)]
    bundle = rates.project_precoders(g_hat, err, precoders, partition)
    results = [rates.asr_from_bundle(bundle, a, sigma_w2, sigma_e) for a in allocations]
    top = max(asr.s_a for asr in results)
    best = next(g for g, asr in enumerate(results) if asr.s_a >= top - 1e-10 * abs(top))
    return bundle, allocations, results, best


def has_clamped_draw(bundle, alloc, sigma_w2, sigma_e):
    # a clamped draw is the only way to a zero rate on a stream with power
    eps = 1.0 / math.sqrt(1.0 - sigma_e ** 2)
    cr, pr = (np.log2(1.0 + x) for x in rates._sinrs(
        bundle, alloc.a_c, alloc.a_p, sigma_w2, eps))
    powered = alloc.a_c[bundle.partition.cluster_of] > 0.0
    return bool((pr == 0.0).any() or (cr[:, powered] == 0.0).any())


class TestGridScorer:
    MODES = ("equal_split", "per_cluster_exhaustive")
    # four fixed clusters: every user sees three interfering common beams, where the
    # fixture's partitions have at most two clusters
    SCALED = ExperimentConfig(m=64, k=16, cluster_mode="fixed", n_c=4)

    def test_search_matches_per_candidate_loop(self):
        searches = clamped = checked_values = scaled_values = 0
        cases = ([(FIXTURE, seed, self.MODES) for seed in range(17)]
                 + [(self.SCALED, seed, ("equal_split",)) for seed in range(3)])
        for network, seed, modes in cases:
            for kind in prec.CONSTRUCTIONS:
                for se2 in (0.0, 0.025, 0.1):
                    inputs = search_setup(seed, sigma_e2=se2, kind=kind, network=network)
                    sigma_e = math.sqrt(se2)
                    err = errors(inputs, 30, seeded_rng(seed, 41), sigma_e)
                    for mode in modes:
                        mu = 0.05 if mode == "equal_split" else 0.1
                        args = (inputs.realization.g_hat, err, sigma_e, inputs.partition,
                                inputs.precoders, inputs.sigma_w2, inputs.power.pt, mu)
                        alloc, asr = search(inputs, err, sigma_e, mu, mode)
                        bundle, allocations, results, best = loop_search(*args, mode)
                        searches += 1
                        want = allocations[best]
                        assert alloc.delta == want.delta
                        np.testing.assert_array_equal(alloc.a_c, want.a_c)
                        np.testing.assert_array_equal(alloc.a_p, want.a_p)
                        assert asr.s_a == results[best].s_a
                        for field in ("mean_cr", "mean_pr", "min_cr"):
                            np.testing.assert_array_equal(getattr(asr, field),
                                                          getattr(results[best], field))

                        # at the zero-rate clamp the two may part by a few 1e-12 on the
                        # fixture; the scaled inputs stay within 1e-12 on every search
                        if any(has_clamped_draw(bundle, a, inputs.sigma_w2, sigma_e)
                               for a in allocations):
                            clamped += 1
                            if network is not self.SCALED:
                                continue
                        table = np.array([a.a_c for a in allocations])
                        scores = rates.split_grid_scores(
                            bundle, table, np.array([a.a_p[0] for a in allocations]),
                            inputs.sigma_w2, sigma_e)
                        np.testing.assert_allclose(scores, [r.s_a for r in results],
                                                   rtol=1e-12, atol=0.0)
                        checked_values += 1
                        scaled_values += network is self.SCALED
        assert searches >= 500
        assert clamped >= 50 and checked_values >= 100
        assert scaled_values == 3 * len(prec.CONSTRUCTIONS) * 3


class TestStackedScoring:
    def test_one_kernel_call_equals_per_point_calls(self):
        # the harness scores a chunk's per-point winners with one stacked kernel
        # call; the bundle has an SNR axis only for a set that reads the budget
        ties = 0
        for seed in range(17):
            for kind in prec.CONSTRUCTIONS:
                for se2 in (0.0, 0.025, 0.1):
                    inputs = search_setup(seed, sigma_e2=se2, kind=kind)
                    sigma_e, part, sigma_w2 = math.sqrt(se2), inputs.partition, inputs.sigma_w2
                    g_hat = inputs.realization.g_hat
                    k = g_hat.shape[1]
                    err = errors(inputs, 30, seeded_rng(seed, 41), sigma_e)
                    pts = np.array([chan.pt_for_snr(inputs.realization.g_true, snr, sigma_w2)
                                    for snr in FIXTURE.snr_grid_db])
                    assert len(pts) == 7
                    private = _build_private(kind, inputs.g_bar, part, pts, sigma_w2).private
                    bundle = rates.ProjectionBundle(
                        rates.project_streams(g_hat, err, inputs.precoders.common,
                                              part.cluster_of),
                        rates.project_streams(g_hat, err, private, np.arange(k)), part)
                    for mode in TestGridScorer.MODES:
                        mu = 0.05 if mode == "equal_split" else 0.1
                        won = [pw.allocate_common(bundle.at(s), sigma_e, sigma_w2, pt, mu=mu,
                                                  mode=mode) for s, pt in enumerate(pts)]
                        ties += sum(n_tied > 1 for _, n_tied in won)
                        stacked = rates.asr_from_bundle(
                            bundle, pw.stack([alloc for alloc, _ in won]), sigma_w2, sigma_e)
                        for s, (alloc, _) in enumerate(won):
                            one = rates.asr_from_bundle(bundle.at(s), alloc, sigma_w2, sigma_e)
                            for field in ("s_a", "mean_cr", "mean_pr", "min_cr"):
                                assert np.array_equal(getattr(stacked, field)[s],
                                                      getattr(one, field))
        # flat objectives (zero forcing at sigma_e = 0) take the near-tie path
        assert ties >= 1
