import dataclasses
import math

import numpy as np
import pytest

from rscf import channel as chan
from rscf import clustering as clus
from rscf import power as pw
from rscf import precoding as prec
from rscf import rates
from rscf.harness import _build_private, random_instance, seeded_rng


def perfect_instance(seed, kind=prec.LABEL_MF_SP, delta=0.0, single_cluster=True):
    """Perfect-CSIT single-cluster instance on an unmasked channel."""
    g = np.random.default_rng(seed)
    g_hat = (g.normal(size=(8, 4)) + 1j * g.normal(size=(8, 4))) / np.sqrt(2)
    real = chan.ChannelRealization(g_hat, g_hat, np.zeros_like(g_hat), 0.0)
    part = clus.single_cluster(8, 4)
    sparse = clus.sparse_channel(g_hat, part)
    common, cache = prec.common_precoder(sparse, part)
    if kind == prec.LABEL_MF_SP:
        pset = prec.mf_sp(sparse)
    elif kind == prec.LABEL_ZF_SP:
        pset = prec.zf_sp(sparse, pt=1.0)
    else:
        raise ValueError(kind)
    pset = prec.attach_common(pset, common)
    alloc = pw.equal_split(1.0, delta, part.n_clusters, 4)
    return rates.RateInputs(real, sparse, part, pset, cache, alloc, 1e-3)


class TestGenericAgainstPowerOracle:
    def test_random_instances_all_kinds(self):
        worst = 0.0
        for seed in range(15):
            for kind in rates.CLOSED_FORM_KINDS:
                inputs = random_instance(seed, sigma_e2=0.025, kind=kind, delta=0.35)
                for k in range(4):
                    pairs = (
                        (rates.sinr_common_generic(k, inputs), rates.sinr_common_oracle(k, inputs)),
                        (rates.sinr_private_generic(k, inputs), rates.sinr_private_oracle(k, inputs)),
                    )
                    for a, b in pairs:
                        worst = max(worst, abs(a - b) / max(abs(b), 1e-30))
        assert worst <= 1e-9

    def test_agreement_under_strong_errors(self):
        for seed in range(5):
            inputs = random_instance(seed, sigma_e2=0.25, kind=prec.LABEL_MF_SP, delta=0.5)
            for k in range(4):
                a = rates.sinr_private_generic(k, inputs)
                b = rates.sinr_private_oracle(k, inputs)
                assert abs(a - b) <= 1e-9 * max(abs(b), 1e-30)


class TestPerfectCsitReduction:
    def test_matches_true_channel_formula(self):
        # with a perfect estimate the SINRs must equal the plain
        # true-channel expressions with unscaled noise
        inputs = perfect_instance(3, kind=prec.LABEL_MF_SP, delta=0.3)
        g = inputs.realization.g_true
        pc, pp = inputs.precoders.common, inputs.precoders.private
        a_c, a_p = inputs.power.a_c, inputs.power.a_p
        for k in range(4):
            pc_pow = a_c ** 2 * np.abs(g[:, k] @ pc) ** 2
            pp_pow = a_p ** 2 * np.abs(g[:, k] @ pp) ** 2
            gamma_c = pc_pow[0] / (pp_pow.sum() + 1e-3)
            gamma_p = pp_pow[k] / (pp_pow.sum() - pp_pow[k] + pc_pow.sum() - pc_pow[0] + 1e-3)
            assert rates.sinr_common_generic(k, inputs) == pytest.approx(gamma_c, rel=1e-12)
            assert rates.sinr_private_generic(k, inputs) == pytest.approx(gamma_p, rel=1e-12)

    def test_zero_common_power_disables_common_stream(self):
        inputs = perfect_instance(4, delta=0.0)
        for k in range(4):
            assert rates.sinr_common_generic(k, inputs) == 0.0

    def test_zf_private_sinr_closed_value(self):
        # zero-forcing with a perfect estimate: gamma_k = a_k^2 beta^2 / sigma_w^2
        inputs = perfect_instance(5, kind=prec.LABEL_ZF_SP, delta=0.0)
        beta = inputs.precoders.beta
        for k in range(4):
            expected = inputs.power.a_p[k] ** 2 * beta ** 2 / inputs.sigma_w2
            assert rates.sinr_private_generic(k, inputs) == pytest.approx(expected, rel=1e-9)

    def test_mf_private_display(self):
        # matched filter, perfect estimate, single cluster, no common power:
        # gamma_k = a_k^2 ||g_k||^4 / (sum_{i != k} a_i^2 |g_k^T g_i^*|^2 + sigma_w^2)
        inputs = perfect_instance(6, kind=prec.LABEL_MF_SP, delta=0.0)
        g = inputs.realization.g_hat
        a_p = inputs.power.a_p
        for k in range(4):
            num = a_p[k] ** 2 * np.sum(np.abs(g[:, k]) ** 2) ** 2
            den = sum(a_p[i] ** 2 * abs(g[:, k] @ g[:, i].conj()) ** 2
                      for i in range(4) if i != k) + inputs.sigma_w2
            assert rates.sinr_private_generic(k, inputs) == pytest.approx(num / den, rel=1e-9)


class TestClosedForms:
    @pytest.mark.parametrize("kind", rates.CLOSED_FORM_KINDS)
    def test_matches_generic(self, kind):
        worst = 0.0
        for seed in range(20):
            for se2 in (0.0, 0.025, 0.1):
                inputs = random_instance(seed, sigma_e2=se2, kind=kind, delta=0.3)
                for k in range(4):
                    for stream, generic in (("common", rates.sinr_common_generic),
                                            ("private", rates.sinr_private_generic)):
                        closed = rates.sinr_closed_form(k, inputs, kind, stream)
                        ref = generic(k, inputs)
                        worst = max(worst, abs(closed - ref) / max(abs(ref), 1e-30))
        assert worst <= 1e-9

    def test_zf_private_numerator_is_exact(self):
        inputs = random_instance(2, kind=prec.LABEL_ZF_SP, delta=0.2)
        scale = inputs.precoders.col_scale
        for k in range(4):
            own = inputs.realization.g_hat[:, k] @ inputs.precoders.private[:, k]
            assert own == pytest.approx(scale[k], rel=1e-9)

    def test_kind_mismatch_rejected(self):
        inputs = random_instance(0, kind=prec.LABEL_MF_SP)
        with pytest.raises(ValueError):
            rates.sinr_closed_form(0, inputs, prec.LABEL_ZF_SP, "common")
        with pytest.raises(ValueError):
            rates.sinr_closed_form(0, inputs, prec.LABEL_MF_SP, "sideways")

    def test_requires_cache(self):
        inputs = random_instance(1, kind=prec.LABEL_MF_SP)
        stripped = rates.RateInputs(inputs.realization, inputs.sparse, inputs.partition,
                                    inputs.precoders, None, inputs.power, inputs.sigma_w2)
        with pytest.raises(ValueError):
            rates.sinr_closed_form(0, stripped, prec.LABEL_MF_SP, "common")


class TestClamping:
    def test_negative_denominator_gives_zero_rate(self):
        # force a draw where the estimate-error cross term dominates: a
        # huge error aligned with the estimate makes the adjusted
        # denominator negative, which must clamp to zero
        g_hat = np.ones((4, 1), dtype=complex)
        g_err = 0.9 * np.ones((4, 1), dtype=complex)
        real = chan.ChannelRealization(
            (g_hat - g_err) / math.sqrt(1 - 0.25), g_hat, g_err, 0.5)
        part = clus.single_cluster(4, 1)
        sparse = clus.sparse_channel(g_hat, part)
        pset = prec.attach_common(prec.mf_sp(sparse), np.ones((4, 1)) / 2.0)
        alloc = pw.PowerAllocation(np.zeros(1), np.ones(1), 0.0, 1.0)
        inputs = rates.RateInputs(real, sparse, part, pset, None, alloc, 1e-9)
        assert rates.sinr_private_generic(0, inputs) == 0.0
        assert rates.sinr_private_oracle(0, inputs) == 0.0
        report = rates.instantaneous_rates(inputs)
        assert report.private_rate_per_user[0] == 0.0
        assert report.sum_rate >= 0.0


class TestInstantaneousRates:
    def test_unit_sinr_gives_unit_rate(self):
        assert math.log2(1.0 + 1.0) == 1.0

    def test_report_structure_and_min_rule(self):
        inputs = random_instance(7, kind=prec.LABEL_MMSE_SP, delta=0.4)
        report = rates.instantaneous_rates(inputs)
        assert np.all(report.common_rate_per_user >= 0)
        assert np.all(report.private_rate_per_user >= 0)
        for i, users in enumerate(inputs.partition.user_sets):
            expected = min(report.common_rate_per_user[u] for u in users)
            assert report.min_common_per_cluster[i] == pytest.approx(expected)
        assert report.sum_rate == pytest.approx(
            report.min_common_per_cluster.sum() + report.private_rate_per_user.sum())

    def test_zero_split_collapse(self):
        # zero common power: the rate-split evaluation equals the plain one
        inputs = random_instance(8, kind=prec.LABEL_MF_SP, delta=0.0)
        plain = prec.normalize_private_columns(prec.mf_sp(inputs.sparse))
        cf = rates.RateInputs(inputs.realization, inputs.sparse, inputs.partition,
                              plain, None, pw.no_split(inputs.power.pt, 4),
                              inputs.sigma_w2)
        assert rates.instantaneous_rates(inputs).sum_rate == pytest.approx(
            rates.instantaneous_rates(cf).sum_rate, abs=1e-12)


class TestVectorisedPath:
    def test_matches_scalar_per_draw(self):
        inputs = random_instance(9, kind=prec.LABEL_MMSE_SP, delta=0.35, sigma_e2=0.05)
        zeta = np.abs(inputs.realization.g_hat) ** 2 * 0 + 1.0  # unit gains for the draw
        err = chan.draw_error_matrices(zeta, math.sqrt(0.05), 6, np.random.default_rng(0))
        bundle = rates.project_precoders(inputs.realization.g_hat, err,
                                         inputs.precoders, inputs.partition)
        eps = 1.0 / math.sqrt(1.0 - 0.05)
        cr, pr = rates.rate_components_over_draws(bundle, inputs.power.a_c,
                                                  inputs.power.a_p, inputs.sigma_w2, eps)
        for n in range(6):
            g_err = err[n]
            real = chan.ChannelRealization(
                (inputs.realization.g_hat - g_err) / math.sqrt(1.0 - 0.05),
                inputs.realization.g_hat, g_err, math.sqrt(0.05))
            scalar_inputs = rates.RateInputs(real, inputs.sparse, inputs.partition,
                                             inputs.precoders, inputs.svd_cache,
                                             inputs.power, inputs.sigma_w2)
            report = rates.instantaneous_rates(scalar_inputs)
            np.testing.assert_allclose(cr[n], report.common_rate_per_user, rtol=1e-10)
            np.testing.assert_allclose(pr[n], report.private_rate_per_user, rtol=1e-10)


class TestSnrAxis:
    """Stacked projections and kernel calls equal the per-point calls, bit for bit."""

    def test_stacked_calls_equal_per_point_calls(self):
        inputs = random_instance(14, kind=prec.LABEL_MMSE_SP, sigma_e2=0.05)
        g_hat, part, sigma_w2 = inputs.realization.g_hat, inputs.partition, inputs.sigma_w2
        sigma_e = math.sqrt(0.05)
        err = chan.draw_error_matrices(np.abs(g_hat) ** 2, sigma_e, 20, seeded_rng(3))
        pts = inputs.power.pt * 10.0 ** np.arange(-1.0, 2.0)
        cluster_of, own = part.cluster_of_users(4), np.arange(4)
        common = rates.project_streams(g_hat, err, inputs.precoders.common, cluster_of)

        def kernel(bundle, pt, delta):
            # equal split per point, stacked along a leading axis for an array pt
            allocs = [pw.equal_split(p, delta, part.n_clusters, 4) for p in np.atleast_1d(pt)]
            stack = (lambda a: a[0]) if np.ndim(pt) == 0 else np.stack
            power = pw.PowerAllocation(stack([a.a_c for a in allocs]),
                                       stack([a.a_p for a in allocs]), delta, pt)
            return rates.asr_from_bundle(bundle, part, power, sigma_w2, sigma_e)

        for label in (prec.LABEL_MMSE_SP, prec.LABEL_MF_SP):  # with and without an SNR axis
            pset = _build_private(label, inputs.sparse, part, pts, sigma_w2)
            stacked = rates.ProjectionBundle(
                common, rates.project_streams(g_hat, err, pset.private, own), cluster_of)
            for delta in (0.0, 0.3):
                asr = kernel(stacked, pts, delta)
                for s, pt in enumerate(pts):
                    columns = pset.private[s] if pset.private.ndim == 3 else pset.private
                    single = rates.ProjectionBundle(
                        common, rates.project_streams(g_hat, err, columns, own), cluster_of)
                    for field in dataclasses.fields(rates.StreamProjection):
                        assert np.array_equal(getattr(stacked.at(s).private, field.name),
                                              getattr(single.private, field.name))
                    one, got = kernel(single, pt, delta), asr.at(s)
                    assert got.s_a == one.s_a
                    for field in ("mean_cr", "mean_pr", "min_cr"):
                        assert np.array_equal(getattr(got, field), getattr(one, field))
            # the tracer reads til_p as (draws, K, K), the SNR axis folded in
            assert stacked.til_p.shape == (stacked.private.til.size // 16, 4, 4)


class TestAverageSumRate:
    def test_perfect_estimate_independent_of_draws(self):
        inputs = random_instance(10, kind=prec.LABEL_MF_SP, delta=0.2, sigma_e2=0.0)
        zeta = np.ones((8, 4))
        one = rates.average_sum_rate(inputs.realization.g_hat,
                                     chan.draw_error_matrices(zeta, 0.0, 1, seeded_rng(1)), 0.0,
                                     inputs.partition, inputs.precoders, inputs.power,
                                     inputs.sigma_w2)
        many = rates.average_sum_rate(inputs.realization.g_hat,
                                      chan.draw_error_matrices(zeta, 0.0, 64, seeded_rng(2)),
                                      0.0, inputs.partition, inputs.precoders, inputs.power,
                                      inputs.sigma_w2)
        assert one.s_a == pytest.approx(many.s_a, rel=1e-12)
        assert one.s_a == pytest.approx(
            rates.instantaneous_rates(inputs).sum_rate, rel=1e-12)

    def test_single_draw_matches_instantaneous(self):
        inputs = random_instance(11, kind=prec.LABEL_MMSE_SP, delta=0.3, sigma_e2=0.04)
        zeta = np.full((8, 4), 0.7)
        sigma_e = math.sqrt(0.04)
        err = chan.draw_error_matrices(zeta, sigma_e, 1, seeded_rng(5))
        bundle = rates.project_precoders(inputs.realization.g_hat, err, inputs.precoders,
                                         inputs.partition)
        asr = rates.asr_from_bundle(bundle, inputs.partition, inputs.power, inputs.sigma_w2,
                                    sigma_e)
        real = chan.ChannelRealization(
            (inputs.realization.g_hat - err[0]) / math.sqrt(1.0 - sigma_e ** 2),
            inputs.realization.g_hat, err[0], sigma_e)
        single = rates.RateInputs(real, inputs.sparse, inputs.partition, inputs.precoders,
                                  inputs.svd_cache, inputs.power, inputs.sigma_w2)
        assert asr.s_a == pytest.approx(rates.instantaneous_rates(single).sum_rate, rel=1e-10)

    def test_reproducible_and_convergent(self):
        inputs = random_instance(12, kind=prec.LABEL_MF_SP, delta=0.4, sigma_e2=0.025)
        zeta = np.abs(inputs.realization.g_hat) ** 2  # gain proxy, any positive matrix works
        sigma_e = math.sqrt(0.025)
        args = (sigma_e, inputs.partition, inputs.precoders, inputs.power, inputs.sigma_w2)

        def asr(n_err, rng):
            err = chan.draw_error_matrices(zeta, sigma_e, n_err, rng)
            return rates.average_sum_rate(inputs.realization.g_hat, err, *args)
        a = asr(100, seeded_rng(7))
        b = asr(100, seeded_rng(7))
        assert a.s_a == b.s_a
        # doubling the draw count moves the estimate by a few standard errors at most
        wide = asr(200, seeded_rng(7))
        assert abs(wide.s_a - a.s_a) < 0.3 * max(a.s_a, 1.0)

    def test_rejects_zero_draws(self):
        inputs = random_instance(13)
        err = chan.draw_error_matrices(np.ones((8, 4)), 0.1, 0, seeded_rng(0))
        with pytest.raises(ValueError):
            rates.average_sum_rate(inputs.realization.g_hat, err, 0.1,
                                   inputs.partition, inputs.precoders, inputs.power,
                                   inputs.sigma_w2)


class TestErgodicSumRate:
    def record(self, cr, pr, cluster_of):
        return rates.RealizationRates(np.asarray(cr, float), np.asarray(pr, float),
                                      np.asarray(cluster_of, int))

    def test_single_record(self):
        rec = self.record([2.0, 1.0], [0.5, 0.25], [0, 0])
        out = rates.ergodic_sum_rate([rec])
        assert out.esr == pytest.approx(1.0 + 0.75)
        assert out.ecr == pytest.approx(1.0)
        assert out.stderr == 0.0

    def test_identical_records_zero_stderr(self):
        rec = self.record([2.0, 1.0], [0.5, 0.25], [0, 1])
        out = rates.ergodic_sum_rate([rec, rec, rec])
        assert out.stderr == 0.0
        assert out.esr == pytest.approx(2.0 + 1.0 + 0.75)

    def test_min_of_means_is_primary_on_shared_partition(self):
        # two records, one cluster of two users: per-record minima are 1 and 3,
        # per-user means are (3, 4) -> min-of-means 3, mean-of-mins 2
        a = self.record([1.0, 5.0], [1.0, 1.0], [0, 0])
        b = self.record([5.0, 3.0], [1.0, 1.0], [0, 0])
        out = rates.ergodic_sum_rate([a, b])
        assert out.ecr_min_of_means == pytest.approx(3.0)
        assert out.ecr_mean_of_mins == pytest.approx(2.0)
        assert out.ecr == pytest.approx(3.0)
        assert out.esr == pytest.approx(3.0 + 2.0)

    def test_fallback_when_partitions_differ(self):
        a = self.record([1.0, 5.0], [1.0, 1.0], [0, 0])
        b = self.record([5.0, 3.0], [1.0, 1.0], [0, 1])
        out = rates.ergodic_sum_rate([a, b])
        assert out.ecr_min_of_means is None
        # record b contributes both users' rates as separate cluster minima
        assert out.ecr == pytest.approx((1.0 + 8.0) / 2.0)

    def test_stderr_shrinks_with_more_records(self):
        g = np.random.default_rng(0)
        def batch(n):
            return [self.record([g.uniform(1, 2), g.uniform(1, 2)],
                                [g.uniform(0, 1), g.uniform(0, 1)], [0, 1])
                    for _ in range(n)]
        small = rates.ergodic_sum_rate(batch(64))
        large = rates.ergodic_sum_rate(batch(1024))
        assert large.stderr < small.stderr

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            rates.ergodic_sum_rate([])
