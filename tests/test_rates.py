import dataclasses
import math
from dataclasses import replace

import numpy as np
import pytest

from rscf import channel as chan
from rscf import clustering as clus
from rscf import power as pw
from rscf import precoding as prec
from rscf import rates
from rscf.harness import (_build_private, _closed_form_residual, _draw_sum_rate,
                          _zero_split_residual, random_instance, seeded_rng)

from fixture_network import FIXTURE


def perfect_instance(seed, kind=prec.LABEL_MF_SP, delta=0.0, single_cluster=True):
    """Perfect-CSIT single-cluster instance on an unmasked channel."""
    g = np.random.default_rng(seed)
    g_hat = (g.normal(size=(8, 4)) + 1j * g.normal(size=(8, 4))) / np.sqrt(2)
    real = chan.ChannelRealization(g_hat, g_hat, np.zeros_like(g_hat), 0.0, np.ones((8, 4)))
    part = clus.single_cluster(8, 4)
    g_bar = clus.sparse_channel(g_hat, part)
    common, cache = prec.common_precoder(g_bar, part)
    if kind == prec.LABEL_MF_SP:
        pset = prec.mf_sp(g_bar)
    elif kind == prec.LABEL_ZF_SP:
        pset = prec.zf_sp(g_bar, pt=1.0)
    else:
        raise ValueError(kind)
    pset = replace(pset, common=common)
    alloc = pw.equal_split(1.0, delta, part.n_clusters, 4)
    return rates.RateInputs(real, g_bar, part, pset, cache, alloc, 1e-3)


class TestGenericAgainstPowerOracle:
    """The rate kernel's one-draw view against the true-channel power oracle."""

    def test_random_instances_all_kinds(self):
        worst = 0.0
        for seed in range(15):
            for kind in tuple(prec.CONSTRUCTIONS):
                inputs = random_instance(seed, replace(FIXTURE, sigma_e2=0.025), kind=kind,
                                         delta=0.35)
                common, private = rates.draw_sinrs(inputs)
                for k in range(4):
                    for a, b in ((common[k], rates.sinr_oracle(k, inputs, "common")),
                                 (private[k], rates.sinr_oracle(k, inputs, "private"))):
                        worst = max(worst, abs(a - b) / max(abs(b), 1e-30))
        assert worst <= 1e-9

    def test_agreement_under_strong_errors(self):
        for seed in range(5):
            inputs = random_instance(seed, replace(FIXTURE, sigma_e2=0.25), kind=prec.LABEL_MF_SP,
                                     delta=0.5)
            private = rates.draw_sinrs(inputs)[1]
            for k in range(4):
                a, b = private[k], rates.sinr_oracle(k, inputs, "private")
                assert abs(a - b) <= 1e-9 * max(abs(b), 1e-30)


class TestPerfectCsitReduction:
    def test_matches_true_channel_formula(self):
        # with a perfect estimate the SINRs must equal the plain
        # true-channel expressions with unscaled noise
        inputs = perfect_instance(3, kind=prec.LABEL_MF_SP, delta=0.3)
        g = inputs.realization.g_true
        pc, pp = inputs.precoders.common, inputs.precoders.private
        a_c, a_p = inputs.power.a_c, inputs.power.a_p
        common, private = rates.draw_sinrs(inputs)
        for k in range(4):
            pc_pow = a_c ** 2 * np.abs(g[:, k] @ pc) ** 2
            pp_pow = a_p ** 2 * np.abs(g[:, k] @ pp) ** 2
            gamma_c = pc_pow[0] / (pp_pow.sum() + 1e-3)
            gamma_p = pp_pow[k] / (pp_pow.sum() - pp_pow[k] + pc_pow.sum() - pc_pow[0] + 1e-3)
            assert common[k] == pytest.approx(gamma_c, rel=1e-12)
            assert private[k] == pytest.approx(gamma_p, rel=1e-12)

    def test_zero_common_power_disables_common_stream(self):
        inputs = perfect_instance(4, delta=0.0)
        assert np.all(rates.draw_sinrs(inputs)[0] == 0.0)

    def test_zf_private_sinr_closed_value(self):
        # zero-forcing with a perfect estimate: gamma_k = a_k^2 beta^2 / sigma_w^2
        inputs = perfect_instance(5, kind=prec.LABEL_ZF_SP, delta=0.0)
        beta = inputs.precoders.beta
        private = rates.draw_sinrs(inputs)[1]
        for k in range(4):
            expected = inputs.power.a_p[k] ** 2 * beta ** 2 / inputs.sigma_w2
            assert private[k] == pytest.approx(expected, rel=1e-9)

    def test_mf_private_display(self):
        # matched filter, perfect estimate, single cluster, no common power:
        # gamma_k = a_k^2 ||g_k||^4 / (sum_{i != k} a_i^2 |g_k^T g_i^*|^2 + sigma_w^2)
        inputs = perfect_instance(6, kind=prec.LABEL_MF_SP, delta=0.0)
        g = inputs.realization.g_hat
        a_p = inputs.power.a_p
        private = rates.draw_sinrs(inputs)[1]
        for k in range(4):
            num = a_p[k] ** 2 * np.sum(np.abs(g[:, k]) ** 2) ** 2
            den = sum(a_p[i] ** 2 * abs(g[:, k] @ g[:, i].conj()) ** 2
                      for i in range(4) if i != k) + inputs.sigma_w2
            assert private[k] == pytest.approx(num / den, rel=1e-9)


class TestClosedForms:
    @pytest.mark.parametrize("kind", tuple(prec.CONSTRUCTIONS))
    def test_matches_generic(self, kind):
        # the closed forms against the kernel's one-draw view
        worst = _closed_form_residual(
            random_instance(seed, replace(FIXTURE, sigma_e2=se2), kind=kind, delta=0.3)
            for seed in range(20) for se2 in (0.0, 0.025, 0.1))
        assert worst <= 1e-9

    def test_zf_private_numerator_is_exact(self):
        inputs = random_instance(2, FIXTURE, kind=prec.LABEL_ZF_SP, delta=0.2)
        scale = inputs.precoders.col_scale
        for k in range(4):
            own = inputs.realization.g_hat[:, k] @ inputs.precoders.private[:, k]
            assert own == pytest.approx(scale[k], rel=1e-9)

    def test_kind_mismatch_rejected(self):
        inputs = random_instance(0, FIXTURE, kind=prec.LABEL_MF_SP)
        with pytest.raises(ValueError):
            rates.sinr_closed_form(0, inputs, prec.LABEL_ZF_SP, "common")
        with pytest.raises(ValueError):
            rates.sinr_closed_form(0, inputs, prec.LABEL_MF_SP, "sideways")
        with pytest.raises(ValueError):
            rates.sinr_oracle(0, inputs, "sideways")

    def test_requires_cache(self):
        inputs = random_instance(1, FIXTURE, kind=prec.LABEL_MF_SP)
        stripped = rates.RateInputs(inputs.realization, inputs.g_bar, inputs.partition,
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
            (g_hat - g_err) / math.sqrt(1 - 0.25), g_hat, g_err, 0.5, np.ones((4, 1)))
        part = clus.single_cluster(4, 1)
        g_bar = clus.sparse_channel(g_hat, part)
        pset = replace(prec.mf_sp(g_bar), common=np.ones((4, 1)) / 2.0)
        alloc = pw.PowerAllocation(np.zeros(1), np.ones(1), 0.0, 1.0)
        inputs = rates.RateInputs(real, g_bar, part, pset, None, alloc, 1e-9)
        assert rates.draw_sinrs(inputs)[1][0] == 0.0
        assert rates.sinr_oracle(0, inputs, "private") == 0.0
        assert _draw_sum_rate(inputs) >= 0.0


def with_error(inputs, g_err, sigma_e):
    """The instance with its estimation error replaced by ``g_err``."""
    g_hat = inputs.realization.g_hat
    real = chan.ChannelRealization((g_hat - g_err) / math.sqrt(1.0 - sigma_e ** 2), g_hat,
                                   g_err, sigma_e, inputs.realization.zeta)
    return dataclasses.replace(inputs, realization=real)


class TestOneDrawView:
    @pytest.mark.parametrize("kind", tuple(prec.CONSTRUCTIONS))
    def test_rows_of_the_batch(self, kind):
        # row n of an n-draw kernel call is the one-draw view of draw n, bit for bit
        for se2 in (0.0, 0.025, 0.1):
            for seed in range(3):
                inputs = random_instance(seed, replace(FIXTURE, sigma_e2=se2), kind=kind)
                sigma_e = math.sqrt(se2)
                err = chan.draw_error_matrices(np.abs(inputs.realization.g_hat) ** 2, sigma_e,
                                               20, seeded_rng(seed, 17))
                bundle = rates.project_precoders(inputs.realization.g_hat, err,
                                                 inputs.precoders, inputs.partition)
                common, private = rates._sinrs(
                    bundle, inputs.power.a_c, inputs.power.a_p, inputs.sigma_w2,
                    inputs.realization.epsilon)
                for n in range(len(err)):
                    view = rates.draw_sinrs(with_error(inputs, err[n], sigma_e))
                    assert np.array_equal(common[n], view[0])
                    assert np.array_equal(private[n], view[1])

    def test_min_rule_on_one_draw_bundle(self):
        inputs = random_instance(7, FIXTURE, kind=prec.LABEL_MMSE_SP, delta=0.4)
        real = inputs.realization
        bundle = rates.project_precoders(real.g_hat, real.g_err[None], inputs.precoders,
                                         inputs.partition)
        asr = rates.asr_from_bundle(bundle, inputs.power, inputs.sigma_w2, real.sigma_e)
        assert np.all(asr.mean_cr >= 0)
        assert np.all(asr.mean_pr >= 0)
        for i, users in enumerate(inputs.partition.user_sets):
            expected = min(asr.mean_cr[u] for u in users)
            assert asr.min_cr[i] == pytest.approx(expected)
        assert asr.s_a == pytest.approx(asr.min_cr.sum() + asr.mean_pr.sum())

    def test_zero_split_collapse(self):
        # zero common power: the rate-split evaluation equals the plain one
        inputs = random_instance(8, FIXTURE, kind=prec.LABEL_MF_SP, delta=0.0)
        assert _zero_split_residual([inputs]) <= 1e-12


class TestVectorisedPath:
    def test_matches_scalar_per_draw(self):
        inputs = random_instance(9, replace(FIXTURE, sigma_e2=0.05), kind=prec.LABEL_MMSE_SP,
                                 delta=0.35)
        zeta = np.abs(inputs.realization.g_hat) ** 2 * 0 + 1.0  # unit gains for the draw
        err = chan.draw_error_matrices(zeta, math.sqrt(0.05), 6, np.random.default_rng(0))
        bundle = rates.project_precoders(inputs.realization.g_hat, err,
                                         inputs.precoders, inputs.partition)
        eps = 1.0 / math.sqrt(1.0 - 0.05)
        cr, pr = (np.log2(1.0 + x) for x in rates._sinrs(
            bundle, inputs.power.a_c, inputs.power.a_p, inputs.sigma_w2, eps))
        for n in range(6):
            common, private = rates.draw_sinrs(with_error(inputs, err[n], math.sqrt(0.05)))
            np.testing.assert_allclose(cr[n], np.log2(1.0 + common), rtol=1e-10)
            np.testing.assert_allclose(pr[n], np.log2(1.0 + private), rtol=1e-10)


    @staticmethod
    def former_asr(bundle, partition, power, sigma_w2, sigma_e):
        # log2, mean and cluster minima of both streams, the all-zero common SINRs included
        eps = 1.0 / math.sqrt(1.0 - sigma_e ** 2)
        sinr_c, sinr_p = rates._sinrs(bundle, power.a_c, power.a_p, sigma_w2, eps)
        cr, pr = (np.ascontiguousarray(np.log2(1.0 + x)) for x in (
            np.zeros(sinr_p.shape) if sinr_c is None else sinr_c, sinr_p))
        mean_cr, mean_pr = cr.mean(axis=-2), pr.mean(axis=-2)
        min_cr = np.stack([mean_cr[..., list(u)].min(axis=-1) for u in partition.user_sets], -1)
        return min_cr.sum(axis=-1) + mean_pr.sum(axis=-1), mean_cr, mean_pr, min_cr

    def test_no_common_stream_skips_its_rates_bit_for_bit(self):
        # a plain allocation, alone or stacked, on a bundle with and without common
        # projections: exact-zero common rates, and every field as the full evaluation
        sigma_e = math.sqrt(0.05)
        inputs = random_instance(10, replace(FIXTURE, sigma_e2=0.05), kind=prec.LABEL_MMSE_SP,
                                 delta=0.35)
        g_hat, part = inputs.realization.g_hat, inputs.partition
        err = chan.draw_error_matrices(np.abs(g_hat) ** 2, sigma_e, 30, seeded_rng(4))
        with_common = rates.project_precoders(g_hat, err, inputs.precoders, part)
        plain = rates.ProjectionBundle(None, with_common.private, part)
        pts = inputs.power.pt * np.array([0.1, 1.0, 10.0])
        for bundle in (with_common, plain):
            for power in (pw.no_split(inputs.power.pt, 4), pw.no_split(pts, 4), inputs.power):
                if bundle is plain and power is inputs.power:
                    continue
                got = rates.asr_from_bundle(bundle, power, inputs.sigma_w2, sigma_e)
                want = self.former_asr(bundle, part, power, inputs.sigma_w2, sigma_e)
                for value, ref in zip((got.s_a, got.mean_cr, got.mean_pr, got.min_cr), want):
                    assert np.array_equal(value, ref) and np.shape(value) == np.shape(ref)
                    assert not np.signbit(value).any()
                if power is not inputs.power:
                    assert not got.mean_cr.any() and not got.min_cr.any()


class TestSnrAxis:
    """Stacked projections and kernel calls equal the per-point calls, bit for bit."""

    def test_stacked_calls_equal_per_point_calls(self):
        self.check_stacked(8, 4, 20, 3, (prec.LABEL_MMSE_SP, prec.LABEL_MF_SP))
        # the kernel returns a stack this large in a non-C order
        self.check_stacked(64, 16, 300, 7, (prec.LABEL_MF_SP,))

    @staticmethod
    def check_stacked(m, k, n_err, points, labels):
        """``labels`` may mix sets with an SNR axis (pt-dependent) and without."""
        inputs = random_instance(14, replace(FIXTURE, m=m, k=k, sigma_e2=0.05),
                                 kind=prec.LABEL_MMSE_SP)
        g_hat, part, sigma_w2 = inputs.realization.g_hat, inputs.partition, inputs.sigma_w2
        sigma_e = math.sqrt(0.05)
        err = chan.draw_error_matrices(np.abs(g_hat) ** 2, sigma_e, n_err, seeded_rng(3))
        pts = inputs.power.pt * 10.0 ** np.arange(-1.0, points - 1.0)
        own = np.arange(k)
        common = rates.project_streams(g_hat, err, inputs.precoders.common, part.cluster_of)

        def kernel(bundle, pt, delta):
            # equal split per point, stacked along a leading axis for an array pt
            allocs = [pw.equal_split(p, delta, part.n_clusters, k) for p in np.atleast_1d(pt)]
            stack = (lambda a: a[0]) if np.ndim(pt) == 0 else np.stack
            power = pw.PowerAllocation(stack([a.a_c for a in allocs]),
                                       stack([a.a_p for a in allocs]), delta, pt)
            return rates.asr_from_bundle(bundle, power, sigma_w2, sigma_e)

        for label in labels:
            pset = _build_private(label, inputs.g_bar, part, pts, sigma_w2)
            stacked = rates.ProjectionBundle(
                common, rates.project_streams(g_hat, err, pset.private, own), part)
            for delta in (0.0, 0.3):
                asr = kernel(stacked, pts, delta)
                for s, pt in enumerate(pts):
                    columns = pset.private[s] if pset.private.ndim == 3 else pset.private
                    single = rates.ProjectionBundle(
                        common, rates.project_streams(g_hat, err, columns, own), part)
                    for field in dataclasses.fields(rates.StreamProjection):
                        assert np.array_equal(getattr(stacked.at(s).private, field.name),
                                              getattr(single.private, field.name))
                    one = kernel(single, pt, delta)
                    assert asr.s_a[s] == one.s_a
                    for field in ("mean_cr", "mean_pr", "min_cr"):
                        assert np.array_equal(getattr(asr, field)[s], getattr(one, field))
            # the tracer reads til_p as (draws, K, K), the SNR axis folded in
            assert stacked.til_p.shape == (stacked.private.e2.size // k ** 2, k, k)
            # a slice, a gathered stack and a slice of a slice keep the bundle's partition
            for view in (stacked.at(1), stacked.at(np.array([2, 0, 2])), stacked.at(1).at(0)):
                assert view.partition is part


class TestAverageSumRate:
    def test_perfect_estimate_independent_of_draws(self):
        inputs = random_instance(10, replace(FIXTURE, sigma_e2=0.0), kind=prec.LABEL_MF_SP,
                                 delta=0.2)
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
        assert one.s_a == pytest.approx(_draw_sum_rate(inputs), rel=1e-12)

    def test_single_draw_matches_instantaneous(self):
        inputs = random_instance(11, replace(FIXTURE, sigma_e2=0.04), kind=prec.LABEL_MMSE_SP,
                                 delta=0.3)
        zeta = np.full((8, 4), 0.7)
        sigma_e = math.sqrt(0.04)
        err = chan.draw_error_matrices(zeta, sigma_e, 1, seeded_rng(5))
        bundle = rates.project_precoders(inputs.realization.g_hat, err, inputs.precoders,
                                         inputs.partition)
        asr = rates.asr_from_bundle(bundle, inputs.power, inputs.sigma_w2, sigma_e)
        assert asr.s_a == pytest.approx(_draw_sum_rate(with_error(inputs, err[0], sigma_e)),
                                        rel=1e-10)

    def test_reproducible_and_convergent(self):
        inputs = random_instance(12, replace(FIXTURE, sigma_e2=0.025), kind=prec.LABEL_MF_SP,
                                 delta=0.4)
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
        inputs = random_instance(13, FIXTURE)
        err = chan.draw_error_matrices(np.ones((8, 4)), 0.1, 0, seeded_rng(0))
        with pytest.raises(ValueError):
            rates.average_sum_rate(inputs.realization.g_hat, err, 0.1,
                                   inputs.partition, inputs.precoders, inputs.power,
                                   inputs.sigma_w2)


class TestErgodicSumRate:
    def record(self, cr, pr, cluster_of):
        return cr, pr, cluster_of

    def esr(self, records):
        # one stacked row per realization record
        cr, pr, cluster_of = zip(*records)
        return rates.ergodic_sum_rate(np.array(cr, float), np.array(pr, float),
                                      np.array(cluster_of, int))

    def test_single_record(self):
        rec = self.record([2.0, 1.0], [0.5, 0.25], [0, 0])
        out = self.esr([rec])
        assert out.esr == pytest.approx(1.0 + 0.75)
        assert out.ecr == pytest.approx(1.0)
        assert out.stderr == 0.0

    def test_identical_records_zero_stderr(self):
        rec = self.record([2.0, 1.0], [0.5, 0.25], [0, 1])
        out = self.esr([rec, rec, rec])
        assert out.stderr == 0.0
        assert out.esr == pytest.approx(2.0 + 1.0 + 0.75)

    def test_min_of_means_is_primary_on_shared_partition(self):
        # two records, one cluster of two users: per-record minima are 1 and 3,
        # per-user means are (3, 4) -> min-of-means 3, mean-of-mins 2
        a = self.record([1.0, 5.0], [1.0, 1.0], [0, 0])
        b = self.record([5.0, 3.0], [1.0, 1.0], [0, 0])
        out = self.esr([a, b])
        assert out.ecr_min_of_means == pytest.approx(3.0)
        assert out.ecr_mean_of_mins == pytest.approx(2.0)
        assert out.ecr == pytest.approx(3.0)
        assert out.esr == pytest.approx(3.0 + 2.0)

    def test_fallback_when_partitions_differ(self):
        a = self.record([1.0, 5.0], [1.0, 1.0], [0, 0])
        b = self.record([5.0, 3.0], [1.0, 1.0], [0, 1])
        out = self.esr([a, b])
        assert out.ecr_min_of_means is None
        # record b contributes both users' rates as separate cluster minima
        assert out.ecr == pytest.approx((1.0 + 8.0) / 2.0)

    def test_stderr_shrinks_with_more_records(self):
        g = np.random.default_rng(0)
        def batch(n):
            return [self.record([g.uniform(1, 2), g.uniform(1, 2)],
                                [g.uniform(0, 1), g.uniform(0, 1)], [0, 1])
                    for _ in range(n)]
        small = self.esr(batch(64))
        large = self.esr(batch(1024))
        assert large.stderr < small.stderr

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            rates.ergodic_sum_rate(np.empty((0, 2)), np.empty((0, 2)),
                                   np.empty((0, 2), int))


def reference_ergodic_sum_rate(records):
    """The per-record reduction that the stacked one replaced, kept as its oracle.

    ``records`` holds one (mean_cr, mean_pr, cluster_of) array triple per
    realization; every sum and minimum runs in the original order.
    """
    n_rec = len(records)
    k_total = records[0][0].shape[0]
    epr = math.fsum(math.fsum(float(r[1][u]) for r in records) / n_rec
                    for u in range(k_total))

    def min_sum(values, cluster_of):
        out = 0.0
        for i in range(int(cluster_of.max()) + 1):
            members = np.flatnonzero(cluster_of == i)
            if members.size:
                out += float(values[members].min())
        return out

    per_record_cmin = [min_sum(cr, cl) for cr, _, cl in records]
    ecr_mean_of_mins = math.fsum(per_record_cmin) / n_rec
    ecr_min_of_means = None
    if all(np.array_equal(r[2], records[0][2]) for r in records):
        user_means = np.array([math.fsum(float(r[0][u]) for r in records) / n_rec
                               for u in range(k_total)])
        ecr_min_of_means = min_sum(user_means, records[0][2])
    ecr = ecr_min_of_means if ecr_min_of_means is not None else ecr_mean_of_mins
    samples = [c + math.fsum(float(v) for v in r[1]) for c, r in zip(per_record_cmin, records)]
    if n_rec > 1:
        mean_s = math.fsum(samples) / n_rec
        var = math.fsum((s - mean_s) ** 2 for s in samples) / (n_rec - 1)
        stderr = math.sqrt(var / n_rec)
    else:
        stderr = 0.0
    return rates.EsrResult(esr=ecr + epr, ecr=ecr, epr=epr, stderr=stderr,
                           ecr_mean_of_mins=ecr_mean_of_mins, ecr_min_of_means=ecr_min_of_means)


class TestErgodicReductionOracle:
    """The stacked reduction is bitwise the per-record loop on random groups."""

    @staticmethod
    def group(rng, n_rec, k, shared):
        # rates with clamped zeros; 1-3 clusters per row, a cluster index may be empty
        cr = rng.uniform(0.0, 3.0, (n_rec, k)) * (rng.uniform(size=(n_rec, k)) > 0.1)
        pr = rng.uniform(0.0, 5.0, (n_rec, k)) * (rng.uniform(size=(n_rec, k)) > 0.1)
        rows = 1 if shared else n_rec
        cluster_of = np.array([rng.integers(0, rng.integers(1, 4), k) for _ in range(rows)])
        return cr, pr, np.broadcast_to(cluster_of, (n_rec, k)).copy()

    def check(self, cr, pr, cluster_of):
        stacked = rates.ergodic_sum_rate(cr, pr, cluster_of)
        oracle = reference_ergodic_sum_rate(list(zip(cr, pr, cluster_of)))
        for field in dataclasses.fields(rates.EsrResult):
            assert getattr(stacked, field.name) == getattr(oracle, field.name), field.name
        return stacked

    def test_shared_partition(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            out = self.check(*self.group(rng, int(rng.integers(2, 120)),
                                         int(rng.integers(2, 9)), shared=True))
            assert out.ecr_min_of_means is not None

    def test_mixed_partitions(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            cr, pr, cluster_of = self.group(rng, int(rng.integers(2, 120)),
                                            int(rng.integers(2, 9)), shared=False)
            cluster_of[1] = (cluster_of[0] + 1) % 2  # differs from row 0 in every user
            assert self.check(cr, pr, cluster_of).ecr_min_of_means is None

    def test_single_row(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            self.check(*self.group(rng, 1, int(rng.integers(1, 9)), shared=True))

    def test_entry_axis_equals_the_entries_one_by_one(self):
        # one stacked call over entries with shared and mixed partitions and different
        # cluster counts gives each entry the result of its own call, bit for bit
        rng = np.random.default_rng(14)
        groups = [self.group(rng, 30, 5, shared=bool(e % 2)) for e in range(12)]
        stacked = rates.ergodic_sum_rate(*(np.stack(column) for column in zip(*groups)))
        assert stacked == [self.check(*group) for group in groups]
