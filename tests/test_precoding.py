import math
from dataclasses import replace

import numpy as np
import pytest

from rscf import channel as chan
from rscf import clustering as clus
from rscf import precoding as prec
from rscf.config import ExperimentConfig, parse_scheme
from rscf.checks import random_instance
from rscf.harness import _ONE_BUDGET, _build_private, _scheme_sides

from fixture_network import FIXTURE


def rng(seed=0):
    return np.random.default_rng(seed)


def complex_matrix(m, k, seed):
    g = rng(seed)
    return (g.normal(size=(m, k)) + 1j * g.normal(size=(m, k))) / np.sqrt(2)


def clustered_instance(seed, m=8, k=4):
    """Masked estimate of a random channel, its non-trivial partition and the estimate."""
    g = rng(seed)
    zeta = g.lognormal(sigma=1.5, size=(m, k))
    g_hat = np.sqrt(zeta) * complex_matrix(m, k, seed + 1000)
    sel = clus.select_aps_topn(zeta, m)
    part = clus.design_clusters_fixed(sel, 2, zeta)
    return clus.sparse_channel(g_hat, part), part, g_hat


def cluster_block(g_bar, part, i):
    """Cluster i's reduced channel: its (|A_i|, |K_i|) block of the masked estimate."""
    return g_bar[np.ix_(list(part.ap_sets[i]), list(part.user_sets[i]))]


class TestCommonPrecoder:
    def test_rank_one_cluster(self):
        a = complex_matrix(6, 1, 1).ravel()
        b = complex_matrix(5, 1, 2).ravel()
        # rank-1 masked channel, rows = APs, columns = users
        g_bar = np.outer(b, a[:3])
        part = clus.ClusterPartition(((0, 1, 2),), (tuple(range(5)),),
                                     np.ones((1, 5), dtype=int))
        common, cache = prec.common_precoder(g_bar, part)
        v = common[:, 0]
        direction = b.conj() / np.linalg.norm(b)
        phase = direction[np.argmax(np.abs(direction))]
        direction = direction * np.conj(phase / abs(phase))
        np.testing.assert_allclose(v, direction, atol=1e-10)
        assert cache.psi1[0] == pytest.approx(np.linalg.norm(a[:3]) * np.linalg.norm(b), rel=1e-10)

    def test_unit_norm_columns(self):
        g_bar, part, _ = clustered_instance(3)
        common, _ = prec.common_precoder(g_bar, part)
        np.testing.assert_allclose(np.linalg.norm(common, axis=0), 1.0, rtol=1e-12)

    def test_power_iteration_oracle(self):
        # leading singular value from an independent power iteration
        g_bar, part, _ = clustered_instance(4)
        common, cache = prec.common_precoder(g_bar, part)
        for i, aps in enumerate(part.ap_sets):
            reduced = cluster_block(g_bar, part, i).T
            gram = reduced.conj().T @ reduced
            v = np.ones(gram.shape[0], dtype=complex)
            for _ in range(2000):
                v = gram @ v
                v = v / np.linalg.norm(v)
            psi = math.sqrt(float((v.conj() @ (gram @ v)).real))
            assert cache.psi1[i] == pytest.approx(psi, rel=1e-10)
            assert np.linalg.norm(reduced @ common[list(aps), i]) == pytest.approx(psi, rel=1e-10)

    def test_svd_cache_row_identity(self):
        g_bar, part, _ = clustered_instance(5)
        common, cache = prec.common_precoder(g_bar, part)
        for i, users in enumerate(part.user_sets):
            for pos, u in enumerate(users):
                lhs = g_bar[:, u] @ common[:, i]
                rhs = cache.u1[i][pos] * cache.psi1[i]
                assert abs(lhs - rhs) <= 1e-10 * max(abs(rhs), 1.0)

    def test_reduced_times_beam_matches_cache(self):
        # the users' masked rows over all M APs times the whole beam
        g_bar, part, _ = clustered_instance(6)
        common, cache = prec.common_precoder(g_bar, part)
        for i, users in enumerate(part.user_sets):
            lhs = g_bar[:, list(users)].T @ common[:, i]
            rhs = cache.psi1[i] * cache.u1[i]
            np.testing.assert_allclose(lhs, rhs, atol=1e-10 * cache.psi1[i])

    def test_beam_vanishes_outside_cluster_aps(self):
        # exact zeros: the common beams and the per-cluster private columns
        # are built on each cluster's own APs only
        outside_entries = 0
        for network in (FIXTURE, ExperimentConfig()):
            for seed in range(20):
                inputs = random_instance(seed, network, kind=prec.LABEL_RU_ZF_RD)
                g_bar, part = inputs.g_bar, inputs.partition
                columns = (inputs.precoders.private,
                           prec.construct(prec.LABEL_RU_MMSE_RD, g_bar, part,
                                          inputs.power.pt).private)
                for i, (users, aps) in enumerate(zip(part.user_sets, part.ap_sets)):
                    outside = [m for m in range(g_bar.shape[0]) if m not in aps]
                    assert np.all(inputs.precoders.common[outside, i] == 0)
                    for private in columns:
                        assert np.all(private[np.ix_(outside, list(users))] == 0)
                    outside_entries += len(outside)
        assert outside_entries > 0

    def test_empty_cluster_rejected(self):
        g_bar = np.zeros((4, 2), dtype=complex)
        part = clus.single_cluster(4, 2)
        with pytest.raises(prec.EmptyClusterError):
            prec.common_precoder(g_bar, part)

    def test_apless_cluster_rejected(self):
        # cluster 1 has users but lost every AP: every construction and the
        # SVD beams refuse the partition
        g_hat = complex_matrix(8, 4, 36)
        part = clus.ClusterPartition(((0, 1), (2, 3)), (tuple(range(8)), ()),
                                     np.array([[1] * 8, [0] * 8]))
        g_bar = clus.sparse_channel(g_hat, part)
        for label in prec.CONSTRUCTIONS:
            with pytest.raises(prec.EmptyClusterError, match="cluster 1"):
                prec.construct(label, g_bar, part, 1.0)
        with pytest.raises(prec.EmptyClusterError, match="cluster 1"):
            prec.common_precoder(g_bar, part)


class TestMatchedFilter:
    def test_real_channel_unchanged(self):
        g = np.abs(complex_matrix(4, 2, 8)).astype(complex)
        g_bar = clus.sparse_channel(g, clus.single_cluster(*g.shape))
        assert np.array_equal(prec.mf_sp(g_bar).private, g)

    def test_conjugation(self):
        g = complex_matrix(2, 2, 9)
        g_bar = clus.sparse_channel(g, clus.single_cluster(*g.shape))
        np.testing.assert_allclose(prec.mf_sp(g_bar).private, g.conj(), rtol=1e-15)

    def test_sparsity_inherited(self):
        g_bar, part, _ = clustered_instance(10)
        pset = prec.mf_sp(g_bar)
        assert np.array_equal(pset.private == 0, g_bar == 0)


class TestZeroForcing:
    def test_orthonormal_columns(self):
        q, _ = np.linalg.qr(complex_matrix(8, 4, 12))
        g_bar = clus.sparse_channel(q.conj(), clus.single_cluster(8, 4))  # g_bar^T g_bar* = I
        pset = prec.zf_sp(g_bar, pt=2.0)
        assert pset.beta == pytest.approx(math.sqrt(2.0 / 4.0), rel=1e-9)
        np.testing.assert_allclose(pset.private, pset.beta * q, atol=1e-9)

    def test_orthogonality_residual(self):
        g_bar, _, _ = clustered_instance(13)
        pset = prec.zf_sp(g_bar, pt=3.0)
        prod = g_bar.T @ pset.private
        np.testing.assert_allclose(prod, pset.beta * np.eye(4), atol=1e-9 * pset.beta)

    def test_trace_normalisation(self):
        g_bar, _, _ = clustered_instance(14)
        pset = prec.zf_sp(g_bar, pt=5.0)
        assert np.sum(np.abs(pset.private) ** 2) == pytest.approx(5.0, rel=1e-9)

    def test_duplicate_columns_rejected(self):
        g = complex_matrix(8, 4, 15)
        g[:, 1] = g[:, 0]
        with pytest.raises(prec.RankDeficientChannelError):
            prec.zf_sp(clus.sparse_channel(g, clus.single_cluster(*g.shape)), pt=1.0)


class TestMmse:
    def test_vanishing_noise_reduces_to_zf(self, monkeypatch):
        g = complex_matrix(8, 4, 16)
        dense = clus.sparse_channel(g, clus.single_cluster(*g.shape))
        pt = 1.0
        zf = prec.zf_sp(dense, pt)
        monkeypatch.setattr(chan, "NOISE_VARIANCE_W", 1e-12 * pt)
        mmse = prec.mmse_sp(dense, pt)
        dev = np.max(np.abs(mmse.private - zf.private)) / np.max(np.abs(zf.private))
        assert dev < 1e-4

    def test_vanishing_power_aligns_with_mf(self, monkeypatch):
        monkeypatch.setattr(chan, "NOISE_VARIANCE_W", 1.0)
        g = complex_matrix(8, 4, 17)
        dense = clus.sparse_channel(g, clus.single_cluster(*g.shape))
        mmse = prec.mmse_sp(dense, pt=1e-12)
        for k in range(4):
            a = mmse.private[:, k] / np.linalg.norm(mmse.private[:, k])
            b = g[:, k].conj() / np.linalg.norm(g[:, k])
            assert abs(np.vdot(a, b)) >= 1.0 - 1e-6

    def test_solve_oracle(self, monkeypatch):
        # independent route: solve the regularised system instead of inverting
        g_bar, _, _ = clustered_instance(18)
        pt, sigma_w2 = 2.0, 0.3
        monkeypatch.setattr(chan, "NOISE_VARIANCE_W", sigma_w2)
        pset = prec.mmse_sp(g_bar, pt)
        gram = g_bar.T @ g_bar.conj() + (4 * sigma_w2 / pt) * np.eye(4)
        x = np.linalg.solve(gram, np.eye(4, dtype=complex))
        reference = g_bar.conj() @ x
        beta = math.sqrt(pt / np.sum(np.abs(reference) ** 2))
        np.testing.assert_allclose(pset.private, beta * reference,
                                   atol=1e-10 * np.max(np.abs(reference)) * beta)

    def test_trace_normalisation(self, monkeypatch):
        monkeypatch.setattr(chan, "NOISE_VARIANCE_W", 0.1)
        g_bar, _, _ = clustered_instance(19)
        pset = prec.mmse_sp(g_bar, pt=7.0)
        assert np.sum(np.abs(pset.private) ** 2) == pytest.approx(7.0, rel=1e-9)


class TestReducedDimension:
    def test_single_cluster_matches_sparse_zf_direction(self):
        g_hat = complex_matrix(8, 4, 20)
        part = clus.single_cluster(8, 4)
        g_bar = clus.sparse_channel(g_hat, part)
        rd = prec.ru_zf_rd(g_bar, part)
        sp = prec.zf_sp(g_bar, pt=1.0)
        np.testing.assert_allclose(rd.private, sp.private / sp.beta, atol=1e-10)

    def test_singleton_clusters_conjugate_direction(self):
        g_hat = complex_matrix(6, 2, 21)
        part = clus.ClusterPartition(((0,), (1,)), ((0, 1, 2), (3, 4, 5)),
                                     np.array([[1, 1, 1, 0, 0, 0], [0, 0, 0, 1, 1, 1]]))
        g_bar = clus.sparse_channel(g_hat, part)
        rd = prec.ru_zf_rd(g_bar, part)
        for k in range(2):
            col = g_bar[:, k]
            np.testing.assert_allclose(rd.private[:, k], col.conj() / np.sum(np.abs(col) ** 2),
                                       atol=1e-12)

    def test_within_cluster_orthogonality(self):
        g_bar, part, g_hat = clustered_instance(22)
        rd = prec.ru_zf_rd(g_bar, part)
        for users in part.user_sets:
            cols = list(users)
            prod = g_bar[:, cols].T @ rd.private[:, cols]
            np.testing.assert_allclose(prod, np.eye(len(cols)), atol=1e-9)
        # the unmasked estimate still leaks across clusters in general
        cross = 0.0
        for i, users in enumerate(part.user_sets):
            others = [r for j, other in enumerate(part.user_sets) if j != i
                      for r in other]
            for k in users:
                for r in others:
                    cross = max(cross, abs(g_hat[:, k] @ rd.private[:, r]))
        assert cross > 1e-6 * np.max(np.abs(rd.private))

    @pytest.mark.parametrize("network", [FIXTURE, ExperimentConfig()],
                             ids=["fixture", "default"])
    def test_disjoint_clusters_make_sparse_zf_the_reduced_zf(self, network):
        # disjoint AP sets make the masked Gram block-diagonal, and column
        # normalisation removes the trace scaling: CF-ZF-SP and CF-ZF-RD
        # transmit the same unit-norm columns
        for seed in range(100):
            inputs = random_instance(seed, network, kind=prec.LABEL_ZF_SP)
            aps = [a for ap_set in inputs.partition.ap_sets for a in ap_set]
            assert len(aps) == len(set(aps))
            rd = _build_private(prec.LABEL_RU_ZF_RD, inputs.g_bar, inputs.partition,
                                inputs.power.pt)
            np.testing.assert_allclose(rd.private, inputs.precoders.private, rtol=0.0,
                                       atol=1e-12)

    def test_mmse_rd_reduced_inversion_oracle(self, monkeypatch):
        # dimension bookkeeping: each cluster solves its own |K_i| system
        g_bar, part, _ = clustered_instance(23)
        pt, sigma_w2 = 4.0, 0.2
        monkeypatch.setattr(chan, "NOISE_VARIANCE_W", sigma_w2)
        rd = prec.ru_mmse_rd(g_bar, part, pt)
        k_total = 4
        for i, (users, aps) in enumerate(zip(part.user_sets, part.ap_sets)):
            ki = len(users)
            reduced = cluster_block(g_bar, part, i).T
            gram = reduced @ reduced.conj().T + (k_total * ki * sigma_w2 / pt) * np.eye(ki)
            # the solution on the cluster's APs, zero on every other AP
            p_bar = np.zeros((8, ki), dtype=complex)
            p_bar[list(aps)] = reduced.conj().T @ np.linalg.solve(gram, np.eye(ki, dtype=complex))
            beta = math.sqrt(pt / (k_total * np.sum(np.abs(p_bar) ** 2)))
            np.testing.assert_allclose(rd.private[:, list(users)], beta * p_bar,
                                       atol=1e-10 * np.max(np.abs(p_bar)) * beta)
            assert rd.beta[i] == pytest.approx(beta, rel=1e-9)

    def test_mmse_rd_vanishing_noise_is_zf_rd(self, monkeypatch):
        monkeypatch.setattr(chan, "NOISE_VARIANCE_W", 1e-14)
        g_bar, part, _ = clustered_instance(24)
        rd_zf = prec.ru_zf_rd(g_bar, part)
        rd_mmse = prec.ru_mmse_rd(g_bar, part, pt=1.0)
        for k in range(4):
            a = rd_mmse.private[:, k] / np.linalg.norm(rd_mmse.private[:, k])
            b = rd_zf.private[:, k] / np.linalg.norm(rd_zf.private[:, k])
            assert abs(np.vdot(a, b)) >= 1.0 - 1e-6

    def test_private_columns_confined_to_cluster_aps(self, monkeypatch):
        monkeypatch.setattr(chan, "NOISE_VARIANCE_W", 1e-3)
        g_bar, part, _ = clustered_instance(35)
        for pset in (prec.ru_zf_rd(g_bar, part), prec.zf_sp(g_bar, pt=1.0),
                     prec.mmse_sp(g_bar, pt=1.0)):
            for users, aps in zip(part.user_sets, part.ap_sets):
                outside = [m for m in range(8) if m not in aps]
                for k in users:
                    if outside:
                        assert np.max(np.abs(pset.private[outside, k])) < 1e-9 * (
                            np.max(np.abs(pset.private[:, k])))

    def test_per_cluster_singularity_names_cluster(self):
        g_hat = complex_matrix(8, 4, 25)
        g_hat[:, 3] = g_hat[:, 2]
        part = clus.ClusterPartition(((0, 1), (2, 3)), ((0, 1, 2, 3), (4, 5, 6, 7)),
                                     np.array([[1] * 4 + [0] * 4, [0] * 4 + [1] * 4]))
        g_bar = clus.sparse_channel(g_hat, part)
        with pytest.raises(prec.RankDeficientChannelError, match="cluster 1"):
            prec.ru_zf_rd(g_bar, part)

    def test_whole_and_per_cluster_rank_checks_reject_the_same_draws(self):
        # ZF-SP checks the condition of the whole masked Gram, RU-ZF-RD each
        # cluster's block: on the clustered channel of the run's attempt-0 draws
        # they must reject exactly the same ones
        outcomes = set()
        for overrides in ({}, {"m": 64, "k": 16, "cluster_mode": "fixed", "n_c": 4},
                          {"selection": "threshold", "cluster_mode": "auto"}):
            config = replace(ExperimentConfig(), **overrides)
            for index in range(200):
                side = _scheme_sides(config, [parse_scheme("CF-ZF-SP")], index, 0)[False]
                part, g_bar = side.channels[False]
                rejected = []
                for build in (lambda: prec.zf_sp(g_bar, 1.0), lambda: prec.ru_zf_rd(g_bar, part)):
                    try:
                        build()
                        rejected.append(False)
                    except prec.RankDeficientChannelError:
                        rejected.append(True)
                assert rejected[0] == rejected[1], (overrides, index)
                outcomes.add(rejected[0])
        assert outcomes == {False, True}


class TestNetworkWide:
    """Dense (unmasked) precoders: a table construction on the dense channel."""

    def wide(self, g_hat, label, pt=1.0):
        part = clus.single_cluster(*g_hat.shape)
        return prec.construct(label, clus.sparse_channel(g_hat, part), part, pt)

    def test_full_coverage_equals_sparse(self, monkeypatch):
        monkeypatch.setattr(chan, "NOISE_VARIANCE_W", 0.1)
        g_hat = complex_matrix(8, 4, 26)
        part = clus.single_cluster(8, 4)
        g_bar = clus.sparse_channel(g_hat, part)
        for label in (prec.LABEL_MF_SP, prec.LABEL_ZF_SP, prec.LABEL_MMSE_SP):
            wide = self.wide(g_hat, label)
            if label == prec.LABEL_MF_SP:
                sp = prec.mf_sp(g_bar)
            elif label == prec.LABEL_ZF_SP:
                sp = prec.zf_sp(g_bar, 1.0)
            else:
                sp = prec.mmse_sp(g_bar, 1.0)
            np.testing.assert_allclose(wide.private, sp.private, atol=1e-12)

    def test_zf_kind_orthogonality(self):
        g_hat = complex_matrix(8, 4, 27)
        pset = self.wide(g_hat, prec.LABEL_ZF_SP)
        prod = g_hat.T @ pset.private
        np.testing.assert_allclose(prod, pset.beta * np.eye(4), atol=1e-9 * pset.beta)

    def test_mf_kind_is_conjugate(self):
        g_hat = complex_matrix(8, 4, 28)
        pset = self.wide(g_hat, prec.LABEL_MF_SP)
        np.testing.assert_allclose(pset.private, g_hat.conj(), rtol=1e-15)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            self.wide(complex_matrix(4, 2, 29), "nonlinear")


class TestColumnNormalisation:
    def test_unit_columns(self):
        g_bar, _, _ = clustered_instance(30)
        pset = prec.normalize_private_columns(prec.zf_sp(g_bar, pt=2.0))
        np.testing.assert_allclose(np.linalg.norm(pset.private, axis=0), 1.0, rtol=1e-12)

    def test_col_scale_tracks(self):
        g_bar, _, _ = clustered_instance(33)
        raw = prec.zf_sp(g_bar, pt=2.0)
        pset = prec.normalize_private_columns(raw)
        # col_scale still reproduces the columns through conj(g_bar) @ lam
        rebuilt = (g_bar.conj() @ pset.lam) * pset.col_scale
        np.testing.assert_allclose(rebuilt, pset.private, rtol=1e-9)

    def test_zero_column_rejected(self):
        pset = prec.PrecoderSet("MF-SP", np.zeros((4, 0)), np.zeros((4, 2), dtype=complex),
                                beta=1.0)
        with pytest.raises(ValueError):
            prec.normalize_private_columns(pset)


class TestSnrAxis:
    """A build at the SNR grid's array of budgets equals the scalar builds, bit for bit."""

    @pytest.mark.parametrize("label", list(prec.CONSTRUCTIONS))
    @pytest.mark.parametrize("dense", [True, False], ids=["dense", "clustered"])
    def test_stacked_build_equals_scalar_builds(self, monkeypatch, label, dense):
        g_bar, part, g_hat = clustered_instance(40)
        if dense:
            part = clus.single_cluster(*g_hat.shape)
            g_bar = clus.sparse_channel(g_hat, part)
        monkeypatch.setattr(chan, "NOISE_VARIANCE_W", 1e-3)
        pts = np.array([chan.pt_for_snr(g_hat, snr) for snr in range(0, 31, 5)])
        for normalise in (False, True):
            def build(pt):
                pset = prec.construct(label, g_bar, part, pt)
                return prec.normalize_private_columns(pset) if normalise else pset
            stacked, singles = build(pts), [build(pt) for pt in pts]
            # MF-SP and RU-ZF-RD never read pt: their sets carry no SNR axis
            assert (stacked.private.ndim == 2) == (label in (prec.LABEL_MF_SP,
                                                             prec.LABEL_RU_ZF_RD))
            for field in ("private", "beta", "col_scale", "lam"):
                got = np.asarray(getattr(stacked, field))
                for s, single in enumerate(singles):
                    want = np.asarray(getattr(single, field))
                    assert np.array_equal(got[s] if got.ndim > want.ndim else got, want), \
                        (field, s, normalise)

    @pytest.mark.parametrize("label", list(prec.CONSTRUCTIONS))
    @pytest.mark.parametrize("dense", [True, False], ids=["dense", "clustered"])
    def test_one_budget_sets_have_budget_free_columns(self, monkeypatch, label, dense):
        # the run builds the sets of harness._ONE_BUDGET once, at the first point's budget,
        # for every SNR point: their unit-norm columns must not read the budget (zero
        # forcing's trace scaling is divided out), while a regularised set's must
        g_bar, part, g_hat = clustered_instance(40)
        if dense:
            part = clus.single_cluster(*g_hat.shape)
            g_bar = clus.sparse_channel(g_hat, part)
        monkeypatch.setattr(chan, "NOISE_VARIANCE_W", 1e-3)
        pts = np.array([chan.pt_for_snr(g_hat, snr) for snr in range(0, 31, 5)])
        stacked = _build_private(label, g_bar, part, pts).private
        points = stacked if stacked.ndim == 3 else [stacked] * len(pts)
        if label in _ONE_BUDGET:
            one = _build_private(label, g_bar, part, pts[0]).private
            for s, columns in enumerate(points):
                assert np.max(np.abs(columns - one)) <= 1e-14 * np.max(np.abs(one)), s
        else:
            assert np.max(np.abs(points[-1] - points[0])) > 1e-3 * np.max(np.abs(points[0]))


class TestChannelAxis:
    """MF-SP, ZF-SP and MMSE-SP built on a (C, M, K) stack: the channel builds stacked."""

    STACKED = (prec.LABEL_MF_SP, prec.LABEL_ZF_SP, prec.LABEL_MMSE_SP)

    def run_channels(self, k):
        # the channels a run stacks: the distributed dense and clustered ones and the
        # co-located dense one, of the first realization whose zero forcing builds
        config = replace(ExperimentConfig(), m=2 * k + 4, k=k, cluster_mode="fixed",
                         n_c=min(k, 2))
        specs = [parse_scheme(label) for label in ("CF-ZF", "CF-ZF-SP", "BS-ZF")]
        for index in range(20):
            sides = _scheme_sides(config, specs, index, 0)
            channels = [sides[False].channels[True], sides[False].channels[False],
                        sides[True].channels[True]]
            try:
                for part, g_bar in channels:
                    prec.construct(prec.LABEL_ZF_SP, g_bar, part, 1.0)
            except prec.DegenerateChannelError:
                continue
            partitions, g_bars = zip(*channels)
            return partitions, np.stack(g_bars), sides[False].realization.g_true
        raise AssertionError("no buildable realization")

    @pytest.mark.parametrize("budget", ["scalar", "array"])
    @pytest.mark.parametrize("label", STACKED)
    @pytest.mark.parametrize("k", [1, 2, 4, 16])
    def test_stack_equals_the_channel_builds(self, monkeypatch, k, label, budget):
        partitions, g_bars, g_true = self.run_channels(k)
        monkeypatch.setattr(chan, "NOISE_VARIANCE_W", 1e-13)
        pts = np.array([chan.pt_for_snr(g_true, snr) for snr in range(0, 31, 5)])
        pt = pts[2] if budget == "scalar" else pts
        stacked = _build_private(label, g_bars, partitions, pt)
        # the channel axis leads, ahead of the SNR axis of a set that reads the budget
        snr_axis = () if label == prec.LABEL_MF_SP else np.shape(pt)
        assert stacked.private.shape == g_bars.shape[:1] + snr_axis + g_bars.shape[1:]
        for c, (part, g_bar) in enumerate(zip(partitions, g_bars)):
            one, got = _build_private(label, g_bar, part, pt), stacked.channel(c)
            for field in ("private", "beta", "lam", "col_scale"):
                assert np.array_equal(getattr(got, field), getattr(one, field)), (c, field)
            assert np.array_equal(got.common, one.common) and got.label == one.label

    def test_a_rank_deficient_channel_reports_its_own_condition(self):
        partitions, g_bars, _ = self.run_channels(4)
        g_bars = g_bars.copy()
        g_bars[1, :, 3] = g_bars[1, :, 2]  # two users of the clustered channel alike
        with pytest.raises(prec.RankDeficientChannelError) as alone:
            _build_private(prec.LABEL_ZF_SP, g_bars[1], partitions[1], 1.0)
        with pytest.raises(prec.RankDeficientChannelError) as stacked:
            _build_private(prec.LABEL_ZF_SP, g_bars, partitions, 1.0)
        assert stacked.value.channel == 1 and str(stacked.value) == str(alone.value)
        # the same stack without that channel builds
        _build_private(prec.LABEL_ZF_SP, g_bars[::2], partitions[::2], 1.0)

    def test_the_first_failing_channel_raises(self):
        # every channel's partition is checked before any arithmetic: an empty cluster on
        # channel 1 fails the stack ahead of channel 0's rank deficiency, whatever the
        # construction
        partitions, g_bars, _ = self.run_channels(4)
        g_bars = g_bars.copy()
        g_bars[0, :, 1] = g_bars[0, :, 0]
        empty = clus.ClusterPartition(((0, 1), (2, 3)), (tuple(range(g_bars.shape[1])), ()),
                                      np.zeros((2, g_bars.shape[1]), dtype=int))
        for label in self.STACKED:
            with pytest.raises(prec.EmptyClusterError, match="cluster 1 lost every AP") as got:
                _build_private(label, g_bars, (partitions[0], empty, partitions[2]), 1.0)
            assert got.value.channel == 1, label
        # without the empty cluster, zero forcing's rank check fails channel 0
        with pytest.raises(prec.RankDeficientChannelError) as rank_first:
            _build_private(prec.LABEL_ZF_SP, g_bars, partitions, 1.0)
        assert rank_first.value.channel == 0


class TestFlopEstimate:
    def make_partition(self, sizes, aps_per):
        users, aps, start_u, start_a = [], [], 0, 0
        for s in sizes:
            users.append(tuple(range(start_u, start_u + s)))
            aps.append(tuple(range(start_a, start_a + aps_per)))
            start_u += s
            start_a += aps_per
        m = start_a
        tv = np.zeros((len(sizes), m), dtype=int)
        for i, a in enumerate(aps):
            tv[i, list(a)] = 1
        return clus.ClusterPartition(tuple(users), tuple(aps), tv)

    def test_singletons(self):
        part = self.make_partition([1, 1, 1, 1], 2)
        assert prec.flop_estimate(part, 8, 4, "zf") == 4

    def test_single_cluster(self):
        part = self.make_partition([4], 8)
        assert prec.flop_estimate(part, 8, 4, "zf") == 64

    def test_per_ap_cost_constant_when_doubling(self):
        small = self.make_partition([4] * 4, 8)   # M=32, K=16
        large = self.make_partition([4] * 8, 8)   # M=64, K=32
        r1 = prec.flop_estimate(small, 32, 16, "mmse") / 32
        r2 = prec.flop_estimate(large, 64, 32, "mmse") / 64
        assert abs(r2 - r1) / r1 < 0.05

    def test_network_wide_grows_per_ap(self):
        r1 = prec.flop_estimate(None, 32, 16, "mmse") / 32
        r2 = prec.flop_estimate(None, 64, 32, "mmse") / 64
        assert r2 > 1.5 * r1


class TestPhaseOneWithoutWrappers:
    """The condition check and the column norms without np.linalg.cond and norm, and the
    per-cluster Grams checked and inverted as same-size stacks, against their former forms."""

    @staticmethod
    def cond_check(gram, context):
        # the former _check_condition, through np.linalg.cond
        cond = np.linalg.cond(gram)
        if not (cond <= prec.COND_LIMIT).all():
            c = int(np.argmin(np.ravel(cond <= prec.COND_LIMIT)))
            raise prec.RankDeficientChannelError(
                f"rank-deficient channel {context}: condition "
                f"{np.ravel(cond)[c]:.3e} exceeds {prec.COND_LIMIT:.0e}", c)

    @staticmethod
    def outcome(build):
        try:
            build()
        except Exception as exc:  # noqa: BLE001 - the outcome is compared, not handled
            return type(exc), str(exc), getattr(exc, "channel", None)
        return None

    def grams(self):
        g = complex_matrix(8, 4, 40)
        good = g.T @ g.conj()
        alike = g.copy()
        alike[:, 3] = alike[:, 2]
        singular = alike.T @ alike.conj()
        nan = good.copy()
        nan[1, 2] = np.nan
        ill = good.copy()
        ill[:, 3] = ill[:, 2] * (1 + 1e-14)
        yield good
        yield singular
        yield np.zeros((4, 4), dtype=complex)  # 0 / 0: NaN, read as inf
        yield np.ones((3, 3), dtype=complex)   # a zero singular value: inf
        yield nan
        yield ill
        yield np.stack([good, singular, good])
        yield np.stack([good, good, np.zeros((4, 4), dtype=complex), singular])
        yield np.stack([good, nan])
        yield np.stack([[good, ill], [good, singular], [good, good]])
        yield np.stack([good, good])

    def test_condition_check_raises_as_cond_would(self):
        outcomes = []
        for gram in self.grams():
            got = self.outcome(lambda: prec._check_condition(gram, "(sparse zero-forcing)"))
            want = self.outcome(lambda: self.cond_check(gram, "(sparse zero-forcing)"))
            assert got == want
            outcomes.append(got)
        # passes, rank errors at several channels, inf conditions and LinAlgErrors all occur
        assert None in outcomes and np.linalg.LinAlgError in {o[0] for o in outcomes if o}
        assert {o[2] for o in outcomes if o and o[0] is prec.RankDeficientChannelError} == {
            0, 1, 2}
        assert any("condition inf" in o[1] for o in outcomes if o)

    def loop_ru_zf_rd(self, g_bar, partition):
        # the former per-cluster loop: check, then invert, one cluster at a time
        m, k_total = g_bar.shape
        private = np.zeros((m, k_total), dtype=complex)
        lam = np.zeros((k_total, k_total), dtype=complex)
        for i, (aps, users) in enumerate(zip(partition.ap_sets, partition.user_sets)):
            at = np.ix_(aps, users)
            block = g_bar[at]
            gram = block.T @ block.conj()
            self.cond_check(gram, f"in cluster {i}")
            lam_i = np.linalg.inv(gram)
            private[at] = block.conj() @ lam_i
            lam[np.ix_(users, users)] = lam_i
        return private, lam

    @staticmethod
    def loop_ru_mmse_rd(g_bar, partition, pt, sigma_w2):
        m, k_total = g_bar.shape
        private = np.zeros(pt.shape + (m, k_total), dtype=complex)
        lam = np.zeros(pt.shape + (k_total, k_total), dtype=complex)
        for aps, users in zip(partition.ap_sets, partition.user_sets):
            at = np.ix_(aps, users)
            block, ki = g_bar[at], len(users)
            gram = (block.T @ block.conj()
                    + (k_total * ki * sigma_w2 / pt[..., None, None]) * np.eye(ki))
            lam_i = np.linalg.inv(gram)
            _, private[(...,) + at] = prec._trace_scaled(block.conj() @ lam_i, pt, k_total)
            lam[(...,) + np.ix_(users, users)] = lam_i
        return private, lam

    def partitions(self):
        # same-size clusters (four of two users, two of four) and mixed sizes
        for m, k, n_c, seed in ((16, 8, 4, 1), (16, 8, 2, 2), (12, 5, 2, 3), (64, 16, 4, 4),
                                (8, 4, 2, 5)):
            g = rng(seed)
            zeta = g.lognormal(sigma=1.5, size=(m, k))
            part = clus.design_clusters_fixed(clus.select_aps_topn(zeta, m), n_c, zeta)
            yield part, np.sqrt(zeta) * complex_matrix(m, k, seed + 50)

    def test_stacked_cluster_grams_equal_the_loop(self, monkeypatch):
        monkeypatch.setattr(chan, "NOISE_VARIANCE_W", 0.3)
        sizes = set()
        pts = np.array([0.5, 2.0, 8.0])
        for part, g_hat in self.partitions():
            sizes.add(tuple(sorted(len(u) for u in part.user_sets)))
            g_bar = clus.sparse_channel(g_hat, part)
            got = prec.ru_zf_rd(g_bar, part)
            private, lam = self.loop_ru_zf_rd(g_bar, part)
            assert np.array_equal(got.private, private) and np.array_equal(got.lam, lam)
            got = prec.ru_mmse_rd(g_bar, part, pts)
            private, lam = self.loop_ru_mmse_rd(g_bar, part, pts, 0.3)
            assert np.array_equal(got.private, private) and np.array_equal(got.lam, lam)
        assert (2, 2, 2, 2) in sizes and any(len(set(s)) > 1 for s in sizes)

    def test_the_lowest_failing_cluster_raises_its_own_condition(self):
        cases = 0
        for part, g_hat in self.partitions():
            pairs = [u for u in part.user_sets if len(u) > 1]
            for later in range(len(pairs)):
                for earlier in (None, 0):
                    g = g_hat.copy()
                    for users in {later} | ({earlier} - {None}):
                        a, b = pairs[users][:2]
                        g[:, b] = g[:, a]  # two users of the cluster alike
                    g_bar = clus.sparse_channel(g, part)
                    got = self.outcome(lambda: prec.ru_zf_rd(g_bar, part))
                    want = self.outcome(lambda: self.loop_ru_zf_rd(g_bar, part))
                    assert got == want and got[0] is prec.RankDeficientChannelError
                    assert got[2] == 0
                    cases += 1
        assert cases > 10

    def test_column_norms_equal_linalg_norm(self):
        g = complex_matrix(8, 4, 41)
        for private in (g, np.stack([g, 2 * g, g / 3]), np.stack([[g, g * 1e-150]] * 2),
                        g.real.copy()):
            pset = prec.PrecoderSet("ZF-SP", np.zeros((8, 0)), private, beta=1.0,
                                    col_scale=np.ones(private.shape[:-2] + (4,)))
            norms = np.linalg.norm(private, axis=-2)
            got = prec.normalize_private_columns(pset)
            assert np.array_equal(got.private, private / norms[..., None, :])
            assert np.array_equal(got.col_scale, 1.0 / norms)
