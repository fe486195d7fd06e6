import math

import numpy as np
import pytest

from rscf import channel as chan


def rng(seed=0):
    return np.random.default_rng(seed)


def fading(g, shape):
    """The small-scale and error normals of one channel, drawn from ``g`` in that order."""
    return chan.complex_normal(g, shape), chan.complex_normal(g, shape)


class TestPlacement:
    def test_positions_inside_square(self):
        geo = chan.place_network(8, 4, 1000.0, rng(7))
        assert geo.ap_positions.shape == (8, 2)
        assert geo.user_positions.shape == (4, 2)
        for pts in (geo.ap_positions, geo.user_positions):
            assert np.all(pts >= 0.0) and np.all(pts <= 1000.0)

    def test_same_seed_same_geometry(self):
        a = chan.place_network(8, 4, 1000.0, rng(7))
        b = chan.place_network(8, 4, 1000.0, rng(7))
        assert np.array_equal(a.ap_positions, b.ap_positions)
        assert np.array_equal(a.user_positions, b.user_positions)

    def test_rejects_overloaded(self):
        with pytest.raises(ValueError):
            chan.place_network(4, 4, 1000.0, rng(0))

    def test_co_located_variant(self):
        geo = chan.place_network(8, 4, 1000.0, rng(1)).co_located()
        assert np.all(geo.ap_positions == 500.0)
        d = geo.distances()
        # every antenna at the same distance from a given user
        assert np.allclose(d, d[0][None, :])


class TestAttenuation:
    # frozen from independent arithmetic on the attenuation formula
    def test_reference_parameters(self):
        assert chan.attenuation_constant(1900.0, 15.0, 1.65) == pytest.approx(
            140.71508370390842, rel=1e-12)

    def test_constant_terms_only(self):
        # all log terms vanish at f=1 MHz, h_ap=1 m, h_u=0
        assert chan.attenuation_constant(1.0, 1.0, 0.0) == pytest.approx(45.5, abs=1e-12)

    def test_without_user_height_term(self):
        assert chan.attenuation_constant(1900.0, 15.0, 0.0) == pytest.approx(
            145.5110214896378, rel=1e-12)


class TestPathLoss:
    def test_far_branch(self):
        assert chan.path_loss(100.0, 140.72, 10.0, 50.0) == pytest.approx(-210.72, abs=1e-9)

    def test_boundary_branch(self):
        expected = -140.72 - 15.0 * math.log10(50.0) - 20.0
        assert chan.path_loss(10.0, 140.72, 10.0, 50.0) == pytest.approx(expected, abs=1e-9)
        assert expected == pytest.approx(-186.20455006504028, abs=1e-9)

    def test_continuity_at_breakpoints(self):
        for d in (10.0, 50.0):
            below = chan.path_loss(np.nextafter(d, 0.0), 140.72, 10.0, 50.0)
            above = chan.path_loss(np.nextafter(d, np.inf), 140.72, 10.0, 50.0)
            assert abs(below - above) < 1e-9

    def test_constant_below_d0(self):
        assert chan.path_loss(0.0, 140.72, 10.0, 50.0) == chan.path_loss(10.0, 140.72, 10.0, 50.0)

    def test_rejects_bad_breakpoints(self):
        with pytest.raises(ValueError):
            chan.path_loss(10.0, 140.72, 50.0, 10.0)


# the attenuation of the reference carrier and antenna heights
ATT = chan.attenuation_constant(1900.0, 15.0, 1.65)


def path_loss_db(geo):
    return chan.path_loss(geo.distances(), ATT)


class TestLargeScale:
    def test_decomposition_identity(self):
        # replay the shadowing draw: zeta = 10^((path loss + 8 dB * N(0, 1)) / 10)
        geo = chan.place_network(8, 4, 1000.0, rng(3))
        zeta = chan.large_scale(geo, ATT, 8.0, rng(4).standard_normal((8, 4)))
        shadow = 8.0 * rng(4).standard_normal(size=(8, 4))
        np.testing.assert_allclose(zeta, 10.0 ** ((path_loss_db(geo) + shadow) / 10.0),
                                   rtol=1e-12)
        assert zeta.shape == (8, 4) and np.all(zeta > 0)

    def test_no_shadowing(self):
        geo = chan.place_network(8, 4, 1000.0, rng(3))
        zeta = chan.large_scale(geo, ATT, 0.0, rng(4).standard_normal((8, 4)))
        np.testing.assert_allclose(zeta, 10.0 ** (path_loss_db(geo) / 10.0), rtol=1e-12)

    def test_reproducible(self):
        geo = chan.place_network(8, 4, 1000.0, rng(3))
        a = chan.large_scale(geo, ATT, 8.0, rng(11).standard_normal((8, 4)))
        b = chan.large_scale(geo, ATT, 8.0, rng(11).standard_normal((8, 4)))
        assert np.array_equal(a, b)

    def test_all_near_branch_constant(self):
        # users within d0 of every AP: no shadowing -> identical gains
        ap = np.full((3, 2), 5.0)
        ue = np.full((2, 2), 6.0)
        geo = chan.NetworkGeometry(ap, ue, 20.0)
        zeta = chan.large_scale(geo, ATT, 0.0, rng(0).standard_normal((3, 2)))
        assert np.allclose(zeta, zeta[0, 0])

    def test_per_user_shadow_shared_across_antennas(self):
        geo = chan.place_network(8, 4, 1000.0, rng(3)).co_located()
        zeta = chan.large_scale(geo, ATT, 8.0, rng(4).standard_normal((1, 4)))
        shadow_db = 10.0 * np.log10(zeta) - path_loss_db(geo)
        assert np.allclose(shadow_db, shadow_db[0][None, :])
        assert np.ptp(shadow_db[0]) > 1.0  # users shadow independently


class TestChannelDraw:
    def test_perfect_estimate(self):
        geo = chan.place_network(8, 4, 1000.0, rng(5))
        ls = chan.large_scale(geo, ATT, 8.0, rng(6).standard_normal((8, 4)))
        real = chan.draw_channel(ls, 0.0, *fading(rng(7), ls.shape))
        assert np.array_equal(real.g_hat, real.g_true)
        assert np.all(real.g_err == 0)
        assert real.epsilon == 1.0

    def test_reconstruction_identity(self):
        geo = chan.place_network(8, 4, 1000.0, rng(5))
        ls = chan.large_scale(geo, ATT, 8.0, rng(6).standard_normal((8, 4)))
        sigma_e = math.sqrt(0.025)
        real = chan.draw_channel(ls, sigma_e, *fading(rng(7), ls.shape))
        lhs = real.g_hat
        rhs = math.sqrt(1.0 - sigma_e ** 2) * real.g_true + real.g_err
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)
        assert real.epsilon >= 1.0

    def test_rejects_sigma_out_of_range(self):
        ls = np.ones((4, 2))
        with pytest.raises(ValueError):
            chan.draw_channel(ls, 1.0, *fading(rng(0), ls.shape))

    def test_estimate_moments(self):
        # empirical Var(g_hat/sqrt(zeta)) = 1 and Var(g_err/sqrt(zeta)) = sigma_e^2
        zeta = np.full((1, 1), 0.37)
        sigma_e = math.sqrt(0.1)
        g = rng(42)
        hats, errs = [], []
        for _ in range(100):
            real = chan.draw_channel(zeta, sigma_e, *fading(g, zeta.shape))
            hats.append(real.g_hat[0, 0])
            errs.append(real.g_err[0, 0])
        # batch the bulk of the draws in one realization-shaped call
        big = chan.draw_channel(np.full((1000, 100), 0.37), sigma_e, *fading(g, (1000, 100)))
        hat = np.concatenate([np.asarray(hats), big.g_hat.ravel()])
        err = np.concatenate([np.asarray(errs), big.g_err.ravel()])
        assert np.mean(np.abs(hat) ** 2) / 0.37 == pytest.approx(1.0, abs=0.02)
        assert np.mean(np.abs(err) ** 2) / 0.37 == pytest.approx(0.1, rel=0.02)

    def test_error_matrix_stack(self):
        zeta = np.full((3, 2), 2.0)
        err = chan.draw_error_matrices(zeta, 0.2, 5, rng(1))
        assert err.shape == (5, 3, 2)
        none = chan.draw_error_matrices(zeta, 0.0, 5, rng(1))
        assert np.all(none == 0)

    def test_error_matrix_stack_is_bitwise_the_scaled_complex_normal(self):
        # the in-place fill must reproduce the plain expression bit for bit
        for seed in range(10):
            for shape, sigma_e in (((8, 4), 0.158), ((64, 16), 0.3), ((3, 2), 0.0),
                                   ((5, 7), 0.95)):
                gains = rng(100 + seed).lognormal(-20.0, 3.0, size=shape)
                n = 1 + seed % 4
                want = sigma_e * np.sqrt(gains) * chan.complex_normal(rng(seed), (n,) + shape)
                got = chan.draw_error_matrices(gains, sigma_e, n, rng(seed))
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()

    def test_true_channel_reconstruction(self):
        zeta = np.full((4, 2), 1.0)
        sigma_e = 0.3
        real = chan.draw_channel(zeta, sigma_e, *fading(rng(9), zeta.shape))
        rebuilt = (real.g_hat - real.g_err) / math.sqrt(1.0 - sigma_e ** 2)
        np.testing.assert_allclose(rebuilt, real.g_true, rtol=1e-12)


class TestNoiseAndSnr:
    def test_reference_noise(self):
        assert chan.noise_variance(290.0, 20e6, 9.0) == pytest.approx(6.36241029449455e-13, rel=1e-12)

    def test_unity_noise_figure(self):
        assert chan.noise_variance(290.0, 20e6, 0.0) == pytest.approx(8.0098e-14, rel=1e-12)

    def test_bandwidth_linearity(self):
        assert chan.noise_variance(290.0, 40e6, 9.0) == pytest.approx(
            2.0 * chan.noise_variance(290.0, 20e6, 9.0), rel=1e-12)

    def test_unit_magnitude_channel(self):
        g = np.exp(1j * rng(0).uniform(0, 2 * np.pi, size=(8, 4)))
        # |g| = 1 everywhere: SNR reduces to Pt / sigma_w^2
        assert chan.snr_db(g, 2.0, 0.5) == pytest.approx(10 * math.log10(4.0), abs=1e-9)

    def test_power_doubling(self):
        g = chan.draw_channel(np.ones((8, 4)), 0.0, *fading(rng(1), (8, 4))).g_true
        assert chan.snr_db(g, 2.0, 1e-3) - chan.snr_db(g, 1.0, 1e-3) == pytest.approx(
            10 * math.log10(2.0), abs=1e-9)

    def test_snr_roundtrip(self):
        g = chan.draw_channel(np.ones((8, 4)), 0.0, *fading(rng(2), (8, 4))).g_true
        pt = chan.pt_for_snr(g, 20.0, 1e-12)
        assert chan.snr_db(g, pt, 1e-12) == pytest.approx(20.0, abs=1e-9)
