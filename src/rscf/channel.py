"""Network geometry, large-scale fading and imperfect-CSIT channel generation.

The propagation model combines a three-slope distance-dependent path loss
with log-normal shadowing.  Small-scale fading is i.i.d. unit-variance
circularly symmetric Gaussian.  Channel estimates carry a Gaussian error
controlled by a single quality parameter ``sigma_e``: the estimate of a
coefficient with gain ``zeta`` is distributed CN(0, zeta) while the error
component is CN(0, sigma_e^2 * zeta), and the exact reconstruction

    g_hat = sqrt(1 - sigma_e^2) * g_true + g_err

holds entry by entry on every realization.

The carrier, antenna heights and receiver noise are fixed:
:data:`ATTENUATION_DB` (1900 MHz, 15 m AP, 1.65 m user) and
:data:`NOISE_VARIANCE_W` (290 K, 20 MHz, 9 dB noise figure).  No function
takes them as an argument: the path loss and the power budget here, and
the MMSE regularisers, the SINR noise terms and the checks elsewhere, read
the module attribute where the model uses it.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

# Constants, not config keys: every power budget is solved for a target SNR from the
# gains' total and the noise (pt_for_snr), so a common factor on every gain or on the
# noise cancels from each SINR, MMSE regulariser, clustering rule and split score.
# Hata-style attenuation at 1900 MHz, 15 m AP and 1.65 m user height
ATTENUATION_DB = (46.3 + 33.9 * math.log10(1900.0) - 13.82 * math.log10(15.0)
                  - (1.1 * math.log10(1900.0) - 0.7) * 1.65 + (1.56 * math.log10(1900.0) - 0.8))
# thermal noise T0 k_B B NF at 290 K, 20 MHz and a 9 dB noise figure, in Watts
NOISE_VARIANCE_W = 290.0 * 1.381e-23 * 20e6 * 10.0 ** (9.0 / 10.0)


class NetworkGeometry(NamedTuple):
    """AP and user drop inside a square service area (positions in metres)."""

    ap_positions: np.ndarray    # (M, 2)
    user_positions: np.ndarray  # (K, 2)
    area_side: float

    def distances(self) -> np.ndarray:
        """(M, K) horizontal AP-to-user distances in metres."""
        diff = self.ap_positions[:, None, :] - self.user_positions[None, :, :]
        return np.linalg.norm(diff, axis=2)

    def co_located(self) -> "NetworkGeometry":
        """Same users, but all antennas stacked at the area centre.

        Used for the single-site baseline that contrasts with the
        distributed deployment.
        """
        centre = np.full_like(np.asarray(self.ap_positions, dtype=float),
                              self.area_side / 2.0)
        return NetworkGeometry(centre, np.array(self.user_positions, dtype=float), self.area_side)


class ChannelRealization(NamedTuple):
    """True channel, its estimate and the estimation error for one block."""

    g_true: np.ndarray  # (M, K) complex
    g_hat: np.ndarray
    g_err: np.ndarray
    sigma_e: float
    zeta: np.ndarray  # (M, K) large-scale gains the draw is scaled by

    @property
    def epsilon(self) -> float:
        """Scaling 1/sqrt(1 - sigma_e^2) linking true and estimated channels."""
        return 1.0 / math.sqrt(1.0 - self.sigma_e ** 2)


def place_network(m: int, k: int, area_side: float, rng: np.random.Generator) -> NetworkGeometry:
    """Drop M APs and K users i.i.d. uniform over the square.

    Requires the under-loaded regime M > K >= 1.
    """
    if k < 1:
        raise ValueError(f"need at least one user, got K={k}")
    if m <= k:
        raise ValueError(f"under-loaded regime requires M > K, got M={m}, K={k}")
    if area_side <= 0:
        raise ValueError(f"area side must be positive, got {area_side}")
    ap = rng.uniform(0.0, area_side, size=(m, 2))
    ue = rng.uniform(0.0, area_side, size=(k, 2))
    return NetworkGeometry(ap, ue, float(area_side))


def path_loss(d, d0: float = 10.0, d1: float = 50.0):
    """Three-slope path loss in dB (continuous at both breakpoints).

    35 dB/decade beyond ``d1``, 20 dB/decade between ``d0`` and ``d1``,
    constant below ``d0``.  Accepts scalars or arrays of distances.
    """
    if not 0 < d0 < d1:
        raise ValueError(f"breakpoints must satisfy 0 < d0 < d1, got d0={d0}, d1={d1}")
    d = np.asarray(d, dtype=float)
    if np.any(d < 0):
        raise ValueError("distances must be non-negative")
    near = -ATTENUATION_DB - 15.0 * np.log10(d1) - 20.0 * math.log10(d0)
    mid = -ATTENUATION_DB - 15.0 * np.log10(d1) - 20.0 * np.log10(np.maximum(d, d0))
    far = -ATTENUATION_DB - 35.0 * np.log10(np.maximum(d, d0))
    out = np.where(d > d1, far, np.where(d > d0, mid, near))
    return float(out) if out.ndim == 0 else out


def large_scale(geometry: NetworkGeometry, sigma_shadow_db: float, shadow: np.ndarray,
                d0: float = 10.0, d1: float = 50.0) -> np.ndarray:
    """Path loss on :data:`ATTENUATION_DB` plus log-normal shadowing, as (M, K) linear gains.

    ``shadow`` holds the standard normals the shadowing scales: (M, K)
    shadows each AP-user link independently, and (1, K), one value per user
    shared by all antennas, is the physical model for co-located arrays.
    """
    if sigma_shadow_db < 0:
        raise ValueError("shadowing standard deviation must be non-negative")
    pl_db = path_loss(geometry.distances(), d0, d1)
    return 10.0 ** ((pl_db + sigma_shadow_db * shadow) / 10.0)


def complex_normal(rng: np.random.Generator, size) -> np.ndarray:
    """Unit-variance circularly symmetric complex Gaussian samples."""
    return (rng.standard_normal(size) + 1j * rng.standard_normal(size)) / np.sqrt(2.0)


def draw_channel(zeta: np.ndarray, sigma_e: float, h: np.ndarray,
                 h_err: np.ndarray) -> ChannelRealization:
    """One coherence-block channel on the (M, K) gains, with its imperfect estimate.

    ``h`` and ``h_err`` are the unit complex normals of the small-scale
    fading and of the estimation error (see :func:`complex_normal`).
    """
    if not 0.0 <= sigma_e < 1.0:
        raise ValueError(f"sigma_e must lie in [0, 1), got {sigma_e}")
    amp = np.sqrt(zeta)
    g_true = amp * h
    g_err = sigma_e * amp * h_err
    g_hat = amp * (math.sqrt(1.0 - sigma_e ** 2) * h + sigma_e * h_err)
    return ChannelRealization(g_true, g_hat, g_err, float(sigma_e), zeta)


def draw_error_matrices(zeta: np.ndarray, sigma_e: float, n: int,
                        rng: np.random.Generator) -> np.ndarray:
    """Stack of ``n`` estimation-error matrices, entries CN(0, sigma_e^2 zeta).

    Returns shape (n, M, K) in (n, K, M) memory order, so the stack enters
    the projection's GEMM as one (n K, M) matrix without a copy.  Used to
    average rates over the error distribution conditioned on one channel
    estimate.
    """
    # complex_normal scaled in place: same draws and rounding, no complex temporaries
    h = np.empty((n,) + zeta.shape[::-1], dtype=complex).transpose(0, 2, 1)
    h.real = rng.standard_normal(h.shape)
    h.imag = rng.standard_normal(h.shape)
    h /= np.sqrt(2.0)
    h *= sigma_e * np.sqrt(zeta)
    return h


def pt_for_snr(g_true: np.ndarray, target_snr_db: float) -> float:
    """Power budget hitting a target transmit SNR Pt * ||G||_F^2 / (M K sigma_w^2), in dB."""
    m, k = g_true.shape
    gain = float(np.sum(np.abs(g_true) ** 2))
    return 10.0 ** (target_snr_db / 10.0) * m * k * NOISE_VARIANCE_W / gain
