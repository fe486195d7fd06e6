"""Power allocation across common and private streams.

A fraction ``delta`` of the budget goes to the common streams (split
equally across clusters by default) and the rest is spread uniformly over
the private streams.  The fraction itself is picked by an exhaustive grid
search that maximises the average sum rate under one shared stack of
estimation-error draws, projected by the caller, so candidates are compared
under common random numbers and the winner can never fall below the
no-split point delta=0; a near tie keeps the smallest common fraction.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import rates


# relative score gap below which split candidates tie, so the smallest fraction wins: far
# above the scorer's rounding (1e-14 against the kernel; a few 1e-12 at the zero-rate clamp)
_NEAR_TIE = 1e-10


@dataclass(frozen=True)
class PowerAllocation:
    """Amplitudes of the common and private streams.

    sum(a_c^2) = delta * pt and sum(a_p^2) = (1 - delta) * pt.
    """

    a_c: np.ndarray  # (N_c,) sqrt-Watt amplitudes; empty when no common streams
    a_p: np.ndarray  # (K,)
    delta: float
    pt: float  # a stacked allocation: (S, ...) amplitudes, and delta or pt may be (S,)


def uniform_private(pt: float | np.ndarray, delta: float, k: int) -> np.ndarray:
    """Equal private amplitudes a_k = sqrt((1 - delta) Pt / K), (..., K) for an array Pt."""
    if not 0.0 <= delta < 1.0:
        raise ValueError(f"delta must lie in [0, 1), got {delta}")
    if k < 1:
        raise ValueError(f"need at least one user, got {k}")
    return np.repeat(np.sqrt((1.0 - delta) * np.asarray(pt, dtype=float) / k)[..., None], k, -1)


def equal_split(pt: float, delta: float, n_c: int, k: int) -> PowerAllocation:
    """Common power split equally across clusters, private streams uniform."""
    a_c = (np.full(n_c, math.sqrt(delta * pt / n_c)) if n_c and delta > 0.0
           else np.zeros(n_c))
    return PowerAllocation(a_c, uniform_private(pt, delta, k), float(delta), float(pt))


def no_split(pt: float | np.ndarray, k: int) -> PowerAllocation:
    """All power on private streams (no rate splitting); an array Pt gives one row per point."""
    return PowerAllocation(np.zeros(0), uniform_private(pt, 0.0, k), 0.0,
                           pt if np.ndim(pt) else float(pt))


@functools.lru_cache(maxsize=None)
def delta_grid(mu: float) -> tuple[float, ...]:
    """Search grid {0, mu, 2 mu, ...} capped strictly below 1.

    The all-common endpoint delta=1 would leave zero private power, so a
    grid whose step divides 1 has its endpoint clamped to 1-mu.
    """
    if not 0.0 < mu <= 1.0:
        raise ValueError(f"grid step must lie in (0, 1], got {mu}")
    n = int(math.floor((1.0 + 1e-12) / mu))
    values = []
    for i in range(n + 1):
        v = i * mu
        if v >= 1.0 - 1e-12:
            v = 1.0 - mu
        values.append(round(v, 12))
    return tuple(sorted(set(values)))


def stack(allocs: list[PowerAllocation]) -> PowerAllocation:
    """Per-point allocations stacked on a leading SNR axis, for one kernel call."""
    return PowerAllocation(np.stack([a.a_c for a in allocs]), np.stack([a.a_p for a in allocs]),
                           np.array([a.delta for a in allocs]), np.array([a.pt for a in allocs]))


@functools.lru_cache(maxsize=None)
def _exhaustive_candidates(mu: float, n_c: int) -> tuple[np.ndarray, np.ndarray]:
    """``per_cluster_exhaustive``'s candidates in search order: totals (G,) and the
    per-cluster fractions (G, N_c), read-only: every search shares them."""
    candidates = sorted((round(sum(combo), 12), combo)
                        for combo in itertools.product(delta_grid(mu), repeat=n_c)
                        if round(sum(combo), 12) < 1.0 - 1e-12)
    totals, fractions = (np.array(column) for column in zip(*candidates))
    totals.flags.writeable = fractions.flags.writeable = False
    return totals, fractions


def allocate_common(bundle: rates.ProjectionBundle, sigma_e: float, sigma_w2: float, pt: float,
                    *, mu: float, mode: str = "equal_split") -> tuple[PowerAllocation, int]:
    """Grid search for the common-power fraction maximising the average sum rate.

    Every candidate is scored on the one stack of error draws projected into
    ``bundle``, so the comparison is noise-free across the grid, and
    :func:`rates.split_grid_scores` ranks the whole grid at once from the
    split terms that a bundle view builds once for all its searches; the
    caller scores the winner with the rate kernel.  ``equal_split`` scans one
    fraction, divided equally across clusters; ``per_cluster_exhaustive``
    scans one per cluster, from a table cached per (mu, n_c), for up to two
    clusters and falls back to equal split beyond (``config.validate``
    rejects it with ``cluster_mode=fixed`` and ``n_c > 2``).  Candidates run
    in ascending total fraction, then by the per-cluster fractions, and the
    first within ``_NEAR_TIE`` of the best score wins, so delta is 0 on a
    flat objective (zero forcing at sigma_e = 0, say).  Returns the winner
    and the number of candidates within ``_NEAR_TIE`` of the best score.
    """
    if mode not in ("equal_split", "per_cluster_exhaustive"):
        raise ValueError(f"unknown power mode {mode!r}")
    n_c, k = bundle.partition.n_clusters, len(bundle.partition.cluster_of)
    if mode == "per_cluster_exhaustive" and n_c <= 2:
        totals, fractions = _exhaustive_candidates(mu, n_c)
        a_c = np.sqrt(fractions * pt)
    else:
        # the amplitudes of equal_split, one row per candidate
        totals = np.array(delta_grid(mu))
        a_c = np.sqrt(totals * pt / n_c)[:, None].repeat(n_c, axis=1)

    scores = rates.split_grid_scores(bundle, a_c, np.sqrt((1.0 - totals) * pt / k), sigma_w2,
                                     sigma_e)
    top = scores.max()
    tied = np.flatnonzero(scores >= top - _NEAR_TIE * abs(top))
    g = tied[0]
    return PowerAllocation(a_c[g], uniform_private(pt, float(totals[g]), k),
                           float(totals[g]), float(pt)), len(tied)
