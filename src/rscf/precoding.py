"""Common and private precoders for the clustered cell-free downlink.

Every construction reads the (M, K) masked estimate ``g_bar``.  Cluster i's
reduced channel is its (|A_i|, |K_i|) block on the cluster's APs and users;
its common precoder, one multicast beam, is the block's leading singular
vector.  Private precoders come in matched-filter, zero-forcing and
regularised (MMSE) flavours, computed on all of ``g_bar`` or per cluster on
its block; a per-cluster result is exactly zero off the cluster's APs.

Every private construction records the factors needed to evaluate its
SINRs in closed form later: the Gram-inverse ``lam`` and a per-column
scale such that ``private[:, r] = col_scale[r] * conj(g_bar) @ lam[:, r]``.
A construction that reads the power budget also takes an array of budgets,
one per SNR point; ``private``, ``beta``, ``col_scale`` and, where it
depends on Pt, ``lam`` then gain an SNR axis, bit for bit the scalar
builds stacked.  The network-wide constructions (MF-SP, ZF-SP, MMSE-SP)
also take a (C, M, K) stack of channels: every array of the set then gains
a leading channel axis, ahead of any SNR axis, bit for bit the per-channel
builds stacked, and :meth:`PrecoderSet.channel` reads one channel's set
back.  Zero forcing checks and inverts each channel's Gram once, and the
per-cluster constructions check and invert same-size cluster Grams as one
stack.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clustering import ClusterPartition

COND_LIMIT = 1e12

LABEL_MF_SP = "MF-SP"
LABEL_ZF_SP = "ZF-SP"
LABEL_MMSE_SP = "MMSE-SP"
LABEL_RU_ZF_RD = "RU-ZF-RD"
LABEL_RU_MMSE_RD = "RU-MMSE-RD"


class DegenerateChannelError(ValueError):
    """A draw the precoders cannot be built on; ``channel`` indexes a stacked build's channel."""

    def __init__(self, message: str, channel: int = 0):
        super().__init__(message)
        self.channel = channel


class RankDeficientChannelError(DegenerateChannelError):
    """Gram matrix too ill-conditioned to invert reliably."""


class EmptyClusterError(DegenerateChannelError):
    """A cluster ended up with no AP or an all-zero reduced channel."""


@dataclass(frozen=True)
class SvdCache:
    """Leading singular values and left vectors of the per-cluster reduced channels.

    ``psi1[i]`` is the top singular value of cluster i and ``u1[i][q]`` the
    leading left-singular coefficient of the cluster's q-th user (ascending
    user order), so that the masked row of user k in cluster i satisfies
    g_bar_k^T v_i = u1 * psi1, with v_i column i of the common precoder.
    """

    psi1: np.ndarray          # (N_c,)
    u1: tuple[np.ndarray, ...]


@dataclass(frozen=True)
class PrecoderSet:
    """Common beams (one per cluster) plus private columns (one per user)."""

    label: str
    common: np.ndarray   # (M, N_c); (M, 0) when no common streams are sent
    private: np.ndarray  # (M, K)
    beta: float | np.ndarray
    lam: np.ndarray | None = None        # (K, K) Gram inverse (block structured)
    col_scale: np.ndarray | None = None  # (K,) per-column scale on conj(g_bar) @ lam

    def channel(self, c: int) -> "PrecoderSet":
        """The set of channel ``c`` of a build on a stack of channels."""
        return PrecoderSet(self.label, self.common, self.private[c],
                           self.beta[c] if np.ndim(self.beta) else self.beta,
                           self.lam[c], self.col_scale[c])


def _empty_common(m: int) -> np.ndarray:
    return np.zeros((m, 0), dtype=complex)


def _conditions(gram: np.ndarray) -> np.ndarray:
    # the 2-norm condition number of every matrix of a (..., K, K) stack, as np.linalg.cond
    # computes it: a NaN ratio (a zero matrix) reads inf unless the matrix holds a NaN
    s = np.linalg.svd(gram, compute_uv=False)
    with np.errstate(all="ignore"):
        cond = s[..., 0] / s[..., -1]
    nan = np.isnan(cond)
    if nan.any():
        cond = np.where(nan & ~np.isnan(gram).any(axis=(-2, -1)), np.inf, cond)
    return cond


def _raise_above_limit(cond: np.ndarray, place) -> None:
    # the first condition number of ``cond`` above the limit raises, an infinite or NaN one
    # too; ``place(c)`` is the (context, channel) that entry c names
    ok = cond <= COND_LIMIT
    if not ok.all():
        c = int(np.argmin(ok))
        context, channel = place(c)
        raise RankDeficientChannelError(f"rank-deficient channel {context}: condition "
                                        f"{cond[c]:.3e} exceeds {COND_LIMIT:.0e}", channel)


def _check_condition(gram: np.ndarray, context: str) -> None:
    # one condition number per channel of a (..., K, K) stack; the first failing one raises
    _raise_above_limit(np.ravel(_conditions(gram)), lambda c: (context, c))


def _cluster_blocks(g_bar: np.ndarray, partition: ClusterPartition):
    """(APs, users, ``at = np.ix_(APs, users)``, reduced channel ``g_bar[at]``) per cluster;
    ``at[1].T, at[1]`` is ``np.ix_(users, users)``."""
    for aps, users, at in zip(partition.ap_sets, partition.user_sets, partition.block_index):
        yield aps, users, at, g_bar[at]


def _by_size(fn, grams: list[np.ndarray]) -> list:
    """``fn`` of every cluster's Gram, one call per stack of the same-shape Grams."""
    out, groups = [None] * len(grams), {}
    for i, gram in enumerate(grams):
        groups.setdefault(gram.shape, []).append(i)
    for members in groups.values():
        for i, value in zip(members, fn(np.stack([grams[i] for i in members]))):
            out[i] = value
    return out


def common_precoder(g_bar: np.ndarray,
                    partition: ClusterPartition) -> tuple[np.ndarray, SvdCache]:
    """One unit-norm SVD beam per cluster, with the cached singular triplets.

    Beam i is the leading singular vector of cluster i's block on its APs
    and zero on every other AP.  The phase of each beam is pinned so its
    largest-magnitude entry is real positive, keeping results identical
    across linear-algebra backends.
    """
    if partition.n_clusters == 0:
        raise ValueError("partition has no clusters")
    beams = np.zeros((g_bar.shape[0], partition.n_clusters), dtype=complex)
    psi1 = np.zeros(partition.n_clusters)
    u1 = []
    for i, (aps, _, _, block) in enumerate(_cluster_blocks(g_bar, partition)):
        if not np.any(block):
            raise EmptyClusterError(f"empty cluster channel (cluster {i})")
        uu, ss, vh = np.linalg.svd(block.T, full_matrices=False)
        vec = vh[0].conj()
        pivot = vec[int(np.argmax(np.abs(vec)))]
        phase = pivot / abs(pivot)
        beams[aps, i] = vec * phase.conjugate()
        u1.append(uu[:, 0] * phase.conjugate())
        psi1[i] = ss[0]
    return beams, SvdCache(psi1, tuple(u1))


def normalize_private_columns(pset: PrecoderSet) -> PrecoderSet:
    """Rescale every private column to unit norm.

    This is the transmit composition used throughout the experiments: the
    amplitude matrix alone carries the power, each stream transmits
    exactly its amplitude squared, and uniform amplitudes mean uniform
    per-stream power.  ``beta`` keeps the construction's own printed
    normalisation for reference.
    """
    # np.linalg.norm(private, axis=-2) without its wrapper
    private = pset.private
    norms = np.sqrt(np.add.reduce((private.conj() * private).real, axis=-2))
    if np.any(norms == 0.0):
        raise ValueError("cannot column-normalise a precoder with an all-zero column")
    return PrecoderSet(pset.label, pset.common, private / norms[..., None, :], pset.beta,
                       pset.lam, None if pset.col_scale is None else pset.col_scale / norms)


def mf_sp(g_bar: np.ndarray) -> PrecoderSet:
    """Matched filter on the sparse channel: the conjugate of each column."""
    *lead, m, k = g_bar.shape
    return PrecoderSet(LABEL_MF_SP, _empty_common(m), g_bar.conj().copy(), beta=1.0,
                       lam=np.tile(np.eye(k, dtype=complex), (*lead, 1, 1)),
                       col_scale=np.ones((*lead, k)))


def _trace_scaled(f: np.ndarray, pt, share: int = 1) -> tuple[np.ndarray, np.ndarray]:
    # beta = sqrt(Pt / (share ||f||_F^2)) per SNR point, and beta * f
    beta = np.sqrt(pt / (share * np.sum(np.abs(f) ** 2, axis=(-2, -1))))
    return beta, beta[..., None, None] * f


def _snr_axis(x: np.ndarray, pt) -> np.ndarray:
    # (..., A, B) with a unit axis for each of the budgets' axes ahead of the matrix axes
    return x.reshape(x.shape[:-2] + (1,) * np.ndim(pt) + x.shape[-2:])


def zf_sp(g_bar: np.ndarray, pt: float | np.ndarray) -> PrecoderSet:
    """Zero-forcing pseudoinverse of the sparse channel, trace-normalised to Pt."""
    m, k = g_bar.shape[-2:]
    gram = np.swapaxes(g_bar, -1, -2) @ g_bar.conj()
    _check_condition(gram, "(sparse zero-forcing)")
    lam = np.linalg.inv(gram)
    beta, private = _trace_scaled(_snr_axis(g_bar.conj() @ lam, pt), pt)
    return PrecoderSet(LABEL_ZF_SP, _empty_common(m), private,
                       beta=beta, lam=lam, col_scale=np.repeat(beta[..., None], k, axis=-1))


def mmse_sp(g_bar: np.ndarray, pt: float | np.ndarray, sigma_w2: float) -> PrecoderSet:
    """Regularised inverse on the sparse channel, trace-normalised to Pt.

    Regulariser K * sigma_w^2 / Pt with K the total user count.
    """
    pt = np.asarray(pt, dtype=float)
    if np.any(pt <= 0):
        raise ValueError(f"power budget must be positive, got {pt}")
    m, k = g_bar.shape[-2:]
    gram = (_snr_axis(np.swapaxes(g_bar, -1, -2) @ g_bar.conj(), pt)
            + (k * sigma_w2 / pt[..., None, None]) * np.eye(k))
    lam = np.linalg.inv(gram)
    beta, private = _trace_scaled(_snr_axis(g_bar.conj(), pt) @ lam, pt)
    return PrecoderSet(LABEL_MMSE_SP, _empty_common(m), private,
                       beta=beta, lam=lam, col_scale=np.repeat(beta[..., None], k, axis=-1))


def ru_zf_rd(g_bar: np.ndarray, partition: ClusterPartition) -> PrecoderSet:
    """Per-cluster zero-forcing with reduced-size inversions.

    Column k of the result is its cluster's pseudoinverse column on the
    cluster's APs and zero elsewhere; no global normalisation is applied.
    Every cluster's Gram is checked before any is inverted, and the lowest
    ill-conditioned cluster raises.
    """
    m, k_total = g_bar.shape
    blocks = list(_cluster_blocks(g_bar, partition))
    grams = [block.T @ block.conj() for *_, block in blocks]
    _raise_above_limit(np.array(_by_size(_conditions, grams)), lambda i: (f"in cluster {i}", 0))
    private = np.zeros((m, k_total), dtype=complex)
    lam = np.zeros((k_total, k_total), dtype=complex)
    for (*_, at, block), lam_i in zip(blocks, _by_size(np.linalg.inv, grams)):
        private[at] = block.conj() @ lam_i
        lam[at[1].T, at[1]] = lam_i
    return PrecoderSet(LABEL_RU_ZF_RD, _empty_common(m), private, beta=1.0,
                       lam=lam, col_scale=np.ones(k_total))


def ru_mmse_rd(g_bar: np.ndarray, partition: ClusterPartition,
               pt: float | np.ndarray, sigma_w2: float) -> PrecoderSet:
    """Per-cluster regularised inverses with per-cluster power scaling.

    Cluster i inverts a |K_i| x |K_i| matrix regularised by
    K |K_i| sigma_w^2 / Pt and scales its columns so the cluster carries
    Pt / K per stream.
    """
    pt = np.asarray(pt, dtype=float)
    if np.any(pt <= 0):
        raise ValueError(f"power budget must be positive, got {pt}")
    m, k_total = g_bar.shape
    private = np.zeros(pt.shape + (m, k_total), dtype=complex)
    lam = np.zeros(pt.shape + (k_total, k_total), dtype=complex)
    col_scale = np.ones(pt.shape + (k_total,))
    betas = np.zeros(pt.shape + (partition.n_clusters,))
    blocks = list(_cluster_blocks(g_bar, partition))
    grams = [block.T @ block.conj()
             + (k_total * len(users) * sigma_w2 / pt[..., None, None]) * np.eye(len(users))
             for _, users, _, block in blocks]
    lams = _by_size(np.linalg.inv, grams)
    for i, ((_, users, at, block), lam_i) in enumerate(zip(blocks, lams)):
        betas[..., i], private[(...,) + at] = _trace_scaled(
            block.conj() @ lam_i, pt, k_total)
        lam[..., at[1].T, at[1]] = lam_i
        col_scale[..., users] = betas[..., i, None]
    return PrecoderSet(LABEL_RU_MMSE_RD, _empty_common(m), private,
                       beta=betas, lam=lam, col_scale=col_scale)


# construction label -> builder(g_bar, partition, pt, sigma_w2).  The
# entries look the construction functions up when called, so a wrapper set
# on a module attribute (bench/tracing.py does this) sees every build.
CONSTRUCTIONS = {
    LABEL_MF_SP: lambda g_bar, partition, pt, sigma_w2: mf_sp(g_bar),
    LABEL_ZF_SP: lambda g_bar, partition, pt, sigma_w2: zf_sp(g_bar, pt),
    LABEL_MMSE_SP: lambda g_bar, partition, pt, sigma_w2: mmse_sp(g_bar, pt, sigma_w2),
    LABEL_RU_ZF_RD: lambda g_bar, partition, pt, sigma_w2: ru_zf_rd(g_bar, partition),
    LABEL_RU_MMSE_RD: lambda g_bar, partition, pt, sigma_w2: ru_mmse_rd(
        g_bar, partition, pt, sigma_w2),
}


def construct(label: str, g_bar: np.ndarray, partition: ClusterPartition,
              pt: float | np.ndarray, sigma_w2: float) -> PrecoderSet:
    """Raw private precoder set of the construction named ``label``.

    ``g_bar`` is ``sparse_channel(g_hat, partition)``; a dense (unmasked)
    precoder takes ``g_hat`` itself and ``single_cluster(M, K)``.  MF-SP,
    ZF-SP and MMSE-SP also take a (C, M, K) stack of channels with the
    sequence of their C partitions.  A cluster with users but no AP raises
    :class:`EmptyClusterError`; every channel's partition is checked before
    any arithmetic, so a stacked build raises for its first channel with an
    empty cluster, and otherwise for its first rank-deficient channel, with
    that channel's index as ``channel``.
    """
    if label not in CONSTRUCTIONS:
        raise ValueError(
            f"unknown construction {label!r}; expected one of {tuple(CONSTRUCTIONS)}")
    for c, part in enumerate([partition] if g_bar.ndim == 2 else partition):
        for i, (users, aps) in enumerate(zip(part.user_sets, part.ap_sets)):
            if users and not aps:
                raise EmptyClusterError(f"cluster {i} lost every AP in conflict resolution", c)
    return CONSTRUCTIONS[label](g_bar, partition, pt, sigma_w2)


def precoder_dump(pset: PrecoderSet) -> dict:
    """JSON-friendly dump for cross-implementation diffing.

    Matrices are row-major lists of [re, im] pairs.
    """
    def encode(matrix: np.ndarray) -> list:
        return [[[float(v.real), float(v.imag)] for v in row] for row in matrix]

    beta = pset.beta
    return {
        "label": pset.label,
        "common": encode(pset.common),
        "private": encode(pset.private),
        "beta": [float(b) for b in np.atleast_1d(beta)],
    }


def flop_estimate(partition: ClusterPartition | None, m: int, k: int, kind: str) -> int:
    """Complex multiply-add count for building one private (or SVD) precoder.

    Clustered inversion-based constructions cost the sum of cubed cluster
    sizes; network-wide ones add the dense product terms on top of the
    K^3 inversion.  With cluster sizes held fixed the clustered count per
    AP stays constant as the network grows.
    """
    if kind not in ("mf", "zf", "mmse", "svd"):
        raise ValueError(f"unknown precoder kind {kind!r}")
    if partition is None:
        if kind == "mf":
            return m * k
        if kind == "svd":
            return m * k * k
        return k ** 3 + 2 * m * k * k
    sizes = [(len(u), len(a)) for u, a in zip(partition.user_sets, partition.ap_sets)]
    if kind == "mf":
        return sum(na * nu for nu, na in sizes)
    if kind == "svd":
        return sum(na * nu * nu for nu, na in sizes)
    return sum(nu ** 3 for nu, _ in sizes)
