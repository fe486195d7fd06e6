"""SINR and rate evaluation for the rate-splitting cell-free downlink.

Three independent routes compute the same per-user SINRs:

* the vectorised kernel :func:`sinr_components_over_draws`, which every
  rate of a run goes through: the estimate and a stack of error draws are
  projected once through the precoders, and the power-loss SINRs of
  imperfect CSIT follow for all draws at once; :func:`draw_sinrs` is its
  one-draw view on a realization's own estimation error;
* a reference oracle that assembles the same SINRs from the true-channel
  received-power decomposition (never touching the estimate projections in
  the interference terms);
* closed forms that use the cached SVD triplets and Gram-inverse columns
  of each precoder construction instead of the precoding matrices.

The oracle and the closed forms agree with the kernel's one-draw view to
tight relative tolerance on every construction, which is the main
correctness check of the simulator.  Rates are log2(1+SINR) in
bits/s/Hz; the sum rate adds the per-cluster minimum common rate to the
sum of private rates.  Averages over estimation-error draws (with the
estimate held fixed) and over channel realizations provide the average
and ergodic sum rates.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import channel as chan
from .clustering import ClusterPartition, SparseChannel
from .precoding import (CONSTRUCTIONS, LABEL_MF_SP, LABEL_RU_ZF_RD, LABEL_ZF_SP,
                        PrecoderSet, SvdCache)

if TYPE_CHECKING:
    from .power import PowerAllocation


@dataclass(frozen=True)
class RateInputs:
    """Everything needed to evaluate the SINRs of one configuration."""

    realization: chan.ChannelRealization
    sparse: SparseChannel
    partition: ClusterPartition
    precoders: PrecoderSet
    svd_cache: SvdCache | None
    power: "PowerAllocation"
    sigma_w2: float


@dataclass(frozen=True)
class AsrResult:
    """Rates averaged over error draws for one estimate; stacked: a leading SNR axis."""

    s_a: float | np.ndarray
    mean_cr: np.ndarray  # (K,)
    mean_pr: np.ndarray  # (K,)
    min_cr: np.ndarray   # (N_c,) per-cluster minima of mean_cr

    def at(self, s: int) -> "AsrResult":
        """The result of SNR point ``s`` of a stacked evaluation."""
        return AsrResult(float(self.s_a[s]), self.mean_cr[s], self.mean_pr[s], self.min_cr[s])


@dataclass(frozen=True)
class EsrResult:
    """Ergodic rates over channel realizations.

    Two common-rate estimators are reported: the per-realization min-sum
    averaged over realizations (always defined) and the min of per-user
    means (defined only when the partition is identical across records;
    preferred when available since expectation and min do not commute).
    """

    esr: float
    ecr: float
    epr: float
    stderr: float
    ecr_mean_of_mins: float
    ecr_min_of_means: float | None


def _clamped_ratio(num: float, den: float) -> float:
    # The CSIT power-loss terms can push a sampled denominator negative;
    # SINR is a power ratio, so such draws clamp to zero rate.
    if den <= 0.0:
        return 0.0
    return max(num, 0.0) / den


def _cluster_and_position(partition: ClusterPartition, k: int) -> tuple[int, int]:
    for i, users in enumerate(partition.user_sets):
        if k in users:
            return i, users.index(k)
    raise ValueError(f"user {k} is not in any cluster")


def sinr_oracle(k: int, inputs: RateInputs, stream: str) -> float:
    """Reference route: user k's SINR assembled from true-channel stream powers.

    Every interference term is a received power |g_true^T p|^2 scaled by
    1/epsilon^2, and the useful power is recovered by subtracting the
    CSIT power-loss term from the decoded stream's true received power.
    ``stream`` is "common" or "private"; the private stream is decoded
    after the cluster's common stream, which then no longer interferes.
    """
    if stream not in ("common", "private"):
        raise ValueError(f"stream must be 'common' or 'private', got {stream!r}")
    i, _ = _cluster_and_position(inputs.partition, k)
    real = inputs.realization
    eps2 = real.epsilon ** 2
    g_k = real.g_true[:, k]
    a_c = np.asarray(inputs.power.a_c, dtype=float)
    a_p = np.asarray(inputs.power.a_p, dtype=float)
    pc, pp = inputs.precoders.common, inputs.precoders.private
    if pc.shape[1] and a_c.size:
        powers_c = a_c ** 2 * np.abs(g_k @ pc) ** 2
    elif stream == "common":
        return 0.0
    else:  # no common streams: zero common power in every cluster
        powers_c = np.zeros(inputs.partition.n_clusters)
    powers_p = a_p ** 2 * np.abs(g_k @ pp) ** 2
    amp, column, own = ((a_c[i], pc[:, i], powers_c[i]) if stream == "common"
                        else (a_p[k], pp[:, k], powers_p[k]))
    hat_own = real.g_hat[:, k] @ column
    til_own = real.g_err[:, k] @ column
    d_term = amp ** 2 * (abs(til_own) ** 2 - 2.0 * (hat_own.conjugate() * til_own).real)
    other = float(powers_c.sum() - powers_c[i] + powers_p.sum())
    if stream == "private":
        other -= own
    den = d_term + other / eps2 + inputs.sigma_w2 / eps2
    return _clamped_ratio(own / eps2 - d_term, den)


def _closed_form_projections(k: int, inputs: RateInputs) -> tuple[np.ndarray, np.ndarray]:
    """Private-column projections of user k via the Gram-inverse cache.

    Returns (hat_p, til_p): the estimate and error channels of user k
    projected through every private column, computed as rows through
    conj(g_bar) and the cached lam instead of the precoder matrix.  Exact
    construction identities replace the own-cluster entries where the
    construction guarantees them.
    """
    ps = inputs.precoders
    i, _ = _cluster_and_position(inputs.partition, k)
    users_i = list(inputs.partition.user_sets[i])
    g_bar_conj = inputs.sparse.g_bar.conj()
    rh = inputs.realization.g_hat[:, k] @ g_bar_conj
    rt = inputs.realization.g_err[:, k] @ g_bar_conj
    hat_p = (rh @ ps.lam) * ps.col_scale
    til_p = (rt @ ps.lam) * ps.col_scale
    if ps.label in (LABEL_ZF_SP, LABEL_RU_ZF_RD):
        # within the own cluster the pseudoinverse gives exactly scale * delta
        hat_p[users_i] = 0.0
        hat_p[k] = ps.col_scale[k]
    elif ps.label == LABEL_MF_SP:
        hat_p[k] = ps.col_scale[k] * float(np.sum(np.abs(inputs.sparse.g_bar[:, k]) ** 2))
    return hat_p, til_p


def sinr_closed_form(k: int, inputs: RateInputs, kind: str, stream: str) -> float:
    """Closed-form SINR from the cached SVD triplets and Gram inverses.

    ``kind`` must match the construction the precoder set was built with;
    ``stream`` is "common" or "private".
    """
    if kind not in CONSTRUCTIONS:
        raise ValueError(
            f"no closed form for kind {kind!r}; expected one of {tuple(CONSTRUCTIONS)}")
    ps = inputs.precoders
    if ps.label != kind:
        raise ValueError(f"precoder set was built as {ps.label!r}, requested {kind!r}")
    if ps.lam is None or ps.col_scale is None:
        raise ValueError("precoder set carries no closed-form cache")
    if stream not in ("common", "private"):
        raise ValueError(f"stream must be 'common' or 'private', got {stream!r}")

    i, pos = _cluster_and_position(inputs.partition, k)
    real = inputs.realization
    eps = real.epsilon
    a_c = np.asarray(inputs.power.a_c, dtype=float)
    a_p = np.asarray(inputs.power.a_p, dtype=float)
    noise = inputs.sigma_w2 / eps ** 2

    pc = ps.common
    if pc.shape[1] and a_c.size:
        hat_c = real.g_hat[:, k] @ pc
        til_c = real.g_err[:, k] @ pc
        e_c2 = np.abs(hat_c - til_c) ** 2
        common_int = float(np.sum(a_c ** 2 * e_c2)) - a_c[i] ** 2 * e_c2[i]
    else:
        til_c = None
        common_int = 0.0

    hat_p, til_p = _closed_form_projections(k, inputs)
    e_p2 = np.abs(hat_p - til_p) ** 2
    private_all = float(np.sum(a_p ** 2 * e_p2))

    if stream == "private":
        num = a_p[k] ** 2 * abs(hat_p[k]) ** 2
        d_term = a_p[k] ** 2 * (abs(til_p[k]) ** 2
                                - 2.0 * (np.conjugate(hat_p[k]) * til_p[k]).real)
        den = d_term + common_int + (private_all - a_p[k] ** 2 * e_p2[k]) + noise
        return _clamped_ratio(num, den)

    if inputs.svd_cache is None:
        raise ValueError("common-stream closed form needs the SVD cache")
    if pc.shape[1] == 0 or a_c.size == 0:
        return 0.0
    psi = inputs.svd_cache.psi1[i]
    u_k1 = inputs.svd_cache.u1[i][pos]
    num = a_c[i] ** 2 * psi ** 2 * abs(u_k1) ** 2
    d_term = a_c[i] ** 2 * (abs(til_c[i]) ** 2
                            - 2.0 * psi * (np.conjugate(u_k1) * til_c[i]).real)
    den = d_term + common_int + private_all + noise
    return _clamped_ratio(num, den)


# ---------------------------------------------------------------------------
# Vectorised evaluation over estimation-error draws
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StreamProjection:
    """Amplitude-free per-draw terms of one set of columns, for the kernel and scorer."""

    til: np.ndarray       # (n, K, C) error draws projected through the columns
    e2: np.ndarray        # (n, K, C) |h - t|^2 through every column
    own_e2: np.ndarray    # (n, K) the same through the own column
    hat_own2: np.ndarray  # (K,) estimate power |h|^2 of the own column
    loss: np.ndarray      # (n, K) CSIT power-loss term |t|^2 - 2 Re(conj(h) t), own column


@dataclass(frozen=True)
class ProjectionBundle:
    """Projections of one precoder set; ``common`` is None without common streams.

    A plain scheme can share its RS variant's bundle: the kernel reads no
    ``common`` without common amplitudes.
    """

    common: StreamProjection | None
    private: StreamProjection
    cluster_of: np.ndarray  # (K,)

    @property
    def til_p(self) -> np.ndarray:
        # (points * n, K, K): any leading SNR axis is folded into the draw axis
        return self.private.til.reshape((-1,) + self.private.til.shape[-2:])

    def at(self, s: int) -> "ProjectionBundle":
        """SNR point ``s`` of the bundle; one without an SNR axis serves every point."""
        p = self.private
        return self if p.til.ndim == 3 else ProjectionBundle(self.common, StreamProjection(
            p.til[s], p.e2[s], p.own_e2[s], p.hat_own2[s], p.loss[s]), self.cluster_of)


def project_streams(g_hat: np.ndarray, err_stack: np.ndarray, columns: np.ndarray,
                    own: np.ndarray) -> StreamProjection:
    """Project the estimate and every error draw through ``columns`` (M, C).

    ``own[k]`` is the column user k decodes: k, or its cluster's beam.
    Columns of shape (S, M, C) add a leading SNR axis to every term.
    """
    users = np.arange(g_hat.shape[1])
    hat = g_hat.T @ columns
    til = err_stack.transpose(0, 2, 1) @ columns[..., None, :, :]
    hat_own, til_own = hat[..., users, own], til[..., users, own]
    e2 = np.abs(hat[..., None, :, :] - til) ** 2
    return StreamProjection(
        til=til, e2=e2, own_e2=e2[..., users, own], hat_own2=np.abs(hat_own) ** 2,
        loss=np.abs(til_own) ** 2 - 2.0 * (np.conj(hat_own)[..., None, :] * til_own).real)


def project_precoders(g_hat: np.ndarray, err_stack: np.ndarray, precoders: PrecoderSet,
                      partition: ClusterPartition) -> ProjectionBundle:
    """Bundle of one precoder set: its common beams, if any, and private columns."""
    k = g_hat.shape[1]
    cluster_of = partition.cluster_of_users(k)
    common = (project_streams(g_hat, err_stack, precoders.common, cluster_of)
              if precoders.common.shape[1] else None)
    return ProjectionBundle(common, project_streams(g_hat, err_stack, precoders.private,
                                                    np.arange(k)), cluster_of)


def _clamped_sinrs(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    # a draw whose denominator the power-loss terms push to or below zero gets SINR 0
    ok = den > 0.0
    return np.where(ok, np.maximum(num[..., None, :], 0.0) / np.where(ok, den, 1.0), 0.0)


def sinr_components_over_draws(bundle: ProjectionBundle, a_c: np.ndarray,
                               a_p: np.ndarray, sigma_w2: float,
                               eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-draw per-user common and private SINRs, shapes (..., n, K) each.

    The draw axis is vectorised and reductions run in fixed index order.
    A leading SNR axis on the amplitudes, the bundle or both broadcasts.
    Without common streams the common SINRs are zero.
    """
    c, p, i_of = bundle.common, bundle.private, bundle.cluster_of
    ac2 = np.asarray(a_c, dtype=float) ** 2
    ap2 = np.asarray(a_p, dtype=float) ** 2
    noise = sigma_w2 / eps ** 2

    pint_all = np.einsum("...r,...nkr->...nk", ap2, p.e2)
    pint_excl = pint_all - ap2[..., None, :] * p.own_e2

    if c is not None and ac2.size:
        cint_all = np.einsum("...j,...nkj->...nk", ac2, c.e2)
        cint = cint_all - ac2[..., None, i_of] * c.own_e2
        den_c = ac2[..., None, i_of] * c.loss + cint + pint_all + noise
        sinr_c = _clamped_sinrs(ac2[..., i_of] * c.hat_own2, den_c)
    else:
        cint = 0.0
        sinr_c = np.zeros(pint_all.shape)

    den_p = ap2[..., None, :] * p.loss + cint + pint_excl + noise
    return sinr_c, _clamped_sinrs(ap2 * p.hat_own2, den_p)


def rate_components_over_draws(bundle: ProjectionBundle, a_c: np.ndarray,
                               a_p: np.ndarray, sigma_w2: float,
                               eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-draw per-user common and private rates log2(1 + SINR), shapes (..., n, K) each."""
    sinr_c, sinr_p = sinr_components_over_draws(bundle, a_c, a_p, sigma_w2, eps)
    return np.log2(1.0 + sinr_c), np.log2(1.0 + sinr_p)


def draw_sinrs(inputs: RateInputs) -> tuple[np.ndarray, np.ndarray]:
    """Common and private SINRs, (K,) each, of the realization's own error draw.

    The one-draw view of :func:`sinr_components_over_draws`: ``g_err`` is
    projected as a stack of one draw, so the scalar checks read the kernel
    that the run uses.
    """
    real = inputs.realization
    bundle = project_precoders(real.g_hat, real.g_err[None], inputs.precoders,
                               inputs.partition)
    sinr_c, sinr_p = sinr_components_over_draws(bundle, inputs.power.a_c, inputs.power.a_p,
                                                 inputs.sigma_w2, real.epsilon)
    return sinr_c[0], sinr_p[0]


def asr_from_bundle(bundle: ProjectionBundle, partition: ClusterPartition,
                    power: "PowerAllocation", sigma_w2: float,
                    sigma_e: float) -> AsrResult:
    eps = 1.0 / math.sqrt(1.0 - sigma_e ** 2)
    # a large stack can come back in a non-C order, and the mean over draws then
    # sums in another order; C order makes a stacked point equal its own call
    cr, pr = (np.ascontiguousarray(x) for x in rate_components_over_draws(
        bundle, power.a_c, power.a_p, sigma_w2, eps))
    mean_cr = cr.mean(axis=-2)
    mean_pr = pr.mean(axis=-2)
    min_cr = np.stack([mean_cr[..., list(u)].min(axis=-1) for u in partition.user_sets], -1)
    s_a = min_cr.sum(axis=-1) + mean_pr.sum(axis=-1)
    return AsrResult(s_a if s_a.ndim else float(s_a), mean_cr, mean_pr, min_cr)


def split_grid_scores(bundle: ProjectionBundle, partition: ClusterPartition,
                      a_c: np.ndarray, a_p: np.ndarray, sigma_w2: float,
                      sigma_e: float) -> np.ndarray:
    """Average sum rate of G split candidates at once, shape (G,), for ranking.

    ``a_c`` is (G, N_c) and ``a_p`` (G,): private amplitudes are uniform
    across users.  Every SINR denominator is a matrix product of amplitude
    weights (K, G, B) with the bundle's per-draw terms (K, B, n), and the
    SINRs and clamp are those of :func:`sinr_components_over_draws`; the
    summation order differs, so values agree with the kernel to rounding.
    """
    c, p, i_of = bundle.common, bundle.private, bundle.cluster_of
    n, k_total = p.loss.shape
    # terms per user: own power loss, |e_c|^2 of every beam, private
    # interference, and a row of ones that carries the noise
    e_c2, ones = c.e2.transpose(1, 2, 0), np.ones((k_total, 1, n))
    e_p2_all = p.e2.sum(axis=2).T[:, None, :]            # (K, 1, n)
    terms_c = np.concatenate([c.loss.T[:, None, :], e_c2, e_p2_all, ones], axis=1)
    terms_p = np.concatenate([(p.loss - p.own_e2).T[:, None, :] + e_p2_all, e_c2, ones], axis=1)

    ac2 = np.asarray(a_c, dtype=float) ** 2              # (G, N_c)
    ap2 = np.tile(np.asarray(a_p, dtype=float) ** 2, (k_total, 1))[:, :, None]  # (K, G, 1)
    own_ac2 = ac2[:, i_of].T[:, :, None]                 # (K, G, 1)
    # only the other clusters' common streams interfere
    others = ac2[None, :, :] * (np.arange(ac2.shape[1]) != i_of[:, None])[:, None, :]
    noise = np.full_like(ap2, sigma_w2 * (1.0 - sigma_e ** 2))  # the kernel's sigma_w2 / eps^2

    def mean_rate(weights, terms, num):
        # log2(1 + num/den) as log2((den + num)/den); a draw with den <= 0 has rate 0
        den = weights @ terms
        weights[:, :, -1:] += num
        ratio = weights @ terms
        clamped = den <= 0.0
        np.divide(ratio, den, out=ratio)
        ratio[clamped] = 1.0
        return np.log2(ratio, out=ratio).mean(axis=2)   # (K, G)

    mean_cr = mean_rate(np.concatenate([own_ac2, others, ap2, noise], axis=2), terms_c,
                        own_ac2 * c.hat_own2[:, None, None])
    mean_pr = mean_rate(np.concatenate([ap2, others, noise], axis=2), terms_p,
                        ap2 * p.hat_own2[:, None, None])
    min_cr = np.stack([mean_cr[list(u)].min(axis=0) for u in partition.user_sets])
    return min_cr.sum(axis=0) + mean_pr.sum(axis=0)


def average_sum_rate(g_hat: np.ndarray, err: np.ndarray, sigma_e: float,
                     partition: ClusterPartition, precoders: PrecoderSet,
                     power: "PowerAllocation", sigma_w2: float) -> AsrResult:
    """Average sum rate over the estimation-error draws ``err``, shape (n, M, K).

    The channel estimate is held fixed; each draw is one error matrix
    (and hence a candidate true channel) from its distribution.
    """
    if err.shape[0] < 1:
        raise ValueError(f"need at least one error draw, got {err.shape[0]}")
    bundle = project_precoders(g_hat, err, precoders, partition)
    return asr_from_bundle(bundle, partition, power, sigma_w2, sigma_e)


def _min_sums(values: np.ndarray, cluster_of: np.ndarray) -> np.ndarray:
    """Each row's cluster minima of ``values`` (R, K), summed in cluster order, (R,).

    A cluster index with no members in a row adds an exact 0.0.
    """
    out = np.zeros(values.shape[0])
    for i in range(int(cluster_of.max()) + 1):
        members = cluster_of == i
        mins = np.min(values, axis=1, where=members, initial=np.inf)
        out += np.where(members.any(axis=1), mins, 0.0)
    return out


def ergodic_sum_rate(mean_cr: np.ndarray, mean_pr: np.ndarray,
                     cluster_of: np.ndarray) -> EsrResult:
    """Aggregate per-realization averaged rates into ergodic quantities.

    Row r of ``mean_cr``, ``mean_pr`` and ``cluster_of``, (R, K) each, is
    one realization's per-user mean common and private rates and cluster
    indices.  The private part is the plain per-user mean.  For the common
    part the min-of-means estimator is used whenever all rows share one
    partition; with per-realization partitions (redrawn geometry) it is
    undefined and the mean of per-realization min-sums is reported as the
    primary estimator instead.  Summations over realizations use
    compensated summation, so results do not depend on scheduling.
    """
    n_rec = mean_cr.shape[0]
    if n_rec == 0:
        raise ValueError("need at least one realization record")

    epr = math.fsum(math.fsum(col) / n_rec for col in mean_pr.T.tolist())
    per_record_cmin = _min_sums(mean_cr, cluster_of)
    ecr_mean_of_mins = math.fsum(per_record_cmin.tolist()) / n_rec

    ecr_min_of_means: float | None = None
    if (cluster_of == cluster_of[0]).all():
        user_means = np.array([[math.fsum(col) / n_rec for col in mean_cr.T.tolist()]])
        ecr_min_of_means = float(_min_sums(user_means, cluster_of[:1])[0])

    ecr = ecr_min_of_means if ecr_min_of_means is not None else ecr_mean_of_mins

    samples = (per_record_cmin + [math.fsum(row) for row in mean_pr.tolist()]).tolist()
    if n_rec > 1:
        mean_s = math.fsum(samples) / n_rec
        var = math.fsum((s - mean_s) ** 2 for s in samples) / (n_rec - 1)
        stderr = math.sqrt(var / n_rec)
    else:
        stderr = 0.0

    return EsrResult(esr=ecr + epr, ecr=ecr, epr=epr, stderr=stderr,
                     ecr_mean_of_mins=ecr_mean_of_mins,
                     ecr_min_of_means=ecr_min_of_means)
