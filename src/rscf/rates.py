"""SINR and rate evaluation for the rate-splitting cell-free downlink.

Three independent routes compute the same per-user SINRs:

* the vectorised kernel :func:`asr_from_bundle`, which every rate of a run
  goes through: the estimate and a stack of error draws are projected once
  through the precoders, and one SINR routine gives the power-loss SINRs of
  imperfect CSIT for all draws at once; :func:`draw_sinrs` is its one-draw
  view on a realization's own estimation error;
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

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import channel as chan
from .clustering import ClusterPartition
from .precoding import (CONSTRUCTIONS, LABEL_MF_SP, LABEL_RU_ZF_RD, LABEL_ZF_SP,
                        PrecoderSet, SvdCache)

if TYPE_CHECKING:
    from .power import PowerAllocation


@dataclass(frozen=True)
class RateInputs:
    """Everything needed to evaluate the SINRs of one configuration."""

    realization: chan.ChannelRealization
    g_bar: np.ndarray  # (M, K) estimate masked to the partition
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
    g_bar_conj = inputs.g_bar.conj()
    rh = inputs.realization.g_hat[:, k] @ g_bar_conj
    rt = inputs.realization.g_err[:, k] @ g_bar_conj
    hat_p = (rh @ ps.lam) * ps.col_scale
    til_p = (rt @ ps.lam) * ps.col_scale
    if ps.label in (LABEL_ZF_SP, LABEL_RU_ZF_RD):
        # within the own cluster the pseudoinverse gives exactly scale * delta
        hat_p[users_i] = 0.0
        hat_p[k] = ps.col_scale[k]
    elif ps.label == LABEL_MF_SP:
        hat_p[k] = ps.col_scale[k] * float(np.sum(np.abs(inputs.g_bar[:, k]) ** 2))
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

    e2: np.ndarray        # (n, K, C) |h - t|^2 through every column
    own_e2: np.ndarray    # (n, K) the same through the own column
    hat_own2: np.ndarray  # (K,) estimate power |h|^2 of the own column
    loss: np.ndarray      # (n, K) CSIT power-loss term |t|^2 - 2 Re(conj(h) t), own column

    def take(self, index: int | np.ndarray) -> "StreamProjection":
        """Slice ``index`` of a stacked projection: a view for an int, a gathered stack for
        an index array."""
        return StreamProjection(self.e2[index], self.own_e2[index], self.hat_own2[index],
                                self.loss[index])


@dataclass(frozen=True)
class ProjectionBundle:
    """Projections of one precoder set; ``common`` is None without common streams.

    A plain scheme can share its RS variant's bundle: the kernel reads no
    ``common`` without common amplitudes.
    """

    common: StreamProjection | None
    private: StreamProjection
    partition: ClusterPartition

    @property
    def til_p(self) -> np.ndarray:
        # private |h - t|^2 as (slices * n, K, K), the slice axis folded in; the tracer
        # reads its shape
        return self.private.e2.reshape((-1,) + self.private.e2.shape[-2:])

    @functools.cached_property
    def split_terms(self) -> np.ndarray:
        """Per-draw terms of :func:`split_grid_scores`, (K, N_c + 4, n), built once per view:
        own common power loss, |e_c|^2 of every beam, sum_r |e_p|^2, private power loss
        minus own |e_p|^2 plus sum_r |e_p|^2, and ones that carry the noise."""
        c, p = self.common, self.private
        e_p2_all = p.e2.sum(axis=2)                          # (n, K)
        return np.concatenate([c.loss.T[:, None], c.e2.transpose(1, 2, 0),
                               e_p2_all.T[:, None], (p.loss - p.own_e2 + e_p2_all).T[:, None],
                               np.ones_like(c.loss.T[:, None])], axis=1)

    def at(self, s: int | np.ndarray) -> "ProjectionBundle":
        """Slice ``s`` of the bundle, or the stack of slices an index array picks; one
        without a slice axis serves every slice."""
        return self if self.private.e2.ndim == 3 else ProjectionBundle(
            self.common, self.private.take(s), self.partition)


def project_streams(g_hat: np.ndarray, err_stack: np.ndarray, columns: np.ndarray,
                    own: np.ndarray) -> StreamProjection:
    """Project the estimate and every error draw through ``columns`` (M, C).

    ``own[k]`` is the column user k decodes: k, or its cluster's beam.
    Columns of shape (S, M, C) add a leading slice axis to every term.
    Each slice's error product is one GEMM (n K, M) @ (M, C), so a slice's
    terms do not depend on the other slices it is stacked with; a stack held
    in (n, K, M) memory order, as ``channel.draw_error_matrices`` returns it,
    enters it without a copy.
    """
    n, m, k = err_stack.shape
    users = np.arange(k)
    stack = columns.reshape((-1, m, columns.shape[-1]))
    hat = g_hat.T @ stack                                    # (S, K, C)
    til = (err_stack.transpose(0, 2, 1).reshape(n * k, m) @ stack).reshape(
        len(stack), n, k, -1)                                # (S, n, K, C)
    hat_own, til_own = hat[:, users, own], til[..., users, own]
    loss = np.abs(til_own) ** 2 - 2.0 * (np.conj(hat_own)[..., None, :] * til_own).real
    til -= hat[:, None]  # |t - h| is |h - t| bit for bit
    e2 = np.abs(til)
    np.square(e2, out=e2)
    proj = StreamProjection(e2=e2, own_e2=e2[..., users, own], hat_own2=np.abs(hat_own) ** 2,
                            loss=loss)
    return proj if columns.ndim == 3 else proj.take(0)


def project_precoders(g_hat: np.ndarray, err_stack: np.ndarray, precoders: PrecoderSet,
                      partition: ClusterPartition) -> ProjectionBundle:
    """Bundle of one precoder set: its common beams, if any, and private columns."""
    common = (project_streams(g_hat, err_stack, precoders.common, partition.cluster_of)
              if precoders.common.shape[1] else None)
    return ProjectionBundle(common, project_streams(g_hat, err_stack, precoders.private,
                                                    np.arange(g_hat.shape[1])), partition)


def _clamped_sinrs(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    # a draw whose denominator the power-loss terms push to or below zero gets SINR 0
    ok = den > 0.0
    return np.where(ok, np.maximum(num[..., None, :], 0.0) / np.where(ok, den, 1.0), 0.0)


def _sinrs(bundle: ProjectionBundle, a_c: np.ndarray, a_p: np.ndarray, sigma_w2: float,
           eps: float) -> tuple[np.ndarray | None, np.ndarray]:
    # per-draw per-user common and private SINRs, (..., n, K) each, the common ones None
    # without a common stream; a leading SNR axis on the amplitudes, the bundle or both
    # broadcasts, and reductions run in fixed index order
    c, p, i_of = bundle.common, bundle.private, bundle.partition.cluster_of
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
        cint, sinr_c = 0.0, None

    den_p = ap2[..., None, :] * p.loss + cint + pint_excl + noise
    return sinr_c, _clamped_sinrs(ap2 * p.hat_own2, den_p)


def draw_sinrs(inputs: RateInputs) -> tuple[np.ndarray, np.ndarray]:
    """Common and private SINRs, (K,) each, of the realization's own error draw.

    The one-draw view of the kernel's SINRs: ``g_err`` is projected as a
    stack of one draw, so the scalar checks read the routine that the run
    uses.  Without common streams the common SINRs are zero.
    """
    real = inputs.realization
    bundle = project_precoders(real.g_hat, real.g_err[None], inputs.precoders,
                               inputs.partition)
    sinr_c, sinr_p = _sinrs(bundle, inputs.power.a_c, inputs.power.a_p, inputs.sigma_w2,
                            real.epsilon)
    return np.zeros(sinr_p.shape[1:]) if sinr_c is None else sinr_c[0], sinr_p[0]


def asr_from_bundle(bundle: ProjectionBundle, power: "PowerAllocation", sigma_w2: float,
                    sigma_e: float) -> AsrResult:
    partition = bundle.partition
    eps = 1.0 / math.sqrt(1.0 - sigma_e ** 2)
    sinr_c, sinr_p = _sinrs(bundle, power.a_c, power.a_p, sigma_w2, eps)
    # a large stack can come back in a non-C order, and the mean over draws then
    # sums in another order; C order makes a stacked point equal its own call
    mean_pr = np.ascontiguousarray(np.log2(1.0 + sinr_p)).mean(axis=-2)
    if sinr_c is None:
        # no common stream: its SINRs are zero, and so are its rates, exactly
        mean_cr = np.zeros(mean_pr.shape)
        min_cr = np.zeros(mean_pr.shape[:-1] + (partition.n_clusters,))
    else:
        mean_cr = np.ascontiguousarray(np.log2(1.0 + sinr_c)).mean(axis=-2)
        min_cr = np.stack([mean_cr[..., list(u)].min(axis=-1) for u in partition.user_sets], -1)
    s_a = min_cr.sum(axis=-1) + mean_pr.sum(axis=-1)
    return AsrResult(s_a if s_a.ndim else float(s_a), mean_cr, mean_pr, min_cr)


def split_grid_scores(bundle: ProjectionBundle, a_c: np.ndarray, a_p: np.ndarray,
                      sigma_w2: float, sigma_e: float) -> np.ndarray:
    """Average sum rate of G split candidates at once, shape (G,), for ranking.

    ``a_c`` is (G, N_c) and ``a_p`` (G,): private amplitudes are uniform
    across users.  One product of weights (K, 2G, N_c + 4) with the bundle's
    ``split_terms`` (K, N_c + 4, n) gives every candidate's common SINR
    denominators in rows 0..G-1 and private ones in rows G..2G-1, and the
    clamp, log2 and mean over draws run once, in place, for both streams.
    The SINRs and clamp are those of the kernel; the summation order
    differs, so values agree with the kernel to rounding.
    """
    terms, partition = bundle.split_terms, bundle.partition
    i_of = partition.cluster_of
    k_total, n_terms, _ = terms.shape
    ac2 = np.asarray(a_c, dtype=float) ** 2              # (G, N_c)
    ap2, g = np.asarray(a_p, dtype=float) ** 2, len(a_p)  # (G,)
    own_ac2 = ac2[:, i_of].T                             # (K, G)
    # weights of the terms: common rows own a_c^2, the other clusters' a_c^2, a_p^2,
    # 0, noise; private rows 0, the other clusters' a_c^2, 0, a_p^2, noise
    weights = np.zeros((k_total, 2 * g, n_terms))
    weights[:, :g, 0] = own_ac2
    weights[:, :g, 1:-3] = weights[:, g:, 1:-3] = ac2
    weights[np.arange(k_total), :, 1 + i_of] = 0.0
    weights[:, :g, -3] = weights[:, g:, -2] = ap2
    weights[:, :, -1] = sigma_w2 * (1.0 - sigma_e ** 2)  # the kernel's sigma_w2 / eps^2
    num = np.concatenate([own_ac2 * bundle.common.hat_own2[:, None],
                          ap2 * bundle.private.hat_own2[:, None]], axis=1)
    sinr = weights @ terms                               # (K, 2G, n) denominators
    # a draw whose power-loss terms push the denominator to or below zero has rate 0
    sinr[sinr <= 0.0] = np.inf
    np.divide(num[:, :, None], sinr, out=sinr)
    sinr += 1.0
    mean_rate = np.log2(sinr, out=sinr).mean(axis=2)    # (K, 2G)
    # the cluster minima of the common rates, users taken in cluster order
    order = np.concatenate(partition.user_sets)
    starts = np.cumsum([0] + [len(u) for u in partition.user_sets[:-1]])
    min_cr = np.minimum.reduceat(mean_rate[order, :g], starts, axis=0)
    return min_cr.sum(axis=0) + mean_rate[:, g:].sum(axis=0)


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
    return asr_from_bundle(bundle, power, sigma_w2, sigma_e)


def _min_sums(values: np.ndarray, cluster_of: np.ndarray) -> np.ndarray:
    """Each row's cluster minima of ``values`` (..., K), summed in cluster order, (...).

    A cluster index with no members in a row adds an exact 0.0.
    """
    out = np.zeros(values.shape[:-1])
    for i in range(int(cluster_of.max()) + 1):
        members = cluster_of == i
        mins = np.min(values, axis=-1, where=members, initial=np.inf)
        out += np.where(members.any(axis=-1), mins, 0.0)
    return out


def ergodic_sum_rate(mean_cr: np.ndarray, mean_pr: np.ndarray,
                     cluster_of: np.ndarray) -> EsrResult | list[EsrResult]:
    """Aggregate per-realization averaged rates into ergodic quantities.

    Row r of ``mean_cr``, ``mean_pr`` and ``cluster_of``, (R, K) each, is
    one realization's per-user mean common and private rates and cluster
    indices.  The private part is the plain per-user mean.  For the common
    part the min-of-means estimator is used whenever all rows share one
    partition; with per-realization partitions (redrawn geometry) it is
    undefined and the mean of per-realization min-sums is reported as the
    primary estimator instead.  Summations over realizations use
    compensated summation, so results do not depend on scheduling.

    A leading entry axis, (E, R, K) each, reduces E independent groups in
    one call and returns one result per entry: the cluster minima and the
    same-partition check run over every entry at once, and each entry's
    compensated sums are the ones, in the same order, of its own call.
    """
    single = mean_cr.ndim == 2
    if single:
        mean_cr, mean_pr, cluster_of = mean_cr[None], mean_pr[None], cluster_of[None]
    n_rec = mean_cr.shape[1]
    if n_rec == 0:
        raise ValueError("need at least one realization record")

    per_record_cmin = _min_sums(mean_cr, cluster_of)  # (E, R)
    user_means = np.array([[math.fsum(col) / n_rec for col in cr.T.tolist()] for cr in mean_cr])
    min_of_means = _min_sums(user_means, cluster_of[:, 0]).tolist()
    shared = (cluster_of == cluster_of[:, :1]).all(axis=(1, 2)).tolist()

    results = []
    for cmin, pr, ecr_min_of_means, same in zip(per_record_cmin, mean_pr, min_of_means, shared):
        # one entry's lists at a time: every entry's at once would outweigh the run's rows
        cmin, rows = cmin.tolist(), pr.tolist()
        epr = math.fsum(math.fsum(col) / n_rec for col in zip(*rows))
        ecr_mean_of_mins = math.fsum(cmin) / n_rec
        if not same:
            ecr_min_of_means = None
        ecr = ecr_mean_of_mins if ecr_min_of_means is None else ecr_min_of_means

        samples = [c + p for c, p in zip(cmin, map(math.fsum, rows))]
        if n_rec > 1:
            mean_s = math.fsum(samples) / n_rec
            var = math.fsum((s - mean_s) ** 2 for s in samples) / (n_rec - 1)
            stderr = math.sqrt(var / n_rec)
        else:
            stderr = 0.0
        results.append(EsrResult(esr=ecr + epr, ecr=ecr, epr=epr, stderr=stderr,
                                 ecr_mean_of_mins=ecr_mean_of_mins,
                                 ecr_min_of_means=ecr_min_of_means))
    return results[0] if single else results
