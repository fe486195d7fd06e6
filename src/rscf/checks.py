"""Independent checks of the run: reference routes to its SINRs and the verification suite.

The run's rates all come from the vectorised kernel in :mod:`rscf.rates`.
This module holds what exists only to check that kernel against other
routes, and ``import rscf`` does not load it; ``rscf verify`` and the
tests do:

* :func:`sinr_oracle`, a reference oracle that assembles each user's SINR
  from the true-channel received-power decomposition (never touching the
  estimate projections in the interference terms);
* :func:`sinr_closed_form`, closed forms that use the cached SVD triplets
  and Gram-inverse columns of each precoder construction instead of the
  precoding matrices;
* :func:`draw_sinrs`, the kernel's one-draw view on a realization's own
  estimation error, which the oracle and the closed forms are compared
  against to tight relative tolerance on every construction;
* :func:`verify`, the cross-module consistency suite, and the residuals
  and random instances that it and the acceptance tests share.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import channel as chan
from . import clustering as clus
from . import power as pw
from . import precoding as prec
from . import rates
from .clustering import ClusterPartition
from .config import ExperimentConfig
from .harness import (_build_private, _draw_scene, cluster_partition_for, render_csv,
                      run_experiment, seeded_rng)
from .precoding import (CONSTRUCTIONS, LABEL_MF_SP, LABEL_RU_ZF_RD, LABEL_ZF_SP,
                        PrecoderSet, SvdCache)


@dataclass(frozen=True)
class RateInputs:
    """Everything needed to evaluate the SINRs of one configuration."""

    realization: chan.ChannelRealization
    g_bar: np.ndarray  # (M, K) estimate masked to the partition
    partition: ClusterPartition
    precoders: PrecoderSet
    svd_cache: SvdCache | None
    power: pw.PowerAllocation
    sigma_w2: float


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


def draw_sinrs(inputs: RateInputs) -> tuple[np.ndarray, np.ndarray]:
    """Common and private SINRs, (K,) each, of the realization's own error draw.

    The one-draw view of the kernel's SINRs: ``g_err`` is projected as a
    stack of one draw, so the scalar checks read the routine that the run
    uses.  Without common streams the common SINRs are zero.
    """
    real = inputs.realization
    bundle = rates.project_precoders(real.g_hat, real.g_err[None], inputs.precoders,
                                     inputs.partition)
    sinr_c, sinr_p = rates._sinrs(bundle, inputs.power.a_c, inputs.power.a_p,
                                  inputs.sigma_w2, real.epsilon)
    return np.zeros(sinr_p.shape[1:]) if sinr_c is None else sinr_c[0], sinr_p[0]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    residual: float
    tolerance: float
    detail: str = ""


@dataclass(frozen=True)
class VerifyReport:
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def format(self) -> str:
        lines = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            extra = f" ({c.detail})" if c.detail else ""
            lines.append(f"[{status}] {c.name}: residual {c.residual:.3e}"
                         f" <= {c.tolerance:.1e}{extra}")
        lines.append("verification " + ("PASSED" if self.ok else "FAILED"))
        return "\n".join(lines)


def random_instance(seed: int, config: ExperimentConfig, kind: str = prec.LABEL_MMSE_SP,
                    delta: float = 0.3, snr_db: float = 15.0) -> RateInputs:
    """A fully built evaluation instance on a random seeded network of ``config``.

    Draws geometry, fading and a channel from one generator; partitions per
    the configured selection and clustering; builds the requested private
    construction plus the common SVD beams; splits power with the given
    common fraction.  Seeds that land on a degenerate draw are re-derived
    (bounded retries).
    """
    sigma_w2 = chan.NOISE_VARIANCE_W
    for attempt in range(20):
        rng = seeded_rng(seed, attempt, 100)
        realization, = _draw_scene(config, rng, rng, rng)
        partition = cluster_partition_for(config, realization.zeta)
        g_bar = clus.sparse_channel(realization.g_hat, partition)
        pt = chan.pt_for_snr(realization.g_true, snr_db, sigma_w2)
        try:
            common, cache = prec.common_precoder(g_bar, partition)
            pset = _build_private(kind, g_bar, partition, pt, sigma_w2)
        except prec.DegenerateChannelError:
            continue
        pset = pset._replace(common=common)
        alloc = pw.equal_split(pt, delta, partition.n_clusters, config.k)
        return RateInputs(realization, g_bar, partition, pset, cache, alloc, sigma_w2)
    raise RuntimeError(f"could not build a non-degenerate instance from seed {seed}")


def _seeded_instances(config: ExperimentConfig, count: int, skipped: list[int],
                      **kwargs) -> list[RateInputs]:
    """``count`` random instances from seeds 0, 1, ...; a seed that cannot be
    built is appended to ``skipped`` and the next one taken, at most ``count`` times."""
    built: list[RateInputs] = []
    for seed in range(2 * count):
        try:
            built.append(random_instance(seed, config, **kwargs))
        except RuntimeError:
            skipped.append(seed)
        if len(built) == count:
            return built
    raise RuntimeError(f"only {len(built)} of seeds 0..{2 * count - 1} gave an instance")


def _draw_sum_rate(inputs: RateInputs) -> float:
    """Sum rate of the realization's own error draw: per-cluster minimum common
    rate plus the private rates, from the kernel's one-draw view."""
    common, private = (np.log2(1.0 + sinr) for sinr in draw_sinrs(inputs))
    return float(sum(common[list(u)].min() for u in inputs.partition.user_sets) + private.sum())


def _closed_form_residual(instances) -> float:
    """Worst relative gap of the closed forms to the kernel's one-draw view, over
    both streams of every user and the construction each instance was built with."""
    worst = 0.0
    for inputs in instances:
        for stream, view in zip(("common", "private"), draw_sinrs(inputs)):
            for k, ref in enumerate(view):
                closed = sinr_closed_form(k, inputs, inputs.precoders.label, stream)
                worst = max(worst, abs(closed - ref) / max(abs(ref), 1e-30))
    return worst


def _zero_split_residual(instances) -> float:
    """Worst |sum-rate gap| of MF-SP instances between rate splitting at zero
    common power and the plain matched filter, on the same draw."""
    worst = 0.0
    for inputs in instances:
        pt, k = inputs.power.pt, inputs.realization.g_hat.shape[1]
        rs = replace(inputs, power=pw.equal_split(pt, 0.0, inputs.partition.n_clusters, k))
        plain_set = prec.normalize_private_columns(prec.mf_sp(inputs.g_bar))
        plain = replace(inputs, precoders=plain_set, svd_cache=None, power=pw.no_split(pt, k))
        worst = max(worst, abs(_draw_sum_rate(rs) - _draw_sum_rate(plain)))
    return worst


def _budget_residuals(instances) -> tuple[float, float, float]:
    """Worst relative residuals of the amplitude budget, the transmit covariance
    trace and the trace normalisation of the raw construction, against Pt."""
    budget = cov = trace = 0.0
    for inputs in instances:
        alloc, ps = inputs.power, inputs.precoders
        total = float(np.sum(alloc.a_c ** 2) + np.sum(alloc.a_p ** 2))
        budget = max(budget, abs(total / alloc.pt - 1.0))
        total = float(np.sum(alloc.a_c ** 2 * np.sum(np.abs(ps.common) ** 2, axis=0))
                      + np.sum(alloc.a_p ** 2 * np.sum(np.abs(ps.private) ** 2, axis=0)))
        cov = max(cov, abs(total - alloc.pt) / alloc.pt)
        raw = prec.construct(ps.label, inputs.g_bar, inputs.partition, alloc.pt, inputs.sigma_w2)
        trace = max(trace, abs(float(np.sum(np.abs(raw.private) ** 2)) - alloc.pt) / alloc.pt)
    return budget, cov, trace


def _zf_residuals(instances, corrupt: bool = False) -> tuple[float, float]:
    """Worst |G^T P / beta - I| or |G^T P - beta I| of the raw ZF-SP construction,
    and worst interference-to-signal power ratio; ``corrupt`` perturbs one
    precoder entry first, a hook that the check must then fail."""
    norm = mui = 0.0
    for inputs in instances:
        g_bar = inputs.g_bar
        eye = np.eye(g_bar.shape[1])
        raw = prec.zf_sp(g_bar, inputs.power.pt)
        private = raw.private.copy()
        if corrupt:
            private[0, 0] += 10.0 * np.max(np.abs(private))
        prod = g_bar.T @ (private / raw.beta)
        norm = max(norm, float(np.max(np.abs(prod - eye))),
                   float(np.max(np.abs(g_bar.T @ private - raw.beta * eye))))
        power = np.abs(prod) ** 2  # column k: user r's gain through user k's precoder
        mui = max(mui, float(np.max(np.where(eye > 0, 0.0, power) / np.diag(power))))
    return norm, mui


def _partition_violations(config: ExperimentConfig, gains) -> int:
    """Gain matrices whose clustering per ``config`` breaks an invariant.

    A partition must hold every user once, give no AP to two clusters and
    replay identically from the same gains.
    """
    bad = 0
    for z in gains:
        part, again = cluster_partition_for(config, z), cluster_partition_for(config, z)
        users = sorted(u for s in part.user_sets for u in s)
        aps = [a for s in part.ap_sets for a in s]
        if (users != list(range(z.shape[1])) or len(aps) != len(set(aps))
                or part.user_sets != again.user_sets or part.ap_sets != again.ap_sets
                or not np.array_equal(part.test_vectors, again.test_vectors)):
            bad += 1
    return bad


def verify(config: ExperimentConfig | None = None,
           corrupt: str | None = None) -> VerifyReport:
    """Run the cross-module consistency checks; see the CLI ``verify`` command.

    ``corrupt`` is a test hook: "zf" perturbs a zero-forcing precoder
    before the orthogonality check, which must then fail.
    """
    config = config or ExperimentConfig()
    checks: list[CheckResult] = []

    def add(name, residual, tol, detail="", skipped=()):
        if skipped:
            note = f"skipped {len(skipped)} unbuildable seed{'s' * (len(skipped) > 1)}"
            detail = f"{detail}, {note}" if detail else note
        checks.append(CheckResult(name, bool(residual <= tol), float(residual),
                                  float(tol), detail))

    # three-slope continuity at both breakpoints
    att = chan.ATTENUATION_DB
    res = 0.0
    for d in (config.d0_m, config.d1_m):
        below = chan.path_loss(np.nextafter(d, 0.0), att, config.d0_m, config.d1_m)
        above = chan.path_loss(np.nextafter(d, np.inf), att, config.d0_m, config.d1_m)
        res = max(res, abs(float(below) - float(above)))
    add("path-loss continuity", res, 1e-9)

    # estimate reconstruction identity
    res = 0.0
    for seed in range(10):
        rng = seeded_rng(config.seed, seed, 900)
        real, = _draw_scene(config, rng, rng, rng)
        lhs = real.g_hat
        rhs = math.sqrt(1.0 - config.sigma_e2) * real.g_true + real.g_err
        res = max(res, float(np.max(np.abs(lhs - rhs)) / np.max(np.abs(lhs))))
    add("channel reconstruction identity", res, 1e-12)

    # partition invariants and deterministic replay
    bad = _partition_violations(config, (
        seeded_rng(config.seed, seed, 901).lognormal(size=(config.m, config.k))
        for seed in range(200)))
    add("cluster partition invariants", float(bad), 0.0, "200 random selections")

    # random instances of the configured network; a seed that is degenerate on
    # every attempt is skipped for the next one and counted per check
    instances = partial(_seeded_instances, config)

    # zero-forcing orthogonality of the raw construction (with corruption hook)
    skipped: list[int] = []
    res, _ = _zf_residuals(instances(20, skipped, kind=prec.LABEL_ZF_SP), corrupt=corrupt == "zf")
    add("zero-forcing orthogonality", res, 1e-9, skipped=skipped)

    # power budget of amplitudes, covariance trace, and the printed trace
    # normalisation of the raw sparse constructions
    skipped = []
    budget, cov, trace = _budget_residuals(itertools.chain.from_iterable(
        instances(20, skipped, kind=kind, delta=0.4)
        for kind in (prec.LABEL_ZF_SP, prec.LABEL_MMSE_SP)))
    add("amplitude power budget", budget, 1e-9, skipped=skipped)
    add("transmit covariance trace", cov, 1e-9, skipped=skipped)
    add("precoder trace normalisation", trace, 1e-9, skipped=skipped)

    # forcing a zero common fraction reproduces the conventional evaluation
    skipped = []
    res = _zero_split_residual(instances(20, skipped, kind=prec.LABEL_MF_SP, delta=0.0))
    add("zero-split collapse", res, 1e-12, skipped=skipped)

    # closed forms against the kernel's one-draw view
    skipped = []
    res = _closed_form_residual(itertools.chain.from_iterable(
        _seeded_instances(replace(config, sigma_e2=se2), 10, skipped, kind=kind)
        for se2 in (0.0, config.sigma_e2, 0.1) for kind in prec.CONSTRUCTIONS))
    add("closed-form SINR equivalence", res, 1e-9, "10 seeds x 3 error levels", skipped)

    # per-AP cost stays flat when the network doubles at fixed cluster size
    r1 = _synthetic_flops_per_ap(32, 16, cluster_size=4)
    r2 = _synthetic_flops_per_ap(64, 32, cluster_size=4)
    add("complexity scaling per AP", abs(r2 - r1) / r1, 0.05)

    # tiny end-to-end run: additive rate decomposition and replay determinism
    small = replace(config, n_realizations=2, n_err=8, snr_grid_db=(0.0, 10.0),
                    schemes=("CF-MF-SP", "RS-CF-MF-SP"))
    rec1, _ = run_experiment(small)
    rec2, _ = run_experiment(small)
    res = max(abs(r.esr - (r.ecr + r.epr)) for r in rec1)
    add("ergodic rate decomposition", res, 1e-9)
    add("experiment replay determinism",
        0.0 if render_csv(rec1) == render_csv(rec2) else 1.0, 0.0)

    return VerifyReport(tuple(checks))


def _synthetic_flops_per_ap(m: int, k: int, cluster_size: int) -> float:
    n_c = k // cluster_size
    aps_per = m // n_c
    users = [tuple(range(i * cluster_size, (i + 1) * cluster_size)) for i in range(n_c)]
    aps = [tuple(range(i * aps_per, (i + 1) * aps_per)) for i in range(n_c)]
    tv = np.zeros((n_c, m), dtype=int)
    for i, a in enumerate(aps):
        tv[i, list(a)] = 1
    part = clus.ClusterPartition(tuple(users), tuple(aps), tv)
    return prec.flop_estimate(part, m, k, "mmse") / m
