"""Monte Carlo experiment driver and verification suite.

One realization draws geometry, large-scale fading and a channel with its
imperfect estimate, clusters the network, and evaluates every configured
transmission scheme over the SNR grid.  Realizations are independently
seeded work items derived from (master seed, realization index), so the
result of a run is a pure function of the configuration no matter how the
work is scheduled; the reduction walks trial rows in index order with
compensated summation.  The run, the precoder dump and the cluster report
all build a realization the same way: ``_scheme_sides`` for the channel
state, ``_attempt_precoders`` for the precoders, inside one ``_with_redraws``
loop.

The SNR grid is an array axis.  Phase 1 of an attempt builds each private
set once per (side, channel, construction) at the whole array of power
budgets (a set that never reads the budget has no SNR axis), and each
common beam once.  Phase 2 projects a set in chunks of SNR points whose
stacked private projection, n*K*K complex entries per point, fits
``_CHUNK_BYTES``; plain schemes take one rate-kernel call per chunk, the
split search runs per point on views of the chunk's projection.

A scheme's side, channel and construction are read from ``config.SCHEMES``.
"""
from __future__ import annotations

import itertools
import json
import logging
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import channel as chan
from . import clustering as clus
from . import power as pw
from . import precoding as prec
from . import rates
from .config import ConfigError, ExperimentConfig, SchemeSpec, parse_scheme, validate

log = logging.getLogger("rscf")

# sub-stream identifiers for per-realization seeding
_GEOMETRY, _SHADOW, _SMALLSCALE, _ERRDRAWS = 0, 1, 2, 3
MAX_REDRAWS = 3
# bytes of stacked private projection, (n, K, K) complex per SNR point, per chunk
_CHUNK_BYTES = 512 * 1024


def seeded_rng(*parts: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(list(parts)))


@dataclass(frozen=True)
class SideData:
    """Channel state of one geometry (distributed or co-located)."""

    zeta: chan.LargeScaleCoefficients
    realization: chan.ChannelRealization
    # (partition, channel) keyed by ``SchemeSpec.dense``: the single-cluster
    # dense channel, and the clustered one when a scheme uses it
    channels: dict[bool, tuple[clus.ClusterPartition, clus.SparseChannel]]


@dataclass(frozen=True)
class TrialRow:
    """One (realization, scheme, SNR) outcome."""

    realization: int
    scheme: str
    snr_db: float
    s_a: float
    delta: float
    n_clusters: int
    mean_cr: tuple[float, ...]
    mean_pr: tuple[float, ...]
    min_cr: tuple[float, ...]
    cluster_of: tuple[int, ...]
    redraws: int


@dataclass(frozen=True)
class ResultRecord:
    """Aggregated ergodic rates of one scheme at one SNR point."""

    scheme: str
    snr_db: float
    esr: float
    ecr: float
    epr: float
    stderr: float
    delta_mean: float
    n_clusters_mean: float


def cluster_partition_for(config: ExperimentConfig,
                          zeta: chan.LargeScaleCoefficients) -> clus.ClusterPartition:
    """Partition per the configured AP selection rule and clustering mode."""
    if config.selection == "topn":
        n_s = config.n_s if config.n_s >= 1 else config.m
        selection = clus.select_aps_topn(zeta, n_s)
    else:
        selection = clus.select_aps_threshold(zeta)
    if config.cluster_mode == "fixed":
        return clus.design_clusters_fixed(selection, config.n_c, zeta)
    n_a = config.n_a if config.n_a >= 1 else clus.default_shared_ap_threshold(selection)
    return clus.design_clusters(selection, n_a, zeta)


def _draw_scene(config: ExperimentConfig, geometry_rng: np.random.Generator,
                shadow_rng: np.random.Generator, channel_rng: np.random.Generator,
                co_located: bool = False
                ) -> tuple[chan.LargeScaleCoefficients, chan.ChannelRealization]:
    """Large-scale gains and the channel with its estimate, drawn per ``config``.

    Geometry, shadowing and small-scale fading each draw from their own
    generator; the same generator may be passed for all three.  A
    co-located array shares one shadowing value per user.
    """
    geometry = chan.place_network(
        config.m, config.k, config.area_side_m, geometry_rng,
        h_ap=config.h_ap_m, h_u=config.h_u_m, carrier_freq_mhz=config.freq_mhz)
    if co_located:
        geometry = geometry.co_located()
    zeta = chan.large_scale(geometry, config.shadow_sigma_db, shadow_rng,
                            d0=config.d0_m, d1=config.d1_m, per_user_shadow=co_located)
    return zeta, chan.draw_channel(zeta, math.sqrt(config.sigma_e2), channel_rng)


def _side_data(config: ExperimentConfig, index: int, attempt: int,
               co_located: bool, clustered: bool) -> SideData:
    geo_index = 0 if config.freeze_geometry else index
    geo_attempt = 0 if config.freeze_geometry else attempt
    # the shadowing and small-scale generators are re-seeded identically for
    # both geometries, so the same normal draws underlie the two baselines
    zeta, realization = _draw_scene(
        config, seeded_rng(config.seed, geo_index, geo_attempt, _GEOMETRY),
        seeded_rng(config.seed, geo_index, geo_attempt, _SHADOW),
        seeded_rng(config.seed, index, attempt, _SMALLSCALE), co_located)
    channels = {True: (clus.single_cluster(config.m, config.k),
                       prec.dense_channel(realization.g_hat))}
    if clustered:
        partition = cluster_partition_for(config, zeta)
        channels[False] = partition, clus.sparse_channel(realization.g_hat, partition)
    return SideData(zeta, realization, channels)


def _scheme_sides(config: ExperimentConfig, specs: list[SchemeSpec], index: int,
                  attempt: int) -> dict[bool, SideData]:
    """Channel state of the geometries a scheme list needs, keyed by ``bs``.

    The distributed side is always built, as the power budget is solved on
    it, and is clustered when any scheme masks the channel; the co-located
    side is built when a scheme uses it and is never clustered.
    """
    return {bs: _side_data(config, index, attempt, co_located=bs,
                           clustered=not bs and any(not s.dense for s in specs))
            for bs in (False, True) if not bs or any(s.bs for s in specs)}


def _power_budget(config: ExperimentConfig, sides: dict[bool, SideData],
                  snr_db: float) -> float:
    # one power budget per (realization, SNR point), solved on the distributed
    # geometry and shared by every scheme for a fair comparison
    return chan.pt_for_snr(sides[False].realization.g_true, snr_db, _noise(config))


def _build_private(construction: str, sparse: clus.SparseChannel,
                   partition: clus.ClusterPartition, pt: float | np.ndarray,
                   sigma_w2: float) -> prec.PrecoderSet:
    # transmit composition: unit-norm columns, amplitudes carry the power
    return prec.normalize_private_columns(
        prec.construct(construction, sparse, partition, pt, sigma_w2))


def _attempt_precoders(config: ExperimentConfig, specs: list[SchemeSpec],
                       sides: dict[bool, SideData], pt: float | np.ndarray):
    """Phase 1 of an attempt: each private set and common beam it needs, built once.

    ``pt`` is one power budget or the array of the SNR grid's.  Whether a
    draw is degenerate does not depend on it, so the first scheme to fail
    raises the error that building every scheme at the first SNR point
    would, before any rate work.  Keys: ``(bs, dense, construction)`` and ``(bs, dense)``.
    """
    privates, commons = {}, {}
    for spec in specs:
        partition, sparse = sides[spec.bs].channels[spec.dense]
        key = spec.bs, spec.dense, spec.construction
        if key not in privates:
            privates[key] = _build_private(spec.construction, sparse, partition, pt,
                                           _noise(config))
        if spec.rs and (spec.bs, spec.dense) not in commons:
            commons[spec.bs, spec.dense], _ = prec.common_precoder(sparse, partition)
    return privates, commons


def _with_redraws(config: ExperimentConfig, index: int, attempt_fn):
    """``attempt_fn(attempt)`` of the first non-degenerate attempt of a realization.

    Degenerate draws (rank-deficient or empty-cluster channels) are logged
    and redrawn with a derived sub-seed, at most MAX_REDRAWS times.  Under
    ``freeze_geometry`` an empty cluster fails at once: the gains and the
    partition, hence the cluster, are the same on every attempt.
    """
    last_error: Exception | None = None
    for attempt in range(MAX_REDRAWS + 1):
        try:
            return attempt_fn(attempt)
        except (prec.RankDeficientChannelError, prec.EmptyClusterError) as exc:
            if config.freeze_geometry and isinstance(exc, prec.EmptyClusterError):
                raise RuntimeError(f"realization {index}: {exc}; the clustering cannot "
                                   "change under freeze_geometry, pick another seed") from exc
            log.warning("realization %d attempt %d redrawn: %s", index, attempt, exc)
            last_error = exc
    raise RuntimeError(
        f"realization {index}: exhausted {MAX_REDRAWS} redraws: {last_error}")


def _realization_attempt(config: ExperimentConfig, index: int, attempt: int,
                         snr_grid: tuple[float, ...]) -> list[TrialRow]:
    specs = [parse_scheme(label) for label in config.schemes]
    sides = _scheme_sides(config, specs, index, attempt)
    sigma_e, sigma_w2 = math.sqrt(config.sigma_e2), _noise(config)
    search = {"mu": config.power_grid_step, "mode": config.power_mode}
    pts = np.array([_power_budget(config, sides, snr) for snr in snr_grid])
    privates, commons = _attempt_precoders(config, specs, sides, pts)
    # one error stack per side a scheme uses, shared by every scheme and SNR
    # point: the sides draw from the same seeded stream, scaled by their own gains
    errs = {bs: chan.draw_error_matrices(sides[bs].zeta, sigma_e, config.n_err,
                                         seeded_rng(config.seed, index, attempt, _ERRDRAWS))
            for bs in {s.bs for s in specs}}

    # phase 2, one group per (side, channel, construction) sharing its projections
    groups: dict[tuple, list[int]] = {}
    for j, spec in enumerate(specs):
        groups.setdefault((spec.bs, spec.dense, spec.construction), []).append(j)
    n_chunk = max(1, _CHUNK_BYTES // (16 * config.n_err * config.k ** 2))
    common_streams, rows = {}, {}
    for (bs, dense, construction), members in groups.items():
        partition, _ = sides[bs].channels[dense]
        g_hat, err = sides[bs].realization.g_hat, errs[bs]
        cluster_of, ckey = partition.cluster_of_users(config.k), (bs, dense)
        private = privates.pop((bs, dense, construction)).private  # (S, M, K) or (M, K)
        step = n_chunk if private.ndim == 3 else len(pts)
        if ckey in commons and ckey not in common_streams:
            common_streams[ckey] = rates.project_streams(g_hat, err, commons[ckey], cluster_of)
        for lo in range(0, len(pts), step):
            chunk = slice(lo, lo + step)
            bundle = None  # drop the last chunk's bundle before the next
            bundle = rates.ProjectionBundle(common_streams.get(ckey), rates.project_streams(
                g_hat, err, private[chunk] if private.ndim == 3 else private,
                np.arange(config.k)), cluster_of)
            for j in members:
                if not specs[j].rs:  # one kernel call for the chunk
                    alloc = pw.no_split(pts[chunk], config.k)
                    stacked = rates.asr_from_bundle(bundle, partition, alloc, sigma_w2, sigma_e)
                for s in range(len(pts))[chunk]:
                    if specs[j].rs:
                        alloc, asr = pw.allocate_common(bundle.at(s - lo), sigma_e, partition,
                                                        sigma_w2, pts[s], **search)
                    else:
                        asr = stacked.at(s - lo)
                    rows[s, j] = TrialRow(
                        realization=index, scheme=specs[j].label, snr_db=float(snr_grid[s]),
                        s_a=asr.s_a, delta=alloc.delta, n_clusters=partition.n_clusters,
                        mean_cr=tuple(float(v) for v in asr.mean_cr),
                        mean_pr=tuple(float(v) for v in asr.mean_pr),
                        min_cr=tuple(float(v) for v in asr.min_cr),
                        cluster_of=tuple(int(v) for v in cluster_of), redraws=attempt)
    return [rows[row] for row in sorted(rows)]


def _noise(config: ExperimentConfig) -> float:
    return chan.noise_variance(config.t0_k, config.bandwidth_hz, config.noise_figure_db)


def run_realization(config: ExperimentConfig, index: int,
                    snr_grid: tuple[float, ...] | None = None) -> list[TrialRow]:
    """All (scheme, SNR) trial rows of one realization, redrawn while degenerate."""
    grid = tuple(snr_grid) if snr_grid is not None else tuple(config.snr_grid_db)
    return _with_redraws(
        config, index, lambda attempt: _realization_attempt(config, index, attempt, grid))


def realization_precoders(config: ExperimentConfig, index: int, snr_db: float) -> tuple[
        dict[bool, SideData], dict[str, tuple[clus.ClusterPartition, prec.PrecoderSet]]]:
    """Channel sides and per-scheme (partition, precoders) of one realization.

    Builds every configured scheme at one SNR point through the same sides,
    constructions and redraw loop as :func:`run_realization`.  Whether a
    draw is degenerate does not depend on the power budget, so the attempt
    returned is the one the run keeps.
    """
    specs = [parse_scheme(label) for label in config.schemes]

    def attempt_fn(attempt):
        sides = _scheme_sides(config, specs, index, attempt)
        privates, commons = _attempt_precoders(config, specs, sides,
                                               _power_budget(config, sides, snr_db))
        built = {}
        for spec in specs:
            pset = privates[spec.bs, spec.dense, spec.construction]
            pset = prec.attach_common(pset, commons[spec.bs, spec.dense]) if spec.rs else pset
            built[spec.label] = sides[spec.bs].channels[spec.dense][0], pset
        return sides, built
    return _with_redraws(config, index, attempt_fn)


def cluster_partition(config: ExperimentConfig, index: int) -> clus.ClusterPartition:
    """User/AP partition that the clustered schemes of a run use in one realization."""
    sides, _ = realization_precoders(config, index, float(config.snr_grid_db[0]))
    if False not in sides[False].channels:
        raise ConfigError("no scheme in 'schemes' is clustered (-SP or -RD)")
    return sides[False].channels[False][0]


def aggregate(config: ExperimentConfig, rows: list[TrialRow]) -> list[ResultRecord]:
    """Reduce trial rows to per-(scheme, SNR) ergodic records, in fixed order."""
    by_key: dict[tuple[str, float], list[TrialRow]] = {}
    for row in rows:
        by_key.setdefault((row.scheme, row.snr_db), []).append(row)
    records = []
    for scheme in config.schemes:
        for snr in config.snr_grid_db:
            group = sorted(by_key.get((scheme, float(snr)), []),
                           key=lambda r: r.realization)
            if not group:
                continue
            esr = rates.ergodic_sum_rate(np.array([r.mean_cr for r in group]),
                                         np.array([r.mean_pr for r in group]),
                                         np.array([r.cluster_of for r in group]))
            n = len(group)
            records.append(ResultRecord(
                scheme=scheme, snr_db=float(snr), esr=esr.esr, ecr=esr.ecr,
                epr=esr.epr, stderr=esr.stderr,
                delta_mean=math.fsum(r.delta for r in group) / n,
                n_clusters_mean=math.fsum(r.n_clusters for r in group) / n))
    return records


def run_experiment(config: ExperimentConfig,
                   out_dir: str | Path | None = None
                   ) -> tuple[list[ResultRecord], list[TrialRow]]:
    """Full sweep: realizations x SNR grid x schemes, with optional outputs.

    Writes ``results.csv`` and ``trials.jsonl`` under ``out_dir`` when
    given.  The outputs are a pure function of (config, seed): trial rows
    are reduced in realization order whatever the worker count.
    """
    validate(config)
    indices = range(config.n_realizations)
    if config.workers > 1:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            per_real = list(pool.map(partial(run_realization, config), indices))
    else:
        per_real = [run_realization(config, i) for i in indices]
    rows = [row for chunk in per_real for row in chunk]
    records = aggregate(config, rows)
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "results.csv").write_text(render_csv(records), encoding="utf-8")
        (out / "trials.jsonl").write_text(render_jsonl(rows), encoding="utf-8")
    return records, rows


def dump_precoders(config: ExperimentConfig, realization_index: int = 0,
                   snr_db: float | None = None) -> dict:
    """Per-scheme precoder matrices of one realization, for diffing runs.

    Returns a mapping scheme label -> JSON-friendly dump (see
    precoding.precoder_dump) at the given SNR point (default: the first
    grid point).
    """
    snr = float(snr_db) if snr_db is not None else float(config.snr_grid_db[0])
    _, built = realization_precoders(config, realization_index, snr)
    return {label: dict(prec.precoder_dump(pset), snr_db=snr, realization=realization_index)
            for label, (_, pset) in built.items()}


# runtime_ms is a constant 0 column, kept so the CSV layout does not change
CSV_HEADER = "scheme,snr_db,esr,ecr,epr,stderr,delta_mean,n_clusters_mean,runtime_ms"


def render_csv(records: list[ResultRecord]) -> str:
    lines = [CSV_HEADER]
    for r in records:
        lines.append(",".join([
            r.scheme, f"{r.snr_db:.10g}", f"{r.esr:.12g}", f"{r.ecr:.12g}",
            f"{r.epr:.12g}", f"{r.stderr:.12g}", f"{r.delta_mean:.12g}",
            f"{r.n_clusters_mean:.12g}", "0",
        ]))
    return "\n".join(lines) + "\n"


def render_jsonl(rows: list[TrialRow]) -> str:
    out = []
    for r in rows:
        out.append(json.dumps({
            "realization": r.realization, "scheme": r.scheme, "snr_db": r.snr_db,
            "s_a": r.s_a, "delta": r.delta, "n_clusters": r.n_clusters,
            "mean_cr": list(r.mean_cr), "mean_pr": list(r.mean_pr),
            "min_cr": list(r.min_cr), "cluster_of": list(r.cluster_of),
            "redraws": r.redraws,
        }, sort_keys=True))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Verification suite
# ---------------------------------------------------------------------------

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
                    delta: float = 0.3, snr_db: float = 15.0, with_zeta: bool = False):
    """A fully built evaluation instance on a random seeded network of ``config``.

    Draws geometry, fading and a channel from one generator; partitions per
    the configured selection and clustering; builds the requested private
    construction plus the common SVD beams; splits power with the given
    common fraction.  Seeds that land on a degenerate draw are re-derived
    (bounded retries).  With ``with_zeta`` the large-scale gains are
    returned alongside, for callers that resample estimation errors.
    """
    sigma_w2 = _noise(config)
    for attempt in range(20):
        rng = seeded_rng(seed, attempt, 100)
        zeta, realization = _draw_scene(config, rng, rng, rng)
        partition = cluster_partition_for(config, zeta)
        sparse = clus.sparse_channel(realization.g_hat, partition)
        pt = chan.pt_for_snr(realization.g_true, snr_db, sigma_w2)
        try:
            common, cache = prec.common_precoder(sparse, partition)
            pset = _build_private(kind, sparse, partition, pt, sigma_w2)
        except (prec.RankDeficientChannelError, prec.EmptyClusterError):
            continue
        pset = prec.attach_common(pset, common)
        alloc = pw.equal_split(pt, delta, partition.n_clusters, config.k)
        inputs = rates.RateInputs(realization, sparse, partition, pset, cache, alloc, sigma_w2)
        return (inputs, zeta) if with_zeta else inputs
    raise RuntimeError(f"could not build a non-degenerate instance from seed {seed}")


def _seeded_instances(config: ExperimentConfig, count: int, skipped: list[int],
                      **kwargs) -> list[rates.RateInputs]:
    """``count`` random instances from seeds 0, 1, ...; a seed that cannot be
    built is appended to ``skipped`` and the next one taken, at most ``count`` times."""
    built: list[rates.RateInputs] = []
    for seed in range(2 * count):
        try:
            built.append(random_instance(seed, config, **kwargs))
        except RuntimeError:
            skipped.append(seed)
        if len(built) == count:
            return built
    raise RuntimeError(f"only {len(built)} of seeds 0..{2 * count - 1} gave an instance")


def _draw_sum_rate(inputs: rates.RateInputs) -> float:
    """Sum rate of the realization's own error draw: per-cluster minimum common
    rate plus the private rates, from the kernel's one-draw view."""
    common, private = (np.log2(1.0 + sinr) for sinr in rates.draw_sinrs(inputs))
    return float(sum(common[list(u)].min() for u in inputs.partition.user_sets) + private.sum())


def _closed_form_residual(instances) -> float:
    """Worst relative gap of the closed forms to the kernel's one-draw view, over
    both streams of every user and the construction each instance was built with."""
    worst = 0.0
    for inputs in instances:
        for stream, view in zip(("common", "private"), rates.draw_sinrs(inputs)):
            for k, ref in enumerate(view):
                closed = rates.sinr_closed_form(k, inputs, inputs.precoders.label, stream)
                worst = max(worst, abs(closed - ref) / max(abs(ref), 1e-30))
    return worst


def _zero_split_residual(instances) -> float:
    """Worst |sum-rate gap| of MF-SP instances between rate splitting at zero
    common power and the plain matched filter, on the same draw."""
    worst = 0.0
    for inputs in instances:
        pt, k = inputs.power.pt, inputs.realization.g_hat.shape[1]
        rs = replace(inputs, power=pw.equal_split(pt, 0.0, inputs.partition.n_clusters, k))
        plain_set = prec.normalize_private_columns(prec.mf_sp(inputs.sparse))
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
        budget = max(budget, total / alloc.pt - 1.0)
        total = float(np.sum(alloc.a_c ** 2 * np.sum(np.abs(ps.common) ** 2, axis=0))
                      + np.sum(alloc.a_p ** 2 * np.sum(np.abs(ps.private) ** 2, axis=0)))
        cov = max(cov, abs(total - alloc.pt) / alloc.pt)
        raw = prec.construct(ps.label, inputs.sparse, inputs.partition, alloc.pt, inputs.sigma_w2)
        trace = max(trace, abs(float(np.sum(np.abs(raw.private) ** 2)) - alloc.pt) / alloc.pt)
    return budget, cov, trace


def _zf_residuals(instances, corrupt: bool = False) -> tuple[float, float]:
    """Worst |G^T P / beta - I| or |G^T P - beta I| of the raw ZF-SP construction,
    and worst interference-to-signal power ratio; ``corrupt`` perturbs one
    precoder entry first, a hook that the check must then fail."""
    norm = mui = 0.0
    for inputs in instances:
        g_bar = inputs.sparse.g_bar
        eye = np.eye(g_bar.shape[1])
        raw = prec.zf_sp(inputs.sparse, inputs.power.pt)
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
    att = chan.attenuation_constant(config.freq_mhz, config.h_ap_m, config.h_u_m)
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
        _, real = _draw_scene(config, rng, rng, rng)
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
