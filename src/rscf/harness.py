"""Monte Carlo experiment driver and verification suite.

One realization draws geometry, large-scale fading and a channel with its
imperfect estimate, clusters the network, and evaluates every configured
transmission scheme over the SNR grid.  Realizations are independently
seeded work items derived from (master seed, realization index), so the
result of a run is a pure function of the configuration no matter how the
work is scheduled; the reduction walks realizations in index order with
compensated summation.  A realization's trial rows travel as one
:class:`RealizationBlock`, a plain record of per-entry columns filled where
the rate kernel returns them, which is also what a forked worker pickles;
``trials.jsonl`` is streamed one block at a time.  :class:`TrialRows` is the
one row view over a run's blocks and builds a :class:`TrialRow` only when a
row is read.  The run, the precoder dump and the cluster report all build a
realization the same way: ``_scheme_sides`` for the channel state,
``_attempt_precoders`` for the precoders, inside one ``_with_redraws`` loop.
Forked workers log nothing themselves: the parent logs each realization's
records in realization order.

The SNR grid is an array axis.  Phase 1 of an attempt draws its scene once
for both geometries (``_draw_scene``) and builds each private set once per
(side, channel, construction): a regularised set at the whole array of
power budgets, a set whose unit-norm columns do not read the budget
(matched filter and zero forcing) at one budget and without an SNR axis,
and each common beam once.  Each construction is one call, stacked on a
channel axis over every (side, channel) that uses it; the constructions
are built in the order the scheme list first uses them, then the beams,
and the first degenerate build raises at once.  Phase 2 runs per side,
along a layout that a run builds once (``_evaluation_layout``).  Every
private set of the side becomes slices on one axis, one per SNR point or
a single one for a set without an SNR axis, and the axis is cut into
chunks of as many slices as fit ``_CHUNK_BYTES`` of stacked private
projection, n*K*K complex entries per slice.  Each chunk is projected by
one call, one GEMM per slice on the side's error stack.  The split search
ranks its grid per point on a view of its slice; the rate kernel then runs
once per (channel, plain or split) and chunk, on the per-(scheme, point)
allocations stacked.

A scheme's side, channel and construction are read from ``config.SCHEMES``.
"""
from __future__ import annotations

import itertools
import json
import logging
import math
import os
import pickle
from collections.abc import Sequence
from dataclasses import asdict, dataclass, replace
from functools import lru_cache, partial
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple

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
# bytes of stacked private projection, (n, K, K) complex per slice, per chunk
_CHUNK_BYTES = 512 * 1024


def seeded_rng(*parts: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(list(parts)))


@dataclass(frozen=True)
class SideData:
    """Channel state of one geometry (distributed or co-located)."""

    realization: chan.ChannelRealization
    # (partition, masked estimate) keyed by ``SchemeSpec.dense``: the single-cluster
    # dense channel ``g_hat`` itself, and the clustered one when a scheme uses it
    channels: dict[bool, tuple[clus.ClusterPartition, np.ndarray]]


@dataclass(frozen=True)
class TrialRow:
    """One (realization, scheme, SNR) outcome.

    A run holds its rows per realization as the arrays of a
    :class:`RealizationBlock`; a TrialRow is built from them when read.
    """

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
class RealizationBlock:
    """The trial rows of one realization as columns, entry ``point * len(schemes) + scheme``.

    Every cluster has a user, so an entry's cluster count is ``max(cluster_of) + 1``;
    ``min_cr`` is padded to K columns, and that many are the entry's own.
    """

    realization: int
    redraws: int
    schemes: tuple[str, ...]
    snr_db: tuple[float, ...]
    s_a: np.ndarray         # (E,)
    delta: np.ndarray       # (E,)
    mean_cr: np.ndarray     # (E, K)
    mean_pr: np.ndarray     # (E, K)
    min_cr: np.ndarray      # (E, K)
    cluster_of: np.ndarray  # (E, K) int

    def row_fields(self):
        """TrialRow fields of every entry as tuples, each column read by one ``tolist``."""
        n_clusters = (self.cluster_of.max(axis=-1) + 1).tolist()
        return zip(itertools.repeat(self.realization), self.schemes * len(self.snr_db),
                   [snr for snr in self.snr_db for _ in self.schemes],
                   self.s_a.tolist(), self.delta.tolist(), n_clusters,
                   map(tuple, self.mean_cr.tolist()), map(tuple, self.mean_pr.tolist()),
                   map(lambda mn, n: tuple(mn[:n]), self.min_cr.tolist(), n_clusters),
                   map(tuple, self.cluster_of.tolist()), itertools.repeat(self.redraws))


class TrialRows(Sequence):
    """Every trial row of a run in realization order, read from the realizations' blocks.

    Supports ``len``, integer indexing and iteration; a TrialRow is built
    only when read.  Compare ``list(rows)``.
    """

    def __init__(self, blocks: list[RealizationBlock]):
        self.blocks = blocks

    def __len__(self) -> int:
        return len(self.blocks) * len(self.blocks[0].s_a)

    def __iter__(self):
        for block in self.blocks:
            yield from itertools.starmap(TrialRow, block.row_fields())

    def __getitem__(self, index: int) -> TrialRow:
        block, entry = divmod(range(len(self))[index], len(self.blocks[0].s_a))
        return TrialRow(*next(itertools.islice(self.blocks[block].row_fields(), entry, None)))


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


def cluster_partition_for(config: ExperimentConfig, zeta: np.ndarray) -> clus.ClusterPartition:
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
                co_located: bool = False) -> list[chan.ChannelRealization]:
    """The distributed channel and, with ``co_located``, the co-located one, drawn per ``config``.

    Positions, shadowing normals and small-scale normals are drawn once,
    each from its own generator (the same generator may be passed for all
    three), and each realization is derived from them with its estimate and
    its (M, K) large-scale gains.  The co-located array keeps the users,
    stacks every antenna at the centre and shares one shadowing value per
    user, the first row of the distributed draw; both geometries fade by
    the same normals, the common random numbers of the two baselines.
    """
    shape = config.m, config.k
    geometry = chan.place_network(config.m, config.k, config.area_side_m, geometry_rng)
    shadow = shadow_rng.standard_normal(shape)
    fading = chan.complex_normal(channel_rng, shape), chan.complex_normal(channel_rng, shape)
    att = chan.attenuation_constant(config.freq_mhz, config.h_ap_m, config.h_u_m)
    scenes = [(geometry, shadow)]
    if co_located:
        scenes.append((geometry.co_located(), shadow[:1]))
    return [chan.draw_channel(chan.large_scale(geo, att, config.shadow_sigma_db, normals,
                                               d0=config.d0_m, d1=config.d1_m),
                              math.sqrt(config.sigma_e2), *fading)
            for geo, normals in scenes]


def _scheme_sides(config: ExperimentConfig, specs: list[SchemeSpec], index: int,
                  attempt: int) -> dict[bool, SideData]:
    """Channel state of the geometries a scheme list needs, keyed by ``bs``, from one scene draw.

    The distributed side is always built, as the power budget is solved on
    it, and is clustered when any scheme masks the channel; the co-located
    side is built when a scheme uses it and is never clustered.
    """
    geo_index, geo_attempt = (0, 0) if config.freeze_geometry else (index, attempt)
    scenes = _draw_scene(config, seeded_rng(config.seed, geo_index, geo_attempt, _GEOMETRY),
                         seeded_rng(config.seed, geo_index, geo_attempt, _SHADOW),
                         seeded_rng(config.seed, index, attempt, _SMALLSCALE),
                         co_located=any(s.bs for s in specs))
    sides = {}
    for bs, realization in zip((False, True), scenes):
        channels = {True: (clus.single_cluster(config.m, config.k), realization.g_hat)}
        if not bs and any(not s.dense for s in specs):
            partition = cluster_partition_for(config, realization.zeta)
            channels[False] = partition, clus.sparse_channel(realization.g_hat, partition)
        sides[bs] = SideData(realization, channels)
    return sides


# constructions whose unit-norm columns never read the power budget: matched filter and
# per-cluster zero forcing ignore it, and the trace scaling beta(Pt) of sparse zero forcing
# is divided out again by the column normalisation.  One build serves every SNR point;
# the regularised (MMSE) constructions are built at each point's budget
_ONE_BUDGET = frozenset({prec.LABEL_MF_SP, prec.LABEL_ZF_SP, prec.LABEL_RU_ZF_RD})


def _build_private(construction: str, g_bar: np.ndarray,
                   partition: clus.ClusterPartition, pt: float | np.ndarray,
                   sigma_w2: float) -> prec.PrecoderSet:
    # transmit composition: unit-norm columns, amplitudes carry the power
    return prec.normalize_private_columns(
        prec.construct(construction, g_bar, partition, pt, sigma_w2))


def _attempt_precoders(config: ExperimentConfig, specs: list[SchemeSpec],
                       sides: dict[bool, SideData], pt: float | np.ndarray):
    """Phase 1 of an attempt: each private set and common beam it needs, built once.

    ``pt`` is one power budget or the array of the SNR grid's; a
    construction in ``_ONE_BUDGET`` is built once, at the first.  The
    constructions are built in the order the scheme list first uses them,
    each by one call stacked over its (side, channel) pairs in list order,
    and then each common beam in list order.  The first degenerate build
    raises at once, before any rate work, naming the configured schemes it
    breaks: an empty cluster every scheme on its channel, a rank-deficient
    build the readers of that set or beam.
    Keys: ``(bs, dense, construction)`` and ``(bs, dense)``.
    """
    sets = dict.fromkeys((spec.bs, spec.dense, spec.construction) for spec in specs)
    privates, commons = {}, {}
    first_pt, sigma_w2 = np.ravel(pt)[0], _noise(config)
    try:
        for construction in dict.fromkeys(key[2] for key in sets):
            keys = [key for key in sets if key[2] == construction]
            partitions, g_bars = zip(*(sides[bs].channels[dense] for bs, dense, _ in keys))
            stacked = len(keys) > 1
            pset = _build_private(construction, np.stack(g_bars) if stacked else g_bars[0],
                                  partitions if stacked else partitions[0],
                                  first_pt if construction in _ONE_BUDGET else pt, sigma_w2)
            privates.update((key, pset.channel(c) if stacked else pset)
                            for c, key in enumerate(keys))
        for bs, dense in dict.fromkeys((spec.bs, spec.dense) for spec in specs if spec.rs):
            keys = [(bs, dense)]  # a beam fails as channel 0 of a one-channel build
            partition, g_bar = sides[bs].channels[dense]
            commons[bs, dense], _ = prec.common_precoder(g_bar, partition)
    except prec.DegenerateChannelError as exc:
        key, empty = keys[exc.channel], isinstance(exc, prec.EmptyClusterError)
        labels = [s.label for s in specs if (s.bs, s.dense) == key[:2] and (
            empty or (s.construction == key[2] if len(key) == 3 else s.rs))]
        raise type(exc)(f"{exc} (schemes {', '.join(labels)})") from exc
    return privates, commons


def _with_redraws(config: ExperimentConfig, index: int, attempt_fn):
    """``attempt_fn(attempt)`` of the first non-degenerate attempt of a realization.

    Degenerate draws (rank-deficient or empty-cluster channels) are logged
    and redrawn with a derived sub-seed, at most MAX_REDRAWS times.  Under
    ``freeze_geometry`` an empty cluster fails at once: the gains and the
    partition, hence the cluster, are the same on every attempt.
    """
    last_error = ""  # the message only: an exception's traceback holds this frame
    for attempt in range(MAX_REDRAWS + 1):
        try:
            return attempt_fn(attempt)
        except prec.DegenerateChannelError as exc:
            if config.freeze_geometry and isinstance(exc, prec.EmptyClusterError):
                raise RuntimeError(f"realization {index}: {exc}; the clustering cannot "
                                   "change under freeze_geometry, pick another seed") from exc
            log.warning("realization %d attempt %d redrawn: %s", index, attempt, exc)
            last_error = str(exc)
    raise RuntimeError(
        f"realization {index}: exhausted {MAX_REDRAWS} redraws: {last_error}")


# the layout's records are NamedTuples: a frozen dataclass costs about 0.5 ms to
# define, on every import, and setup time is measured
class _KernelGroup(NamedTuple):
    """One kernel call of a chunk: the entries of one (channel, plain or split) group.

    ``entries`` are the block rows ``point * len(schemes) + scheme`` it fills and
    ``points`` their SNR points; ``pick`` is the chunk slice of every entry, an int
    when they share one (the bundle then broadcasts).  ``searches`` hold a split
    group's runs of entries on one slice as (slice, points), one view per run.
    """

    dense: bool
    rs: bool
    entries: np.ndarray
    points: np.ndarray
    pick: int | np.ndarray
    searches: tuple[tuple[int, tuple[int, ...]], ...]


class _SideLayout(NamedTuple):
    """Phase 2 of one side: the (dense, construction) sets in slice order with their slice
    counts, the channels whose beams are projected, and its chunks as (first slice,
    stop, kernel groups)."""

    bs: bool
    sources: tuple[tuple[tuple[bool, str], int], ...]
    beams: tuple[bool, ...]
    chunks: tuple[tuple[int, int, tuple[_KernelGroup, ...]], ...]


def _read_only(values) -> np.ndarray:
    array = np.array(values)
    array.flags.writeable = False
    return array


@lru_cache(maxsize=None)
def _evaluation_layout(schemes: tuple[str, ...], n_points: int, n_chunk: int
                       ) -> tuple[tuple[SchemeSpec, ...], tuple[_SideLayout, ...]]:
    """The specs, and where each side projects and evaluates every (scheme, point) entry.

    It depends on the scheme list, the number of SNR points and the chunk
    width only, so a run builds it once.  Every private set of a side gives
    one slice per SNR point, or one for a set of ``_ONE_BUDGET``; the entries
    (scheme, point, slice) are grouped by (dense, rs), and a group takes one
    kernel call per chunk of ``n_chunk`` slices.
    """
    specs = tuple(parse_scheme(label) for label in schemes)
    sides = []
    for bs in dict.fromkeys(spec.bs for spec in specs):
        sources, first, calls = [], {}, {}
        for j, spec in enumerate(specs):
            if spec.bs != bs:
                continue
            key, per_point = (spec.dense, spec.construction), spec.construction not in _ONE_BUDGET
            if key not in first:
                first[key] = sum(count for _, count in sources)
                sources.append((key, n_points if per_point else 1))
            calls.setdefault((spec.dense, spec.rs), []).extend(
                (j, s, first[key] + s * per_point) for s in range(n_points))
        chunks = []
        for lo in range(0, sum(count for _, count in sources), n_chunk):
            groups = []
            for (dense, rs), entries in calls.items():
                mine = [(j, s, t - lo) for j, s, t in entries if lo <= t < lo + n_chunk]
                if mine:
                    picks = [t for _, _, t in mine]
                    groups.append(_KernelGroup(
                        dense, rs, _read_only([s * len(specs) + j for j, s, _ in mine]),
                        _read_only([s for _, s, _ in mine]),
                        picks[0] if len(set(picks)) == 1 else _read_only(picks),
                        tuple((t, tuple(s for _, s, _ in run)) for t, run in
                              itertools.groupby(mine, key=itemgetter(2))) if rs else ()))
            chunks.append((lo, lo + n_chunk, tuple(groups)))
        sides.append(_SideLayout(bs, tuple(sources), tuple(d for d, rs in calls if rs),
                                 tuple(chunks)))
    return specs, tuple(sides)


def _realization_attempt(config: ExperimentConfig, index: int, attempt: int) -> RealizationBlock:
    specs, layout = _evaluation_layout(
        tuple(config.schemes), len(config.snr_grid_db),
        max(1, _CHUNK_BYTES // (16 * config.n_err * config.k ** 2)))
    sides = _scheme_sides(config, specs, index, attempt)
    sigma_e, sigma_w2 = math.sqrt(config.sigma_e2), _noise(config)
    search = {"mu": config.power_grid_step, "mode": config.power_mode}
    # one power budget per SNR point, solved on the distributed geometry and shared
    # by every scheme for a fair comparison
    g_true = sides[False].realization.g_true
    pts = np.array([chan.pt_for_snr(g_true, snr, sigma_w2) for snr in config.snr_grid_db])
    privates, commons = _attempt_precoders(config, specs, sides, pts)
    users = np.arange(config.k)
    # the block's columns, one entry per (point, scheme), filled from the kernel's stacks
    n_entries = len(pts) * len(specs)
    s_a, delta = np.empty(n_entries), np.empty(n_entries)
    mean_cr, mean_pr, min_cr = (np.zeros((n_entries, config.k)) for _ in range(3))
    cluster_of = np.empty((n_entries, config.k), int)
    for side in layout:
        # phase 2, per side: one projection per chunk of slices, and one kernel call
        # per (channel, plain or split) and chunk
        realization = sides[side.bs].realization
        channels = {dense: (partition, partition.cluster_of_users(config.k))
                    for dense, (partition, _) in sides[side.bs].channels.items()}
        slices = [one for key, count in side.sources for one in privates[
            (side.bs, *key)].private.reshape(count, config.m, config.k)]
        # one error stack per side, shared by every scheme and SNR point: the sides draw
        # from the same seeded stream, scaled by their own gains
        err = proj = bundle = None  # drop the last side's stack and projection before the draw
        err = chan.draw_error_matrices(realization.zeta, sigma_e, config.n_err,
                                       seeded_rng(config.seed, index, attempt, _ERRDRAWS))
        g_hat = realization.g_hat
        common_streams = {dense: rates.project_streams(g_hat, err, commons[side.bs, dense],
                                                       channels[dense][1])
                          for dense in side.beams}
        for lo, hi, groups in side.chunks:
            proj = bundle = None  # drop the last chunk's projection before the next
            proj = rates.project_streams(g_hat, err, np.stack(slices[lo:hi]), users)
            for group in groups:
                partition, labels = channels[group.dense]
                bundle = rates.ProjectionBundle(common_streams.get(group.dense), proj, labels)
                if group.rs:
                    # one view per slice, dropped after its searches: its terms serve each point
                    alloc = pw.stack([
                        pw.allocate_common(view, sigma_e, partition, sigma_w2, pts[s], **search)[0]
                        for t, points in group.searches for view in [bundle.at(t)]
                        for s in points])
                else:
                    alloc = pw.no_split(pts[group.points], config.k)
                asr = rates.asr_from_bundle(bundle.at(group.pick), partition, alloc,
                                            sigma_w2, sigma_e)
                at = group.entries
                s_a[at], delta[at] = asr.s_a, alloc.delta
                mean_cr[at], mean_pr[at], cluster_of[at] = asr.mean_cr, asr.mean_pr, labels
                min_cr[at, :partition.n_clusters] = asr.min_cr
    return RealizationBlock(index, attempt, tuple(config.schemes),
                            tuple(map(float, config.snr_grid_db)), s_a, delta,
                            mean_cr, mean_pr, min_cr, cluster_of)


def _noise(config: ExperimentConfig) -> float:
    return chan.noise_variance(config.t0_k, config.bandwidth_hz, config.noise_figure_db)


def run_realization(config: ExperimentConfig, index: int) -> RealizationBlock:
    """All (scheme, SNR) trial rows of one realization, redrawn while degenerate."""
    return _with_redraws(config, index,
                         lambda attempt: _realization_attempt(config, index, attempt))


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
        pt = chan.pt_for_snr(sides[False].realization.g_true, snr_db, _noise(config))
        privates, commons = _attempt_precoders(config, specs, sides, pt)
        built = {}
        for spec in specs:
            pset = privates[spec.bs, spec.dense, spec.construction]
            pset = replace(pset, common=commons[spec.bs, spec.dense]) if spec.rs else pset
            built[spec.label] = sides[spec.bs].channels[spec.dense][0], pset
        return sides, built
    return _with_redraws(config, index, attempt_fn)


def cluster_partition(config: ExperimentConfig, index: int) -> clus.ClusterPartition:
    """User/AP partition that the clustered schemes of a run use in one realization."""
    if all(parse_scheme(label).dense for label in config.schemes):
        raise ConfigError("no scheme in 'schemes' is clustered (-SP or -RD)")
    sides, _ = realization_precoders(config, index, float(config.snr_grid_db[0]))
    return sides[False].channels[False][0]


def aggregate(config: ExperimentConfig,
              blocks: list[RealizationBlock]) -> list[ResultRecord]:
    """Reduce the realizations' blocks to per-(scheme, SNR) ergodic records, in fixed order.

    Each column is stacked once over the blocks into (entry, realization)
    order, and one ergodic reduction covers every (scheme, SNR) entry.
    """
    mean_cr, mean_pr, cluster_of, delta = (
        np.stack([getattr(block, name) for block in blocks], axis=1)
        for name in ("mean_cr", "mean_pr", "cluster_of", "delta"))
    esrs = rates.ergodic_sum_rate(mean_cr, mean_pr, cluster_of)
    n_clusters, n = cluster_of.max(axis=-1) + 1, len(blocks)
    records = []
    for j, scheme in enumerate(config.schemes):
        for point, snr in enumerate(config.snr_grid_db):
            entry = point * len(config.schemes) + j
            esr = esrs[entry]
            records.append(ResultRecord(
                scheme=scheme, snr_db=float(snr), esr=esr.esr, ecr=esr.ecr,
                epr=esr.epr, stderr=esr.stderr,
                delta_mean=math.fsum(delta[entry].tolist()) / n,
                n_clusters_mean=math.fsum(n_clusters[entry].tolist()) / n))
    return records


class _RecordBuffer(logging.Handler):
    """Holds a forked worker's log records for the parent, in ``records``."""

    def emit(self, record: logging.LogRecord) -> None:
        self.records.append(record)


def _forked_blocks(config: ExperimentConfig, workers: int) -> list[RealizationBlock]:
    """Every realization's block, computed by ``workers`` forked children.

    Child w runs realizations w, w + workers, ... in order and stops at its
    first exception.  It logs nothing itself: its package logger writes to
    a buffer, and it pickles, into its own pipe as one message, an (index,
    log records, block or exception) entry per realization it ran; exit
    status 0 acknowledges a complete message.  Every pipe is read and every
    child reaped on every path.  The parent then walks the realizations in
    order, handling each one's records, and raises the first failure, a
    dead child's as a RuntimeError at its first realization: the log is the
    one a single worker writes.
    """
    n = config.n_realizations
    children = []  # (pid, read end of the child's pipe)
    try:
        for w in range(workers):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                status = 1
                try:
                    os.close(read_fd)
                    buffer = _RecordBuffer()
                    log.handlers, log.propagate = [buffer], False
                    entries = []
                    for index in range(w, n, workers):
                        buffer.records = []
                        try:
                            entries.append((index, buffer.records, run_realization(config, index)))
                        except Exception as exc:
                            entries.append((index, buffer.records, exc))
                            break
                    with os.fdopen(write_fd, "wb") as fh:
                        pickle.dump(entries, fh, pickle.HIGHEST_PROTOCOL)
                    status = 0
                finally:
                    os._exit(status)
            os.close(write_fd)
            children.append((pid, os.fdopen(read_fd, "rb")))
        payloads = [fh.read() for _, fh in children]
    except BaseException:
        import signal  # only on this path: a run that is not interrupted never loads it
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        statuses = []
        for pid, fh in children:
            fh.close()
            statuses.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))

    entries = []
    for w, (payload, status) in enumerate(zip(payloads, statuses)):
        if status != 0:
            lost = ", ".join(map(str, range(w, n, workers)))
            entries.append((w, [], RuntimeError(
                f"realization worker {w} exited with status {status} without sending "
                f"its results; realizations {lost} are lost")))
        else:
            entries += pickle.loads(payload)
    blocks = []
    for _, records, outcome in sorted(entries, key=itemgetter(0)):
        for record in records:
            log.handle(record)
        if isinstance(outcome, Exception):
            raise outcome
        blocks.append(outcome)
    return blocks


def run_experiment(config: ExperimentConfig,
                   out_dir: str | Path | None = None
                   ) -> tuple[list[ResultRecord], TrialRows]:
    """Full sweep: realizations x SNR grid x schemes, with optional outputs.

    Writes ``results.csv`` and ``trials.jsonl`` under ``out_dir`` when
    given.  The outputs are a pure function of (config, seed): trial rows
    are reduced in realization order whatever the worker count.  With
    ``workers`` W > 1 the run forks min(W, n_realizations) children (POSIX
    ``os.fork``); each computes every W-th realization and sends its blocks
    back as one message.  Each realization's rows are held as one
    :class:`RealizationBlock` of columns and ``trials.jsonl`` is streamed one
    block at a time.  The returned :class:`TrialRows` supports ``len``,
    integer indexing and iteration, and builds a TrialRow only when one is
    read; compare ``list(rows)``.
    """
    validate(config)
    workers = min(config.workers, config.n_realizations)
    if workers > 1:
        blocks = _forked_blocks(config, workers)
    else:
        blocks = [run_realization(config, i) for i in range(config.n_realizations)]
    records = aggregate(config, blocks)
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "results.csv").write_text(render_csv(records), encoding="utf-8")
        with (out / "trials.jsonl").open("w", encoding="utf-8") as fh:
            for block in blocks:
                fh.write(render_jsonl(block))
    return records, TrialRows(blocks)


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


@lru_cache(maxsize=None)
def _jsonl_template(k: int, n_clusters: int) -> str:
    """One trials.jsonl line in json.dumps(sort_keys=True) layout, for a row of K users
    in ``n_clusters`` clusters: keys sorted, finite floats and ints as repr, the scheme
    label JSON-quoted."""
    users, clusters = ", ".join(["%r"] * k), ", ".join(["%r"] * n_clusters)
    return (f'{{"cluster_of": [{users}], "delta": %r, "mean_cr": [{users}], "mean_pr": '
            f'[{users}], "min_cr": [{clusters}], "n_clusters": %r, "realization": %r, '
            f'"redraws": %r, "s_a": %r, "scheme": %s, "snr_db": %r}}\n')


# a scheme label JSON-quoted, once per distinct label
_json_label = lru_cache(maxsize=None)(json.dumps)


def render_jsonl(block: RealizationBlock) -> str:
    """``trials.jsonl`` lines of one realization's block, read from its columns."""
    rows = block.row_fields()
    if not (all(np.isfinite(column).all() for column in (
            block.s_a, block.delta, block.mean_cr, block.mean_pr, block.min_cr))
            and all(map(math.isfinite, block.snr_db))):
        # json spells NaN and infinity NaN/Infinity, repr nan/inf: such a block is dumped
        return "".join(json.dumps(asdict(TrialRow(*row)), sort_keys=True) + "\n" for row in rows)
    k = block.cluster_of.shape[1]
    return "".join([
        _jsonl_template(k, n_clusters) % (
            *cluster_of, delta, *mean_cr, *mean_pr, *min_cr, n_clusters, realization, redraws,
            s_a, _json_label(scheme), snr_db)
        for (realization, scheme, snr_db, s_a, delta, n_clusters, mean_cr, mean_pr, min_cr,
             cluster_of, redraws) in rows])


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
                    delta: float = 0.3, snr_db: float = 15.0) -> rates.RateInputs:
    """A fully built evaluation instance on a random seeded network of ``config``.

    Draws geometry, fading and a channel from one generator; partitions per
    the configured selection and clustering; builds the requested private
    construction plus the common SVD beams; splits power with the given
    common fraction.  Seeds that land on a degenerate draw are re-derived
    (bounded retries).
    """
    sigma_w2 = _noise(config)
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
        pset = replace(pset, common=common)
        alloc = pw.equal_split(pt, delta, partition.n_clusters, config.k)
        return rates.RateInputs(realization, g_bar, partition, pset, cache, alloc, sigma_w2)
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
        budget = max(budget, total / alloc.pt - 1.0)
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
