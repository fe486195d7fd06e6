"""Span tracing of one rscf experiment, installed from outside the package.

The tracer replaces public functions of the rscf modules with wrappers
that record one span per call: layer, function, start, end, the parent
span and any exception.  The package calls across modules through module
attributes (``chan.draw_error_matrices``, ``rates.asr_from_bundle`` ...),
so patching those attributes sees every call without touching ``src/``.
Spans stay in memory; :meth:`Tracer.summary` reduces them to per-layer
metrics and the stage table, and :meth:`Tracer.write_spans` dumps them.

Tracing is only meaningful with ``workers = 1``: pool workers run their
own copy of the package, which the wrappers cannot see.
"""
from __future__ import annotations

import functools
import json
import pathlib
import time

# (module, function names, layer).  Functions missing from the module are
# skipped and listed in Tracer.missing, so a later refactor shows up as
# zero calls instead of a crash.
TRACED = (
    ("harness", ("run_experiment",), "harness.run"),
    ("harness", ("run_realization",), "harness.realization"),
    ("harness", ("_realization_attempt",), "harness.attempt"),
    ("harness", ("seeded_rng",), "harness.rng"),
    ("harness", ("aggregate",), "harness.aggregate"),
    ("harness", ("render_csv", "render_jsonl"), "harness.io"),
    ("channel", ("place_network", "large_scale", "draw_channel"), "channel.scene"),
    ("channel", ("draw_error_matrices",), "channel.error_draws"),
    ("clustering", ("select_aps_threshold", "select_aps_topn", "design_clusters",
                    "design_clusters_fixed", "single_cluster", "sparse_channel"),
     "clustering"),
    # _build_private is the harness's one call into the private constructions;
    # its span makes one call per build and sees the empty-cluster check
    ("harness", ("_build_private",), "precoding.private"),
    ("precoding", ("mf_sp", "zf_sp", "mmse_sp", "ru_zf_rd", "ru_mmse_rd",
                   "normalize_private_columns"), "precoding.private"),
    ("precoding", ("common_precoder",), "precoding.common"),
    ("power", ("allocate_common",), "power.search"),
    ("power", ("no_split",), "power.no_split"),
    ("rates", ("project_streams",), "rates.project"),
    ("rates", ("asr_from_bundle",), "rates.kernel"),
    ("rates", ("average_sum_rate",), "rates.average_sum_rate"),
    ("rates", ("ergodic_sum_rate",), "rates.ergodic"),
)

DEGENERATE = ("RankDeficientChannelError", "EmptyClusterError")

# ROADMAP stage of each layer's self time; layers absent here (the harness
# loops) are the part of the run that no stage covers.  A kernel
# call belongs to the split search or to the plain rate evaluation
# depending on its caller, see _stage_of.
STAGE_OF_LAYER = {
    "channel.scene": "geometry_fading",
    "clustering": "clustering",
    "precoding.private": "precoder_build",
    "precoding.common": "precoder_build",
    "channel.error_draws": "error_draws",
    "rates.project": "stream_projection",
    "power.search": "split_search",
    "power.no_split": "rate_evaluation",
    "rates.average_sum_rate": "rate_evaluation",
    "rates.ergodic": "aggregation",
    "harness.aggregate": "aggregation",
    "harness.io": "io",
}
STAGES = ("geometry_fading", "clustering", "precoder_build", "error_draws",
          "stream_projection", "split_search", "rate_evaluation", "aggregation", "io")

# Per-layer metric names with unit and direction, in report order.  The
# "trace." entries are filled in by run.py, which compares
# traced and untraced runs.
_LAYER_FIELDS = (
    ("channel.scene", ("calls", "busy_s")),
    ("channel.error_draws", ("calls", "busy_s", "bytes_computed", "calls_per_attempt")),
    ("clustering", ("calls", "busy_s")),
    ("precoding.private", ("calls", "busy_s", "failures")),
    ("precoding.common", ("calls", "busy_s")),
    ("precoding", ("build_us_per_ap",)),
    ("power.search", ("calls", "busy_s", "self_s", "candidates", "candidates_per_call",
                      "grid_top_hits")),
    ("rates.project", ("calls", "busy_s")),
    ("rates.kernel", ("calls", "busy_s", "draw_samples")),
    ("rates.average_sum_rate", ("calls", "busy_s", "self_s")),
    ("rates.ergodic", ("calls", "busy_s")),
    ("harness.rng", ("calls", "busy_s")),
    ("harness.realization", ("calls", "busy_s", "self_s", "attempts", "redraws",
                             "useful_attempt_ratio")),
    ("harness.aggregate", ("calls", "busy_s", "self_s")),
    ("harness.io", ("calls", "busy_s", "bytes")),
)
_UNITS = {"calls": ("count", "lower"), "busy_s": ("s", "lower"), "self_s": ("s", "lower"),
          "bytes_computed": ("bytes", "lower"), "bytes": ("bytes", "lower"),
          "calls_per_attempt": ("count", "lower"), "failures": ("count", "lower"),
          "build_us_per_ap": ("us", "lower"), "candidates": ("count", "lower"),
          "candidates_per_call": ("count", "lower"), "grid_top_hits": ("count", "lower"),
          "draw_samples": ("count", "lower"), "attempts": ("count", "lower"),
          "redraws": ("count", "lower"), "useful_attempt_ratio": ("ratio", "higher")}
PER_LAYER_METRICS = tuple(
    [(f"{layer}.{f}",) + _UNITS[f] for layer, fs in _LAYER_FIELDS for f in fs]
    + [(f"stage.{s}_s", "s", "lower") for s in STAGES]
    + [("stage.uncovered_share", "ratio", "lower"),
       ("trace.traced_wall_s", "s", "lower"),
       ("trace.untraced_wall_s", "s", "lower"),
       ("trace.overhead_s", "s", "lower")])


class Span:
    __slots__ = ("layer", "func", "parent", "start", "end", "error", "info")

    def __init__(self, layer, func, parent):
        self.layer, self.func, self.parent = layer, func, parent
        self.start = self.end = 0.0
        self.error = self.info = None


class Tracer:
    """Records spans around the rscf functions listed in TRACED."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def install(self, package) -> None:
        """Patch the modules of an imported ``rscf`` package."""
        info = _call_info(package)
        for module_name, funcs, layer in TRACED:
            module = getattr(package, module_name)
            for func in funcs:
                original = getattr(module, func, None)
                if original is None:
                    self.missing.append(f"{module_name}.{func}")
                    continue
                self._patch(module, func, self._wrap(layer, original, info.get(func)))
        partition = package.clustering.ClusterPartition
        self._patch(partition, "cluster_of_users",
                    self._wrap("clustering", partition.cluster_of_users, None))
        harness = package.harness
        self._patch(harness, "Path", self._traced_path_class(harness.Path))

    def uninstall(self) -> None:
        for module, name, original in reversed(self._restore):
            setattr(module, name, original)
        self._restore.clear()

    def _patch(self, module, name, replacement) -> None:
        self._restore.append((module, name, getattr(module, name)))
        setattr(module, name, replacement)

    def _wrap(self, layer, fn, info):
        spans, stack, name, clock = self.spans, self._stack, fn.__name__, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # everything before the first clock read is charged to the parent span
            span = Span(layer, name, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = clock()
                stack.pop()
            if info is not None:
                span.info = info(args, kwargs, result)
            return result
        return traced

    def _traced_path_class(self, path_cls):
        """Path subclass whose text writes are harness.io spans with a byte count."""
        def write_text(path, data, *args, **kwargs):
            return path_cls.write_text(path, data, *args, **kwargs)

        # the byte count of one write: the encoded size of the text
        traced_write = self._wrap("harness.io", write_text,
                                  lambda args, kwargs, result: len(args[1].encode("utf-8")))

        class TracedPath(type(pathlib.Path())):
            def write_text(self, data, *args, **kwargs):
                return traced_write(self, data, *args, **kwargs)

        return TracedPath

    # ------------------------------------------------------------------ output

    def write_spans(self, path) -> None:
        """One JSON object per span, in start order."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "parent": s.parent, "layer": s.layer,
                                     "func": s.func, "start": s.start, "end": s.end,
                                     "error": s.error, "info": s.info}) + "\n")

    def summary(self, n_aps: int) -> dict:
        """Per-layer metrics and the stage table of the recorded run.

        ``busy_s`` sums the outermost spans of a layer; ``self_s`` is busy
        time minus the part covered by child spans of other layers.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for s in spans:
            if s.parent >= 0:
                child_time[s.parent] += s.end - s.start
        outermost = [not _nested_in_same_layer(spans, i) for i in range(len(spans))]

        calls: dict[str, int] = {}
        busy: dict[str, float] = {}
        own: dict[str, float] = {}
        stage_time = dict.fromkeys(STAGES, 0.0)
        for i, s in enumerate(spans):
            dur = s.end - s.start
            self_time = dur - child_time[i]
            own[s.layer] = own.get(s.layer, 0.0) + self_time
            if outermost[i]:
                calls[s.layer] = calls.get(s.layer, 0) + 1
                busy[s.layer] = busy.get(s.layer, 0.0) + dur
            parent_layer = spans[s.parent].layer if s.parent >= 0 else None
            stage = _stage_of(s, parent_layer)
            if stage is not None:
                stage_time[stage] += self_time

        def of(layer):
            return [s for s in spans if s.layer == layer]

        m = {}
        for layer, fields in _LAYER_FIELDS:
            for f, table in (("calls", calls), ("busy_s", busy), ("self_s", own)):
                if f in fields:
                    m[f"{layer}.{f}"] = table.get(layer, 0)

        attempts = calls.get("harness.attempt", 0)
        m["harness.realization.attempts"] = attempts
        m["harness.realization.redraws"] = sum(
            1 for s in of("harness.attempt") if s.error in DEGENERATE)
        m["harness.realization.useful_attempt_ratio"] = (
            calls.get("harness.realization", 0) / attempts if attempts else 0.0)

        m["channel.error_draws.bytes_computed"] = sum(
            s.info for s in of("channel.error_draws") if s.info)
        m["channel.error_draws.calls_per_attempt"] = (
            calls.get("channel.error_draws", 0) / attempts if attempts else 0.0)

        m["precoding.private.failures"] = sum(
            1 for i, s in enumerate(spans) if s.layer == "precoding.private"
            and outermost[i] and s.error in DEGENERATE)
        builds = calls.get("precoding.private", 0)
        build_s = busy.get("precoding.private", 0.0) + busy.get("precoding.common", 0.0)
        m["precoding.build_us_per_ap"] = 1e6 * build_s / builds / n_aps if builds else 0.0

        searches = of("power.search")
        candidates = sum(1 for s in of("rates.kernel")
                         if s.parent >= 0 and spans[s.parent].layer == "power.search")
        m["power.search.candidates"] = candidates
        m["power.search.candidates_per_call"] = (
            candidates / len(searches) if searches else 0.0)
        m["power.search.grid_top_hits"] = sum(1 for s in searches if s.info)

        m["rates.kernel.draw_samples"] = sum(s.info for s in of("rates.kernel") if s.info)
        m["harness.io.bytes"] = sum(
            s.info for s in of("harness.io") if s.func == "write_text" and s.info)

        total = busy.get("harness.run", 0.0)
        for stage in STAGES:
            m[f"stage.{stage}_s"] = stage_time[stage]
        covered = sum(stage_time.values())
        m["stage.uncovered_share"] = (total - covered) / total if total else 0.0
        return m


def _nested_in_same_layer(spans, i) -> bool:
    p = spans[i].parent
    while p >= 0:
        if spans[p].layer == spans[i].layer:
            return True
        p = spans[p].parent
    return False


def _stage_of(span, parent_layer):
    if span.layer == "rates.kernel":
        return "split_search" if parent_layer == "power.search" else "rate_evaluation"
    if span.layer == "harness.rng":
        return "error_draws" if span.info else "geometry_fading"
    return STAGE_OF_LAYER.get(span.layer)


def _call_info(package) -> dict:
    """Per-call details kept on a span, taken from arguments as the package passes them."""
    errdraws = getattr(package.harness, "_ERRDRAWS", None)
    delta_grid = package.power.delta_grid

    def kernel(args, kwargs, result):
        bundle = args[0] if args else kwargs["bundle"]
        n, k, _ = bundle.til_p.shape  # n error draws of K users
        return n * k

    def search(args, kwargs, result):
        mu = args[7] if len(args) > 7 else kwargs["mu"]
        return result[0].delta == max(delta_grid(mu))

    return {
        # True when the generator seeds the error-draw stream, not the scene
        "seeded_rng": lambda args, kwargs, result: args[-1] == errdraws,
        # n * M * K complex128 entries
        "draw_error_matrices": lambda args, kwargs, result: int(result.nbytes),
        "asr_from_bundle": kernel,
        "allocate_common": search,
    }
