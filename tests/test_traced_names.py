"""The benchmark's tracer names package functions by string.

It skips a name it cannot find, so a renamed function would silently drop
a layer from the traced benchmark run; this test makes the rename fail.
"""
import importlib.util
import inspect
from dataclasses import replace
from pathlib import Path

import rscf
from rscf.config import ExperimentConfig

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists():
    missing = [f"{module}.{name}" for module, names, _ in load_tracing().TRACED
               for name in names if not callable(getattr(getattr(rscf, module), name, None))]
    assert not missing


def test_attributes_read_by_the_tracer_exist():
    # patched or read next to the TRACED table
    assert callable(rscf.clustering.ClusterPartition.cluster_of_users)
    assert hasattr(rscf.harness, "Path") and hasattr(rscf.harness, "_ERRDRAWS")
    assert callable(rscf.power.delta_grid)


def test_positional_arguments_read_by_the_tracer():
    # the tracer reads the grid step of a search as args[7] when more than 7
    # positional arguments are passed and as kwargs["mu"] otherwise, and the
    # bundle of a kernel call as args[0]; after a moved parameter it would
    # read the wrong argument, and grid_top_hits or draw_samples would go
    # wrong quietly
    search = inspect.signature(rscf.power.allocate_common).parameters
    assert search["mu"].kind is inspect.Parameter.KEYWORD_ONLY
    positional = [p for p in search.values()
                  if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD, p.VAR_POSITIONAL)]
    assert len(positional) <= 7 and all(p.kind is not p.VAR_POSITIONAL for p in positional)
    kernel = list(inspect.signature(rscf.rates.asr_from_bundle).parameters)
    assert kernel[0] == "bundle"


def test_tracer_counts_one_realization():
    # the tracer reads the chosen fraction of a search as result[0].delta and
    # counts the kernel calls; one realization of the default scheme list
    # makes 6 RS schemes x 7 SNR points searches and one kernel call per
    # (side, channel, plain or split) and chunk.  At n_err=10 each side's
    # slices fit one chunk: the distributed side calls for its dense plain
    # (CF-MF, CF-ZF, CF-MMSE), clustered plain (CF-MF-SP) and clustered RS
    # schemes, the co-located side for BS-MF and RS-BS-MF, 3 + 2 = 5.  The run's
    # records are reduced by one traced ergodic_sum_rate call, whose time the
    # aggregation stage shows
    tracer = load_tracing().Tracer()
    config = replace(ExperimentConfig(), n_err=10, n_realizations=1)
    tracer.install(rscf)
    try:
        rscf.harness.run_experiment(config)
    finally:
        tracer.uninstall()
    summary = tracer.summary(config.m)
    assert summary["power.search.calls"] == 42
    assert summary["rates.kernel.calls"] == 5
    assert summary["rates.ergodic.calls"] == 1 and summary["stage.aggregation_s"] > 0
    hits = summary["power.search.grid_top_hits"]
    assert isinstance(hits, int) and hits <= 42


def test_tracer_sees_the_scene_and_a_failed_build():
    # realization 0 of seed 5 is redrawn once: its first attempt loses a cluster's every
    # AP, and the stacked build that finds it must still fail inside the traced
    # _build_private; the scene draw is still traced through the channel functions
    tracer = load_tracing().Tracer()
    config = replace(ExperimentConfig(), n_err=10, n_realizations=1, seed=5)
    tracer.install(rscf)
    try:
        rscf.harness.run_experiment(config)
    finally:
        tracer.uninstall()
    summary = tracer.summary(config.m)
    assert tracer.missing == []
    assert summary["precoding.private.failures"] == summary["harness.realization.redraws"] == 1
    assert summary["channel.scene.calls"] > 0
