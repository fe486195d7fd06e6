import itertools
import json
import logging
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from rscf import channel as chan
from rscf import checks
from rscf import clustering as clus
from rscf import harness
from rscf import precoding as prec
from rscf.config import SCHEMES, ExperimentConfig, parse_scheme

from fixture_network import FIXTURE

SMALL = ExperimentConfig(n_realizations=3, n_err=10, snr_grid_db=(0.0, 10.0),
                         schemes=("CF-MF", "CF-MF-SP", "RS-CF-MF-SP", "BS-MF"),
                         seed=5)

# the benchmark's conventional workload: every scheme without rate splitting
CONVENTIONAL = ("BS-MF", "BS-ZF", "BS-MMSE", "CF-MF", "CF-ZF", "CF-MMSE", "CF-MF-SP",
                "CF-ZF-SP", "CF-MMSE-SP", "CF-ZF-RD", "CF-MMSE-RD")


def realization_rows(config, index):
    """The trial rows of one realization, read through the run's row view."""
    return harness.TrialRows([harness.run_realization(config, index)])


LABELS = [
    "BS-MF", "RS-BS-MF", "CF-MF", "CF-MF-SP", "RS-CF-MF-SP",
    "BS-ZF", "RS-BS-ZF", "CF-ZF", "CF-ZF-SP", "RS-CF-ZF-SP", "CF-ZF-RD", "RS-CF-ZF-RD",
    "BS-MMSE", "RS-BS-MMSE", "CF-MMSE", "CF-MMSE-SP", "RS-CF-MMSE-SP", "CF-MMSE-RD",
    "RS-CF-MMSE-RD",
]


class TestSchemeGrammar:
    def test_parse_fields(self):
        spec = parse_scheme("RS-CF-MMSE-RD")
        assert spec.rs and not spec.bs and spec.construction == "RU-MMSE-RD"
        assert not spec.dense
        spec = parse_scheme("BS-ZF")
        assert not spec.rs and spec.bs and spec.dense
        assert spec.construction == "ZF-SP"

    def test_table_holds_every_label_in_order(self):
        assert list(SCHEMES) == LABELS
        assert all(spec.label == label for label, spec in SCHEMES.items())

    def test_constructions_follow_the_label(self):
        for label, spec in SCHEMES.items():
            kind = label.removeprefix("RS-").split("-")[1]
            assert spec.construction in prec.CONSTRUCTIONS
            assert spec.rs == label.startswith("RS-") and spec.bs == ("BS-" in label)
            if label.endswith("-RD"):
                assert spec.construction == f"RU-{kind}-RD" and not spec.dense
            else:
                assert spec.construction == f"{kind}-SP"
                assert spec.dense == (not label.endswith("-SP"))

    def test_rejects_unknown(self):
        from rscf.config import ConfigError
        for label in ("RS-CF-MF-RD", "CF-THP", "XX-MF", "RS-BS-MF-SP"):
            with pytest.raises(ConfigError) as info:
                parse_scheme(label)
            assert str(info.value) == (
                f"unknown scheme {label!r}; valid schemes: " + ", ".join(LABELS))


class TestSharedScene:
    @pytest.mark.parametrize("freeze", [False, True], ids=["drawn", "frozen"])
    def test_one_draw_equals_a_draw_per_geometry(self, freeze):
        # one scene draw serves both geometries: each side must be the realization its
        # own freshly seeded geometry, shadowing and small-scale generators give
        specs = [parse_scheme(label) for label in ("CF-MF", "BS-MF")]
        for seed, index, attempt in itertools.product((1, 5), range(5), (0, 1)):
            cfg = replace(ExperimentConfig(), seed=seed, freeze_geometry=freeze)
            sides = harness._scheme_sides(cfg, specs, index, attempt)
            scene = (0, 0) if freeze else (index, attempt)
            for bs, shadow_shape in ((False, (cfg.m, cfg.k)), (True, (1, cfg.k))):
                geometry = chan.place_network(cfg.m, cfg.k, cfg.area_side_m, harness.seeded_rng(
                    seed, *scene, harness._GEOMETRY))
                shadow = harness.seeded_rng(seed, *scene, harness._SHADOW).standard_normal(
                    shadow_shape)
                zeta = chan.large_scale(geometry.co_located() if bs else geometry,
                                        cfg.shadow_sigma_db, shadow, d0=cfg.d0_m, d1=cfg.d1_m)
                fading = harness.seeded_rng(seed, index, attempt, harness._SMALLSCALE)
                h = chan.complex_normal(fading, zeta.shape)
                alone = chan.draw_channel(zeta, math.sqrt(cfg.sigma_e2), h,
                                          chan.complex_normal(fading, zeta.shape))
                shared = sides[bs].realization
                for field in ("g_true", "g_hat", "g_err", "zeta"):
                    assert np.array_equal(getattr(shared, field), getattr(alone, field)), (
                        seed, index, attempt, bs, field)


class TestRunTrial:
    def test_deterministic_replay(self):
        cfg = replace(SMALL, snr_grid_db=(10.0,))
        a = realization_rows(cfg, 1)
        b = realization_rows(cfg, 1)
        assert len(a) == len(b) == len(SMALL.schemes)
        for ra, rb in zip(a, b):
            assert ra == rb

    def test_zero_split_matches_plain(self):
        # the rate-split scheme with the fraction forced to zero must equal
        # the plain scheme: the grid's delta=0 point evaluates identically
        import dataclasses
        cfg = dataclasses.replace(SMALL, power_grid_step=1.0, snr_grid_db=(10.0,),
                                  schemes=("CF-MF-SP", "RS-CF-MF-SP"))
        rows = realization_rows(cfg, 0)
        by_scheme = {r.scheme: r for r in rows}
        assert by_scheme["RS-CF-MF-SP"].delta == 0.0
        assert by_scheme["RS-CF-MF-SP"].s_a == pytest.approx(
            by_scheme["CF-MF-SP"].s_a, abs=1e-12)

    def test_runs_quickly(self):
        import time
        start = time.perf_counter()
        harness.run_realization(ExperimentConfig(n_err=100, seed=3, snr_grid_db=(20.0,)), 0)
        assert time.perf_counter() - start < 1.0

    def test_trial_fields(self):
        rows = realization_rows(replace(SMALL, snr_grid_db=(0.0,)), 2)
        for row in rows:
            assert row.realization == 2 and row.snr_db == 0.0
            assert len(row.mean_cr) == SMALL.k and len(row.mean_pr) == SMALL.k
            assert len(row.min_cr) == row.n_clusters
            assert row.s_a >= 0.0


class TestRunExperiment:
    def test_records_and_decomposition(self, tmp_path):
        records, rows = harness.run_experiment(SMALL, out_dir=tmp_path)
        assert len(records) == len(SMALL.schemes) * len(SMALL.snr_grid_db)
        for rec in records:
            assert rec.esr == pytest.approx(rec.ecr + rec.epr, abs=1e-9)
            assert rec.stderr >= 0.0
        assert (tmp_path / "results.csv").exists()
        assert (tmp_path / "trials.jsonl").exists()

    def test_csv_schema(self, tmp_path):
        harness.run_experiment(SMALL, out_dir=tmp_path)
        text = (tmp_path / "results.csv").read_text(encoding="utf-8")
        lines = text.strip().split("\n")
        assert lines[0] == ("scheme,snr_db,esr,ecr,epr,stderr,delta_mean,"
                            "n_clusters_mean,runtime_ms")
        assert len(lines) == 1 + len(SMALL.schemes) * len(SMALL.snr_grid_db)
        for line in lines[1:]:
            fields = line.split(",")
            assert len(fields) == 9
            assert fields[0] in SMALL.schemes
            float(fields[1])  # parses with '.' decimal separator

    def test_jsonl_rows(self, tmp_path):
        _, rows = harness.run_experiment(SMALL, out_dir=tmp_path)
        lines = (tmp_path / "trials.jsonl").read_text().strip().split("\n")
        assert len(lines) == len(rows)
        entry = json.loads(lines[0])
        assert {"realization", "scheme", "snr_db", "s_a", "delta", "n_clusters",
                "mean_cr", "mean_pr", "min_cr", "cluster_of", "redraws"} <= set(entry)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_written_rows_equal_returned_rows(self, tmp_path, workers):
        _, rows = harness.run_experiment(replace(SMALL, workers=workers), out_dir=tmp_path)
        lines = (tmp_path / "trials.jsonl").read_text(encoding="utf-8").splitlines()
        # JSON arrays read back as lists; every float must read back bitwise
        assert [json.loads(line) for line in lines] == [
            {key: list(value) if isinstance(value, tuple) else value
             for key, value in row._asdict().items()} for row in rows]

    def test_jsonl_template_equals_json_dumps(self):
        _, rows = harness.run_experiment(SMALL)
        # block shapes alternate: each SMALL block holds BS and dense CF entries (one
        # cluster) next to clustered CF and RS entries (two), and the M=64, K=16 block
        # RS entries in four clusters
        big = harness.run_realization(replace(
            SMALL, m=64, k=16, cluster_mode="fixed", n_c=4, schemes=("RS-CF-MF-SP",)), 0)
        assert {(r.scheme.startswith("RS-"), r.n_clusters) for r in rows} == {
            (False, 1), (False, 2), (True, 2)}
        assert {(r.n_clusters, len(r.mean_cr)) for r in harness.TrialRows([big])} == {(4, 16)}
        # NaN and infinities take the json.dumps fallback; -0.0 and 2e-300 the template
        block = rows.blocks[0]
        values = np.resize([math.nan, math.inf, -math.inf, -0.0], len(block.s_a))
        mean_cr = np.tile([1.0, 1.5, -0.0, 2e-300], (len(values), 1))
        mean_cr[:, 0] = values
        odd = block._replace(s_a=values, delta=np.full(len(values), -0.0), mean_cr=mean_cr)
        batch = [b for pair in zip(rows.blocks, itertools.repeat(big)) for b in pair] + [odd]
        lines = "".join(map(harness.render_jsonl, batch)).splitlines()
        assert lines == [json.dumps(r._asdict(), sort_keys=True)
                         for b in batch for r in harness.TrialRows([b])]
        assert "NaN" in lines[-8] and "-Infinity" in lines[-6]
        assert '"s_a": -0.0' in lines[-5] and "2e-300" in lines[-5] and "NaN" not in lines[-5]

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        import dataclasses
        one = dataclasses.replace(SMALL, workers=1)
        two = dataclasses.replace(SMALL, workers=2)
        harness.run_experiment(one, out_dir=tmp_path / "w1")
        harness.run_experiment(two, out_dir=tmp_path / "w2")
        assert ((tmp_path / "w1" / "results.csv").read_bytes()
                == (tmp_path / "w2" / "results.csv").read_bytes())
        assert ((tmp_path / "w1" / "trials.jsonl").read_bytes()
                == (tmp_path / "w2" / "trials.jsonl").read_bytes())

    def test_pool_never_larger_than_the_realization_count(self, monkeypatch):
        forks, fork = [], os.fork

        def counting_fork():
            forks.append(1)
            return fork()
        monkeypatch.setattr(os, "fork", counting_fork)
        cfg = replace(SMALL, n_realizations=2)
        records, rows = harness.run_experiment(replace(cfg, workers=64))
        assert len(forks) == 2
        again, rows_again = harness.run_experiment(cfg)
        assert records == again and list(rows) == list(rows_again)

    @pytest.mark.parametrize("workers", [1, 3])
    def test_lowest_index_failure_is_raised(self, monkeypatch, workers):
        run = harness.run_realization

        def failing(config, index):
            if index >= 4:
                raise ValueError(f"realization {index} failed")
            return run(config, index)
        monkeypatch.setattr(harness, "run_realization", failing)
        with pytest.raises(ValueError, match=r"^realization 4 failed$"):
            harness.run_experiment(replace(SMALL, n_realizations=8, workers=workers))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_dead_worker_names_its_realizations(self, monkeypatch):
        run = harness.run_realization

        def dying(config, index):
            if index == 3:
                os._exit(5)
            return run(config, index)
        monkeypatch.setattr(harness, "run_realization", dying)
        with pytest.raises(RuntimeError, match=r"status 5 .*realizations 1, 3, 5 are lost"):
            harness.run_experiment(replace(SMALL, n_realizations=6, workers=2))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_one_worker_run_loads_no_process_pool(self):
        # the forked workers need only os and pickle; the pool stack costs memory and start-up
        src = Path(harness.__file__).resolve().parents[1]
        code = ("import sys, rscf\n"
                "from rscf.config import ExperimentConfig\n"
                "rscf.run_experiment(ExperimentConfig(n_realizations=2, n_err=5,"
                " snr_grid_db=(0.0,), schemes=('CF-MF', 'RS-CF-MF-SP')))\n"
                "print(sorted(m for m in ('concurrent.futures', 'multiprocessing')"
                " if m in sys.modules))\n")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": str(src)}, timeout=120,
                             check=True).stdout
        assert out.strip() == "[]"

    def test_import_loads_only_the_run(self):
        # set-up time is measured: importing the package and resolving a config load
        # neither the checks nor the CLI, and every record but the three of the package
        # docstring is a NamedTuple, whose class creation generates no methods
        src = Path(harness.__file__).resolve().parents[1]
        code = ("import dataclasses, sys, rscf\n"
                "rscf.config.resolve(None, [])\n"
                "print(sorted(m for m in ('rscf.checks', 'rscf.cli') if m in sys.modules))\n"
                "print(sorted(name for name in vars(rscf) if not name.startswith('_')))\n"
                "print(sorted(value.__name__ for name, module in list(sys.modules.items())\n"
                "             if name.split('.')[0] == 'rscf' for value in vars(module).values()\n"
                "             if isinstance(value, type) and dataclasses.is_dataclass(value)\n"
                "             and value.__module__ == name))\n")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": str(src)}, timeout=120,
                             check=True).stdout
        # the package binds the run-path modules and run_experiment, nothing else
        modules = ["channel", "clustering", "config", "harness", "power", "precoding", "rates"]
        assert out.splitlines() == [
            "[]", repr(sorted(modules + ["run_experiment"])),
            "['ClusterPartition', 'ExperimentConfig', 'ProjectionBundle']"]

    def test_flat_split_objective_reports_no_common_rate(self):
        # perfect estimates with single-user clusters: every split fraction
        # gives the same sum rate, and the search keeps delta = 0
        cfg = replace(FIXTURE, sigma_e2=0.0, n_realizations=4, schemes=(
            "RS-CF-MF-SP", "RS-CF-ZF-SP", "RS-CF-MMSE-SP", "RS-CF-ZF-RD", "RS-CF-MMSE-RD"))
        records, _ = harness.run_experiment(cfg)
        assert len(records) == 5 * 7
        assert all(r.delta_mean == 0.0 and r.ecr == 0.0 for r in records)

    def test_single_trial_perfect_estimate_equals_instantaneous(self):
        cfg = ExperimentConfig(n_realizations=1, n_err=1, sigma_e2=0.0,
                               snr_grid_db=(10.0,), schemes=("CF-MF",), seed=9)
        records, rows = harness.run_experiment(cfg)
        assert records[0].esr == pytest.approx(rows[0].s_a, rel=1e-12)

    def test_rate_split_never_below_plain_sparse(self):
        # per-realization guarantee: the searched fraction includes zero
        _, rows = harness.run_experiment(SMALL)
        by_key = {(r.scheme, r.realization, r.snr_db): r for r in rows}
        for r in range(SMALL.n_realizations):
            for snr in SMALL.snr_grid_db:
                rs = by_key[("RS-CF-MF-SP", r, snr)]
                cf = by_key[("CF-MF-SP", r, snr)]
                assert rs.s_a >= cf.s_a - 1e-12

    def test_freeze_geometry(self):
        import dataclasses
        cfg = dataclasses.replace(SMALL, freeze_geometry=True, n_realizations=2,
                                  schemes=("CF-MF",))
        _, rows = harness.run_experiment(cfg)
        # same geometry and gains, different small-scale fading: the
        # cluster structure is identical across realizations
        assert rows[0].cluster_of == rows[2].cluster_of
        assert rows[0].s_a != rows[2].s_a

    def test_ecr_estimator_switches_with_partition_stability(self):
        import dataclasses
        import numpy as np
        from rscf import rates
        cfg = dataclasses.replace(SMALL, n_realizations=4, schemes=("RS-CF-MF-SP",),
                                  snr_grid_db=(10.0,), seed=7)

        def esr_of(config):
            _, rows = harness.run_experiment(config)
            return rates.ergodic_sum_rate(np.array([[r.mean_cr for r in rows]]),
                                          np.array([[r.mean_pr for r in rows]]),
                                          np.array([[r.cluster_of for r in rows]]))[0]

        frozen = esr_of(dataclasses.replace(cfg, freeze_geometry=True))
        assert frozen.ecr_min_of_means is not None
        assert frozen.ecr == pytest.approx(frozen.ecr_min_of_means)
        moving = esr_of(cfg)
        # redrawn geometry reclusters per realization; the mean of
        # per-realization minima becomes the primary estimator
        if moving.ecr_min_of_means is None:
            assert moving.ecr == pytest.approx(moving.ecr_mean_of_mins)

    def test_bs_schemes_single_cluster(self):
        _, rows = harness.run_experiment(SMALL)
        for row in rows:
            if row.scheme == "BS-MF":
                assert row.n_clusters == 1
                assert row.delta == 0.0

    def test_degenerate_draws_are_redrawn(self):
        # under full selection a cluster occasionally loses every AP; such
        # realizations must be redrawn with a derived sub-seed, not fail
        import dataclasses
        cfg = dataclasses.replace(SMALL, schemes=("CF-MF-SP",), n_err=2,
                                  snr_grid_db=(10.0,))
        hit = None
        for index in range(80):
            rows = realization_rows(cfg, index)
            if rows[0].redraws > 0:
                hit = rows
                break
        assert hit is not None, "no degenerate draw within 80 realizations"
        assert hit[0].s_a >= 0.0
        # replay reproduces the redrawn outcome bit for bit
        assert list(realization_rows(cfg, hit[0].realization)) == list(hit)

    def test_redrawn_realization_leaves_no_reference_cycle(self, monkeypatch):
        # realization 10 of this list is redrawn once; a kept exception would hold its
        # traceback, whose frames hold the failed attempt, until the cycle collector ran.
        # The redraw warning is muted: a captured log record would keep the exception
        # reachable, and the collector would find nothing to free
        import gc
        monkeypatch.setattr(harness.log, "disabled", True)
        cfg = ExperimentConfig(schemes=("BS-MF", "BS-ZF", "BS-MMSE", "CF-MF", "CF-ZF",
                                        "CF-MMSE", "CF-MF-SP", "CF-ZF-SP", "CF-MMSE-SP",
                                        "CF-ZF-RD", "CF-MMSE-RD"), n_err=10, seed=1)
        gc.disable()
        try:
            gc.collect()
            rows = realization_rows(cfg, 10)
            freed = gc.collect()
        finally:
            gc.enable()
        assert rows[0].redraws == 1
        assert freed == 0

    def test_frozen_degenerate_geometry_fails_loudly(self, monkeypatch):
        # with frozen geometry the gains never change, so a clustering that
        # strands a cluster cannot be redrawn away and must raise at once
        import dataclasses
        cfg = dataclasses.replace(SMALL, freeze_geometry=True, seed=5,
                                  schemes=("RS-CF-MF-SP",), snr_grid_db=(10.0,))
        attempts = []
        build = harness._realization_attempt

        def counted(*args):
            attempts.append(args[2])
            return build(*args)
        monkeypatch.setattr(harness, "_realization_attempt", counted)
        with pytest.raises(RuntimeError, match="freeze_geometry"):
            harness.run_realization(cfg, 0)
        assert attempts == [0]

    def test_one_error_stack_per_side_and_attempt(self, monkeypatch):
        import dataclasses
        from rscf import channel as chan
        draws = []
        draw = chan.draw_error_matrices

        def counted(*args):
            draws.append(args[0])
            return draw(*args)
        monkeypatch.setattr(chan, "draw_error_matrices", counted)
        cfg = ExperimentConfig(n_err=10, snr_grid_db=(0.0, 10.0), seed=5)
        # realization 0 of seed 5 is redrawn once: its first attempt fails in the
        # precoder builds, before any stack is drawn
        rows = realization_rows(cfg, 0)
        assert rows[0].redraws == 1 and len(rows) == 2 * len(cfg.schemes)
        assert len(draws) == 2  # distributed and co-located sides, kept attempt only
        draws.clear()
        rows = realization_rows(dataclasses.replace(
            cfg, schemes=("CF-MF", "RS-CF-MF-SP", "RS-CF-ZF-RD")), 1)
        assert len(draws) == rows[0].redraws + 1
        # the distributed side of a co-located list sets the budget, draws no stack
        draws.clear()
        rows = realization_rows(dataclasses.replace(cfg, schemes=("BS-MF",)), 1)
        assert len(draws) == rows[0].redraws + 1

    def test_co_located_rows_do_not_depend_on_distributed_schemes(self):
        # the power budget is solved on the distributed geometry whether or
        # not a CF scheme is in the list
        cfg = replace(SMALL, schemes=("BS-MF", "RS-BS-MF"))
        _, alone = harness.run_experiment(cfg)
        _, mixed = harness.run_experiment(replace(cfg, schemes=(*cfg.schemes, "CF-MF")))
        assert list(alone) == [row for row in mixed if row.scheme != "CF-MF"]

    def test_distributed_rows_do_not_depend_on_other_schemes(self):
        # at K=2 the private GEMM of a slice has two columns; it must not round
        # differently next to the default list's other slices
        cfg = replace(SMALL, k=2, n_c=1, schemes=("CF-MF", "CF-ZF", "RS-CF-ZF-SP"))
        _, alone = harness.run_experiment(cfg)
        _, mixed = harness.run_experiment(replace(cfg, schemes=ExperimentConfig().schemes))
        assert list(alone) == [row for row in mixed if row.scheme in cfg.schemes]

    def test_conventional_rows_do_not_depend_on_other_schemes(self):
        # each construction of the conventional list is built once, stacked over the
        # channels that use it; at K=2 its GEMMs are two columns wide, and each
        # channel must still round as when its scheme is built alone
        cfg = replace(SMALL, k=2, n_c=1, schemes=CONVENTIONAL)
        _, mixed = harness.run_experiment(cfg)
        assert not any(row.redraws for row in mixed)  # no redraw couples the schemes
        for scheme in CONVENTIONAL:
            _, alone = harness.run_experiment(replace(cfg, schemes=(scheme,)))
            assert list(alone) == [row for row in mixed if row.scheme == scheme], scheme

    def test_pt_free_inputs_built_once_per_attempt(self, monkeypatch):
        # one attempt of the default list: every construction is built once, stacked
        # over the (side, channel) pairs that use it, with all SNR points in one
        # build; the SVD beams once per (side, dense or clustered channel)
        from rscf import precoding as prec
        builds, beams, channels = [], [], {}
        build, beam = harness._build_private, prec.common_precoder

        def counted_build(construction, g_bar, *args):
            builds.append(construction)
            channels[construction] = g_bar.shape[:-2]
            return build(construction, g_bar, *args)

        def counted_beam(*args):
            beams.append(args)
            return beam(*args)
        monkeypatch.setattr(harness, "_build_private", counted_build)
        monkeypatch.setattr(prec, "common_precoder", counted_beam)
        cfg = ExperimentConfig(n_err=10, seed=1)
        rows = realization_rows(cfg, 0)
        assert rows[0].redraws == 0 and len(rows) == 7 * len(cfg.schemes) == 7 * 11
        assert sorted(builds) == sorted(prec.CONSTRUCTIONS)  # each construction once
        assert len(beams) == 2
        # MF-SP on both sides' dense and the clustered channel, ZF-SP and MMSE-SP on the
        # distributed dense and clustered channels, the per-cluster sets on one channel
        assert channels == {"MF-SP": (3,), "ZF-SP": (2,), "MMSE-SP": (2,),
                            "RU-ZF-RD": (), "RU-MMSE-RD": ()}

    def test_degenerate_attempt_fails_before_rate_work(self, monkeypatch):
        # realization 0 of seed 5 is redrawn once; its first attempt fails in
        # the precoder builds, so only the kept attempt projects and searches
        from rscf import power as pw
        from rscf import rates
        projections, searches = [], []
        project, search = rates.project_streams, pw.allocate_common

        def counted_project(*args):
            projections.append(args)
            return project(*args)

        def counted_search(*args, **kwargs):
            searches.append(args)
            return search(*args, **kwargs)
        monkeypatch.setattr(rates, "project_streams", counted_project)
        monkeypatch.setattr(pw, "allocate_common", counted_search)
        cfg = ExperimentConfig(n_err=10, seed=5)
        rows = realization_rows(cfg, 0)
        assert rows[0].redraws == 1
        assert len(searches) == 6 * 7  # six RS schemes at seven SNR points
        # at n_err=10 each side's slices fit one chunk: one private stack per side,
        # and each beam once
        assert len(projections) == 2 + 2

    def test_redraw_warning_names_the_broken_schemes(self, caplog):
        # the first attempt of realization 0 of seed 5 loses cluster 1's every AP, which
        # breaks every set and beam on the clustered channel: the clustered MF-SP set fails
        # first, and all six default schemes that read that channel are named
        with caplog.at_level(logging.WARNING, logger="rscf"):
            rows = realization_rows(ExperimentConfig(n_err=10, seed=5), 0)
        assert rows[0].redraws == 1
        assert [record.getMessage() for record in caplog.records] == [
            "realization 0 attempt 0 redrawn: cluster 1 lost every AP in conflict resolution "
            "(schemes CF-MF-SP, RS-CF-MF-SP, RS-CF-ZF-SP, RS-CF-ZF-RD, RS-CF-MMSE-SP, "
            "RS-CF-MMSE-RD)"]

    def test_failed_common_beam_names_the_schemes_that_send_it(self, monkeypatch):
        # the clustered beam is read by the clustered RS schemes, not by the plain
        # clustered scheme nor by the co-located RS scheme
        def singular(g_bar, partition):
            raise prec.RankDeficientChannelError("singular beam")
        monkeypatch.setattr(prec, "common_precoder", singular)
        cfg = ExperimentConfig(schemes=("CF-MF-SP", "RS-CF-ZF-RD", "RS-BS-MF", "RS-CF-MF-SP"))
        specs = [parse_scheme(label) for label in cfg.schemes]
        sides = harness._scheme_sides(cfg, specs, 0, 0)
        with pytest.raises(prec.RankDeficientChannelError) as info:
            harness._attempt_precoders(specs, sides, 1.0)
        assert str(info.value) == "singular beam (schemes RS-CF-ZF-RD, RS-CF-MF-SP)"

    def test_redraw_warning_names_the_first_build_in_build_order(self, caplog):
        # CF-ZF puts sparse zero forcing first in build order, so on the clustered channel
        # it is built, and fails, ahead of the per-cluster zero forcing listed before it.
        # Both rank checks reject the same draws: either list order keeps the same attempts
        base = replace(ExperimentConfig(), selection="threshold", cluster_mode="auto",
                       seed=1, n_err=10)
        rows = {}
        for schemes in (("CF-ZF", "RS-CF-ZF-RD", "RS-CF-ZF-SP"),
                        ("CF-ZF", "RS-CF-ZF-SP", "RS-CF-ZF-RD")):
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="rscf"):
                blocks = [realization_rows(replace(base, schemes=schemes), index)
                          for index in range(4)]
            messages = [record.getMessage() for record in caplog.records]
            assert len(messages) == sum(block[0].redraws for block in blocks) == 5
            assert all(": rank-deficient channel (sparse zero-forcing): " in message
                       and message.endswith(" (schemes RS-CF-ZF-SP)") for message in messages)
            rows[schemes] = {(row.realization, row.scheme, row.snr_db): row
                             for block in blocks for row in block}
        first, second = rows.values()  # every row carries its realization's redraw count
        assert first == second

    @pytest.mark.parametrize("overrides", [
        {}, {"selection": "threshold", "cluster_mode": "auto", "n_realizations": 10,
             "power_mode": "per_cluster_exhaustive",
             "schemes": ("RS-CF-MF-SP", "RS-CF-MMSE-RD", "BS-MF")}])
    def test_cluster_count_is_read_from_the_labels(self, tmp_path, overrides):
        # a row's count is derived from its labels; it must match the kernel's
        # per-cluster minima and, on a clustered channel, the partition the run used
        cfg = replace(ExperimentConfig(n_realizations=4, n_err=10), **overrides)
        harness.run_experiment(cfg, tmp_path)
        rows = [json.loads(line) for line in (tmp_path / "trials.jsonl").read_text().splitlines()]
        assert all(row["n_clusters"] == max(row["cluster_of"]) + 1 == len(row["min_cr"])
                   for row in rows)
        partitions = {index: harness.cluster_partition(cfg, index)
                      for index in range(cfg.n_realizations)}
        clustered = [row for row in rows if not parse_scheme(row["scheme"]).dense]
        assert all(row["n_clusters"] == partitions[row["realization"]].n_clusters
                   for row in clustered)
        if overrides:  # the shared-AP rule varies the count between realizations
            assert len({row["n_clusters"] for row in clustered}) > 1

    @pytest.mark.parametrize("n_err", [10, 100])
    def test_split_terms_built_once_per_slice(self, monkeypatch, n_err):
        # the default list searches six RS schemes at seven SNR points on 18 slices:
        # the clustered MMSE-SP and the RU-MMSE-RD sets with an SNR axis, and the
        # clustered MF-SP and ZF-SP, the RU-ZF-RD and the co-located MF-SP sets without
        # one, whose one view serves all seven searches
        from functools import cached_property

        from rscf import power as pw
        from rscf import rates
        builds, searches = [], []
        terms, search = rates.ProjectionBundle.split_terms.func, pw.allocate_common

        def counted_terms(bundle):
            builds.append(bundle.private.e2.shape)
            return terms(bundle)

        def counted_search(*args, **kwargs):
            searches.append(args)
            return search(*args, **kwargs)
        counted = cached_property(counted_terms)
        counted.__set_name__(rates.ProjectionBundle, "split_terms")
        monkeypatch.setattr(rates.ProjectionBundle, "split_terms", counted)
        monkeypatch.setattr(pw, "allocate_common", counted_search)
        cfg = ExperimentConfig(n_err=n_err, seed=1)
        rows = realization_rows(cfg, 0)
        assert rows[0].redraws == 0
        assert len(searches) == 6 * 7 and len(builds) == 2 * 7 + 4
        assert set(builds) == {(n_err, cfg.k, cfg.k)}

    @pytest.mark.parametrize("k, n_c, slices", [
        pytest.param(k, n_c, slices, id=f"{slices}" if k == 4 else f"K{k}-{slices}")
        for k, n_c in ((4, 2), (2, 1), (1, 1)) for slices in (1, 3, 39)])
    def test_slice_chunks_do_not_change_rows(self, monkeypatch, k, n_c, slices):
        # the chunk budget only decides how many slices one projection stacks and one
        # kernel call covers; the default list has both sides, dense and clustered
        # channels, plain and RS schemes, and sets with and without an SNR axis, and
        # 39 slices hold every slice of a side (26 distributed, 1 co-located).  At
        # K <= 2 a GEMM over several slices would round a slice by its neighbours
        cfg = ExperimentConfig(k=k, n_c=n_c, n_err=10, n_realizations=2, seed=1)
        _, whole = harness.run_experiment(cfg)
        assert harness._CHUNK_BYTES // (16 * cfg.n_err * cfg.k ** 2) >= 39
        monkeypatch.setattr(harness, "_CHUNK_BYTES", slices * 16 * cfg.n_err * cfg.k ** 2)
        assert list(harness.run_experiment(cfg)[1]) == list(whole)

    def test_private_stacks_stay_within_the_chunk_budget(self, monkeypatch):
        # at M=64, K=16 and n_err=100 one slice fills a chunk: an unchunked stack of a
        # side's slices would hold 26 of them
        from rscf import rates
        stacks = []
        project = rates.project_streams

        def recorded(g_hat, err, columns, own):
            if columns.ndim == 3:
                stacks.append(len(columns))
            return project(g_hat, err, columns, own)
        monkeypatch.setattr(rates, "project_streams", recorded)
        cfg = ExperimentConfig(m=64, k=16, cluster_mode="fixed", n_c=4, n_err=100, seed=1)
        rows = realization_rows(cfg, 0)
        limit = max(1, harness._CHUNK_BYTES // (16 * cfg.n_err * cfg.k ** 2))
        assert limit == 1 and max(stacks) <= limit
        # every slice projected once (a degenerate attempt projects none): 6 sets
        # without an SNR axis (every matched-filter and zero-forcing set), 3 with seven
        # points
        assert len(rows) == 7 * 11 and sum(stacks) == 6 + 3 * 7


    def test_rows_read_each_realization_block(self):
        # the run keeps one block of arrays per realization and reads its rows from them
        _, rows = harness.run_experiment(SMALL)
        expected = [row for i in range(SMALL.n_realizations)
                    for row in realization_rows(SMALL, i)]
        assert len(rows) == len(expected) == 3 * 4 * 2
        assert all(rows[i] == row for i, row in enumerate(expected))
        assert rows[-1] == expected[-1] and [rows[i] for i in range(2, 7)] == expected[2:7]
        assert list(rows) == expected and list(reversed(rows)) == expected[::-1]
        assert list(rows) != expected[:-1] and list(rows) != expected[::-1]
        assert all(isinstance(row, harness.TrialRow) for row in rows)
        with pytest.raises(IndexError):
            rows[len(expected)]

    def test_memory_per_trial_row_stays_small(self, tmp_path):
        # rows are held as per-realization arrays and trials.jsonl is streamed, so the
        # traced peak of a run grows by far less per row than one TrialRow object
        import tracemalloc
        cfg = ExperimentConfig(schemes=CONVENTIONAL, n_err=2, seed=1)

        def peak(n_realizations):
            tracemalloc.start()
            try:
                harness.run_experiment(replace(cfg, n_realizations=n_realizations),
                                       tmp_path / str(n_realizations))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        peak(2)  # first-use caches
        small, large = peak(10), peak(40)
        assert (large - small) / (30 * 7 * len(CONVENTIONAL)) <= 400


class TestEvaluationLayout:
    """Phase 2's layout depends on the scheme list, the point count and the chunk width
    only: a run builds it once, and rebuilding it for every attempt changes no byte."""

    CONFIGS = [
        pytest.param(replace(ExperimentConfig(), n_err=10, n_realizations=3, seed=5), None,
                     id="default"),
        pytest.param(replace(ExperimentConfig(), schemes=CONVENTIONAL, n_err=10,
                             n_realizations=4, seed=1), None, id="conventional"),
        pytest.param(replace(ExperimentConfig(), n_err=10, n_realizations=2, seed=1), 3,
                     id="three-slice-chunks"),
        pytest.param(replace(ExperimentConfig(), m=16, k=8, cluster_mode="fixed", n_c=3,
                             n_err=20, n_realizations=2, snr_grid_db=(5.0, 25.0), seed=2),
                     None, id="m16k8"),
    ]

    @staticmethod
    def outputs(config):
        records, rows = harness.run_experiment(config)
        return harness.render_csv(records), "".join(map(harness.render_jsonl, rows.blocks))

    @pytest.mark.parametrize("config, slices", CONFIGS)
    def test_a_layout_per_attempt_changes_no_byte(self, monkeypatch, config, slices):
        if slices is not None:
            monkeypatch.setattr(harness, "_CHUNK_BYTES",
                                slices * 16 * config.n_err * config.k ** 2)
        cached = self.outputs(config)
        attempt = harness._realization_attempt
        cleared = []

        def fresh_layout(*args):
            harness._evaluation_layout.cache_clear()
            cleared.append(args[1:])
            return attempt(*args)
        monkeypatch.setattr(harness, "_realization_attempt", fresh_layout)
        assert self.outputs(config) == cached
        assert len(cleared) >= config.n_realizations

    def test_a_run_builds_its_layout_once(self):
        config = replace(ExperimentConfig(), n_err=10, n_realizations=4, seed=5)
        harness._evaluation_layout.cache_clear()
        harness.run_experiment(config)
        info = harness._evaluation_layout.cache_info()
        # seed 5 redraws realization 0 once: five attempts read one layout
        assert (info.misses, info.hits) == (1, 4)

    def test_layout_matches_the_scheme_list(self):
        config = replace(ExperimentConfig(), n_err=10)
        n_chunk = harness._CHUNK_BYTES // (16 * config.n_err * config.k ** 2)
        specs, layout = harness._evaluation_layout(config.schemes, 7, n_chunk)
        assert [spec.label for spec in specs] == list(config.schemes)
        # the sides in the list's order: BS-MF comes first
        co_located, distributed = layout
        assert co_located.bs and not distributed.bs
        # sets of _ONE_BUDGET give one slice, the regularised sets one per point
        assert sum(count for _, count in distributed.sources) == 26
        assert [count for _, count in co_located.sources] == [1]
        entries = []
        for side in layout:
            for _, _, groups in side.chunks:
                for group in groups:
                    entries += group.entries.tolist()
                    assert not group.entries.flags.writeable
                    assert not group.points.flags.writeable
                    assert len(group.points) == len(group.entries)
                    if group.rs:
                        assert [s for _, points in group.searches for s in points] == (
                            group.points.tolist())
        # every (point, scheme) entry is evaluated exactly once
        assert sorted(entries) == list(range(7 * len(config.schemes)))


class TestAggregate:
    def test_order_is_config_order(self):
        records, _ = harness.run_experiment(SMALL)
        labels = [r.scheme for r in records]
        expected = [s for s in SMALL.schemes for _ in SMALL.snr_grid_db]
        assert labels == expected
        snrs = [r.snr_db for r in records[:2]]
        assert snrs == sorted(snrs)

    def test_runtime_column_zero_without_timing(self, tmp_path):
        # runtime_ms stays in the layout as a constant 0 column
        harness.run_experiment(SMALL, out_dir=tmp_path)
        lines = (tmp_path / "results.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0].endswith(",runtime_ms") and len(lines) > 1
        assert all(line.endswith(",0") for line in lines[1:])

    def test_timing_key_is_rejected(self, capsys):
        from rscf import cli
        assert cli.main(["run", "--set", "timing=true"]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and "unknown config key 'timing'" in err


def fixture_chain(seed, m, k, sigma_e2, kind, snr_db=15.0):
    """The instance chain written out: geometry, fading and channel from one
    generator, threshold selection, the derived n_a and shared-AP clustering on
    a 1000 m area with the 1900 MHz / 15 m / 1.65 m attenuation, 8 dB shadowing
    and 290 K / 20 MHz / 9 dB noise."""
    for attempt in range(20):
        rng = harness.seeded_rng(seed, attempt, 100)
        geometry = chan.place_network(m, k, 1000.0, rng)
        zeta = chan.large_scale(geometry, 8.0, rng.standard_normal((m, k)))
        h = chan.complex_normal(rng, (m, k))
        realization = chan.draw_channel(zeta, math.sqrt(sigma_e2), h,
                                        chan.complex_normal(rng, (m, k)))
        selection = clus.select_aps_threshold(zeta)
        n_a = clus.default_shared_ap_threshold(selection)
        partition = clus.design_clusters(selection, n_a, zeta)
        g_bar = clus.sparse_channel(realization.g_hat, partition)
        pt = chan.pt_for_snr(realization.g_true, snr_db)
        try:
            common, _ = prec.common_precoder(g_bar, partition)
            pset = harness._build_private(kind, g_bar, partition, pt)
        except (prec.RankDeficientChannelError, prec.EmptyClusterError):
            continue
        return realization.g_hat, partition, pset.private, common, pt
    return None


class TestFixtureInstances:
    @pytest.mark.parametrize("sigma_e2", [0.0, 0.025, 0.1])
    def test_fixture_config_rebuilds_the_chain(self, sigma_e2):
        config = replace(FIXTURE, sigma_e2=sigma_e2)
        for seed in range(100):
            for kind in prec.CONSTRUCTIONS:
                want = fixture_chain(seed, 8, 4, sigma_e2, kind)
                if want is None:
                    with pytest.raises(RuntimeError):
                        checks.random_instance(seed, config, kind=kind)
                    continue
                g_hat, partition, private, common, pt = want
                got = checks.random_instance(seed, config, kind=kind)
                assert np.array_equal(got.realization.g_hat, g_hat)
                assert got.partition.user_sets == partition.user_sets
                assert got.partition.ap_sets == partition.ap_sets
                assert np.array_equal(got.partition.test_vectors, partition.test_vectors)
                assert np.array_equal(got.precoders.private, private)
                assert np.array_equal(got.precoders.common, common)
                assert got.power.pt == pt


class TestChannelConstants:
    """Every power budget is solved for its SNR point from the gains' total and the
    noise, so a common factor on the gains or any noise variance cancels from every
    split, partition, redraw and rate: these are constants of ``rscf.channel``."""

    @pytest.mark.parametrize("config", [
        replace(SMALL, schemes=tuple(SCHEMES), seed=1, snr_grid_db=(0.0, 40.0)),
        replace(SMALL, schemes=("CF-MF-SP", "RS-CF-MF-SP", "RS-CF-MMSE-RD", "BS-ZF",
                                "RS-BS-MMSE"),
                selection="threshold", cluster_mode="auto", seed=1, snr_grid_db=(0.0, 40.0)),
    ], ids=["all-schemes", "threshold-auto"])
    def test_outputs_do_not_depend_on_them(self, monkeypatch, config):
        mmse = next(label for label in config.schemes if "MMSE" in label)

        def outputs():
            records, rows = harness.run_experiment(config)
            return records, list(rows), harness.dump_precoders(config)[mmse]["beta"]

        base_records, base_rows, base_beta = outputs()
        for name, change in (("NOISE_VARIANCE_W", lambda v: v * 1e3),
                             ("NOISE_VARIANCE_W", lambda v: v * 1e-3),
                             ("ATTENUATION_DB", lambda v: v + 20.0),
                             ("ATTENUATION_DB", lambda v: v - 15.0)):
            with monkeypatch.context() as patch:
                patch.setattr(chan, name, change(getattr(chan, name)))
                records, rows, beta = outputs()
            assert beta != base_beta, name  # the patched constant reached the build
            assert len(rows) == len(base_rows) and len(records) == len(base_records)
            for got, want in zip(rows, base_rows):
                assert (got.delta, got.redraws, got.cluster_of, got.n_clusters) == (
                    want.delta, want.redraws, want.cluster_of, want.n_clusters), (name, want)
                for field in ("s_a", "mean_cr", "mean_pr", "min_cr"):
                    np.testing.assert_allclose(getattr(got, field), getattr(want, field),
                                               rtol=1e-9, atol=0, err_msg=f"{name} {want}")
            for got, want in zip(records, base_records):
                assert (got.scheme, got.snr_db, got.delta_mean, got.n_clusters_mean) == (
                    want.scheme, want.snr_db, want.delta_mean, want.n_clusters_mean), name
                np.testing.assert_allclose([got.esr, got.ecr, got.epr, got.stderr],
                                           [want.esr, want.ecr, want.epr, want.stderr],
                                           rtol=1e-9, atol=0, err_msg=f"{name} {want}")


    @pytest.mark.parametrize("c", [2.0, 3.0, 0.37])
    def test_outputs_do_not_depend_on_the_geometric_scale(self, c):
        # scaling the area and both breakpoints by c scales every distance by c, and the
        # three-slope law then shifts every gain by -35 log10(c) dB, which cancels as the
        # attenuation does: one degree of freedom of the three keys is a no-op
        base = ExperimentConfig(n_realizations=6, n_err=10, snr_grid_db=(0.0, 15.0, 30.0))
        scaled = replace(base, area_side_m=c * base.area_side_m, d0_m=c * base.d0_m,
                         d1_m=c * base.d1_m)
        (base_records, base_rows), (records, rows) = (
            harness.run_experiment(config) for config in (base, scaled))
        base_rows, rows = list(base_rows), list(rows)
        assert (harness.dump_precoders(scaled)["RS-CF-MMSE-SP"]["beta"]
                != harness.dump_precoders(base)["RS-CF-MMSE-SP"]["beta"])  # the gains moved
        assert len(rows) == len(base_rows) and len(records) == len(base_records)
        for got, want in zip(rows, base_rows):
            assert (got.delta, got.redraws, got.cluster_of, got.n_clusters) == (
                want.delta, want.redraws, want.cluster_of, want.n_clusters), (c, want)
            for field in ("s_a", "mean_cr", "mean_pr", "min_cr"):
                np.testing.assert_allclose(getattr(got, field), getattr(want, field),
                                           rtol=1e-9, atol=0, err_msg=f"{c} {want}")
        for got, want in zip(records, base_records):
            assert (got.scheme, got.snr_db, got.delta_mean, got.n_clusters_mean) == (
                want.scheme, want.snr_db, want.delta_mean, want.n_clusters_mean), c
            np.testing.assert_allclose([got.esr, got.ecr, got.epr, got.stderr],
                                       [want.esr, want.ecr, want.epr, want.stderr],
                                       rtol=1e-9, atol=0, err_msg=f"{c} {want}")


class TestVerify:
    def test_budget_check_reads_an_underspent_budget(self):
        # halving the private amplitudes at delta 0.4 spends 0.55 Pt: both budget
        # residuals must read the 0.45 gap
        inputs = checks.random_instance(0, ExperimentConfig(), kind=prec.LABEL_ZF_SP, delta=0.4)
        under = replace(inputs, power=inputs.power._replace(a_p=inputs.power.a_p / 2.0))
        budget, cov, _ = checks._budget_residuals([under])
        assert budget == pytest.approx(0.45) and cov == pytest.approx(0.45)

    def test_report_follows_selection_and_clustering(self):
        # the instance checks draw on the configured network: top-n selection
        # with fixed clusters and the fixture's threshold/shared-AP network differ
        default, fixture = (checks.verify(config).format().splitlines()
                            for config in (ExperimentConfig(), FIXTURE))
        changed = {a.split(":")[0] for a, b in zip(default, fixture) if a != b}
        assert {"[PASS] zero-forcing orthogonality",
                "[PASS] closed-form SINR equivalence"} <= changed

    def test_default_passes(self):
        report = checks.verify()
        assert report.ok, report.format()
        assert all(c.residual <= c.tolerance for c in report.checks)
        assert not any("skipped" in c.detail for c in report.checks)

    def test_corruption_hook_fails_orthogonality(self):
        report = checks.verify(corrupt="zf")
        assert not report.ok
        failed = [c.name for c in report.checks if not c.passed]
        assert failed == ["zero-forcing orthogonality"]

    def test_format_mentions_every_check(self):
        report = checks.verify()
        text = report.format()
        for check in report.checks:
            assert check.name in text
