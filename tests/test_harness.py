import json
import math
from dataclasses import replace

import numpy as np
import pytest

from rscf import channel as chan
from rscf import clustering as clus
from rscf import harness
from rscf import precoding as prec
from rscf.config import SCHEMES, ExperimentConfig, parse_scheme

from fixture_network import FIXTURE

SMALL = ExperimentConfig(n_realizations=3, n_err=10, snr_grid_db=(0.0, 10.0),
                         schemes=("CF-MF", "CF-MF-SP", "RS-CF-MF-SP", "BS-MF"),
                         seed=5)


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


class TestRunTrial:
    def test_deterministic_replay(self):
        a = harness.run_realization(SMALL, 1, snr_grid=(10.0,))
        b = harness.run_realization(SMALL, 1, snr_grid=(10.0,))
        assert len(a) == len(b) == len(SMALL.schemes)
        for ra, rb in zip(a, b):
            assert ra == rb

    def test_zero_split_matches_plain(self):
        # the rate-split scheme with the fraction forced to zero must equal
        # the plain scheme: the grid's delta=0 point evaluates identically
        import dataclasses
        cfg = dataclasses.replace(SMALL, power_grid_step=1.0,
                                  schemes=("CF-MF-SP", "RS-CF-MF-SP"))
        rows = harness.run_realization(cfg, 0, snr_grid=(10.0,))
        by_scheme = {r.scheme: r for r in rows}
        assert by_scheme["RS-CF-MF-SP"].delta == 0.0
        assert by_scheme["RS-CF-MF-SP"].s_a == pytest.approx(
            by_scheme["CF-MF-SP"].s_a, abs=1e-12)

    def test_runs_quickly(self):
        import time
        start = time.perf_counter()
        harness.run_realization(ExperimentConfig(n_err=100, seed=3), 0, snr_grid=(20.0,))
        assert time.perf_counter() - start < 1.0

    def test_trial_fields(self):
        rows = harness.run_realization(SMALL, 2, snr_grid=(0.0,))
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
            return rates.ergodic_sum_rate(np.array([r.mean_cr for r in rows]),
                                          np.array([r.mean_pr for r in rows]),
                                          np.array([r.cluster_of for r in rows]))

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
            rows = harness.run_realization(cfg, index)
            if rows[0].redraws > 0:
                hit = rows
                break
        assert hit is not None, "no degenerate draw within 80 realizations"
        assert hit[0].s_a >= 0.0
        # replay reproduces the redrawn outcome bit for bit
        assert harness.run_realization(cfg, hit[0].realization) == hit

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
        rows = harness.run_realization(cfg, 0)
        assert rows[0].redraws == 1 and len(rows) == 2 * len(cfg.schemes)
        assert len(draws) == 2  # distributed and co-located sides, kept attempt only
        draws.clear()
        rows = harness.run_realization(dataclasses.replace(
            cfg, schemes=("CF-MF", "RS-CF-MF-SP", "RS-CF-ZF-RD")), 1)
        assert len(draws) == rows[0].redraws + 1
        # the distributed side of a co-located list sets the budget, draws no stack
        draws.clear()
        rows = harness.run_realization(dataclasses.replace(cfg, schemes=("BS-MF",)), 1)
        assert len(draws) == rows[0].redraws + 1

    def test_co_located_rows_do_not_depend_on_distributed_schemes(self):
        # the power budget is solved on the distributed geometry whether or
        # not a CF scheme is in the list
        cfg = replace(SMALL, schemes=("BS-MF", "RS-BS-MF"))
        _, alone = harness.run_experiment(cfg)
        _, mixed = harness.run_experiment(replace(cfg, schemes=(*cfg.schemes, "CF-MF")))
        assert alone == [row for row in mixed if row.scheme != "CF-MF"]

    def test_pt_free_inputs_built_once_per_attempt(self, monkeypatch):
        # one attempt of the default list: every private set is built once per
        # (side, channel, construction), with all SNR points in one build; the
        # SVD beams once per (side, dense or clustered channel)
        from rscf import precoding as prec
        builds, beams = [], []
        build, beam = harness._build_private, prec.common_precoder

        def counted_build(construction, *args):
            builds.append(construction)
            return build(construction, *args)

        def counted_beam(*args):
            beams.append(args)
            return beam(*args)
        monkeypatch.setattr(harness, "_build_private", counted_build)
        monkeypatch.setattr(prec, "common_precoder", counted_beam)
        cfg = ExperimentConfig(n_err=10, seed=1)
        rows = harness.run_realization(cfg, 0)
        assert rows[0].redraws == 0 and len(rows) == 7 * len(cfg.schemes) == 7 * 11
        assert len(builds) == 9  # 3 MF-SP + 1 RU-ZF-RD + 5 pt-dependent, each once
        assert len(beams) == 2
        assert builds.count("MMSE-SP") == 2  # dense and clustered
        assert builds.count("MF-SP") == 3 and builds.count("RU-ZF-RD") == 1

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
        rows = harness.run_realization(cfg, 0)
        assert rows[0].redraws == 1
        assert len(searches) == 6 * 7  # six RS schemes at seven SNR points
        assert len(projections) == 9 + 2  # each private set and each beam once


    @pytest.mark.parametrize("points", [1, 3])
    def test_snr_chunks_do_not_change_rows(self, monkeypatch, points):
        # the chunk budget only decides how many SNR points one projection stacks
        cfg = ExperimentConfig(n_err=10, seed=1)
        whole = harness.run_realization(cfg, 0)
        assert harness._CHUNK_BYTES // (16 * cfg.n_err * cfg.k ** 2) >= len(cfg.snr_grid_db)
        monkeypatch.setattr(harness, "_CHUNK_BYTES", points * 16 * cfg.n_err * cfg.k ** 2)
        assert harness.run_realization(cfg, 0) == whole


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
    a 1000 m area with 8 dB shadowing and 290 K / 20 MHz / 9 dB noise."""
    for attempt in range(20):
        rng = harness.seeded_rng(seed, attempt, 100)
        geometry = chan.place_network(m, k, 1000.0, rng)
        zeta = chan.large_scale(geometry, 8.0, rng)
        realization = chan.draw_channel(zeta, math.sqrt(sigma_e2), rng)
        selection = clus.select_aps_threshold(zeta)
        n_a = clus.default_shared_ap_threshold(selection)
        partition = clus.design_clusters(selection, n_a, zeta)
        sparse = clus.sparse_channel(realization.g_hat, partition)
        sigma_w2 = chan.noise_variance(290.0, 20e6, 9.0)
        pt = chan.pt_for_snr(realization.g_true, snr_db, sigma_w2)
        try:
            common, _ = prec.common_precoder(sparse, partition)
            pset = harness._build_private(kind, sparse, partition, pt, sigma_w2)
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
                        harness.random_instance(seed, config, kind=kind)
                    continue
                g_hat, partition, private, common, pt = want
                got = harness.random_instance(seed, config, kind=kind)
                assert np.array_equal(got.realization.g_hat, g_hat)
                assert got.partition.user_sets == partition.user_sets
                assert got.partition.ap_sets == partition.ap_sets
                assert np.array_equal(got.partition.test_vectors, partition.test_vectors)
                assert np.array_equal(got.precoders.private, private)
                assert np.array_equal(got.precoders.common, common)
                assert got.power.pt == pt


class TestVerify:
    def test_report_follows_selection_and_clustering(self):
        # the instance checks draw on the configured network: top-n selection
        # with fixed clusters and the fixture's threshold/shared-AP network differ
        default, fixture = (harness.verify(config).format().splitlines()
                            for config in (ExperimentConfig(), FIXTURE))
        changed = {a.split(":")[0] for a, b in zip(default, fixture) if a != b}
        assert {"[PASS] zero-forcing orthogonality",
                "[PASS] closed-form SINR equivalence"} <= changed

    def test_default_passes(self):
        report = harness.verify()
        assert report.ok, report.format()
        assert all(c.residual <= c.tolerance for c in report.checks)
        assert not any("skipped" in c.detail for c in report.checks)

    def test_corruption_hook_fails_orthogonality(self):
        report = harness.verify(corrupt="zf")
        assert not report.ok
        failed = [c.name for c in report.checks if not c.passed]
        assert failed == ["zero-forcing orthogonality"]

    def test_format_mentions_every_check(self):
        report = harness.verify()
        text = report.format()
        for check in report.checks:
            assert check.name in text
