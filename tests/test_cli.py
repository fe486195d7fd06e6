import json
import os

import numpy as np
import pytest

from rscf import cli, harness
from rscf.config import ExperimentConfig, KEY_SPECS, load_file, render, resolve


SMALL_ARGS = ["--set", "n_realizations=2", "--set", "n_err=5",
              "--set", "schemes=CF-MF,RS-CF-MF-SP", "--set", "snr_grid_db=0,10"]


class TestConfigFile:
    def test_round_trip(self, tmp_path):
        cfg = ExperimentConfig(m=10, k=5, sigma_e2=0.1, schemes=("CF-MF",))
        path = tmp_path / "exp.cfg"
        path.write_text(render(cfg), encoding="utf-8")
        assert load_file(path) == cfg
        # floats that need more than six significant digits
        cfg = ExperimentConfig(sigma_e2=0.0123456789, bandwidth_hz=12345678.9,
                               area_side_m=1000.0000001, snr_grid_db=(0.1 + 0.2, -7.25e-9))
        path.write_text(render(cfg), encoding="utf-8")
        assert load_file(path) == cfg

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("# comment\n\nM = 12\nK = 3  # trailing comment\n")
        cfg = load_file(path)
        assert cfg.m == 12 and cfg.k == 3

    def test_unknown_key_lists_valid_ones(self, tmp_path):
        from rscf.config import ConfigError
        path = tmp_path / "exp.cfg"
        path.write_text("bandwidth = 1\n")
        with pytest.raises(ConfigError) as err:
            load_file(path)
        for key in KEY_SPECS:
            assert key in str(err.value)

    def test_override_precedence(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("seed = 3\nM = 12\n")
        cfg = resolve(path, ["seed=9"])
        assert cfg.seed == 9 and cfg.m == 12

    def test_validation_rejects_overloaded(self):
        from rscf.config import ConfigError
        with pytest.raises(ConfigError):
            resolve(None, ["M=4", "K=4"])


class TestCliDispatch:
    def test_run_emits_expected_rows(self, capsys):
        code = cli.main(["run", *SMALL_ARGS])
        assert code == 0
        out = capsys.readouterr().out.strip().split("\n")
        assert out[0].startswith("scheme,snr_db")
        assert len(out) == 1 + 2 * 2  # schemes x snr points

    def test_snr_override_row_count(self, capsys):
        code = cli.main(["run", "--set", "n_realizations=1", "--set", "n_err=3",
                         "--set", "schemes=CF-MF", "--set", "snr_grid_db=0,5,10"])
        assert code == 0
        out = capsys.readouterr().out.strip().split("\n")
        assert len(out) == 1 + 3

    def test_byte_identical_reruns(self, tmp_path):
        for sub in ("a", "b"):
            code = cli.main(["run", *SMALL_ARGS, "--out", str(tmp_path / sub)])
            assert code == 0
        assert ((tmp_path / "a" / "results.csv").read_bytes()
                == (tmp_path / "b" / "results.csv").read_bytes())

    def test_bad_key_exit_code(self, capsys):
        assert cli.main(["run", "--set", "bogus=1"]) == 1
        assert "config error" in capsys.readouterr().err

    def test_bad_value_exit_code(self, capsys):
        assert cli.main(["run", "--set", "M=eight"]) == 1

    @pytest.mark.parametrize("pairs", [
        ["area_side_m=0"], ["d0_m=60"], ["d1_m=0"], ["shadow_sigma_db=-1"],
        ["bandwidth_hz=0"], ["T0_K=0"], ["freq_mhz=0"], ["h_ap_m=0"], ["h_u_m=-1"],
        ["n_a=-3"], ["power_mode=per_cluster_exhaustive", "n_c=3"],
        ["schemes=CF-MF,CF-MF"], ["snr_grid_db=0,0"], ["seed=-1"], ["snr_grid_db=nan"],
        ["noise_figure_db=inf"], ["shadow_sigma_db=inf"], ["area_side_m=inf"],
    ], ids=",".join)
    def test_out_of_range_value_exit_code(self, capsys, pairs):
        # rejected before any run, not as a runtime error from the channel model
        args = [arg for pair in pairs for arg in ("--set", pair)]
        assert cli.main(["run", *SMALL_ARGS, *args]) == 1
        assert "config error" in capsys.readouterr().err

    def test_negative_seed_flag_exit_code(self, capsys):
        assert cli.main(["run", *SMALL_ARGS, "--seed", "-1"]) == 1
        assert "seed must be non-negative" in capsys.readouterr().err

    def test_workers_need_fork(self, capsys, monkeypatch):
        monkeypatch.delattr(os, "fork")
        assert cli.main(["run", *SMALL_ARGS, "--workers", "2"]) == 1
        assert "no os.fork" in capsys.readouterr().err
        assert cli.main(["run", *SMALL_ARGS, "--workers", "1"]) == 0

    def test_runtime_failure_is_the_same_at_any_worker_count(self, capsys):
        # threshold selection with auto clusters exhausts realization 4's redraws
        args = ["run", "--set", "selection=threshold", "--set", "cluster_mode=auto",
                "--set", "n_realizations=30"]
        last_lines = []
        for workers in ("1", "2"):
            assert cli.main([*args, "--workers", workers]) == 3
            last_lines.append(capsys.readouterr().err.splitlines()[-1])
        assert last_lines[0] == last_lines[1]
        assert last_lines[0].startswith("runtime error: realization 4: exhausted 3 redraws: "
                                        "rank-deficient channel (sparse zero-forcing)")
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_flags_override_the_set_values_before_validation(self, capsys):
        # one validation of the resolved config: a flag replaces an out-of-range --set
        assert cli.main(["run", "--print-config", "--set", "seed=-1", "--seed", "4",
                         "--set", "workers=0", "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "seed = 4\n" in out and "workers = 2\n" in out

    def test_per_cluster_exhaustive_allowed_up_to_two_fixed_clusters(self, capsys):
        assert cli.main(["run", "--print-config", "--set", "power_mode=per_cluster_exhaustive",
                         "--set", "n_c=2"]) == 0
        assert cli.main(["run", "--print-config", "--set", "power_mode=per_cluster_exhaustive",
                         "--set", "n_c=3", "--set", "cluster_mode=auto"]) == 0

    def test_print_config(self, capsys):
        code = cli.main(["run", "--print-config", "--seed", "42", *SMALL_ARGS])
        assert code == 0
        out = capsys.readouterr().out
        assert "seed = 42" in out
        assert "schemes = CF-MF,RS-CF-MF-SP" in out

    def test_seed_flag_changes_results(self, capsys):
        cli.main(["run", *SMALL_ARGS, "--seed", "1"])
        first = capsys.readouterr().out
        cli.main(["run", *SMALL_ARGS, "--seed", "2"])
        second = capsys.readouterr().out
        assert first != second

    def test_verify_small(self, capsys):
        code = cli.main(["verify"])
        assert code == 0
        out = capsys.readouterr().out
        assert "verification PASSED" in out

    def test_verify_skips_unbuildable_seeds(self, capsys):
        # at 12 APs and 6 users on the threshold-selected, shared-AP network,
        # zero forcing is degenerate on every attempt of seed 3
        assert cli.main(["verify", "--set", "M=12", "--set", "K=6", "--set", "selection=threshold",
                         "--set", "cluster_mode=auto"]) == 0
        lines = {line.split(":")[0]: line for line in capsys.readouterr().out.splitlines()}
        assert "verification PASSED" in lines
        assert lines["[PASS] zero-forcing orthogonality"].endswith("(skipped 1 unbuildable seed)")
        assert lines["[PASS] zero-split collapse"].endswith("<= 1.0e-12")
        assert lines["[PASS] closed-form SINR equivalence"].endswith(
            "(10 seeds x 3 error levels, skipped 6 unbuildable seeds)")

    def test_cluster_report_json(self, capsys):
        code = cli.main(["cluster-report", "--set", "M=8", "--set", "K=4"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert isinstance(payload, list) and payload
        users = sorted(u for entry in payload for u in entry["users"])
        assert users == [0, 1, 2, 3]

    def test_cluster_report_out_file(self, tmp_path, capsys):
        code = cli.main(["cluster-report", "--out", str(tmp_path)])
        assert code == 0
        capsys.readouterr()
        assert (tmp_path / "cluster_report.json").exists()

    def test_sweep_runs_each_value(self, capsys, tmp_path):
        code = cli.main(["sweep", "--key", "sigma_e2", "--values", "0,0.05",
                         "--out", str(tmp_path), *SMALL_ARGS])
        assert code == 0
        out = capsys.readouterr().out
        assert "# sigma_e2 = 0" in out and "# sigma_e2 = 0.05" in out
        assert (tmp_path / "sweep_sigma_e2=0" / "results.csv").exists()
        assert (tmp_path / "sweep_sigma_e2=0.05" / "results.csv").exists()

    def test_sweep_rejects_bad_key(self, capsys):
        assert cli.main(["sweep", "--key", "nope", "--values", "1", *SMALL_ARGS]) == 1

    def test_dump_precoders(self, tmp_path, capsys):
        code = cli.main(["run", *SMALL_ARGS, "--out", str(tmp_path),
                         "--dump-precoders"])
        assert code == 0
        payload = json.loads((tmp_path / "precoders.json").read_text())
        assert set(payload) == {"CF-MF", "RS-CF-MF-SP"}
        entry = payload["RS-CF-MF-SP"]
        assert entry["label"] == "MF-SP"
        # M x K private matrix of [re, im] pairs, row-major
        assert len(entry["private"]) == 8 and len(entry["private"][0]) == 4
        assert len(entry["private"][0][0]) == 2
        assert len(entry["common"][0]) >= 1  # one beam per cluster

    def test_verification_failure_exit_code(self, capsys, monkeypatch):
        from rscf import harness
        broken = harness.VerifyReport((harness.CheckResult("x", False, 1.0, 0.0),))
        monkeypatch.setattr(harness, "verify", lambda config: broken)
        assert cli.main(["verify"]) == 2

    def test_runtime_failure_exit_code(self, capsys, monkeypatch):
        from rscf import harness
        def boom(config, out_dir=None):
            raise RuntimeError("realization 3: exhausted redraws")
        monkeypatch.setattr(harness, "run_experiment", boom)
        assert cli.main(["run", *SMALL_ARGS]) == 3
        assert "runtime error" in capsys.readouterr().err


class TestClusterReportMatchesRun:
    """cluster-report prints the partition the run used, not a re-derived one."""

    def report(self, capsys, realization, args):
        assert cli.main(["cluster-report", "--realization", str(realization), *args]) == 0
        return json.loads(capsys.readouterr().out)

    def test_redrawn_realization(self, tmp_path, capsys):
        # default scenario, seed 1: attempt 0 of realization 10 has a
        # rank-deficient sparse zero-forcing Gram matrix and is redrawn once
        overrides = ["n_realizations=11", "n_err=2", "snr_grid_db=0"]
        args = [part for pair in overrides for part in ("--set", pair)]
        assert cli.main(["run", *args, "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        rows = [json.loads(line) for line in
                (tmp_path / "trials.jsonl").read_text().splitlines()]
        row = next(r for r in rows if r["realization"] == 10 and r["scheme"] == "RS-CF-MF-SP")
        assert row["redraws"] == 1

        report = self.report(capsys, 10, args)
        cluster_of = [None] * 4
        for entry in report:
            for user in entry["users"]:
                cluster_of[user] = entry["cluster_index"]
        assert cluster_of == row["cluster_of"]

        dump = harness.dump_precoders(resolve(None, overrides), 10)
        beams = np.abs(np.array(dump["RS-CF-MF-SP"]["common"]) @ [1.0, 1j])
        support = [np.flatnonzero(col > 1e-12 * col.max()).tolist() for col in beams.T]
        assert support == [entry["aps"] for entry in report]

    def test_frozen_geometry_reports_one_partition(self, capsys):
        args = ["--set", "freeze_geometry=true"]
        first = self.report(capsys, 0, args)
        assert [self.report(capsys, r, args) for r in range(1, 5)] == [first] * 4

    @pytest.mark.parametrize("realization, args", [
        (-1, []), (5, ["--set", "n_realizations=5"])], ids=["negative", "past_the_run"])
    def test_realization_outside_the_run_is_a_config_error(self, capsys, realization, args):
        # the run draws realizations 0 .. n_realizations - 1 only
        assert cli.main(["cluster-report", "--realization", str(realization), *args]) == 1
        n = 5 if args else 100
        assert capsys.readouterr().err == (
            f"config error: --realization must lie in [0, n_realizations) = [0, {n}), "
            f"got {realization}\n")

    def test_no_clustered_scheme_is_a_config_error(self, capsys):
        # the run uses no clustered partition, so there is none to report
        assert cli.main(["cluster-report", "--set", "schemes=CF-MF,BS-MF"]) == 1
        assert "clustered" in capsys.readouterr().err

    def test_unclustered_list_fails_before_any_build(self, capsys, monkeypatch):
        builds = []
        monkeypatch.setattr(harness, "_build_private", lambda *args: builds.append(args))
        assert cli.main(["cluster-report", "--set", "schemes=BS-MF,RS-BS-MF,BS-ZF"]) == 1
        assert capsys.readouterr().err == (
            "config error: no scheme in 'schemes' is clustered (-SP or -RD)\n")
        assert builds == []
