import json
import warnings

import numpy as np
import pytest

from subfault.cli import main as cli_main
from subfault.harness import (
    ExperimentConfig,
    _fault_trajectory,
    _montecarlo_instance,
    _tukey_stats,
    demo_system,
    emit_plot_data,
    montecarlo_report_dict,
    representative_error_pct,
    run_example,
    run_montecarlo,
)
from subfault.faultrec import recover
from subfault.matstack import RankPolicy
from subfault.sysgen import (
    colored_noise,
    fault_signal,
    random_system,
    save_system_json,
    simulate,
    white_input,
    write_trajectory_csv,
)

FIG_SV_R5 = [26.5500789412737, 24.5755309469592, 17.464565160419, 16.8178553234019,
             13.3593909879432, 9.80428541092819, 0.642137996198499, 0.424179989481712,
             0.196427980417734, 0.1811099220302]
FIG_SV_R6 = [26.6613566971983, 26.2480832086168, 20.6959018289427, 17.2298675859753,
             13.9731111147254, 13.3147972062507, 9.23786667136778, 0.674689402948074,
             0.473886886786674, 0.271201768646024, 0.184044483183736, 0.157473233749879]


@pytest.fixture(scope="module")
def example_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("example")
    config = ExperimentConfig.example_defaults(out_dir=str(out))
    return run_example(config), out


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(T=10, s=6, dims=(3, 1, 2, 1))
        with pytest.raises(ValueError):
            ExperimentConfig(T=100, s=3, dims=(5, 1, 3, 2))
        with pytest.raises(ValueError):
            ExperimentConfig(rank_policy="bogus")

    def test_from_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"T": 500, "s": 5, "seed": 7, "dims": [3, 1, 2, 1]}))
        cfg = ExperimentConfig.from_json(path, seed=9)
        assert cfg.T == 500 and cfg.seed == 9

    def test_policy_mapping(self):
        assert ExperimentConfig(rank_policy="gap").policy() == RankPolicy.gap()
        assert ExperimentConfig(rank_policy="floor").policy() == RankPolicy.noise_floor()
        with pytest.raises(ValueError):
            ExperimentConfig(rank_policy="rel")


class TestMetrics:
    def test_recovery_error_on_equal_subspaces(self):
        b = np.linalg.qr(np.random.default_rng(0).standard_normal((6, 2)))[0]
        assert representative_error_pct(b, b, 2) < 1e-10

    def test_orthogonal_planes_full_error(self):
        u = np.eye(6)[:, :2]
        v = np.eye(6)[:, 2:4]
        assert abs(representative_error_pct(u, v, 2) - 100.0) < 1e-9

    def test_45_degree_line_half_error(self):
        alpha = np.pi / 4
        u = np.eye(5)[:, [0]]
        v = np.zeros((5, 1))
        v[0, 0], v[1, 0] = np.cos(alpha), np.sin(alpha)
        assert abs(representative_error_pct(u, v, 1) - 50.0) < 1e-9

    def test_missing_directions_penalized(self):
        base = np.eye(6)[:, :2]
        assert representative_error_pct(base, np.eye(6)[:, :1], 2) > 70.0

    def test_representative_error_dimension_penalty(self):
        base = np.eye(6)[:, :2]
        # correct selection of a containing basis is free
        assert representative_error_pct(base, np.eye(6)[:, :3], 2) < 1e-10
        # overshooting the selection costs a right angle
        assert representative_error_pct(base, np.eye(6)[:, :3], 3) > 50.0

    def test_tukey_stats(self):
        vals = np.array([1.0, 2.0, 3.0, 4.0, 100.0])
        st = _tukey_stats(vals)
        assert st["median"] == 3.0
        assert st["outliers"] == [100.0]
        assert st["hi_whisker"] == 4.0


class TestRunExample:
    def test_exact_branch(self, example_report):
        report, _ = example_report
        ex = report["exact_branch"]
        assert ex["n_v"] == 1
        assert ex["n_z"] == 2
        assert (ex["rank_s"], ex["rank_s_plus_1"]) == (7, 8)
        assert ex["projection_residual"] <= 1e-6
        rep = np.array(ex["representative_sparse_g"])
        target = np.array([0.938, 0.328, 0.115, 0.0, 0.0])
        target /= np.linalg.norm(target)
        assert np.linalg.norm(np.abs(rep) - np.abs(target)) <= 1e-6
        assert ex["replay_residual"] <= 1e-8
        assert ex["fault_correlation"] >= 0.99

    def test_identified_branch(self, example_report):
        report, _ = example_report
        idb = report["identified_branch"]
        assert report["identified"]["markov_relative_error"] <= 0.05
        assert idb["n_v"] == 1
        assert idb["grassmann_error_pct"] <= 2.0

    def test_output_files(self, example_report):
        report, out = example_report
        for name in ("example_report.json", "identified_system.json",
                     "singular_values.csv", "fault_basis_exact.csv",
                     "v_reconstructed_exact.csv"):
            assert (out / name).exists()

    def test_composition_matches_stagewise_run(self, example_report):
        # chaining the module operations by hand reproduces the pipeline
        report, _ = example_report

        sys, fault = demo_system()
        x0 = np.random.default_rng([20240, 4]).standard_normal(3)
        u = white_input(1, 1000, seed=[20240, 1])
        v = fault_signal("v1", 1000)
        y, _ = simulate(sys, fault, x0, u, v)
        rec = recover(y, u, sys, s=5, policy=RankPolicy.gap())
        assert rec.n_z == report["exact_branch"]["n_z"]
        assert np.allclose(rec.stack(), np.array(report["exact_branch"]["fault_basis"]))


class TestPlotData:
    def test_singular_values_csv_from_reference_data(self, tmp_path):
        report = {"identified_branch": {
            "compensated_singular_values_s": FIG_SV_R5,
            "compensated_singular_values_s_plus_1": FIG_SV_R6,
            "singular_values_s": FIG_SV_R5,
            "singular_values_s_plus_1": FIG_SV_R6,
        }}
        path = tmp_path / "sv.csv"
        emit_plot_data(report, "singular_values", path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "index,sv_Rs,sv_Rs1"
        assert len(lines) == 13  # 12 data rows
        rs_vals = [float(l.split(",")[1]) for l in lines[1:] if l.split(",")[1]]
        assert len(rs_vals) == 10  # padded empty beyond the shallow spectrum
        assert sum(v > 1.0 for v in rs_vals) == 6
        assert sum(v < 0.7 for v in rs_vals) == 4

    def test_boxplot_csv(self, tmp_path):
        cfg = ExperimentConfig.montecarlo_defaults(
            snr_db=None, zero_counts=(0,), systems_per_count=3
        )
        report = run_montecarlo(cfg)
        path = tmp_path / "box.csv"
        emit_plot_data(report, "boxplot", path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "zeros,median,q1,q3,lo_whisker,hi_whisker,outliers"
        assert len(lines) == 2
        # empty outlier list leaves the trailing field empty without separator
        assert lines[1].split(",")[-1] == ""
        # a zero count with no successful instance keeps its row, all fields empty
        report.per_count[1] = None
        emit_plot_data(report, "boxplot", path)
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        assert lines[2] == "1,,,,,,"

    def test_unknown_kind(self, tmp_path):
        with pytest.raises(ValueError):
            emit_plot_data({}, "spectrogram", tmp_path / "x.csv")


class TestMonteCarlo:
    def test_noise_free_zero_count_is_exact(self):
        cfg = ExperimentConfig.montecarlo_defaults(
            snr_db=None, zero_counts=(0,), systems_per_count=10
        )
        report = run_montecarlo(cfg)
        errs = [r.error_pct for r in report.records if r.failure is None]
        assert len(errs) == 10
        assert max(errs) <= 0.01

    def test_clean_records_agree_for_none_and_infinite_snr(self):
        # both settings mean noise-free data, so they run the same estimator
        def records(snr_db):
            cfg = ExperimentConfig.montecarlo_defaults(
                snr_db=snr_db, zero_counts=(0, 1, 2, 3), systems_per_count=2
            )
            return montecarlo_report_dict(run_montecarlo(cfg))["records"]

        assert records(None) == records(float("inf"))

    def test_deterministic_reports(self):
        cfg = ExperimentConfig.montecarlo_defaults(zero_counts=(0, 1), systems_per_count=3)
        a = json.dumps(montecarlo_report_dict(run_montecarlo(cfg)), sort_keys=True)
        b = json.dumps(montecarlo_report_dict(run_montecarlo(cfg)), sort_keys=True)
        assert a == b

    def test_records_carry_diagnostics(self):
        cfg = ExperimentConfig.montecarlo_defaults(zero_counts=(1,), systems_per_count=3)
        report = run_montecarlo(cfg)
        assert len(report.records) == 3
        for r in report.records:
            assert r.failure is not None or (
                r.markov_rel_error is not None and r.n_v_estimate is not None
            )


    def test_excess_basis_flag_without_warning(self):
        # on the default seed with one zero, only instance 1 reads a basis
        # wider than n_v + zeta_eff; the record flag is the one report of it
        cfg = ExperimentConfig.montecarlo_defaults(zero_counts=(1,), systems_per_count=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            records = [_montecarlo_instance(cfg, index, 1) for index in range(3)]
        assert [r.failure for r in records] == [None, None, None]
        assert [r.excess_basis for r in records] == [False, True, False]


class TestCli:
    def _write_demo_data(self, tmp_path):
        sys, fault = demo_system()
        u = white_input(1, 400, seed=[1, 1])
        v = fault_signal("v1", 400)
        y, _ = simulate(sys, fault, np.zeros(3), u, v)
        save_system_json(tmp_path / "sys.json", sys, fault)
        write_trajectory_csv(tmp_path / "u.csv", u)
        write_trajectory_csv(tmp_path / "v.csv", v)
        write_trajectory_csv(tmp_path / "y.csv", y)
        return sys, fault

    def test_simulate_roundtrip(self, tmp_path):
        self._write_demo_data(tmp_path)
        code = cli_main([
            "--out", str(tmp_path / "sim"),
            "simulate",
            "--system", str(tmp_path / "sys.json"),
            "--u", str(tmp_path / "u.csv"),
            "--v", str(tmp_path / "v.csv"),
        ])
        assert code == 0
        assert (tmp_path / "sim" / "y.csv").exists()
        from subfault.sysgen import read_trajectory_csv

        y_direct = read_trajectory_csv(tmp_path / "y.csv")
        y_cli = read_trajectory_csv(tmp_path / "sim" / "y.csv")
        assert np.allclose(y_direct, y_cli)

    def test_identify_and_fault_recover(self, tmp_path):
        self._write_demo_data(tmp_path)
        code = cli_main([
            "--out", str(tmp_path / "ident"),
            "identify",
            "--u", str(tmp_path / "u.csv"),
            "--y", str(tmp_path / "y.csv"),
            "--order", "3",
        ])
        assert code == 0
        ident = json.loads((tmp_path / "ident" / "identified.json").read_text())
        assert ident["chosen_order"] == 3
        code = cli_main([
            "--out", str(tmp_path / "rec"),
            "fault-recover",
            "--u", str(tmp_path / "u.csv"),
            "--y", str(tmp_path / "y.csv"),
            "--system", str(tmp_path / "ident" / "identified_system.json"),
            "--window", "5",
            "--policy", "sparse-G",
        ])
        assert code == 0
        rec = json.loads((tmp_path / "rec" / "fault_recovery.json").read_text())
        assert rec["n_v"] == 1
        assert rec["excess_basis"] is False
        assert (tmp_path / "rec" / "v_reconstructed.csv").exists()

    def test_fault_recover_rank_policy_flag(self, tmp_path, monkeypatch):
        seen = []

        def spy(*args, **kwargs):
            seen.append(kwargs["policy"])
            return recover(*args, **kwargs)

        monkeypatch.setattr("subfault.cli.recover", spy)
        self._write_demo_data(tmp_path)

        def run(name):
            return cli_main([
                "--out", str(tmp_path / name),
                "fault-recover",
                "--u", str(tmp_path / "u.csv"),
                "--y", str(tmp_path / "y.csv"),
                "--system", str(tmp_path / "sys.json"),
                "--window", "5",
                "--rank-policy", name,
            ])

        for name in ("gap", "floor"):
            assert run(name) == 0
            assert seen[-1] == ExperimentConfig(rank_policy=name).policy()
        with pytest.raises(SystemExit) as exc:
            run("rel")
        assert exc.value.code == 2

    def test_missing_file_is_input_error(self, tmp_path):
        code = cli_main([
            "identify", "--u", str(tmp_path / "none.csv"), "--y", str(tmp_path / "none.csv"),
        ])
        assert code == 2

    def test_undefined_snr_is_input_error(self, tmp_path):
        # json writes -Infinity and NaN, and reads them back as floats
        for snr_db in (float("-inf"), float("nan")):
            cfg = {"T": 200, "s": 6, "dims": [5, 1, 3, 2], "zero_counts": [0],
                   "systems_per_count": 1, "snr_db": snr_db}
            (tmp_path / "cfg.json").write_text(json.dumps(cfg))
            code = cli_main([
                "--config", str(tmp_path / "cfg.json"),
                "--out", str(tmp_path / "mc"),
                "montecarlo",
            ])
            assert code == 2

    @pytest.mark.parametrize("key", ["rank_tol", "min_gap_ratio", "floor_scale", "ident_window"])
    def test_removed_config_key_is_input_error(self, tmp_path, key):
        (tmp_path / "cfg.json").write_text(json.dumps({"T": 200, key: 1}))
        code = cli_main([
            "--config", str(tmp_path / "cfg.json"),
            "--out", str(tmp_path / "ex"),
            "example",
        ])
        assert code == 2
        assert not (tmp_path / "ex" / "example_report.json").exists()

    def test_numerical_failure_exit_code(self, tmp_path):
        sys, fault = demo_system()
        t = 80
        u = np.zeros((t, 1))
        y, _ = simulate(sys, None, np.zeros(3), u)
        write_trajectory_csv(tmp_path / "u0.csv", u)
        write_trajectory_csv(tmp_path / "y0.csv", y)
        code = cli_main([
            "--out", str(tmp_path),
            "identify", "--u", str(tmp_path / "u0.csv"), "--y", str(tmp_path / "y0.csv"),
            "--window", "5",
        ])
        assert code == 3

    def test_rank_inconsistency_is_numerical_failure(self, tmp_path):
        # the default Monte-Carlo study's instance 15 (seed 20240 ^ 15, one
        # zero, 40 dB): the floor policy reads n_v = 2 while the annihilator
        # keeps a one-column basis
        seed = 20255
        sys, fault = random_system(5, 1, 3, 2, 1, seed=seed)
        x0 = np.random.default_rng([seed, 4]).standard_normal(5)
        u = white_input(1, 1000, seed=[seed, 1])
        y, _ = simulate(sys, fault, x0, u, _fault_trajectory(2, 1000, seed))
        w = colored_noise(3, 1000, 40.0, y, seed=[seed, 3])
        save_system_json(tmp_path / "sys.json", sys)
        write_trajectory_csv(tmp_path / "u.csv", u)
        write_trajectory_csv(tmp_path / "y.csv", y + w)
        code = cli_main([
            "--out", str(tmp_path / "rec"),
            "fault-recover",
            "--u", str(tmp_path / "u.csv"),
            "--y", str(tmp_path / "y.csv"),
            "--system", str(tmp_path / "sys.json"),
            "--window", "6",
            "--rank-policy", "floor",
            "--method", "annihilator",
        ])
        assert code == 3

    def test_example_subcommand(self, tmp_path):
        cfg = {"T": 400, "s": 5, "seed": 11, "dims": [3, 1, 2, 1]}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        code = cli_main([
            "--config", str(tmp_path / "cfg.json"),
            "--out", str(tmp_path / "ex"),
            "example",
        ])
        assert code == 0
        assert (tmp_path / "ex" / "example_report.json").exists()

    def test_montecarlo_subcommand(self, tmp_path):
        cfg = {"T": 600, "s": 6, "seed": 3, "dims": [5, 1, 3, 2],
               "zero_counts": [0], "systems_per_count": 2, "rank_policy": "floor"}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        code = cli_main([
            "--config", str(tmp_path / "cfg.json"),
            "--out", str(tmp_path / "mc"),
            "montecarlo",
        ])
        assert code == 0
        assert (tmp_path / "mc" / "montecarlo_report.json").exists()
        assert (tmp_path / "mc" / "montecarlo_boxplot.csv").exists()
