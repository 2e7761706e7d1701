import json
import multiprocessing
import os
import shlex
import shutil
import signal
import subprocess
import sys
import tracemalloc
import warnings
from concurrent.futures import BrokenExecutor
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from subfault.cli import _build_parser, main as cli_main
from subfault.harness import (
    ExperimentConfig,
    _compensated_spectra,
    _fault_trajectory,
    _montecarlo_instance,
    _simulate_record,
    _tukey_stats,
    demo_system,
    emit_plot_data,
    montecarlo_report_dict,
    representative_error_pct,
    run_example,
    run_montecarlo,
)
from subfault import faultrec, harness, matstack
from subfault.faultrec import reconstruct_fault, recover, residual_hankel
from subfault.matstack import RankPolicy
from subfault.sysgen import (
    StateSpace,
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


def _pool_of_two(monkeypatch):
    """Make _study_workers pick two workers: two CPUs, BLAS pinned to one."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")


def _unpinned(monkeypatch):
    """Make _study_workers pick one worker: BLAS threads left at one per CPU."""
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)


@contextmanager
def _deadline(seconds):
    """Fail the test instead of hanging when the block outlives the deadline."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _instance_that_kills_its_worker(config, index, zero_count):
    # module level, so that the pool can send it to a worker by name
    if index == 1:
        os._exit(1)
    return _montecarlo_instance(config, index, zero_count)


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

    def test_identified_last_sample_is_barely_determined(self, monkeypatch):
        # the smoother's v-block diagonal says how firmly the data pin each
        # v(k): on the identified branch the last sample is pinned more than
        # 1e4 times more weakly than the one before, which is why v(T-1)
        # comes out wild (about 1190 against a truth near 1)
        from subfault import harness

        recons = []

        def keep(*args):
            recons.append(reconstruct_fault(*args))
            return recons[-1]

        monkeypatch.setattr(harness, "reconstruct_fault", keep)
        report = run_example(ExperimentConfig.example_defaults())
        exact, identified = recons
        info = identified.v_information[:, 0]
        assert info.shape == (1000,)
        assert info[-1] * 1e4 < info[-2]
        assert np.argmax(np.abs(identified.v[:, 0])) == 999
        assert abs(identified.v[-1, 0]) > 100
        for recon in recons:
            assert recon.per_step_samples < 1000
        text = json.dumps(report)
        assert "v_information" not in text and "per_step_samples" not in text

    def test_refuses_dims_other_than_the_demo_system(self, tmp_path, capsys):
        # the example always runs the (3, 1, 2, 1) demo system; example_defaults
        # refuses other dims itself, so a config built without it is run here
        config = ExperimentConfig(s=5, dims=(4, 1, 3, 2), out_dir=str(tmp_path))
        with pytest.raises(ValueError, match="demo system"):
            run_example(config)
        assert not list(tmp_path.iterdir())
        # {"T": 400, "dims": [5, 1, 3, 2]} also breaks the window rule s > n_x,
        # which must not be the message: the demo's dims are refused first
        for cfg in ({"dims": [4, 1, 3, 2]}, {"T": 400, "dims": [5, 1, 3, 2]}):
            with pytest.raises(ValueError, match="demo system"):
                ExperimentConfig.example_defaults(**cfg)
            (tmp_path / "cfg.json").write_text(json.dumps(cfg))
            code = cli_main(["--config", str(tmp_path / "cfg.json"),
                             "--out", str(tmp_path / "ex"), "example"])
            assert code == 2
            err = capsys.readouterr().err
            assert "demo system, dims [3, 1, 2, 1]" in err and "s > n_x" not in err
            assert not (tmp_path / "ex" / "example_report.json").exists()

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

    @pytest.mark.parametrize("t", [1000, 5000])
    def test_compensated_spectra_match_full_hankel(self, example_report, t):
        # both branches' compensated spectra, read from the residual factors
        # (one chunk at T=1000, three at T=5000), against the SVD of the full
        # compensated Hankel
        config = ExperimentConfig.example_defaults(T=t)
        report = example_report[0] if t == 1000 else run_example(config)
        sys, fault = demo_system()
        u, y = _simulate_record(sys, fault, fault_signal("v1", t), config, config.seed)
        ident = report["identified"]
        models = {
            "exact_branch": (sys, np.zeros(sys.n_x)),
            "identified_branch": (
                StateSpace(*(ident[k] for k in "ABCD")), np.array(ident["x_tilde_0"])
            ),
        }
        for label, (model, x0) in models.items():
            for depth, key in ((5, "compensated_singular_values_s"),
                               (6, "compensated_singular_values_s_plus_1")):
                full = residual_hankel(y, u, model, depth, x_tilde_0=x0)
                want = np.linalg.svd(full, compute_uv=False)
                got = np.array(report[label][key])
                assert got.shape == want.shape
                assert np.abs(got - want).max() <= 1e-12 * want[0], (label, key)

    def test_compensated_spectra_memory_independent_of_record_length(self, demo):
        # at T = 1e5 the two compensated Hankels alone are 8 MB and 9.6 MB;
        # only their chunks and the record less its nominal response are held
        sys, fault = demo
        t = 100_000
        u = white_input(1, t, seed=[1, 1])
        y, _ = simulate(sys, fault, np.zeros(3), u, fault_signal("v1", t))
        free = StateSpace(sys.A, np.zeros_like(sys.B), sys.C, np.zeros_like(sys.D))
        tracemalloc.start()
        try:
            record = y - simulate(sys, None, np.zeros(3), u)[0]
            sv_s, sv_s1 = _compensated_spectra(record, u, free, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (len(sv_s), len(sv_s1)) == (10, 12)
        assert peak < 16 * 2**20

    def test_example_forms_no_full_hankel(self, monkeypatch):
        calls = []
        for module in (faultrec, harness, matstack):
            for name in ("residual_hankel", "block_hankel"):
                if hasattr(module, name):
                    original = getattr(module, name)

                    def wrapper(*args, _original=original, _name=name, **kwargs):
                        calls.append(_name)
                        return _original(*args, **kwargs)

                    monkeypatch.setattr(module, name, wrapper)
        run_example(ExperimentConfig.example_defaults())
        assert calls == []


    def test_simulates_each_nominal_response_once(self, monkeypatch):
        # the record, then per branch the compensated spectra's nominal
        # response and the replay; the exact branch also simulates from its
        # estimated initial state, while the identified branch reuses the
        # record it compensated for its spectra
        calls = []
        for module in (faultrec, harness):
            original = module.simulate

            def counting(*args, _original=original, **kwargs):
                calls.append(args[0])
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, "simulate", counting)
        run_example(ExperimentConfig.example_defaults())
        assert len(calls) == 6

    def test_identified_branch_matches_public_reconstruction(self, monkeypatch):
        # the compensated-once path gives the bytes of simulating the
        # identified model's nominal response separately for each use
        kept, idents = [], []

        def keep(*args):
            kept.append((args, reconstruct_fault(*args)))
            return kept[-1][1]

        def identify(*args, **kwargs):
            idents.append(original_identify(*args, **kwargs))
            return idents[-1]

        original_identify = harness.pi_moesp
        monkeypatch.setattr(harness, "reconstruct_fault", keep)
        monkeypatch.setattr(harness, "pi_moesp", identify)
        config = ExperimentConfig.example_defaults()
        report = run_example(config)
        sys, fault = demo_system()
        u, y = _simulate_record(sys, fault, fault_signal("v1", config.T), config, config.seed)
        model, x0 = idents[0].system, idents[0].x_tilde_0
        rep = kept[1][0][3]
        want = reconstruct_fault(y, u, model, rep, x0)
        got = kept[1][1]
        assert np.array_equal(got.v, want.v) and np.array_equal(got.xi0, want.xi0)
        assert got.replay_residual == want.replay_residual
        free = StateSpace(model.A, np.zeros_like(model.B), model.C, np.zeros_like(model.D))
        record = y - simulate(model, None, x0, u)[0]
        sv_s, sv_s1 = _compensated_spectra(record, u, free, config.s)
        branch = report["identified_branch"]
        assert branch["compensated_singular_values_s"] == sv_s
        assert branch["compensated_singular_values_s_plus_1"] == sv_s1

    def test_pipeline_takes_no_triangular_factor_from_numpy(self, monkeypatch):
        # every triangular factor comes from matstack's LAPACK kernel;
        # sysgen's orthogonal draw, which needs Q, may still use numpy
        modes = []
        original = np.linalg.qr

        def guard(a, mode="reduced"):
            modes.append(mode)
            return original(a, mode=mode)

        monkeypatch.setattr(np.linalg, "qr", guard)
        _unpinned(monkeypatch)
        assert harness._study_workers(4) == 1  # the study runs in this process
        run_example(ExperimentConfig.example_defaults())
        run_montecarlo(ExperimentConfig.montecarlo_defaults(systems_per_count=1))
        assert modes and "r" not in modes

    def test_study_workers_take_no_triangular_factor_from_numpy(self, monkeypatch):
        # the pool's workers are forked, so they inherit the guard; a call
        # there fails its instance, and the failure names the guard
        original = np.linalg.qr

        def guard(a, mode="reduced"):
            if mode == "r":
                raise AssertionError("numpy QR factor taken in a study worker")
            return original(a, mode=mode)

        monkeypatch.setattr(np.linalg, "qr", guard)
        _pool_of_two(monkeypatch)
        assert harness._study_workers(4) == 2
        report = run_montecarlo(ExperimentConfig.montecarlo_defaults(systems_per_count=1))
        assert len(report.records) == 4
        assert not any("numpy QR factor" in (r.failure or "") for r in report.records)
        assert multiprocessing.active_children() == []


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


    def test_scoring_failure_keeps_only_the_identification_fields(self, monkeypatch):
        # recovery succeeded, scoring raised: the record keeps what
        # identification filled and none of the recovery readout
        def fail(*args):
            raise FloatingPointError("scoring failed")

        monkeypatch.setattr(harness, "representative_error_pct", fail)
        cfg = ExperimentConfig.montecarlo_defaults(zero_counts=(0,), systems_per_count=1)
        record = _montecarlo_instance(cfg, 0, 0)
        assert record.failure == "[stage fault-recover] scoring failed"
        assert record.markov_rel_error is not None
        assert (record.error_pct, record.n_v_estimate, record.n_z) == (None, None, None)
        assert (record.n_v_correct, record.excess_basis) == (False, False)

    def test_excess_basis_flag_without_warning(self):
        # on the default seed with one zero, only instance 1 reads a basis
        # wider than n_v + zeta_eff; the record flag is the one report of it
        cfg = ExperimentConfig.montecarlo_defaults(zero_counts=(1,), systems_per_count=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            records = [_montecarlo_instance(cfg, index, 1) for index in range(3)]
        assert [r.failure for r in records] == [None, None, None]
        assert [r.excess_basis for r in records] == [False, True, False]


class TestStudyWorkers:
    @pytest.fixture(autouse=True)
    def set_cpus(self, monkeypatch):
        """Set the affinity the rule reads (two CPUs first); no process starts."""
        _unpinned(monkeypatch)

        def set_cpus(count):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))

        set_cpus(2)
        return set_cpus

    def test_unpinned_blas_gets_one_worker(self):
        assert harness._study_workers(40) == 1

    @pytest.mark.parametrize("cpus, n, workers", [(2, 40, 2), (64, 40, 40), (64, 4, 4)])
    def test_pinned_blas_gets_a_worker_per_cpu_up_to_the_instances(
        self, set_cpus, monkeypatch, cpus, n, workers
    ):
        set_cpus(cpus)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        assert harness._study_workers(n) == workers

    def test_openblas_variable_wins_over_omp(self, monkeypatch):
        monkeypatch.setenv("OMP_NUM_THREADS", "1")
        assert harness._study_workers(40) == 2
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        assert harness._study_workers(40) == 1

    @pytest.mark.parametrize("value", ["", "x", "1.5", "0", "-1"])
    def test_unparsable_thread_count_gets_one_worker(self, monkeypatch, value):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", value)
        assert harness._study_workers(40) == 1

    def test_one_cpu_or_one_instance_gets_one_worker(self, set_cpus, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        assert harness._study_workers(1) == 1
        set_cpus(1)
        assert harness._study_workers(40) == 1


class TestStudyPool:
    # default dims at -10 dB: instances 1, 2 and 3 fail, instance 0 succeeds
    FAILING = {"T": 300, "s": 6, "seed": 4, "dims": [5, 1, 3, 2], "zero_counts": [0, 1, 2, 3],
               "systems_per_count": 1, "snr_db": -10, "rank_policy": "gap"}

    def test_pool_and_loop_record_the_same_instances(self, monkeypatch):
        config = ExperimentConfig(**self.FAILING)
        _unpinned(monkeypatch)
        serial = montecarlo_report_dict(run_montecarlo(config))
        _pool_of_two(monkeypatch)
        pooled = montecarlo_report_dict(run_montecarlo(config))
        assert pooled == serial
        assert [r["index"] for r in pooled["records"]] == [0, 1, 2, 3]
        assert sum(r["failure"] is not None for r in pooled["records"]) == 3
        assert multiprocessing.active_children() == []

    def test_cli_writes_the_same_bytes_pinned_and_unpinned(self, tmp_path):
        # pinned, the study runs on a pool of two; unpinned, in one process
        (tmp_path / "cfg.json").write_text(json.dumps(self.FAILING))
        out = tmp_path / "mc"
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        env["PYTHONPATH"] = str(Path(harness.__file__).resolve().parents[1])
        two_cpus = sorted(os.sched_getaffinity(0))[:2]
        runs = []
        for pinned in ({"OPENBLAS_NUM_THREADS": "1"}, {}):
            proc = subprocess.run(
                [sys.executable, "-m", "subfault.cli", "--config", str(tmp_path / "cfg.json"),
                 "--out", str(out), "montecarlo"],
                env={**env, **pinned}, capture_output=True, text=True, timeout=120,
                preexec_fn=lambda: os.sched_setaffinity(0, two_cpus),
            )
            assert proc.returncode == 0, proc.stderr
            files = {name: (out / name).read_bytes()
                     for name in ("montecarlo_report.json", "montecarlo_boxplot.csv")}
            failures = [line for line in proc.stderr.splitlines() if line.startswith("instance ")]
            runs.append((files, failures))
            shutil.rmtree(out)
        assert runs[0] == runs[1]
        assert len(runs[0][1]) == 3

    def test_dead_worker_raises_and_leaves_no_process(self, monkeypatch, tmp_path, capsys):
        _pool_of_two(monkeypatch)
        monkeypatch.setattr(harness, "_montecarlo_instance", _instance_that_kills_its_worker)
        config = ExperimentConfig.montecarlo_defaults(
            T=200, systems_per_count=1, out_dir=str(tmp_path / "lib")
        )
        with _deadline(60), pytest.raises(BrokenExecutor):
            run_montecarlo(config)
        assert multiprocessing.active_children() == []
        assert not (tmp_path / "lib").exists()
        (tmp_path / "cfg.json").write_text(json.dumps({"T": 200, "systems_per_count": 1}))
        with _deadline(60):
            code = cli_main(["--config", str(tmp_path / "cfg.json"),
                             "--out", str(tmp_path / "cli"), "montecarlo"])
        assert code == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("worker failure: ")
        assert multiprocessing.active_children() == []
        assert not (tmp_path / "cli" / "montecarlo_report.json").exists()


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

    def test_file_chain_reproduces_both_example_branches(self, tmp_path, example_report):
        # identify -> fault-recover on the example's own record runs the
        # example's stages: the identified branch through identify's system
        # file, which carries x~0, and the exact branch through a system file
        # without it, whose initial state is estimated as the example does
        report, _ = example_report
        config = ExperimentConfig.example_defaults()
        sys, fault = demo_system()
        u, y = _simulate_record(sys, fault, fault_signal("v1", config.T), config, config.seed)
        write_trajectory_csv(tmp_path / "u.csv", u)
        write_trajectory_csv(tmp_path / "y.csv", y)
        save_system_json(tmp_path / "demo.json", sys, fault)
        record = ["--u", str(tmp_path / "u.csv"), "--y", str(tmp_path / "y.csv")]
        assert cli_main(["--out", str(tmp_path / "id"), "identify", *record, "--order", "3"]) == 0
        ident = json.loads((tmp_path / "id" / "identified.json").read_text())
        system = json.loads((tmp_path / "id" / "identified_system.json").read_text())
        for key in ("A", "B", "C", "D", "x_tilde_0", "chosen_order", "order_singular_values"):
            assert ident[key] == report["identified"][key], key
        for key in ("A", "B", "C", "D", "x_tilde_0"):
            assert system[key] == report["identified"][key], key
        for name, system_path, branch in (
            ("identified", tmp_path / "id" / "identified_system.json", "identified_branch"),
            ("exact", tmp_path / "demo.json", "exact_branch"),
        ):
            assert cli_main(["--out", str(tmp_path / name), "fault-recover", *record,
                             "--system", str(system_path), "--window", "5",
                             "--policy", "sparse-G"]) == 0
            rec = json.loads((tmp_path / name / "fault_recovery.json").read_text())
            want = report[branch]
            assert rec["F_hat"] + rec["G_hat"] == want["fault_basis"], name
            assert [*rec["representative_F"], *rec["representative_G"]] == [
                [x] for x in want["representative_sparse_g"]
            ], name
            for key in ("n_v", "n_z", "rank_s", "rank_s_plus_1", "singular_values_s",
                        "singular_values_s_plus_1", "compensated_singular_values_s",
                        "compensated_singular_values_s_plus_1", "replay_residual"):
                assert rec[key] == want[key], (name, key)

    @pytest.mark.parametrize("window, x_tilde_0, message", [
        ("2", None, "window s=2 below the state dimension"),
        ("5", [1.0, 2.0], "x_tilde_0 must have 3 entries"),
        ("5", [1.0, 2.0, float("nan")], "x_tilde_0 contains non-finite"),
    ])
    def test_fault_recover_input_errors(self, tmp_path, capsys, window, x_tilde_0, message):
        self._write_demo_data(tmp_path)
        if x_tilde_0 is not None:
            system = json.loads((tmp_path / "sys.json").read_text())
            (tmp_path / "sys.json").write_text(json.dumps({**system, "x_tilde_0": x_tilde_0}))
        code = cli_main(["--out", str(tmp_path / "rec"), "fault-recover",
                         "--u", str(tmp_path / "u.csv"), "--y", str(tmp_path / "y.csv"),
                         "--system", str(tmp_path / "sys.json"), "--window", window])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "rec" / "fault_recovery.json").exists()

    def test_readme_command_lines_parse(self):
        # every subfault line of README's Command line block, continuation
        # lines joined, is a command the parser takes
        text = (Path(harness.__file__).resolve().parents[2] / "README.md").read_text()
        block = text.split("## Command line", 1)[1].split("```", 2)[1]
        lines = block.replace("\\\n", " ").splitlines()
        commands = [shlex.split(line, comments=True) for line in lines]
        commands = [c for c in commands if c and c[0] == "subfault"]
        assert len(commands) == 6
        parser = _build_parser()
        for command in commands:
            parser.parse_args(command[1:])

    def test_config_file_lies_over_the_subcommand_defaults(self, tmp_path):
        # missing keys take the study's defaults, not the example's, and the
        # flags override the file
        cfg = {"T": 600, "systems_per_count": 1, "seed": 1, "out_dir": "elsewhere"}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        code = cli_main(["--config", str(tmp_path / "cfg.json"), "--seed", "5",
                         "--out", str(tmp_path / "mc"), "montecarlo"])
        assert code == 0
        report = json.loads((tmp_path / "mc" / "montecarlo_report.json").read_text())
        want = ExperimentConfig.montecarlo_defaults(
            T=600, systems_per_count=1, seed=5, out_dir=str(tmp_path / "mc")
        )
        assert report["config"] == json.loads(json.dumps(want.echo()))
        assert all(r["failure"] is None for r in report["records"])
        assert not (tmp_path / "elsewhere").exists()

    @pytest.mark.parametrize("command", ["example", "montecarlo"])
    @pytest.mark.parametrize("field, value", [("out_dir", 5), ("rank_policy", ["gap"])])
    def test_config_field_of_wrong_type_is_named(self, tmp_path, monkeypatch, capsys,
                                                 command, field, value):
        # refused when the config is built: no stage runs, no report is
        # written, and the message names the field
        runs = []
        for name in ("run_example", "run_montecarlo"):
            monkeypatch.setattr(f"subfault.cli.{name}", lambda *args: runs.append(args))
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps({field: value}))
        assert cli_main(["--config", "cfg.json", command]) == 2
        assert runs == []
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"input error: {field} must be")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    def test_identify_writes_the_order_verdict(self, tmp_path):
        # the demo record's spectrum confirms order 3, not a given order 2
        self._write_demo_data(tmp_path)
        code = cli_main([
            "--out", str(tmp_path / "ident"),
            "identify",
            "--u", str(tmp_path / "u.csv"),
            "--y", str(tmp_path / "y.csv"),
            "--order", "2",
        ])
        assert code == 0
        ident = json.loads((tmp_path / "ident" / "identified.json").read_text())
        assert ident["chosen_order"] == 2
        assert ident["order_confident"] is False

    def test_fault_recover_rank_policy_flag(self, tmp_path, monkeypatch):
        seen = []

        def spy(*args, **kwargs):
            seen.append(kwargs["policy"])
            return recover(*args, **kwargs)

        # fault-recover runs recover inside the harness's shared stages
        monkeypatch.setattr("subfault.harness.recover", spy)
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

    @pytest.mark.parametrize("command", [
        ["simulate", "--system", "s.json", "--u", "u.csv"],
        ["identify", "--u", "u.csv", "--y", "y.csv"],
        ["fault-recover", "--u", "u.csv", "--y", "y.csv", "--system", "s.json", "--window", "5"],
    ])
    @pytest.mark.parametrize("flag", [["--seed", "3"], ["--config", "nonexist.json"]])
    def test_global_flag_nothing_reads_is_input_error(self, tmp_path, capsys, command, flag):
        # refused before any file is opened: the message names the flag,
        # not the missing input files
        code = cli_main(flag + ["--out", str(tmp_path / "out")] + command)
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"input error: {command[0]} does not read {flag[0]}"]
        assert not (tmp_path / "out").exists()

    def test_import_loads_neither_the_pool_nor_scipy_signal(self):
        # the pool's modules load only when a study forks, and scipy.signal
        # (0.7-1.0 s) not at all: start-up cost is what every run pays
        lazy = ("multiprocessing", "concurrent.futures.process", "scipy.signal")
        code = f"import sys, subfault.cli; print([m for m in {lazy!r} if m in sys.modules])"
        env = {**os.environ, "PYTHONPATH": str(Path(harness.__file__).resolve().parents[1])}
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

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

    def test_record_shorter_than_identification_window_is_input_error(self, tmp_path):
        # the example identifies at order 3, window s_id = 8, so T = 14 < 2 s_id
        (tmp_path / "cfg.json").write_text(json.dumps({"T": 14, "s": 5}))
        code = cli_main([
            "--config", str(tmp_path / "cfg.json"),
            "--out", str(tmp_path / "ex"),
            "example",
        ])
        assert code == 2
        assert not (tmp_path / "ex" / "example_report.json").exists()

    def test_record_too_short_to_excite_identification_is_input_error(self, tmp_path):
        # s_id = 12 for n_x = 5: T = 30 gives the input Hankel 7 columns for
        # its 24 rows, so no instance could pass the excitation check
        cfg = {"T": 30, "s": 6, "dims": [5, 1, 3, 2], "zero_counts": [0],
               "systems_per_count": 1}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        code = cli_main([
            "--config", str(tmp_path / "cfg.json"),
            "--out", str(tmp_path / "mc"),
            "montecarlo",
        ])
        assert code == 2
        assert not (tmp_path / "mc" / "montecarlo_report.json").exists()

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

    @pytest.mark.parametrize("command, cfg", [
        ("example", [{"T": 300}]),  # a list, not an object
        ("example", {"T": 300.5}),
        ("example", {"s": 5.5}),
        ("example", {"seed": 1.5}),
        ("example", {"T": True}),
        ("montecarlo", {"systems_per_count": 1.5}),
        ("montecarlo", {"dims": [5.7, 1, 3, 2], "s": 6, "systems_per_count": 1}),
        ("montecarlo", {"zero_counts": [0, 1.5], "systems_per_count": 1}),
        ("montecarlo", {"snr_db": "40", "systems_per_count": 1}),
        ("montecarlo", {"snr_db": True, "systems_per_count": 1}),
    ])
    def test_config_value_of_wrong_type_is_input_error(self, tmp_path, command, cfg):
        # checked before any stage runs, never truncated or echoed
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        code = cli_main([
            "--config", str(tmp_path / "cfg.json"),
            "--out", str(tmp_path / "out"),
            command,
        ])
        assert code == 2
        assert not list((tmp_path / "out").glob("*.json"))

    @pytest.mark.parametrize("dims", [[3, 1, 1, 1], [3, 1, 2]])
    def test_study_dims_no_instance_can_run_is_input_error(self, tmp_path, dims):
        # n_y <= n_v, or no n_v at all: every instance would fail
        (tmp_path / "cfg.json").write_text(json.dumps({"dims": dims}))
        code = cli_main([
            "--config", str(tmp_path / "cfg.json"),
            "--out", str(tmp_path / "mc"),
            "montecarlo",
        ])
        assert code == 2
        assert not (tmp_path / "mc" / "montecarlo_report.json").exists()

    @pytest.mark.parametrize("zero_counts", [[6], [0, -1]])
    def test_zero_count_outside_state_dimension_is_input_error(self, tmp_path, zero_counts):
        # random_system places at most n_x = 5 zeros (the study's dims)
        (tmp_path / "cfg.json").write_text(json.dumps({"zero_counts": zero_counts}))
        code = cli_main([
            "--config", str(tmp_path / "cfg.json"),
            "--out", str(tmp_path / "mc"),
            "montecarlo",
        ])
        assert code == 2
        assert not (tmp_path / "mc" / "montecarlo_report.json").exists()

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

    @pytest.mark.parametrize("seed", [2, 3])
    def test_all_failed_study_writes_strict_json(self, tmp_path, seed):
        # at -40 dB every instance of this one-system study fails; the
        # report must still be JSON that a strict parser accepts
        cfg = {"T": 200, "s": 6, "dims": [5, 1, 3, 2], "zero_counts": [0],
               "systems_per_count": 1, "snr_db": -40, "rank_policy": "gap"}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        code = cli_main([
            "--config", str(tmp_path / "cfg.json"),
            "--out", str(tmp_path / "mc"),
            "--seed", str(seed),
            "montecarlo",
        ])
        assert code == 0

        def reject(token):
            raise ValueError(f"non-JSON constant {token}")

        text = (tmp_path / "mc" / "montecarlo_report.json").read_text()
        report = json.loads(text, parse_constant=reject)
        assert all(r["failure"] is not None for r in report["records"])
        assert report["overall_median_pct"] is None

    def test_infinite_snr_is_echoed_as_clean(self, tmp_path):
        # +inf and None both mean noise-free data; the echo must stay JSON
        report = run_montecarlo(ExperimentConfig.montecarlo_defaults(
            snr_db=float("inf"), zero_counts=(0,), systems_per_count=1, out_dir=str(tmp_path)
        ))
        assert report.config["snr_db"] is None
        json.loads((tmp_path / "montecarlo_report.json").read_text(),
                   parse_constant=lambda token: pytest.fail(token))
