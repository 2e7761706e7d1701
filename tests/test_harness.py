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
    projection_residual,
    representative_error_pct,
    run_example,
    run_montecarlo,
)
from subfault import faultrec, harness, matstack
from subfault.faultrec import reconstruct_fault, recover, residual_hankel
from subfault.matstack import RankPolicy
from subfault.subid import pi_moesp
from subfault.sysgen import (
    StateSpace,
    colored_noise,
    fault_signal,
    random_system,
    read_trajectory_csv,
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


def _refusal(call):
    """The message of the ValueError that ``call()`` raises, or None."""
    try:
        call()
    except ValueError as exc:
        return str(exc)
    return None


def _demo_record(t: int, fault: bool = True):
    sys, pair = demo_system()
    u = white_input(1, t, seed=[1, 1])
    v = fault_signal("v1", t) if fault else None
    y, _ = simulate(sys, pair if fault else None, np.zeros(3), u, v)
    return sys, u, y


def _demo_recover(s: int, method: str):
    sys, u, y = _demo_record(1000)
    return recover(y, u, sys, s=s, method=method)


def _demo_fault_dim(t: int, s: int):
    # fault free, so that R_(s+1) cannot reach full column rank at T = 2s + 1
    sys, u, y = _demo_record(t, fault=False)
    return faultrec.estimate_fault_dim(y, u, sys, s)


def _demo_identify(t: int):
    sys, u, y = _demo_record(t)
    return pi_moesp(u, y, order=sys.n_x)


def _noise(snr_db):
    return colored_noise(3, 20, snr_db, np.ones((20, 3)), seed=0)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(T=10, s=6, dims=(3, 1, 2, 1))
        with pytest.raises(ValueError):
            ExperimentConfig(T=100, s=3, dims=(5, 1, 3, 2))
        with pytest.raises(ValueError):
            ExperimentConfig(rank_policy="bogus")

    # each input rule is stated once, in its stage; the config reads that
    # statement at its own numbers, so at every point of a rule's boundary the
    # config (at the demo's dims, (3, 1, 2, 1), and s = 5 unless given) and the
    # stage agree: both accept, or both refuse with one message
    @pytest.mark.parametrize("fields, stage, refused", [
        # the basis methods' window: s >= n_x
        pytest.param({"s": 2}, lambda: _demo_recover(2, "structure"), True, id="s2-structure"),
        pytest.param({"s": 2}, lambda: _demo_recover(2, "annihilator"), True, id="s2-annihilator"),
        pytest.param({"s": 3}, lambda: _demo_recover(3, "structure"), False, id="s3-structure"),
        pytest.param({"s": 3}, lambda: _demo_recover(3, "annihilator"), False, id="s3-annihilator"),
        # the readout's window: T > 2s
        pytest.param({"T": 60, "s": 30}, lambda: _demo_fault_dim(60, 30), True, id="T60-s30"),
        pytest.param({"T": 61, "s": 30}, lambda: _demo_fault_dim(61, 30), False, id="T61-s30"),
        # identification at s_id = 8 needs T - 16 + 1 >= 16 input Hankel columns
        pytest.param({"T": 30}, lambda: _demo_identify(30), True, id="identify-T30"),
        pytest.param({"T": 31}, lambda: _demo_identify(31), False, id="identify-T31"),
        # the study's shape: n_y > n_v and 0 <= zero count <= n_x
        pytest.param({"dims": (3, 1, 1, 1)}, lambda: random_system(3, 1, 1, 1, 0, seed=0), True,
                     id="n_y-equals-n_v"),
        pytest.param({"zero_counts": (-1,)}, lambda: random_system(3, 1, 2, 1, -1, seed=0), True,
                     id="zero-count-minus-1"),
        pytest.param({"zero_counts": (4,)}, lambda: random_system(3, 1, 2, 1, 4, seed=0), True,
                     id="zero-count-n_x-plus-1"),
        pytest.param({}, lambda: random_system(3, 1, 2, 1, 0, seed=0), False, id="n_y-above-n_v"),
        # the noise level: None or a number, neither NaN nor -inf
        *[pytest.param({"snr_db": snr_db}, lambda snr_db=snr_db: _noise(snr_db),
                       snr_db not in (None, 40.0, float("inf")), id=f"snr_db-{snr_db!r}")
          for snr_db in ("40", True, float("nan"), float("-inf"), None, 40.0, float("inf"))],
    ])
    def test_config_and_stage_share_each_rule(self, fields, stage, refused):
        message = _refusal(lambda: ExperimentConfig(**fields))
        assert message == _refusal(stage)
        assert (message is not None) == refused, message

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

    def test_angles_and_projection_residual_read_one_span(self):
        # the stack spans {e1, e2} at the span rule; both scores read that
        # plane, so the truth e2 lies in it by either
        stack = np.eye(3)[:, [0, 0]] + np.array([[0.0, 0.0], [0.0, 1e-10], [0.0, 0.0]])
        truth = np.eye(3)[:, [1]]
        assert np.abs(matstack.principal_angles(truth, stack)).max() <= 1e-15
        assert projection_residual(truth, stack) < 1e-15

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

        def keep(*args, _original=harness._replay_fault):
            recons.append(_original(*args))
            return recons[-1]

        monkeypatch.setattr(harness, "_replay_fault", keep)
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
        tracemalloc.start()
        try:
            record = y - simulate(sys, None, np.zeros(3), u)[0]
            sv_s, sv_s1 = _compensated_spectra(record, 5)
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
        # the record, then per branch one nominal response (the exact model's
        # from rest, the identified one's from x~0), whose compensated record
        # both the spectra and the reconstruction read
        calls = []
        for module in (faultrec, harness):
            original = module.simulate

            def counting(*args, _original=original, **kwargs):
                calls.append(args[0])
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, "simulate", counting)
        run_example(ExperimentConfig.example_defaults())
        assert len(calls) == 3

    def test_branches_match_public_reconstruction(self, monkeypatch):
        # each branch compensates its record once, from x~0 or from rest, and
        # gets the bytes of the public reconstruct_fault from that state; its
        # compensated spectra are those of the same record, and its replay
        # residual, read off the smoother's forward pass, is that of an
        # independent simulation of the channel from (xi0, v)
        kept, idents = [], []

        def keep(*args, _original=harness._replay_fault):
            kept.append((args, _original(*args)))
            return kept[-1][1]

        def identify(*args, **kwargs):
            idents.append(original_identify(*args, **kwargs))
            return idents[-1]

        original_identify = harness.pi_moesp
        monkeypatch.setattr(harness, "_replay_fault", keep)
        monkeypatch.setattr(harness, "pi_moesp", identify)
        config = ExperimentConfig.example_defaults()
        report = run_example(config)
        sys, fault = demo_system()
        u, y = _simulate_record(sys, fault, fault_signal("v1", config.T), config, config.seed)
        branches = (("exact_branch", sys, None),
                    ("identified_branch", idents[0].system, idents[0].x_tilde_0))
        for (label, model, x0), ((record, _, rep), got) in zip(branches, kept):
            want = reconstruct_fault(y, u, model, rep, x0)
            assert np.array_equal(got.v, want.v) and np.array_equal(got.xi0, want.xi0)
            assert got.replay_residual == want.replay_residual == report[label]["replay_residual"]
            channel = StateSpace(model.A, rep.F, model.C, rep.G)
            replayed, _ = simulate(channel, None, got.xi0, got.v)
            replay = np.linalg.norm(replayed - record) / np.linalg.norm(record)
            bound = max(1e-12 * replay, 16 * np.finfo(float).eps)
            assert abs(got.replay_residual - replay) <= bound
            assert np.array_equal(record, y - simulate(model, None, x0, u)[0])
            sv_s, sv_s1 = _compensated_spectra(record, config.s)
            assert report[label]["compensated_singular_values_s"] == sv_s
            assert report[label]["compensated_singular_values_s_plus_1"] == sv_s1

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

    @pytest.mark.parametrize("dims", [
        (6, 2, 4, 3), (5, 1, 4, 3), (4, 2, 3, 1), (3, 1, 2, 1), (5, 1, 4, 2), (4, 1, 3, 2),
    ], ids=lambda dims: "-".join(map(str, dims)))
    def test_noise_free_shape_grid_reads_every_channel(self, dims):
        # with n_v = 3, a fault channel that repeated another's waveform
        # left the simulated fault n_v - 1 wide: n_v was misread everywhere
        cfg = ExperimentConfig.montecarlo_defaults(
            snr_db=None, dims=dims, zero_counts=(0, 1, 2), systems_per_count=2,
            s=max(6, dims[0] + 1),
        )
        records = run_montecarlo(cfg).records
        assert [r.failure for r in records] == [None] * 6
        assert all(r.n_v_correct for r in records)
        assert max(r.error_pct for r in records) <= 0.01

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

    def test_workers_inherit_numpy_random(self):
        # only the workers draw, and numpy loads numpy.random on first use;
        # the study loads it before it forks, so no worker imports it again
        code = ("import os, sys, subfault.harness as h; "
                "os.sched_getaffinity = lambda pid: {0, 1}; "
                "h.run_montecarlo(h.ExperimentConfig(**%r)); "
                "print('numpy.random' in sys.modules)" % self.FAILING)
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
               "PYTHONPATH": str(Path(harness.__file__).resolve().parents[1])}
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "True"

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

    def _simulate_args(self, tmp_path):
        return ["simulate", "--system", str(tmp_path / "sys.json"),
                "--u", str(tmp_path / "u.csv"), "--v", str(tmp_path / "v.csv")]

    def test_simulate_from_initial_state_and_noise(self, tmp_path):
        # --x0 starts the state where the library's simulate would, and --w
        # is added to the output
        sys, fault = self._write_demo_data(tmp_path)
        u = read_trajectory_csv(tmp_path / "u.csv")
        v = read_trajectory_csv(tmp_path / "v.csv")
        w = white_input(sys.n_y, u.shape[0], seed=[1, 2])
        write_trajectory_csv(tmp_path / "w.csv", w)
        args = self._simulate_args(tmp_path)
        assert cli_main(["--out", str(tmp_path / "x0"), *args, "--x0", "0.5,-1,2"]) == 0
        y, x = simulate(sys, fault, [0.5, -1.0, 2.0], u, v)
        assert np.array_equal(read_trajectory_csv(tmp_path / "x0" / "y.csv"), y)
        assert np.array_equal(read_trajectory_csv(tmp_path / "x0" / "x.csv"), x)
        assert cli_main(["--out", str(tmp_path / "w"), *args, "--w", str(tmp_path / "w.csv")]) == 0
        y_rest, _ = simulate(sys, fault, None, u, v)
        assert np.array_equal(read_trajectory_csv(tmp_path / "w" / "y.csv"), y_rest + w)

    @pytest.mark.parametrize("x0, message", [
        ("nan,0,0", "x0 contains non-finite entries"),
        ("0,inf,0", "x0 contains non-finite entries"),
        ("1,2", "x0 must have 3 entries, got 2"),
    ])
    def test_simulate_refuses_a_bad_initial_state(self, tmp_path, capsys, x0, message):
        self._write_demo_data(tmp_path)
        code = cli_main(["--out", str(tmp_path / "sim"), *self._simulate_args(tmp_path),
                         "--x0", x0])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "sim" / "y.csv").exists()

    def test_simulate_refuses_a_fault_signal_without_fault_matrices(self, tmp_path, capsys):
        # without --v a system file's F and G are left out; with --v a file
        # that has none is refused
        sys, _ = self._write_demo_data(tmp_path)
        save_system_json(tmp_path / "sys.json", sys)
        code = cli_main(["--out", str(tmp_path / "sim"), *self._simulate_args(tmp_path)])
        assert code == 2
        assert "fault signal v given but no fault matrices" in capsys.readouterr().err
        assert not (tmp_path / "sim" / "y.csv").exists()

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
        # file, or the example's own, which carry x~0 and are the same bytes,
        # and the exact branch through a system file without it, compensated
        # from rest as the example does
        report, example_out = example_report
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
        example_system = example_out / "identified_system.json"
        identify_system = tmp_path / "id" / "identified_system.json"
        assert example_system.read_bytes() == identify_system.read_bytes()
        for name, system_path, branch in (
            ("identified", identify_system, "identified_branch"),
            ("example-file", example_system, "identified_branch"),
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
        exact_v = (tmp_path / "exact" / "v_reconstructed.csv").read_bytes()
        assert exact_v == (example_out / "v_reconstructed_exact.csv").read_bytes()
        for file in ("fault_recovery.json", "v_reconstructed.csv"):
            got = (tmp_path / "example-file" / file).read_bytes()
            assert got == (tmp_path / "identified" / file).read_bytes(), file

    # a window may carry further flags: the annihilator refuses the same windows
    @pytest.mark.parametrize("window, x_tilde_0, message", [
        ("2", None, "window s=2 below the state dimension"),
        ("5", [1.0, 2.0], "x_tilde_0 must have 3 entries"),
        ("5", [1.0, 2.0, float("nan")], "x_tilde_0 contains non-finite"),
        ("2 --method annihilator", None, "window s=2 below the state dimension"),
    ])
    def test_fault_recover_input_errors(self, tmp_path, capsys, window, x_tilde_0, message):
        self._write_demo_data(tmp_path)
        if x_tilde_0 is not None:
            system = json.loads((tmp_path / "sys.json").read_text())
            (tmp_path / "sys.json").write_text(json.dumps({**system, "x_tilde_0": x_tilde_0}))
        code = cli_main(["--out", str(tmp_path / "rec"), "fault-recover",
                         "--u", str(tmp_path / "u.csv"), "--y", str(tmp_path / "y.csv"),
                         "--system", str(tmp_path / "sys.json"), "--window", *window.split()])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "rec" / "fault_recovery.json").exists()

    def test_fault_recover_window_too_deep_for_the_record(self, tmp_path, capsys):
        # 60 samples hold no readout at window 59: an input error, not a
        # numerical failure
        sys, fault = demo_system()
        u = white_input(1, 60, seed=[1, 1])
        y, _ = simulate(sys, fault, np.zeros(3), u, fault_signal("v1", 60))
        save_system_json(tmp_path / "sys.json", sys)
        write_trajectory_csv(tmp_path / "u.csv", u)
        write_trajectory_csv(tmp_path / "y.csv", y)
        code = cli_main(["--out", str(tmp_path / "rec"), "fault-recover",
                         "--u", str(tmp_path / "u.csv"), "--y", str(tmp_path / "y.csv"),
                         "--system", str(tmp_path / "sys.json"), "--window", "59"])
        assert code == 2
        assert "window s=59 is too deep for T=60" in capsys.readouterr().err
        assert not (tmp_path / "rec" / "fault_recovery.json").exists()

    def test_fault_recover_window_of_half_the_record_is_input_error(self, tmp_path, capsys):
        # 2s >= T leaves the readout no room: window 30 on 60 samples is an
        # input error that names s and T, not "no fault detected"
        sys, u, y = _demo_record(60)
        save_system_json(tmp_path / "sys.json", sys)
        write_trajectory_csv(tmp_path / "u.csv", u)
        write_trajectory_csv(tmp_path / "y.csv", y)
        code = cli_main(["--out", str(tmp_path / "rec"), "fault-recover",
                         "--u", str(tmp_path / "u.csv"), "--y", str(tmp_path / "y.csv"),
                         "--system", str(tmp_path / "sys.json"), "--window", "30"])
        assert code == 2
        assert "window s=30 is too deep for T=60" in capsys.readouterr().err
        assert not (tmp_path / "rec" / "fault_recovery.json").exists()

    @pytest.mark.parametrize("order", ["2.5", "true"])
    def test_identify_order_neither_auto_nor_integer_is_refused(self, tmp_path, capsys, order):
        # argparse reads --order, so its message names the flag
        self._write_demo_data(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["--out", str(tmp_path / "id"), "identify", "--u", str(tmp_path / "u.csv"),
                      "--y", str(tmp_path / "y.csv"), "--order", order])
        assert exit_info.value.code == 2
        assert f"argument --order: expected 'auto' or an integer, got '{order}'" in (
            capsys.readouterr().err)
        assert not (tmp_path / "id").exists()

    def test_identify_record_too_short_is_input_error(self, tmp_path, capsys):
        # at the default window s = 10, 30 samples give the input Hankel 11
        # columns for its 20 rows: refused before the data are factored
        _, u, y = _demo_record(30)
        write_trajectory_csv(tmp_path / "u.csv", u)
        write_trajectory_csv(tmp_path / "y.csv", y)
        code = cli_main(["--out", str(tmp_path / "id"), "identify",
                         "--u", str(tmp_path / "u.csv"), "--y", str(tmp_path / "y.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert "T=30" in err and "s=10" in err and "n_u=1" in err
        assert not (tmp_path / "id" / "identified.json").exists()

    def test_readme_quick_start_runs(self, capsys):
        # README's library quick start block runs as printed: the demo's one
        # fault channel, its two-wide family and a small replay residual
        text = (Path(harness.__file__).resolve().parents[2] / "README.md").read_text()
        block = text.split("## Library quick start", 1)[1].split("```python\n", 1)[1]
        exec(compile(block.split("```", 1)[0], "README.md", "exec"), {})
        n_v, n_z, replay = capsys.readouterr().out.split()
        assert (n_v, n_z) == ("1", "2")
        assert 0.0 < float(replay) < 0.05

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

    def test_import_loads_neither_the_pool_nor_scipy(self):
        # the pool's modules load only when a study forks, and scipy (0.18 s
        # for scipy.linalg, 0.7-1.0 s for scipy.signal) not at all: start-up
        # cost is what every run pays
        lazy = ("multiprocessing", "concurrent.futures.process", "scipy")
        code = f"import sys, subfault.cli; print([m for m in {lazy!r} if m in sys.modules])"
        env = {**os.environ, "PYTHONPATH": str(Path(harness.__file__).resolve().parents[1])}
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_runs_without_scipy(self, tmp_path):
        # scipy is a test-only dependency: with its import blocked, the
        # example and a small study exit 0 and write the same bytes
        (tmp_path / "cfg.json").write_text(json.dumps({"T": 300, "systems_per_count": 1}))
        env = {**os.environ, "PYTHONPATH": str(Path(harness.__file__).resolve().parents[1])}
        out = tmp_path / "out"
        runs = []
        for block in ("", "sys.modules['scipy'] = None; "):
            code = f"import sys; {block}from subfault.cli import main; sys.exit(main(sys.argv[1:]))"
            files = {}
            for args in (["example"], ["--config", str(tmp_path / "cfg.json"), "montecarlo"]):
                proc = subprocess.run([sys.executable, "-c", code, "--out", str(out), *args],
                                      env=env, capture_output=True, text=True, timeout=120)
                assert proc.returncode == 0, proc.stderr
                files.update({(args[-1], path.name): path.read_bytes()
                              for path in out.iterdir() if path.name != "timing.csv"})
                shutil.rmtree(out)
            runs.append(files)
        assert ("example", "example_report.json") in runs[0]
        assert ("montecarlo", "montecarlo_report.json") in runs[0]
        assert runs[0] == runs[1]

    def test_reports_do_not_depend_on_the_output_directory(self, tmp_path, monkeypatch):
        # one run written to a relative and to an absolute --out gives the
        # same bytes in every file but the timings
        (tmp_path / "cfg.json").write_text(json.dumps({"T": 300, "systems_per_count": 1}))
        monkeypatch.chdir(tmp_path)
        for args in (["example"], ["--config", "cfg.json", "montecarlo"]):
            runs = []
            for out in (args[-1], str(tmp_path / "deep" / args[-1])):
                assert cli_main(["--out", out, *args]) == 0
                runs.append({path.name: path.read_bytes()
                             for path in Path(out).iterdir() if path.name != "timing.csv"})
            assert f"{args[-1]}_report.json" in runs[0]
            assert runs[0] == runs[1]

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

    def test_study_of_no_zero_count_is_input_error(self, tmp_path):
        # no instance would run, so no report is written; the example never
        # reads the field
        (tmp_path / "cfg.json").write_text(json.dumps({"zero_counts": []}))
        code = cli_main([
            "--config", str(tmp_path / "cfg.json"),
            "--out", str(tmp_path / "mc"),
            "montecarlo",
        ])
        assert code == 2
        assert not (tmp_path / "mc" / "montecarlo_report.json").exists()
        with pytest.raises(ValueError, match="^zero_counts must name at least one zero count"):
            run_montecarlo(ExperimentConfig.montecarlo_defaults(zero_counts=()))
        assert ExperimentConfig(zero_counts=()).zero_counts == ()

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
