"""Experiment orchestration: the bundled single-system example, the
Monte-Carlo study over random systems with placed transmission zeros, and
machine-readable plot data.

Every run is deterministic given the config seed; per-instance seeds are
derived by XOR-ing the base seed with the instance index, so instances are
schedule independent. Report files are byte-reproducible (wall-clock
timings are kept out of the canonical report).
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .matstack import (
    RankPolicy,
    _residual_factors,
    as_matrix,
    extended_observability,
    min_norm_lsq,
    principal_angles,
    range_basis,
    write_matrix_csv,
)
from .sysgen import (
    FaultPair,
    StateSpace,
    colored_noise,
    fault_signal,
    random_system,
    save_system_json,
    simulate,
    stack_channels,
    white_input,
    write_trajectory_csv,
)
from .subid import estimate_initial_state, estimate_order, markov_params, pi_moesp
from .faultrec import _nominal_residual, recover, reconstruct_fault, select_representative

__all__ = [
    "ExperimentConfig",
    "MonteCarloRecord",
    "MonteCarloReport",
    "PipelineError",
    "demo_system",
    "emit_plot_data",
    "markov_relative_error",
    "representative_error_pct",
    "run_example",
    "run_montecarlo",
]


class PipelineError(RuntimeError):
    """Numerical failure inside a named pipeline stage."""

    def __init__(self, stage: str, original: Exception):
        super().__init__(f"[stage {stage}] {original}")
        self.stage = stage
        self.original = original


@contextmanager
def _stage(label: str):
    try:
        yield
    except PipelineError:
        raise
    except Exception as exc:
        raise PipelineError(label, exc) from exc


def demo_system():
    """The bundled three-state benchmark with a state-only scalar fault."""
    sys = StateSpace(
        A=[[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [-0.25, 0.75, 0.25]],
        B=[[0.0], [0.0], [1.0]],
        C=[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
        D=[[0.0], [0.0]],
    )
    fault = FaultPair(F=[[0.938], [0.328], [0.115]], G=[[0.0], [0.0]])
    return sys, fault


@dataclass
class ExperimentConfig:
    """Settings shared by the example run and the Monte-Carlo study."""

    T: int = 1000
    s: int = 5
    seed: int = 20240
    snr_db: float | None = None
    dims: tuple = (3, 1, 2, 1)
    zero_counts: tuple = (0, 1, 2, 3)
    systems_per_count: int = 10
    rank_policy: str = "gap"
    out_dir: str | None = None

    def __post_init__(self):
        self.dims = tuple(int(d) for d in self.dims)
        self.zero_counts = tuple(int(z) for z in self.zero_counts)
        # a study that no instance could run is an input error
        if len(self.dims) != 4:
            raise ValueError(f"dims must be (n_x, n_u, n_y, n_v), got {list(self.dims)}")
        n_x, _, n_y, n_v = self.dims
        if n_y <= n_v:
            raise ValueError(f"need more outputs than fault channels: n_y={n_y}, n_v={n_v}")
        if any(not 0 <= z <= n_x for z in self.zero_counts):
            raise ValueError(f"zero counts must be between 0 and n_x={n_x}")
        if not self.T > 2 * self.s:
            raise ValueError(f"need T > 2s: T={self.T}, s={self.s}")
        if not 2 * self.s > 2 * n_x:
            raise ValueError(f"need s > n_x: s={self.s}, n_x={n_x}")
        s_id = _identification_window(n_x)
        if not self.T > 2 * s_id:
            raise ValueError(f"need T > 2 s_id for identification: T={self.T}, s_id={s_id}")
        if self.T - 2 * s_id + 1 < 2 * s_id * self.dims[1]:
            raise ValueError(
                f"T={self.T} leaves too few input Hankel columns to excite the "
                f"identification window s_id={s_id} with n_u={self.dims[1]}"
            )
        if self.systems_per_count < 1:
            raise ValueError("systems_per_count must be at least 1")
        # false for NaN and -inf, which set no noise level
        if self.snr_db is not None and not float(self.snr_db) > -np.inf:
            raise ValueError("snr_db must be finite, None, or +inf")
        if self.rank_policy not in ("gap", "floor"):
            raise ValueError("rank_policy must be 'gap' or 'floor'")

    def policy(self) -> RankPolicy:
        return RankPolicy.noise_floor() if self.rank_policy == "floor" else RankPolicy.gap()

    @classmethod
    def example_defaults(cls, **overrides) -> "ExperimentConfig":
        # the field defaults are the example's settings
        return cls(**overrides)

    @classmethod
    def montecarlo_defaults(cls, **overrides) -> "ExperimentConfig":
        base = dict(
            T=1000,
            s=6,
            seed=20240,
            snr_db=40.0,
            dims=(5, 1, 3, 2),
            zero_counts=(0, 1, 2, 3),
            systems_per_count=10,
            rank_policy="floor",
        )
        base.update(overrides)
        return cls(**base)

    @classmethod
    def from_json(cls, path, **overrides) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        data.update(overrides)
        return cls(**data)

    def echo(self) -> dict:
        out = asdict(self)
        out["dims"] = list(self.dims)
        out["zero_counts"] = list(self.zero_counts)
        # +inf means clean data, as None does; strict JSON has no infinity
        if self.snr_db is not None and float(self.snr_db) == np.inf:
            out["snr_db"] = None
        # unspecified scales assumed unit and recorded here
        out["input_variance"] = 1.0
        out["initial_state_variance"] = 1.0
        out["noise_filter_pole"] = 0.7
        out["zero_location_variance"] = 1.0
        return out


# ---------------------------------------------------------------------------
# scoring


def representative_error_pct(true_stack, recovered_stack, n_selected: int) -> float:
    """Error of the best n_selected-column representative against the truth.

    The representative takes the n_selected directions of the recovered
    range best aligned with the true stack. Any dimension-count mismatch
    between representative and truth is penalized as a right angle, so both
    under- and over-estimated fault dimensions cost; with the dimension
    estimated correctly this equals the plain normalized Grassmannian error.
    """
    t = as_matrix(true_stack, "true stack")
    r = as_matrix(recovered_stack, "recovered stack")
    k = t.shape[1]
    if n_selected < 1:
        return 100.0
    angles = np.sort(principal_angles(t, r))  # best-aligned first
    kept = angles[: min(n_selected, angles.size)]
    mismatch = abs(k - n_selected) + max(0, min(k, n_selected) - kept.size)
    total = float(np.sum(kept**2) + mismatch * (np.pi / 2.0) ** 2)
    k_norm = max(k, n_selected)
    return float(100.0 * np.sqrt(total) / (np.sqrt(k_norm) * np.pi / 2.0))


def projection_residual(true_stack, recovered_stack) -> float:
    """Relative residual of the true stack outside the recovered range."""
    t = as_matrix(true_stack, "true stack")
    basis = range_basis(recovered_stack)
    resid = t - basis @ (basis.T @ t)
    return float(np.linalg.norm(resid) / np.linalg.norm(t))


def align_fault_to_reference(ref_sys: StateSpace, est_sys: StateSpace, f_mat) -> np.ndarray:
    """Map a fault matrix from the estimated realization's coordinates.

    An identified realization is a similarity transform of the reference;
    fault matrices recovered in its state basis are not directly comparable
    to the reference F. The transform follows from matching the extended
    observability matrices: O_est = O_ref T^{-1}, so T^{-1} = O_ref^+ O_est
    maps the recovered F back to reference coordinates. Output-side matrices
    (G) are coordinate free.
    """
    depth = 2 * ref_sys.n_x
    o_ref = extended_observability(ref_sys.A, ref_sys.C, depth)
    o_est = extended_observability(est_sys.A, est_sys.C, depth)
    t_inv = min_norm_lsq(o_ref, o_est)
    return t_inv @ np.asarray(f_mat, dtype=float)


def aligned_stack(ref_sys: StateSpace, est_sys: StateSpace, f_mat, g_mat) -> np.ndarray:
    return np.vstack(
        [align_fault_to_reference(ref_sys, est_sys, f_mat), np.asarray(g_mat, dtype=float)]
    )


def markov_relative_error(est: StateSpace, true: StateSpace, count: int = 10) -> float:
    """Aggregate relative Frobenius error over the first Markov parameters."""
    est_params = markov_params(est, count)
    true_params = markov_params(true, count)
    num = np.sqrt(sum(np.linalg.norm(a - b) ** 2 for a, b in zip(est_params, true_params)))
    den = np.sqrt(sum(np.linalg.norm(b) ** 2 for b in true_params))
    return float(num / den)


def _identification_window(n_x: int) -> int:
    """Window s_id of every identification run, 2 n_x + 2."""
    return 2 * n_x + 2


def _identify(u, y, true_order: int):
    """Identification at the configured order, flagging an auto-order miss.

    The model is always identified at ``true_order``. The flag is set when
    the automatic selection on the same order spectrum would have picked
    another order or found no confident gap, i.e. when identification with
    ``order="auto"`` falls back to the configured order. The window, and so
    the QR and SVD behind that spectrum, depend only on the order, so one
    ``pi_moesp`` call serves both.
    """
    result = pi_moesp(u, y, s=_identification_window(true_order), order=true_order, demean=True)
    sel = estimate_order(result.order_singular_values)
    return result, not sel.confident or sel.order != true_order


def _simulate_record(sys: StateSpace, fault: FaultPair, v, config: ExperimentConfig, seed):
    """(u, y) of one faulted record: a random initial state, a white input
    and, when ``config.snr_db`` sets a level, colored measurement noise."""
    x0 = np.random.default_rng([seed, 4]).standard_normal(sys.n_x)
    u = white_input(sys.n_u, config.T, seed=[seed, 1])
    y, _ = simulate(sys, fault, x0, u, v)
    if config.snr_db is not None:
        y = y + colored_noise(sys.n_y, config.T, config.snr_db, y, seed=[seed, 3])
    return u, y


def _fault_trajectory(n_v: int, t: int, seed) -> np.ndarray:
    """Per-channel built-in fault waveforms (odd channels get the noisy ramp)."""
    channels = [
        fault_signal("v1" if i % 2 == 0 else "v2", t, seed=[*_as_seed_list(seed), 2, i])
        for i in range(n_v)
    ]
    return stack_channels(*channels)


def _as_seed_list(seed) -> list:
    return list(seed) if isinstance(seed, (list, tuple)) else [int(seed)]


# ---------------------------------------------------------------------------
# the single-system example


def _compensated_spectra(y, u, model: StateSpace, x0, s: int) -> list:
    """Singular values of the Hankels R_s and R_(s+1) of y less the nominal
    response of ``model`` from x0, as two lists. That difference is the
    output of the input-free model (A, 0, C, 0), so the two are its residual
    Hankels, read from their factors without forming either. An input-free
    ``model`` with x0 None takes y as already compensated."""
    y_free = _nominal_residual(y, u, model, x0)
    zero_b, zero_d = np.zeros_like(model.B), np.zeros_like(model.D)
    factors = _residual_factors(y_free, u, model.A, zero_b, model.C, zero_d, s)
    return [np.linalg.svd(f, compute_uv=False).tolist() for f in factors]


def run_example(config: ExperimentConfig | None = None) -> dict:
    """Full pipeline on the bundled benchmark system.

    Simulates the faulted system, identifies the nominal quadruple from the
    faulty data, runs fault-dimension estimation and fault-matrix recovery
    with both the exact and the identified model, reconstructs the fault
    signal, and reports Grassmannian errors for both branches.
    """
    config = config or ExperimentConfig.example_defaults()
    sys, fault = demo_system()
    true_stack = fault.stack() / np.linalg.norm(fault.stack())
    n_true = fault.n_v
    policy = config.policy()

    with _stage("simulate"):
        v = fault_signal("v1", config.T)
        u, y = _simulate_record(sys, fault, v, config, config.seed)

    with _stage("identify"):
        ident, order_fallback = _identify(u, y, true_order=sys.n_x)
        markov_err = markov_relative_error(ident.system, sys)

    branches = {}
    recons = {}
    for label, model, x_tilde_0 in (
        ("exact", sys, None),
        ("identified", ident.system, ident.x_tilde_0),
    ):
        with _stage(f"fault-recover-{label}"):
            rec = recover(y, u, model, s=config.s, policy=policy)
            rep = select_representative(rec, policy="sparse-G", n_v=rec.n_v_estimate)
            rec_aligned = aligned_stack(sys, model, rec.F_hat, rec.G_hat)
            rep_aligned = aligned_stack(sys, model, rep.F, rep.G)
            branch = {
                "n_v": rec.n_v_estimate,
                "n_z": rec.n_z,
                "rank_s": rec.rank_s,
                "rank_s_plus_1": rec.rank_s_plus_1,
                "singular_values_s": rec.singular_values_s.tolist(),
                "singular_values_s_plus_1": rec.singular_values_s_plus_1.tolist(),
                "fault_basis": rec.stack().tolist(),
                "representative_sparse_g": rep.stack().ravel().tolist(),
                "grassmann_error_pct": representative_error_pct(true_stack, rec_aligned, n_true),
                "projection_residual": projection_residual(true_stack, rec_aligned),
                "representative_error_pct": representative_error_pct(
                    true_stack, rep_aligned, n_true
                ),
            }
        with _stage(f"residual-spectra-{label}"):
            # spectra of the nominal-response-compensated residual; with the
            # input-driven state directions removed these show the fault
            # directions over the mismatch floor (the usual spectrum picture)
            if x_tilde_0 is None:
                record, nominal, x_comp = y, model, np.zeros(sys.n_x)
            else:
                # compensated once: the spectra and the reconstruction both
                # read it as the output of the input-free model from rest
                record = _nominal_residual(y, u, model, x_tilde_0)
                zero_b, zero_d = np.zeros_like(model.B), np.zeros_like(model.D)
                nominal, x_comp = StateSpace(model.A, zero_b, model.C, zero_d), None
            sv_s, sv_s1 = _compensated_spectra(record, u, nominal, x_comp, config.s)
            branch["compensated_singular_values_s"] = sv_s
            branch["compensated_singular_values_s_plus_1"] = sv_s1
        with _stage(f"reconstruct-{label}"):
            if x_tilde_0 is None:
                x_comp = estimate_initial_state(model, u, y, horizon=min(config.T, 50))
            recon = reconstruct_fault(record, u, nominal, rep, x_comp)
            corr = np.corrcoef(recon.v[:, 0], v[:, 0])[0, 1]
            branch["replay_residual"] = recon.replay_residual
            branch["fault_correlation"] = float(abs(corr))
            recons[label] = recon
        branches[label] = branch

    report = {
        "config": config.echo(),
        "identified": {
            "A": ident.system.A.tolist(),
            "B": ident.system.B.tolist(),
            "C": ident.system.C.tolist(),
            "D": ident.system.D.tolist(),
            "x_tilde_0": ident.x_tilde_0.tolist(),
            "chosen_order": ident.chosen_order,
            "order_fallback": order_fallback,
            "order_singular_values": ident.order_singular_values.tolist(),
            "markov_relative_error": markov_err,
        },
        "exact_branch": branches["exact"],
        "identified_branch": branches["identified"],
    }

    if config.out_dir:
        out = Path(config.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        _write_json(out / "example_report.json", report)
        save_system_json(out / "identified_system.json", ident.system, seed=config.seed)
        emit_plot_data(report, "singular_values", out / "singular_values.csv")
        write_matrix_csv(out / "fault_basis_exact.csv", np.asarray(branches["exact"]["fault_basis"]))
        write_matrix_csv(
            out / "fault_basis_identified.csv", np.asarray(branches["identified"]["fault_basis"])
        )
        write_trajectory_csv(out / "v_reconstructed_exact.csv", recons["exact"].v)
    return report


# ---------------------------------------------------------------------------
# Monte-Carlo study


@dataclass
class MonteCarloRecord:
    index: int
    seed: int
    zero_count: int
    error_pct: float | None
    n_v_true: int
    n_v_estimate: int | None
    n_v_correct: bool
    n_z: int | None
    markov_rel_error: float | None
    order_fallback: bool
    excess_basis: bool
    failure: str | None
    runtime_s: float


@dataclass
class MonteCarloReport:
    config: dict
    records: list
    per_count: dict
    # None when no instance succeeded
    overall_median_pct: float | None


def _tukey_stats(values: np.ndarray) -> dict:
    q1, med, q3 = (float(np.percentile(values, p)) for p in (25, 50, 75))
    iqr = q3 - q1
    lo_lim, hi_lim = q1 - 1.5 * iqr, q3 + 1.5 * iqr
    inside = values[(values >= lo_lim) & (values <= hi_lim)]
    lo = float(inside.min()) if inside.size else q1
    hi = float(inside.max()) if inside.size else q3
    outliers = sorted(float(x) for x in values[(values < lo_lim) | (values > hi_lim)])
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "lo_whisker": lo,
        "hi_whisker": hi,
        "outliers": outliers,
        "count": int(values.size),
    }


def _montecarlo_instance(config: ExperimentConfig, index: int, zero_count: int) -> MonteCarloRecord:
    """One generate/simulate/identify/recover/score pass.

    Identification runs on every instance and its Markov accuracy goes into
    the record; the scored fault recovery uses the generating matrices so
    the study isolates the reconstruction stage from identification error.
    """
    n_x, n_u, n_y, n_v = config.dims
    seed = config.seed ^ index
    start = time.perf_counter()
    base = dict(
        index=index,
        seed=seed,
        zero_count=zero_count,
        n_v_true=n_v,
        markov_rel_error=None,
        order_fallback=False,
        excess_basis=False,
    )
    try:
        with _stage("generate"):
            sys, fault = random_system(n_x, n_u, n_y, n_v, zero_count, seed=seed)
        with _stage("simulate"):
            v = _fault_trajectory(n_v, config.T, seed)
            u, y = _simulate_record(sys, fault, v, config, seed)
        with _stage("identify"):
            ident, order_fallback = _identify(u, y, true_order=n_x)
            base["markov_rel_error"] = markov_relative_error(ident.system, sys)
            base["order_fallback"] = order_fallback
        with _stage("fault-recover"):
            rec = recover(y, u, sys, s=config.s, policy=config.policy(), method="annihilator")
            err = representative_error_pct(fault.stack(), rec.stack(), rec.n_v_estimate)
        return MonteCarloRecord(
            error_pct=err,
            n_v_estimate=rec.n_v_estimate,
            n_v_correct=rec.n_v_estimate == n_v,
            n_z=rec.n_z,
            failure=None,
            runtime_s=time.perf_counter() - start,
            **{**base, "excess_basis": rec.excess_basis},
        )
    except Exception as exc:  # recorded, never silently dropped
        return MonteCarloRecord(
            error_pct=None,
            n_v_estimate=None,
            n_v_correct=False,
            n_z=None,
            failure=str(exc),
            runtime_s=time.perf_counter() - start,
            **base,
        )


def _study_workers(n: int) -> int:
    """Worker processes for an n-instance study: min(n, cpus // blas_threads).

    ``blas_threads`` is the count OpenBLAS reads, ``OPENBLAS_NUM_THREADS``
    before ``OMP_NUM_THREADS``; unset or unparsable, it counts as one thread
    per CPU, and so does a count below one. Workers × BLAS threads then
    never exceed the CPUs, and an unpinned BLAS gets one worker.
    """
    # without an affinity call (not Linux) the study stays in this process
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    value = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")
    try:
        blas_threads = int(value)
    except (TypeError, ValueError):
        blas_threads = 0
    if blas_threads < 1:
        blas_threads = cpus
    return max(1, min(n, cpus // blas_threads))


def run_montecarlo(config: ExperimentConfig | None = None) -> MonteCarloReport:
    """Generate/simulate/identify/recover over the configured grid of systems.

    Instances are independent (seed = config seed ^ index), so they run on
    ``_study_workers`` processes forked from this one; the records keep grid
    order whatever the schedule, and the reports are the same bytes for any
    worker count. One worker is the in-process loop. The workers are forked,
    not spawned: they inherit the imported package and the BLAS thread count
    the rule read, where a spawned worker would pay the 0.5 s import again.
    A worker that dies raises ``concurrent.futures.BrokenExecutor`` and no
    report is written.
    """
    config = config or ExperimentConfig.montecarlo_defaults()
    zero_counts = [z for z in config.zero_counts for _ in range(config.systems_per_count)]
    grid = ([config] * len(zero_counts), range(len(zero_counts)), zero_counts)
    workers = _study_workers(len(zero_counts))
    if workers == 1:
        records = list(map(_montecarlo_instance, *grid))
    else:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(workers, mp_context=context) as pool:
            records = list(pool.map(_montecarlo_instance, *grid, chunksize=1))
    ok = [r for r in records if r.failure is None]
    per_count = {}
    for zero_count in config.zero_counts:
        vals = np.asarray([r.error_pct for r in ok if r.zero_count == zero_count])
        per_count[zero_count] = _tukey_stats(vals) if vals.size else None
    overall = float(np.median([r.error_pct for r in ok])) if ok else None
    report = MonteCarloReport(
        config=config.echo(),
        records=records,
        per_count=per_count,
        overall_median_pct=overall,
    )
    if config.out_dir:
        out = Path(config.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        _write_json(out / "montecarlo_report.json", montecarlo_report_dict(report))
        emit_plot_data(report, "boxplot", out / "montecarlo_boxplot.csv")
        with open(out / "timing.csv", "w", encoding="utf-8") as fh:
            fh.write("index,runtime_s\n")
            for r in records:
                fh.write(f"{r.index},{r.runtime_s:.3f}\n")
    return report


def montecarlo_report_dict(report: MonteCarloReport) -> dict:
    """Canonical (byte-reproducible) form of the report; timings excluded."""
    recs = []
    for r in report.records:
        d = asdict(r)
        d.pop("runtime_s")
        recs.append(d)
    return {
        "config": report.config,
        "records": recs,
        "per_count": {str(k): v for k, v in report.per_count.items()},
        "overall_median_pct": report.overall_median_pct,
    }


# ---------------------------------------------------------------------------
# plot data


def emit_plot_data(report, kind: str, path) -> None:
    """Write CSV series for external plotting.

    "singular_values" wants an example report and writes index,sv_Rs,sv_Rs1
    rows (identified branch, the shorter column padded empty). "boxplot"
    wants a Monte-Carlo report and writes one row of Tukey statistics per
    zero count with outliers semicolon separated; a zero count none of whose
    instances succeeded gets a row with empty statistics fields (its
    failures stay in the report records).
    """
    if kind == "singular_values":
        if not isinstance(report, dict) or "identified_branch" not in report:
            raise ValueError("singular_values needs an example report")
        branch = report["identified_branch"]
        sv_s = branch.get("compensated_singular_values_s", branch["singular_values_s"])
        sv_s1 = branch.get(
            "compensated_singular_values_s_plus_1", branch["singular_values_s_plus_1"]
        )
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,sv_Rs,sv_Rs1\n")
            for i in range(max(len(sv_s), len(sv_s1))):
                a = repr(float(sv_s[i])) if i < len(sv_s) else ""
                b = repr(float(sv_s1[i])) if i < len(sv_s1) else ""
                fh.write(f"{i + 1},{a},{b}\n")
    elif kind == "boxplot":
        if not isinstance(report, MonteCarloReport):
            raise ValueError("boxplot needs a MonteCarloReport")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("zeros,median,q1,q3,lo_whisker,hi_whisker,outliers\n")
            for zero_count, stats in report.per_count.items():
                if stats is None:
                    fh.write(f"{zero_count},,,,,,\n")
                    continue
                outliers = ";".join(repr(x) for x in stats["outliers"])
                fh.write(
                    f"{zero_count},{stats['median']!r},{stats['q1']!r},{stats['q3']!r},"
                    f"{stats['lo_whisker']!r},{stats['hi_whisker']!r},{outliers}\n"
                )
    else:
        raise ValueError(f"unknown plot data kind {kind!r}")


def _write_json(path, obj) -> None:
    """Write strict JSON: a NaN or infinity raises instead of being written
    as a token no JSON parser accepts."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
