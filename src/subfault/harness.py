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
    _depth,
    _hankel_pair_factors,
    _integer,
    _span_basis,
    as_matrix,
    extended_observability,
    min_norm_lsq,
    principal_angles,
    write_matrix_csv,
)
from .sysgen import (
    _NOISE_FILTER_POLE,
    _check_noise_level,
    _check_study_shape,
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
from .subid import _check_identification_record, _identification_window, markov_params, pi_moesp
from .faultrec import (_check_basis_window, _check_readout_window, _nominal_residual,
                       _replay_fault, recover, select_representative)

__all__ = [
    "ExperimentConfig",
    "MonteCarloRecord",
    "MonteCarloReport",
    "PipelineError",
    "aligned_stack",
    "demo_system",
    "emit_plot_data",
    "markov_relative_error",
    "montecarlo_report_dict",
    "projection_residual",
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


# the rank policies a config or the CLI names
_RANK_POLICIES = {"gap": RankPolicy.gap(), "floor": RankPolicy.noise_floor()}


# the entries of ExperimentConfig.dims, in order
_DIMS = ("n_x", "n_u", "n_y", "n_v")


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
        for name in ("T", "s", "seed"):
            setattr(self, name, _integer(name, getattr(self, name)))
        self.systems_per_count = _depth("systems_per_count", self.systems_per_count)
        self.dims = tuple(self.dims)
        self.zero_counts = tuple(_integer("zero_counts entry", z) for z in self.zero_counts)
        if len(self.dims) != 4:
            raise ValueError(f"dims must be (n_x, n_u, n_y, n_v), got {list(self.dims)}")
        self.dims = tuple(_depth(f"dims {name}", d) for name, d in zip(_DIMS, self.dims))
        # a study that no instance could run is an input error: each stage's
        # own rule, read at the config's numbers
        n_x, n_u, n_y, n_v = self.dims
        _check_study_shape(n_x, n_y, n_v, *self.zero_counts)
        _check_readout_window(self.s, self.T)
        _check_basis_window(self.s, n_x)
        _check_identification_record(self.T, _identification_window(n_x), n_u)
        _check_noise_level(self.snr_db)
        if not isinstance(self.rank_policy, str) or self.rank_policy not in _RANK_POLICIES:
            raise ValueError(f"rank_policy must be one of {sorted(_RANK_POLICIES)}, "
                             f"got {self.rank_policy!r}")
        if self.out_dir is not None and not isinstance(self.out_dir, str):
            raise ValueError(f"out_dir must be a string or None, got {self.out_dir!r}")

    def policy(self) -> RankPolicy:
        return _RANK_POLICIES[self.rank_policy]

    @classmethod
    def example_defaults(cls, **overrides) -> "ExperimentConfig":
        # the field defaults are the example's settings; dims other than the
        # demo system's are refused before the checks that read them
        _demo_system_for(overrides.get("dims", cls.dims))
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

    def echo(self) -> dict:
        out = asdict(self)
        # where a report is written is no part of it
        del out["out_dir"]
        out["dims"] = list(self.dims)
        out["zero_counts"] = list(self.zero_counts)
        # +inf means clean data, as None does; strict JSON has no infinity
        if self.snr_db == np.inf:
            out["snr_db"] = None
        # unspecified scales assumed unit and recorded here
        out["input_variance"] = 1.0
        out["initial_state_variance"] = 1.0
        out["noise_filter_pole"] = _NOISE_FILTER_POLE
        out["zero_location_variance"] = 1.0
        return out


def _read_config_file(path) -> dict:
    """The fields of a config file, which holds one JSON object."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"config file {path} does not hold a JSON object")
    return data


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
    """Relative residual of the true stack outside the recovered range, the
    span ``principal_angles`` reads (``matstack._span_basis``)."""
    t = as_matrix(true_stack, "true stack")
    basis = _span_basis(recovered_stack)
    resid = t - basis @ (basis.T @ t)
    return float(np.linalg.norm(resid) / np.linalg.norm(t))


def aligned_stack(ref_sys: StateSpace, est_sys: StateSpace, *stacks) -> list:
    """Map fault stacks [F; G] from the estimated realization's coordinates.

    An identified realization is a similarity transform of the reference;
    fault matrices recovered in its state basis are not directly comparable
    to the reference F. The transform follows from matching the extended
    observability matrices: O_est = O_ref T^{-1}, so T^{-1} = O_ref^+ O_est
    maps the recovered F back to reference coordinates. Output-side matrices
    (G) are coordinate free. T^{-1} is solved once, and the list holds each
    given stack with its F block mapped.
    """
    depth = 2 * ref_sys.n_x
    o_ref = extended_observability(ref_sys.A, ref_sys.C, depth)
    o_est = extended_observability(est_sys.A, est_sys.C, depth)
    t_inv = min_norm_lsq(o_ref, o_est)
    n_x = est_sys.n_x
    return [np.vstack([t_inv @ stack[:n_x], stack[n_x:]]) for stack in stacks]


def markov_relative_error(est: StateSpace, true: StateSpace) -> float:
    """Aggregate relative Frobenius error over the first 10 Markov parameters."""
    est_params = markov_params(est, 10)
    true_params = markov_params(true, 10)
    num = np.sqrt(sum(np.linalg.norm(a - b) ** 2 for a, b in zip(est_params, true_params)))
    den = np.sqrt(sum(np.linalg.norm(b) ** 2 for b in true_params))
    return float(num / den)


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
    """One waveform of its own per fault channel: v1, the noisy ramp v2,
    then 0.1 + sin(0.25 (1 + 0.2 i) k^1.3) for channel i >= 2, so that no
    two channels carry the same signal."""
    k = np.arange(t, dtype=float)[:, None]
    channels = [fault_signal("v1", t), fault_signal("v2", t, seed=[seed, 2, 1])][:n_v]
    channels += [0.1 + np.sin(0.25 * (1 + 0.2 * i) * k**1.3) for i in range(2, n_v)]
    return stack_channels(*channels)


# ---------------------------------------------------------------------------
# the single-system example


def _compensated_spectra(record, s: int) -> list:
    """Singular values of the block Hankels of depth s and s + 1 of a record
    already less a model's nominal response, as two lists, read from the
    record's own Hankel factors without forming either Hankel."""
    factors = _hankel_pair_factors((record,), s, lambda depth: np.copyto)
    return [np.linalg.svd(f, compute_uv=False).tolist() for f in factors]


def _model_fields(ident) -> dict:
    """An identified model as the example report and ``identify`` write it:
    A-D, x~0, the chosen order and the order spectrum."""
    return {
        **{name: getattr(ident.system, name).tolist() for name in "ABCD"},
        "x_tilde_0": ident.x_tilde_0.tolist(),
        "chosen_order": ident.chosen_order,
        "order_singular_values": ident.order_singular_values.tolist(),
    }


def _fault_stages(y, u, model: StateSpace, s: int, policy: RankPolicy, representative: str,
                  method: str = "structure", x_tilde_0=None):
    """The stages after identification, with ``model`` as the nominal system:
    ``recover`` at window s, the ``representative`` pair of the family, and
    the record compensated once, less the model's nominal response from
    x~0, or from rest without one. The residual system shares (A, C) with
    the model, so the fault channel's xi0 takes up whatever nominal initial
    state that leaves in the record. The compensated spectra and the
    reconstruction both read that one record.

    Both example branches and ``fault-recover`` run these stages. Returns
    the ``FaultRecovery``, the representative, the ``FaultReconstruction``
    and the report fields they share: n_v, n_z, the ranks and spectra of the
    readout, the compensated spectra and the replay residual.
    """
    rec = recover(y, u, model, s=s, policy=policy, method=method)
    rep = select_representative(rec, policy=representative, n_v=rec.n_v_estimate)
    record = _nominal_residual(y, u, model, x_tilde_0)
    # its spectra show the fault directions over the mismatch floor
    sv_s, sv_s1 = _compensated_spectra(record, s)
    recon = _replay_fault(record, model, rep)
    fields = {
        "n_v": rec.n_v_estimate,
        "n_z": rec.n_z,
        "rank_s": rec.rank_s,
        "rank_s_plus_1": rec.rank_s_plus_1,
        "singular_values_s": rec.singular_values_s.tolist(),
        "singular_values_s_plus_1": rec.singular_values_s_plus_1.tolist(),
        "compensated_singular_values_s": sv_s,
        "compensated_singular_values_s_plus_1": sv_s1,
        "replay_residual": recon.replay_residual,
    }
    return rec, rep, recon, fields


def _demo_system_for(dims):
    """The demo system and fault, which the example runs: ``dims`` other
    than theirs are an input error."""
    sys, fault = demo_system()
    demo = [sys.n_x, sys.n_u, sys.n_y, fault.n_v]
    if list(dims) != demo:
        raise ValueError(f"the example runs the demo system, dims {demo}, not {list(dims)}")
    return sys, fault


def run_example(config: ExperimentConfig | None = None) -> dict:
    """Full pipeline on the bundled benchmark system.

    Simulates the faulted system, identifies the nominal quadruple from the
    faulty data, runs fault-dimension estimation and fault-matrix recovery
    with both the exact and the identified model, reconstructs the fault
    signal, and reports Grassmannian errors for both branches. The system
    is always the demo's, so ``config.dims`` other than its (3, 1, 2, 1)
    raise ``ValueError`` before any stage runs.
    """
    config = config or ExperimentConfig.example_defaults()
    sys, fault = _demo_system_for(config.dims)
    true_stack = fault.stack() / np.linalg.norm(fault.stack())
    n_true = fault.n_v

    with _stage("simulate"):
        v = fault_signal("v1", config.T)
        u, y = _simulate_record(sys, fault, v, config, config.seed)

    with _stage("identify"):
        ident = pi_moesp(u, y, order=sys.n_x, demean=True)
        markov_err = markov_relative_error(ident.system, sys)

    branches = {}
    recons = {}
    for label, model, x_tilde_0 in (
        ("exact", sys, None),
        ("identified", ident.system, ident.x_tilde_0),
    ):
        with _stage(f"fault-recover-{label}"):
            rec, rep, recons[label], branch = _fault_stages(
                y, u, model, config.s, config.policy(), "sparse-G", x_tilde_0=x_tilde_0
            )
            rec_aligned, rep_aligned = aligned_stack(sys, model, rec.stack(), rep.stack())
            corr = np.corrcoef(recons[label].v[:, 0], v[:, 0])[0, 1]
            branches[label] = {
                **branch,
                "fault_basis": rec.stack().tolist(),
                "representative_sparse_g": rep.stack().ravel().tolist(),
                "grassmann_error_pct": representative_error_pct(true_stack, rec_aligned, n_true),
                "projection_residual": projection_residual(true_stack, rec_aligned),
                "representative_error_pct": representative_error_pct(
                    true_stack, rep_aligned, n_true
                ),
                "fault_correlation": float(abs(corr)),
            }

    report = {
        "config": config.echo(),
        "identified": {
            **_model_fields(ident),
            "order_fallback": not ident.order_confident,
            "markov_relative_error": markov_err,
        },
        "exact_branch": branches["exact"],
        "identified_branch": branches["identified"],
    }

    if config.out_dir:
        out = Path(config.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        _write_json(out / "example_report.json", report)
        save_system_json(out / "identified_system.json", ident.system, x_tilde_0=ident.x_tilde_0)
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
    """One study instance; the defaults describe an instance that failed
    before any stage filled a field."""

    index: int
    seed: int
    zero_count: int
    n_v_true: int
    error_pct: float | None = None
    n_v_estimate: int | None = None
    n_v_correct: bool = False
    n_z: int | None = None
    markov_rel_error: float | None = None
    order_fallback: bool = False
    excess_basis: bool = False
    failure: str | None = None
    runtime_s: float = 0.0


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
    record = MonteCarloRecord(index=index, seed=seed, zero_count=zero_count, n_v_true=n_v)
    try:
        with _stage("generate"):
            sys, fault = random_system(n_x, n_u, n_y, n_v, zero_count, seed=seed)
        with _stage("simulate"):
            v = _fault_trajectory(n_v, config.T, seed)
            u, y = _simulate_record(sys, fault, v, config, seed)
        with _stage("identify"):
            ident = pi_moesp(u, y, order=n_x, demean=True)
            record.markov_rel_error = markov_relative_error(ident.system, sys)
            record.order_fallback = not ident.order_confident
        with _stage("fault-recover"):
            rec = recover(y, u, sys, s=config.s, policy=config.policy(), method="annihilator")
            record.error_pct = representative_error_pct(
                fault.stack(), rec.stack(), rec.n_v_estimate
            )
        # a failed recovery or scoring leaves the readout unset
        record.n_v_estimate, record.n_z = rec.n_v_estimate, rec.n_z
        record.n_v_correct = rec.n_v_estimate == n_v
        record.excess_basis = rec.excess_basis
    except Exception as exc:  # recorded, never silently dropped
        record.failure = str(exc)
    record.runtime_s = time.perf_counter() - start
    return record


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
    # the example never reads zero_counts; a study without one runs nothing
    if not config.zero_counts:
        raise ValueError("zero_counts must name at least one zero count, got []")
    zero_counts = [z for z in config.zero_counts for _ in range(config.systems_per_count)]
    grid = ([config] * len(zero_counts), range(len(zero_counts)), zero_counts)
    workers = _study_workers(len(zero_counts))
    if workers == 1:
        records = list(map(_montecarlo_instance, *grid))
    else:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # numpy loads numpy.random on first use: loaded here, the workers
        # inherit it instead of each importing it again (18 ms a worker)
        import numpy.random  # noqa: F401

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
        sv_s = branch["compensated_singular_values_s"]
        sv_s1 = branch["compensated_singular_values_s_plus_1"]
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
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
