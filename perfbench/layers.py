"""Per-layer metrics, computed from the spans of the traced passes.

The layers are the package modules. A metric named
``<module>.<function>.<stat>`` is taken from that function's spans; the
``harness.score`` and ``harness.write`` groups and ``harness.self_s`` sum
several functions, listed below. Each metric is computed per traced pass and
reported as the median over those passes (every pass runs the same inputs).
A function the workload never calls reads 0.
"""

from __future__ import annotations

import statistics

import numpy as np

# the error, alignment and projection scorers
SCORERS = (
    "harness.recovery_error_pct",
    "harness.representative_error_pct",
    "harness.projection_residual",
    "harness.align_fault_to_reference",
    "harness.aligned_stack",
    "harness.markov_relative_error",
)
# JSON and CSV writers and the plot-data emitter
WRITERS = (
    "harness._write_json",
    "harness.emit_plot_data",
    "sysgen.write_trajectory_csv",
    "sysgen.save_system_json",
    "matstack.write_matrix_csv",
)


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _dense_bytes(args, kwargs, result) -> int:
    """Bytes of the dense [O_T T^f_T] that reconstruct_fault solves."""
    y = _arg(args, kwargs, 0, "y")
    sys = _arg(args, kwargs, 2, "sys")
    fg = _arg(args, kwargs, 3, "fg")
    t = len(y)
    return t * sys.n_y * (sys.n_x + t * fg.n_v) * 8


def _lsq_in_bytes(args, kwargs, result) -> int:
    a = _arg(args, kwargs, 0, "a")
    b = _arg(args, kwargs, 1, "b")
    return int(np.asarray(a).nbytes + np.asarray(b).nbytes)


# computed byte counts, recorded on the span of each successful call
BYTE_COUNTERS = {
    "faultrec.reconstruct_fault": _dense_bytes,
    "matstack.block_toeplitz": lambda args, kwargs, result: int(result.nbytes),
    "matstack.min_norm_lsq": _lsq_in_bytes,
}


def _self(*names):
    return lambda p, n: sum(p.get(name)["self_s"] for name in names)


def _calls(name):
    return lambda p, n: p.get(name)["calls"]


def _bytes(name, stat):
    return lambda p, n: p.get(name)[stat]


def _ratio(num, den):
    return lambda p, n: num(p, n) / den(p, n) if den(p, n) else 0.0


def _harness_rest(p, n) -> float:
    grouped = set(SCORERS) | set(WRITERS)
    return sum(
        e["self_s"]
        for name, e in p.by_name.items()
        if name.startswith("harness.") and name not in grouped
    )


# (name, unit, function of (PassStats, instances per pass))
PER_LAYER = (
    ("sysgen.simulate.self_s", "s", _self("sysgen.simulate")),
    ("sysgen.simulate.calls", "count", _calls("sysgen.simulate")),
    ("sysgen.colored_noise.self_s", "s", _self("sysgen.colored_noise")),
    ("sysgen.random_system.self_s", "s", _self("sysgen.random_system")),
    (
        "sysgen.random_system.accept_ratio",
        "ratio",
        _ratio(_calls("sysgen.random_system"), _calls("sysgen.transmission_zeros")),
    ),
    ("subid.pi_moesp.self_s", "s", _self("subid.pi_moesp")),
    ("subid.pi_moesp.calls", "count", _calls("subid.pi_moesp")),
    (
        "subid.pi_moesp.useful_ratio",
        "ratio",
        _ratio(lambda p, n: n, _calls("subid.pi_moesp")),
    ),
    ("subid.estimate_initial_state.self_s", "s", _self("subid.estimate_initial_state")),
    ("faultrec.residual_hankel.self_s", "s", _self("faultrec.residual_hankel")),
    ("faultrec.residual_hankel.calls", "count", _calls("faultrec.residual_hankel")),
    ("faultrec.estimate_fault_dim.self_s", "s", _self("faultrec.estimate_fault_dim")),
    ("faultrec.annihilator_fault_basis.self_s", "s", _self("faultrec.annihilator_fault_basis")),
    ("faultrec.recover_fault_matrices.self_s", "s", _self("faultrec.recover_fault_matrices")),
    ("faultrec.recover.self_s", "s", _self("faultrec.recover")),
    ("faultrec.select_representative.self_s", "s", _self("faultrec.select_representative")),
    ("faultrec.reconstruct_fault.self_s", "s", _self("faultrec.reconstruct_fault")),
    (
        "faultrec.reconstruct_fault.dense_bytes",
        "bytes",
        _bytes("faultrec.reconstruct_fault", "bytes_max"),
    ),
    ("matstack.block_toeplitz.self_s", "s", _self("matstack.block_toeplitz")),
    ("matstack.block_toeplitz.calls", "count", _calls("matstack.block_toeplitz")),
    (
        "matstack.block_toeplitz.out_bytes",
        "bytes",
        _bytes("matstack.block_toeplitz", "bytes_sum"),
    ),
    ("matstack.min_norm_lsq.self_s", "s", _self("matstack.min_norm_lsq")),
    ("matstack.min_norm_lsq.in_bytes", "bytes", _bytes("matstack.min_norm_lsq", "bytes_sum")),
    ("matstack.block_hankel.self_s", "s", _self("matstack.block_hankel")),
    ("matstack.extended_observability.self_s", "s", _self("matstack.extended_observability")),
    ("harness.score.self_s", "s", _self(*SCORERS)),
    ("harness.write.self_s", "s", _self(*WRITERS)),
    ("harness.self_s", "s", _harness_rest),
    ("cli.main.self_s", "s", _self("cli.main")),
)


def layer_metrics(pass_stats: list, instances: int) -> dict:
    """name -> {"value", "unit"}: the median of each metric over the passes."""
    return {
        name: {"value": statistics.median(fn(p, instances) for p in pass_stats), "unit": unit}
        for name, unit, fn in PER_LAYER
    }
