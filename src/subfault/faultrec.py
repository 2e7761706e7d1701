"""Fault-subspace recovery from residual Hankel data.

Given the nominal quadruple, the residual Hankel matrix R_s = Y_s - T_s U_s
satisfies R_s = O_s X + T^f_s V. Its column space therefore carries the
fault channel: the rank difference between R_{s+1} and R_s is the minimal
fault dimension, and the Toeplitz structure of T^f_s pins down every fault
matrix pair compatible with the data, up to output-behavioral equivalence.
Both basis methods read R_s only from ``estimate_fault_dim``'s readout (its
triangular factor, ranks and window); ``residual_hankel`` forms the full
matrix, for checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matstack import (
    RankPolicy,
    _input_output_arrays,
    _largest_gap,
    _lti_states,
    _residual_factors,
    _triangle,
    as_matrix,
    block_hankel,
    block_toeplitz,
    extended_observability,
    fix_column_signs,
    numerical_rank,
    range_basis,
    range_equal,
)
from .sysgen import FaultPair, StateSpace, simulate, transmission_zeros

__all__ = [
    "annihilator_fault_basis",
    "FaultRecovery",
    "FaultReconstruction",
    "RecoveryError",
    "behaviorally_equivalent",
    "estimate_fault_dim",
    "fault_dim_from_ranks",
    "recover",
    "recover_fault_matrices",
    "reconstruct_fault",
    "residual_hankel",
    "select_representative",
    "verify_rank_formula",
    "window_in_behavior",
]


_EPS = float(np.finfo(float).eps)

# on noisy data the annihilator keeps the projected directions within this
# factor of the smallest projected singular value
_NOISE_FLOOR_SCALE = 1.2


class RecoveryError(RuntimeError):
    """Fault recovery failed (empty solution set or inconsistent ranks)."""


@dataclass
class FaultDimDiagnostics:
    """Fault-dimension readout, the one form in which R_s reaches the basis
    methods: spectra and ranks, R_s's lower-triangular factor L (L L^T =
    R_s R_s^T) as ``residual_s``, its width T - s + 1 and its window s."""

    rank_s: int
    rank_s_plus_1: int
    singular_values_s: np.ndarray
    singular_values_s_plus_1: np.ndarray
    threshold: float
    residual_s: np.ndarray
    residual_columns: int
    window_s: int

    @property
    def n_v_estimate(self) -> int:
        return self.rank_s_plus_1 - self.rank_s


def _effective_zero_count(n_x: int, s: int, n_v: int, rank_s: int) -> int:
    """zeta_eff = n_x + s n_v - rank_s, the zero count the ranks imply."""
    return n_x + s * n_v - rank_s


@dataclass
class FaultRecovery(FaultDimDiagnostics):
    """Fault-pair basis (F_hat, G_hat) on top of the readout it was
    recovered from; ``n_z`` is read off the basis."""

    F_hat: np.ndarray
    G_hat: np.ndarray

    def __post_init__(self):
        if self.n_z < self.n_v_estimate:
            raise RecoveryError(
                f"solution basis ({self.n_z}) smaller than the fault dimension "
                f"({self.n_v_estimate}); rank policy too aggressive"
            )
        stack = self.stack()
        if numerical_rank(stack, RankPolicy.relative(1e-10)) < self.n_z:
            raise RecoveryError("recovered fault-pair columns are linearly dependent")

    def stack(self) -> np.ndarray:
        return np.vstack([self.F_hat, self.G_hat])

    @property
    def n_z(self) -> int:
        return self.F_hat.shape[1]

    @property
    def zeta_eff(self) -> int:
        return _effective_zero_count(
            self.F_hat.shape[0], self.window_s, self.n_v_estimate, self.rank_s
        )

    @property
    def excess_basis(self) -> bool:
        """More basis columns than n_v + max(zeta_eff, 0): the ranks disagree."""
        return self.n_z > self.n_v_estimate + max(self.zeta_eff, 0)


@dataclass
class FaultReconstruction:
    """Reconstructed residual-system initial state and fault signal.

    ``xi0`` has shape (n_x,), ``v`` shape (T, n_v); ``replay_residual`` is
    the relative error of the channel replayed from them. Two smoother
    diagnostics ride along and enter no report: ``per_step_samples``, the
    length of the per-step tail of the backward sweep (T when its factor
    never became stationary), and ``v_information``, shape (T, n_v), the
    |diagonal| of each step's v-block, i.e. how firmly the data pin v(k).
    """

    xi0: np.ndarray
    v: np.ndarray
    replay_residual: float
    per_step_samples: int
    v_information: np.ndarray


def residual_hankel(y, u, sys: StateSpace, s: int, x_tilde_0=None) -> np.ndarray:
    """R_s = Y_s - T_s U_s, the Hankel matrix of the fault residual.

    With ``x_tilde_0`` given, the block Hankel of the full simulated nominal
    response from that initial state is subtracted instead, leaving only the
    residual-subsystem contribution (useful for spectra where the
    input-driven state directions would dominate the picture).
    """
    u_data, y_data = _input_output_arrays(u, y)
    if y_data.shape[1] != sys.n_y or u_data.shape[1] != sys.n_u:
        raise ValueError("trajectory channel counts do not match the system")
    if x_tilde_0 is not None:
        return block_hankel(_nominal_residual(y_data, u_data, sys, x_tilde_0), s)
    y_h = block_hankel(y_data, s)
    u_h = block_hankel(u_data, s)
    t_s = block_toeplitz(sys.A, sys.B, sys.C, sys.D, s)
    return y_h - t_s @ u_h


def _nominal_residual(y, u, sys: StateSpace, x0) -> np.ndarray:
    """y less the nominal response of ``sys`` from x0 (None: zero) to u, for
    (T, n_y) and (T, n_u) arrays of equal length. The response of an
    input-free model (B = 0, D = 0) from x0 = None is exactly zero, so ``y``
    is returned as it is, unsimulated: a record already compensated passes
    through."""
    if x0 is None and not (sys.B.any() or sys.D.any()):
        if u.shape[1] != sys.n_u:
            raise ValueError(f"u has {u.shape[1]} channels, system expects {sys.n_u}")
        return y
    return y - simulate(sys, None, x0, u)[0]


def fault_dim_from_ranks(rank_s: int, rank_s_plus_1: int) -> int:
    """Rank difference rule; a negative difference signals a bad rank policy."""
    n_v = rank_s_plus_1 - rank_s
    if n_v < 0:
        raise RecoveryError(
            f"rank of the deeper residual Hankel ({rank_s_plus_1}) fell below the "
            f"shallower one ({rank_s}); the rank policy is inconsistent"
        )
    return n_v


def estimate_fault_dim(y, u, sys: StateSpace, s: int, policy: RankPolicy | None = None):
    """Minimal fault dimension from the residual Hankel rank difference.

    One absolute threshold, resolved by the policy on the deeper spectrum,
    is applied to both Hankels so the difference is taken consistently.
    Neither Hankel is formed: both spectra are read from their triangular
    factors (``matstack._residual_factors``, one chunked pass), and R_s's is
    kept on the readout for the basis methods. Returns (n_v, readout).
    """
    u_data, y_data = _input_output_arrays(u, y)
    factor, deep = _residual_factors(y_data, u_data, sys.A, sys.B, sys.C, sys.D, s)
    sv_s = np.linalg.svd(factor, compute_uv=False)
    sv_s1 = np.linalg.svd(deep, compute_uv=False)
    shared = RankPolicy.absolute((policy or RankPolicy.gap()).threshold(sv_s1))
    rank_s = shared.rank(sv_s)
    rank_s1 = shared.rank(sv_s1)
    n_v = fault_dim_from_ranks(rank_s, rank_s1)
    diag = FaultDimDiagnostics(
        rank_s=rank_s,
        rank_s_plus_1=rank_s1,
        singular_values_s=sv_s,
        singular_values_s_plus_1=sv_s1,
        threshold=float(shared.tol),
        residual_s=factor,
        residual_columns=y_data.shape[0] - s + 1,
        window_s=s,
    )
    return n_v, diag


def _channel_window_map(a, f, c, g, m: int) -> np.ndarray:
    """[O_m T^f_m], the map from (initial state, m fault samples) to m outputs."""
    return np.hstack([extended_observability(a, c, m), block_toeplitz(a, f, c, g, m)])


def verify_rank_formula(a, f, c, g, s: int, tol: float = 1e-8) -> bool:
    """Check rank([O_s T^f_s]) = n_x + s n_v - zeta against the zero count."""
    a = as_matrix(a, "A")
    f = as_matrix(f, "F")
    c = as_matrix(c, "C")
    g = as_matrix(g, "G")
    report = transmission_zeros(a, f, c, g, tol=tol)
    if report.l_delay is None:
        raise ValueError("channel is not left invertible; the rank formula does not apply")
    if s < max(report.l_delay, a.shape[0]):
        raise ValueError(f"window s={s} below max(l, n_x)")
    rank = numerical_rank(_channel_window_map(a, f, c, g, s), RankPolicy.relative(tol))
    return rank == a.shape[0] + s * f.shape[1] - report.zeta


def _structure_constraints(q_blocks, obs, s: int, r: int, n_x: int, n_y: int) -> np.ndarray:
    """Linear system whose nullspace parameterizes all compatible (Z, F) stacks.

    Row order is fixed for reproducibility: zero-block constraints, then
    shift constraints by increasing block row, then the observability
    coupling of the first block column.
    """
    width = s * r + n_x
    rows = []
    for i in range(s):
        for j in range(i + 1, s):
            blk = np.zeros((n_y, width))
            blk[:, j * r:(j + 1) * r] = q_blocks[i]
            rows.append(blk)
    for i in range(s - 1):
        for j in range(i + 1):
            blk = np.zeros((n_y, width))
            blk[:, j * r:(j + 1) * r] += q_blocks[i]
            blk[:, (j + 1) * r:(j + 2) * r] -= q_blocks[i + 1]
            rows.append(blk)
    coupling = np.zeros(((s - 1) * n_y, width))
    coupling[:, :r] = -np.vstack(q_blocks[1:])
    coupling[:, s * r:] = obs
    rows.append(coupling)
    return np.vstack(rows)


def recover_fault_matrices(dims: FaultDimDiagnostics, sys: StateSpace) -> FaultPair:
    """Basis (F_hat, G_hat) of the fault pairs explaining a residual Hankel.

    Writes R_s = Q Z with Q the leading ``dims.rank_s`` left singular
    vectors of the readout's factor of R_s, imposes on the unknown blocks
    the strictly-upper-zero and constant-block-diagonal structure of the
    fault Toeplitz matrix together with the observability coupling of its
    first block column, and returns the n_z weakest right singular
    directions of the assembled constraints. n_z is the theory count
    n_v + zeta_eff of the readout's ranks (see ``FaultRecovery.zeta_eff``),
    because noisy data lifts the exact zeros of the constraint spectrum.
    The result has n_z columns, each [F_hat; G_hat] column unit length with
    positive leading entry.
    """
    factor, s, n_y, n_x = dims.residual_s, dims.window_s, sys.n_y, sys.n_x
    if s < 2:
        raise ValueError("recovery needs a window of at least 2 block rows")
    if s < n_x:
        raise ValueError(f"window s={s} below the state dimension {n_x}")
    if factor.shape[0] != s * n_y:
        raise ValueError(
            f"residual Hankel has {factor.shape[0]} rows, expected s*n_y={s * n_y}"
        )
    q = range_basis(factor, rank=dims.rank_s)
    r = q.shape[1]
    if r == 0:
        raise RecoveryError("residual Hankel is numerically zero; nothing to recover")
    n_v = dims.n_v_estimate
    n_z = n_v + _effective_zero_count(n_x, s, n_v, dims.rank_s)
    n_unknowns = s * r + n_x
    if n_z < 1 or n_z > n_unknowns:
        raise RecoveryError(
            f"requested solution dimension {n_z} not available ({n_unknowns} unknowns)"
        )
    q_blocks = [q[i * n_y:(i + 1) * n_y] for i in range(s)]
    obs = extended_observability(sys.A, sys.C, s - 1)
    m = _structure_constraints(q_blocks, obs, s, r, n_x, n_y)
    vt = np.linalg.svd(m, full_matrices=True)[2]
    # the signs are fixed once, on the normalized stack below
    sol = vt[n_unknowns - n_z:].T
    stack = np.vstack([sol[s * r:, :], q_blocks[0] @ sol[:r, :]])
    return _unit_pair(stack, n_x, RecoveryError("recovered a fault direction with zero magnitude"))


def _unit_pair(stack, n_x: int, error: Exception) -> FaultPair:
    """Unit columns with fixed signs as (F, G), or ``error`` for a zero one."""
    norms = np.linalg.norm(stack, axis=0)
    if np.any(norms < 1e-12):
        raise error
    stack = fix_column_signs(stack / norms)
    return FaultPair(stack[:n_x], stack[n_x:])


def annihilator_fault_basis(dims: FaultDimDiagnostics, sys: StateSpace) -> FaultPair:
    """Fault-pair basis from the annihilator of the residual column space.

    Every direction orthogonal to the structural range of R_s kills the
    fault Toeplitz columns, which gives homogeneous constraints directly on
    the (n_x + n_y)-dimensional fault pair: for an annihilating direction n
    split into s output blocks, n_j G + sum_{i>j} n_i C A^(i-j-1) F = 0 for
    each shift j. The known observability range is projected out first, and
    the annihilating directions are read at the bottom of the remaining
    spectrum. The solution set equals that of the structure-constraint
    formulation, but the few unknowns are averaged over many constraint
    rows, which is far better conditioned against measurement noise.

    Every count is a ``RankPolicy`` count. Exact data (the projected
    spectrum reaches the machine floor, ``RankPolicy.relative(max(rows,
    T - s + 1) * eps)`` with R_s's width from the readout): every direction
    at the floor is kept, and n_z is the numerical nullity of the constraint
    matrix K under the same relative rule, counting the columns a wide K has
    no singular value for. The nullity tolerance widens eps to the
    directions' error bound (largest floor value over the smallest value
    above it). Noisy data: the directions within a factor 1.2 of the
    smallest projected value are kept (``RankPolicy.noise_floor(1.2)``), and
    n_z is read at the first largest gap of the K spectrum above
    ``RankPolicy.relative(1e-14)``. The result has n_z columns.
    """
    factor, s = dims.residual_s, dims.window_s
    n_x, n_y = sys.n_x, sys.n_y
    if s < 2 or factor.shape[0] != s * n_y:
        raise ValueError("residual Hankel shape does not match the window")
    obs = extended_observability(sys.A, sys.C, s)
    u_o = np.linalg.svd(obs, full_matrices=True)[0]
    b_perp = u_o[:, n_x:]
    # b_perp^T R_s has these left singular vectors and values; the rounding
    # of R_s's own entries scales with its width, not the factor's
    proj = b_perp.T @ factor
    u2, s2, _ = np.linalg.svd(proj)
    machine = RankPolicy.relative(max(proj.shape[0], dims.residual_columns) * _EPS)
    exact = machine.rank(s2) < s2.size
    keep = machine if exact else RankPolicy.noise_floor(_NOISE_FLOOR_SCALE)
    n_kept = keep.rank(s2)
    dirs = (b_perp @ u2[:, n_kept:]).T
    # n^T T^f_s = n^T L (I kron F) + n^T (I kron G) with L the state-to-output
    # Toeplitz matrix, so block j of n^T L is the F coefficient of shift j;
    # one row per (direction, shift)
    lag_map = block_toeplitz(sys.A, np.eye(n_x), sys.C, np.zeros((n_y, n_x)), s)
    k_mat = np.hstack([(dirs @ lag_map).reshape(-1, n_x), dirs.reshape(-1, n_y)])
    _, svals, vt = np.linalg.svd(k_mat, full_matrices=True)
    n_total = vt.shape[0]
    if exact:
        # every direction at machine floor annihilates R_s exactly; by Wedin's
        # bound each is accurate to the largest floor value over the gap
        dir_err = max(_EPS, s2[n_kept] / s2[n_kept - 1]) if n_kept else _EPS
        n_z = n_total - RankPolicy.relative(max(k_mat.shape) * dir_err).rank(svals)
    else:
        pos = svals[: RankPolicy.relative(1e-14).rank(svals)]
        gap = _largest_gap(pos)
        n_z = n_total - (gap[0] + 1 if gap else pos.size)
    if n_z < 1:
        raise RecoveryError(f"annihilator constraints leave no solution basis (n_z={n_z})")
    error = RecoveryError("annihilator produced a zero fault direction")
    return _unit_pair(vt[n_total - n_z:].T, n_x, error)


def recover(
    y,
    u,
    sys: StateSpace,
    s: int,
    policy: RankPolicy | None = None,
    method: str = "structure",
) -> FaultRecovery:
    """Full pipeline: fault dimension, then the fault-matrix basis.

    ``estimate_fault_dim`` reads n_v, the ranks and the factor of R_s, and
    the basis method reads R_s from that readout alone. The rank threshold
    resolved on the R_{s+1} spectrum is shared by the rank difference and
    by the structure method's truncation of R_s.

    method "structure" (``recover_fault_matrices``) runs the
    constraint-matrix construction with the solution dimension pinned to
    the theory count n_v + zeta_eff, which matches the exact nullspace
    dimension on clean data. method "annihilator"
    (``annihilator_fault_basis``) uses the noise-robust annihilator
    formulation with its own solution count; both compute the same solution
    set on clean data. The ``FaultRecovery`` carries the readout, reads n_z
    off the basis, and flags a basis wider than n_v + max(zeta_eff, 0) by
    ``excess_basis``.
    """
    n_v, dims = estimate_fault_dim(y, u, sys, s, policy)
    if n_v < 1:
        raise RecoveryError(
            "no fault detected (rank difference is zero); nothing to recover"
        )
    # looked up per call, so that a rebinding of either name is seen
    if method == "structure":
        basis = recover_fault_matrices
    elif method == "annihilator":
        basis = annihilator_fault_basis
    else:
        raise ValueError(f"unknown recovery method {method!r}")
    pair = basis(dims, sys)
    return FaultRecovery(**vars(dims), F_hat=pair.F, G_hat=pair.G)


def behaviorally_equivalent(a, c, fg1: FaultPair, fg2: FaultPair, tol: float = 1e-8) -> bool:
    """Finite-horizon output-behavior equality of two fault pairs on (A, C).

    Compares the ranges of [O_m T^f_m] over m = n_x + 1 block rows, which is
    sufficient for equality of the full behavior sets.
    """
    a = as_matrix(a, "A")
    c = as_matrix(c, "C")
    n_x = a.shape[0]
    if fg1.F.shape[0] != n_x or fg2.F.shape[0] != n_x:
        raise ValueError("fault pairs do not match the state dimension")
    if fg1.G.shape[0] != c.shape[0] or fg2.G.shape[0] != c.shape[0]:
        raise ValueError("fault pairs do not match the output dimension")
    m1 = _channel_window_map(a, fg1.F, c, fg1.G, n_x + 1)
    m2 = _channel_window_map(a, fg2.F, c, fg2.G, n_x + 1)
    return range_equal(m1, m2, tol)


def window_in_behavior(a, f, c, g, window, tol: float = 1e-8) -> bool:
    """Whether a stacked output window is producible by the channel.

    ``window`` has shape (m, n_y); membership means the stacked vector is in
    the range of [O_m T^f_m] up to the relative tolerance.
    """
    w = as_matrix(window, "window")
    m = w.shape[0]
    basis_mat = _channel_window_map(a, f, c, g, m)
    vec = w.reshape(-1)
    norm = np.linalg.norm(vec)
    if norm == 0:
        return True
    p = range_basis(basis_mat, policy=RankPolicy.relative(tol))
    resid = vec - p @ (p.T @ vec)
    return bool(np.linalg.norm(resid) <= tol * norm)


# relative size of the damping that selects the minimum-norm reconstruction
_DAMPING = 1e-10

# the smoother's factor counts as stationary once its remaining drift stays
# within this share of its size for _SETTLED_STEPS consecutive steps
_STATIONARY_TOL = 8 * _EPS
_SETTLED_STEPS = 3


def _contraction(a, f, block) -> float:
    """Rate q = rho(A - F L)^2 at which the smoother's factor settles.

    ``block`` is one step's data-independent triangle [R_v R_vx; 0 R] and
    L = R_v^-1 R_vx its feedback. The factor is a Riccati iterate, and near
    its limit each step shrinks its change by about q, so the drift still
    to come after a step of size d is at most d / (1 - q).
    """
    n_v = f.shape[1]
    feedback = np.linalg.solve(block[:n_v, :n_v], block[:n_v, n_v:])
    return float(np.abs(np.linalg.eigvals(a - f @ feedback)).max() ** 2)


def _stationary_sweep(stack, n_v: int, z_next, head):
    """Backward pass of the stationary smoother over ``head`` = r(0..k-1).

    ``stack`` is the stationary step's block (its last rows built from the
    stationary R). Its Householder factor maps the data column [0; r(k);
    z_(k+1)] linearly to [R_v o_k; z_k]; that map, P = [P_r P_z], is Q^T
    applied to unit columns, which ride through the one QR as extra columns
    just as the data column does in the per-step sweep. Then z_k = P_z
    z_(k+1) + P_r r(k) runs in reversed time through ``_lti_states`` from
    ``z_next`` = z_k. Returns the triangle [R_v R_vx; 0 R], the offsets
    o(0..k-1) with v(k) = o_k - R_v^-1 R_vx xi(k), and z_0.
    """
    n_rows, width = stack.shape
    n_data = n_rows - n_v
    n_y = head.shape[1]
    augmented = np.zeros((n_rows, width - 1 + n_data), order="F")
    augmented[:, : width - 1] = stack[:, :-1]
    augmented[n_v:, width - 1:] = np.eye(n_data)
    qr = _triangle(augmented)[: width - 1]
    block = qr[:, : width - 1]
    # column-major, as dgeqrf lays it out: the map's layout picks the
    # product kernels below, and so the bits of z
    p = np.asfortranarray(qr[:, width - 1:])
    drive = head[::-1] @ p[n_v:, :n_y].T
    z = _lti_states(p[n_v:, n_y:], z_next[:, None], drive[:, :, None])[::-1, :, 0]
    rhs = z[1:] @ p[:n_v, n_y:].T + head @ p[:n_v, :n_y].T
    offset = np.linalg.solve(block[:n_v, :n_v], rhs.T).T
    return block, offset, z[0].copy()


def _fault_channel_smoother(a, f, c, g, resid):
    """Damped least-squares fault signal and initial state of one channel.

    Minimizes sum_k |r(k) - C xi(k) - G v(k)|^2 + rho^2 (|xi(0)|^2 + sum_k
    |v(k)|^2) over xi(k+1) = A xi(k) + F v(k) by a fixed-interval
    square-root information smoother (Paige & Saunders 1977). The backward
    sweep keeps the cost-to-go from step k as |R_k xi - z_k|^2; one QR
    factorization triangularizes

        [ rho I       0           0       ]   acting on   [ v(k)  ]
        [ G           C           r(k)    ]               [ xi(k) ]
        [ R_{k+1} F   R_{k+1} A   z_{k+1} ]               [ -1    ]

    whose leading n_v rows give v(k) as an affine function of xi(k) and whose
    next n_x rows are (R_k, z_k).

    The factor R_k depends on (A, F, C, G, rho) only, never on the data, and
    converges from k = T-1 backward to a fixed R (a steady-state smoother,
    Anderson & Moore 1979). So the sweep runs per step, from T-1 down, only
    until R_k is stationary: its remaining drift, bounded by the step
    difference over (1 - contraction) (see ``_contraction``), stays within
    8 eps of |R| for 3 consecutive steps. Before that tail both passes are
    linear time-invariant and run through ``_lti_states``: the stationary
    Householder factor is taken once and applied to unit columns, giving
    z_k = P_z z_(k+1) + P_r r(k) backward (in reversed time), and the
    forward pass is xi(k+1) = (A - F L) xi(k) + F o_k with one stationary
    v-block solve. If R never becomes stationary (an invariant zero on the
    unit circle, or a convergence too slow to settle within rounding), the
    whole record stays per step. Storage is a few arrays of T x (n_x or
    n_v) plus one block per tail step.

    Returns (xi0, v, per_step_samples, v_information) with v and
    v_information of shape (T, n_v).
    """
    t = resid.shape[0]
    n_x, n_v = f.shape
    n_y = c.shape[0]
    width = n_v + n_x + 1
    rho = _DAMPING * max(np.linalg.norm(c), np.linalg.norm(g), np.linalg.norm(c @ f))
    rho = rho or _DAMPING
    stack = np.zeros((n_v + n_y + n_x, width))
    stack[:n_v, :n_v] = rho * np.eye(n_v)
    stack[n_v:n_v + n_y, :n_v] = g
    stack[n_v:n_v + n_y, n_v:-1] = c
    fa = np.hstack([f, a])
    info_r = np.zeros((n_x, n_x))
    info_z = np.zeros(n_x)
    # the tail's v-blocks in backward order, in a buffer grown by doubling
    # (a list of small arrays would hold several times their bytes on a
    # record that stays per step throughout)
    tail = np.empty((min(t, 256), n_v, width))
    settled = 0
    # scale bounds max|R_k| from above (it grows by at most each step) and is
    # made exact only where the step is small; the rate is taken once, there
    scale = 0.0
    rate = None
    k = t
    while k > 0 and settled < _SETTLED_STEPS:
        k -= 1
        stack[n_v:n_v + n_y, -1] = resid[k]
        stack[n_v + n_y:, :-1] = info_r @ fa
        stack[n_v + n_y:, -1] = info_z
        # matstack._triangle, the package's one QR kernel (direct LAPACK:
        # np.linalg.qr's dispatch costs more than this block); it factors a
        # copy of the C-ordered ``stack``, which stays intact for the next step
        tri = _triangle(stack)
        if t - 1 - k == len(tail):
            tail = np.concatenate([tail, np.empty_like(tail)])
        tail[t - 1 - k] = tri[:n_v]
        step = np.abs(tri[n_v:-1, n_v:-1] - info_r).max()
        scale += step
        if step > _STATIONARY_TOL * scale:
            settled = 0
        else:
            scale = np.abs(tri[n_v:-1, n_v:-1]).max()
            if rate is None:
                rate = _contraction(a, f, tri[:-1, :-1])
            # a bitwise repeat is stationary whatever the rate
            within = step <= _STATIONARY_TOL * scale * (1.0 - rate)
            settled = settled + 1 if step == 0.0 or within else 0
        info_r = tri[n_v:-1, n_v:-1]
        info_z = tri[n_v:-1, -1]
    info = np.empty((t, n_v))
    if k:
        stack[n_v + n_y:, :-1] = info_r @ fa
        block, offset, info_z = _stationary_sweep(stack, n_v, info_z, resid[:k])
        feedback = np.linalg.solve(block[:n_v, :n_v], block[:n_v, n_v:])
        info_r = block[n_v:, n_v:]
        info[:k] = np.abs(np.diag(block[:n_v, :n_v]))
    # the same damping on xi(0): min |R_0 xi - z_0|^2 + rho^2 |xi|^2
    init = np.zeros((2 * n_x, n_x + 1), order="F")
    init[:n_x, :n_x] = info_r
    init[:n_x, -1] = info_z
    init[n_x:, :n_x] = rho * np.eye(n_x)
    tri = _triangle(init)
    xi0 = np.linalg.solve(tri[:n_x, :n_x], tri[:n_x, -1])
    v = np.empty((t, n_v))
    x = xi0
    if k:
        drive = (offset @ f.T)[:, :, None]
        xs = _lti_states(a - f @ feedback, xi0[:, None], drive)[:, :, 0]
        v[:k] = offset - xs[:-1] @ feedback.T
        x = xs[-1]
    # the tail: v(k) = g_k - L_k xi(k), its gains solved at once
    gains = tail[t - k - 1::-1]
    info[k:] = np.abs(np.diagonal(gains[:, :, :n_v], axis1=1, axis2=2))
    solved = np.linalg.solve(gains[:, :, :n_v], gains[:, :, n_v:])
    feedback = solved[:, :, :-1]
    offset = solved[:, :, -1]
    closed = a - f @ feedback
    drive = offset @ f.T
    xs = np.empty((t - k, n_x))
    for j in range(t - k):
        xs[j] = x
        x = closed[j] @ x + drive[j]
    v[k:] = offset - np.einsum("kij,kj->ki", feedback, xs)
    return xi0, v, t - k, info


def reconstruct_fault(y, u, sys: StateSpace, fg: FaultPair, x_tilde_0) -> FaultReconstruction:
    """Recover the residual-system initial state and a compatible fault signal.

    The residual r(k) = y(k) - C x~(k) - D u(k) is replayed against the fault
    channel (A, F, C, G): the result is the minimum-norm [xi0; v] among the
    least-squares solutions of O_T xi0 + T^f_T v = r, to within a relative
    rho^2 / sigma^2 on each singular direction sigma of [O_T T^f_T], where
    rho = 1e-10 max(|C|, |G|, |CF|). No rank decision is made. With
    invariant zeros in the channel the replay has a family of solutions and
    the minimum-norm one is reported; inside that family the reported v is
    decided by rounding at about the level a 1e-15 relative change of r
    moves it.

    Time and memory are linear in T, and no matrix square in T is formed.
    The smoother's factor does not depend on the data, so only a short tail
    near T runs per step, until that factor is stationary; the rest of the
    record takes two lifted time-invariant passes (see
    ``_fault_channel_smoother``). A channel whose factor never becomes
    stationary, such as one with an invariant zero on the unit circle, runs
    per step over the whole record. ``per_step_samples`` and
    ``v_information`` on the result report the tail length and how firmly
    each sample of v is determined. ``replay_residual`` is the relative
    error of simulating the channel from (xi0, v) against r.
    """
    u_data, y_data = _input_output_arrays(u, y)
    fg.check_matches(sys)
    if y_data.shape[0] < 1:
        raise ValueError("reconstruction needs at least one sample")
    resid = _nominal_residual(y_data, u_data, sys, x_tilde_0)
    xi0, v_hat, per_step, info = _fault_channel_smoother(sys.A, fg.F, sys.C, fg.G, resid)
    y_fault, _ = simulate(StateSpace(sys.A, fg.F, sys.C, fg.G), None, xi0, v_hat)
    norm = np.linalg.norm(resid)
    replay = float(np.linalg.norm(y_fault - resid) / norm) if norm > 0 else 0.0
    return FaultReconstruction(
        xi0=xi0,
        v=v_hat,
        replay_residual=replay,
        per_step_samples=per_step,
        v_information=info,
    )


# largest share of a sparse representative's norm left in its zeroed block
_SPARSE_LEAK_BOUND = 0.3


def select_representative(
    recovery: FaultRecovery, policy: str = "leading", n_v: int | None = None
) -> FaultPair:
    """Pick a concrete n_v-column fault pair from the recovered basis.

    "leading" takes the dominant right-singular directions of [F_hat; G_hat].
    "sparse-G" / "sparse-F" pick directions annihilating G_hat / F_hat, for
    use when prior structure (state-only or output-only faults) is known;
    they fail when the chosen directions keep more than 0.3 of their norm in
    the block they should annihilate.
    """
    stack = recovery.stack()
    n_x = recovery.F_hat.shape[0]
    n_z = stack.shape[1]
    if n_v is None:
        n_v = recovery.n_v_estimate
    if n_v < 1:
        raise ValueError("a positive fault dimension is required")
    if n_v > n_z:
        raise ValueError(f"cannot select {n_v} directions from a basis of {n_z}")
    if n_z == n_v:
        p = np.eye(n_z)
    elif policy == "leading":
        _, _, vt = np.linalg.svd(stack, full_matrices=False)
        p = vt[:n_v].T
    elif policy in ("sparse-G", "sparse-F"):
        target = stack[n_x:] if policy == "sparse-G" else stack[:n_x]
        _, _, vt = np.linalg.svd(target, full_matrices=True)
        p = vt[n_z - n_v:].T
        rep = stack @ p
        leak = np.linalg.norm(target @ p) / max(np.linalg.norm(rep), 1e-300)
        if leak > _SPARSE_LEAK_BOUND:
            raise ValueError(
                f"policy {policy} infeasible: best directions leak {leak:.3g} "
                f"of their energy into the structured block"
            )
    else:
        raise ValueError(f"unknown representative policy {policy!r}")
    return _unit_pair(stack @ p, n_x, ValueError("selected representative has a zero column"))
