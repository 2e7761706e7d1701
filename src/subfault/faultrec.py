"""Fault-subspace recovery from residual Hankel data.

Given the nominal quadruple, the residual Hankel matrix R_s = Y_s - T_s U_s
satisfies R_s = O_s X + T^f_s V. Its column space therefore carries the
fault channel: the rank difference between R_{s+1} and R_s is the minimal
fault dimension, and the Toeplitz structure of T^f_s pins down every fault
matrix pair compatible with the data, up to output-behavioral equivalence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgeqrf

from .matstack import (
    RankPolicy,
    _input_output_arrays,
    _largest_gap,
    as_matrix,
    as_signal,
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
    """Spectra and ranks behind a fault-dimension estimate."""

    rank_s: int
    rank_s_plus_1: int
    singular_values_s: np.ndarray
    singular_values_s_plus_1: np.ndarray
    threshold: float


def _effective_zero_count(n_x: int, s: int, n_v: int, rank_s: int) -> int:
    """zeta_eff = n_x + s n_v - rank_s, the zero count the ranks imply."""
    return n_x + s * n_v - rank_s


@dataclass
class FaultRecovery:
    """Full fault-recovery result with rank diagnostics."""

    F_hat: np.ndarray
    G_hat: np.ndarray
    n_z: int
    n_v_estimate: int
    rank_s: int
    rank_s_plus_1: int
    singular_values_s: np.ndarray
    singular_values_s_plus_1: np.ndarray
    window_s: int

    def __post_init__(self):
        if self.n_v_estimate != self.rank_s_plus_1 - self.rank_s or self.n_v_estimate < 0:
            raise ValueError("fault-dimension estimate inconsistent with the ranks")
        if self.n_z < self.n_v_estimate:
            raise RecoveryError(
                f"solution basis ({self.n_z}) smaller than the fault dimension "
                f"({self.n_v_estimate}); rank policy too aggressive"
            )
        stack = self.stack()
        if numerical_rank(stack, RankPolicy.relative(1e-10)).rank < self.n_z:
            raise RecoveryError("recovered fault-pair columns are linearly dependent")

    def stack(self) -> np.ndarray:
        return np.vstack([self.F_hat, self.G_hat])

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

    ``v`` has shape (T, n_v); ``x_full``, the nominal plus residual-system
    state, has shape (T + 1, n_x).
    """

    xi0: np.ndarray
    v: np.ndarray
    replay_residual: float
    x_full: np.ndarray


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
        y_nom, _ = simulate(sys, None, x_tilde_0, u_data)
        return block_hankel(y_data - y_nom, s)
    y_h = block_hankel(y_data, s)
    u_h = block_hankel(u_data, s)
    t_s = block_toeplitz(sys.A, sys.B, sys.C, sys.D, s)
    return y_h - t_s @ u_h


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
    Returns (n_v, FaultDimDiagnostics).
    """
    r_s = residual_hankel(y, u, sys, s)
    return _fault_dim(r_s, residual_hankel(y, u, sys, s + 1), policy or RankPolicy.gap())


def _fault_dim(r_s, r_s1, policy: RankPolicy):
    """``estimate_fault_dim`` on residual Hankels already built."""
    sv_s = np.linalg.svd(r_s, compute_uv=False)
    sv_s1 = np.linalg.svd(r_s1, compute_uv=False)
    shared = RankPolicy.absolute(policy.threshold(sv_s1))
    rank_s = shared.rank(sv_s)
    rank_s1 = shared.rank(sv_s1)
    n_v = fault_dim_from_ranks(rank_s, rank_s1)
    diag = FaultDimDiagnostics(
        rank_s=rank_s,
        rank_s_plus_1=rank_s1,
        singular_values_s=sv_s,
        singular_values_s_plus_1=sv_s1,
        threshold=float(shared.tol),
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
    rank = numerical_rank(_channel_window_map(a, f, c, g, s), RankPolicy.relative(tol)).rank
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


def recover_fault_matrices(r_s, sys: StateSpace, s: int, rank: int, n_z: int) -> FaultPair:
    """Basis (F_hat, G_hat) of the fault pairs explaining a residual Hankel.

    Writes R_s = Q Z with Q the leading ``rank`` left singular vectors of
    R_s, imposes on the unknown blocks the strictly-upper-zero and
    constant-block-diagonal structure of the fault Toeplitz matrix together
    with the observability coupling of its first block column, and returns
    the ``n_z`` weakest right singular directions of the assembled
    constraints. The caller supplies ``n_z`` (``recover`` passes the theory
    count n_v + zeta_eff) because noisy data lifts the exact zeros of the
    constraint spectrum. The result has n_z columns, each [F_hat; G_hat]
    column unit length with positive leading entry.
    """
    r_mat = as_matrix(r_s, "R_s")
    if s < 2:
        raise ValueError("recovery needs a window of at least 2 block rows")
    if s < sys.n_x:
        raise ValueError(f"window s={s} below the state dimension {sys.n_x}")
    n_y, n_x = sys.n_y, sys.n_x
    if r_mat.shape[0] != s * n_y:
        raise ValueError(
            f"residual Hankel has {r_mat.shape[0]} rows, expected s*n_y={s * n_y}"
        )
    q = range_basis(r_mat, rank=rank)
    r = q.shape[1]
    if r == 0:
        raise RecoveryError("residual Hankel is numerically zero; nothing to recover")
    n_unknowns = s * r + n_x
    if n_z < 1 or n_z > n_unknowns:
        raise RecoveryError(
            f"requested solution dimension {n_z} not available ({n_unknowns} unknowns)"
        )
    q_blocks = [q[i * n_y:(i + 1) * n_y] for i in range(s)]
    obs = extended_observability(sys.A, sys.C, s - 1)
    m = _structure_constraints(q_blocks, obs, s, r, n_x, n_y)
    vt = np.linalg.svd(m, full_matrices=True)[2]
    sol = fix_column_signs(vt[n_unknowns - n_z:].T)
    f_hat = sol[s * r:, :]
    g_hat = q_blocks[0] @ sol[:r, :]
    stack = np.vstack([f_hat, g_hat])
    norms = np.linalg.norm(stack, axis=0)
    if np.any(norms < 1e-12):
        raise RecoveryError("recovered a fault direction with zero magnitude")
    stack = fix_column_signs(stack / norms)
    return FaultPair(stack[:n_x], stack[n_x:])


def annihilator_fault_basis(r_s, sys: StateSpace, s: int, n_z: int | None = None) -> FaultPair:
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

    Every readout is a ``RankPolicy`` count. Exact data (the projected
    spectrum reaches the machine floor, ``RankPolicy.relative(max(shape) *
    eps)``): every direction at the floor is kept, and the default ``n_z`` is
    the numerical nullity of the constraint matrix K under the same relative
    rule, counting the columns a wide K has no singular value for. The
    nullity tolerance widens eps to the directions' error bound (largest
    floor value over the smallest value above it). Noisy data: the
    directions within a factor 1.2 of the smallest projected value are kept
    (``RankPolicy.noise_floor(1.2)``), and the default ``n_z`` is read at the
    first largest gap of the K spectrum above ``RankPolicy.relative(1e-14)``.

    ``n_z`` fixes the basis size in either case. The result has n_z columns.
    """
    r_mat = as_matrix(r_s, "R_s")
    n_x, n_y = sys.n_x, sys.n_y
    if s < 2 or r_mat.shape[0] != s * n_y:
        raise ValueError("residual Hankel shape does not match the window")
    obs = extended_observability(sys.A, sys.C, s)
    u_o = np.linalg.svd(obs, full_matrices=True)[0]
    b_perp = u_o[:, n_x:]
    proj = b_perp.T @ r_mat
    # only U is read; its columns past the rank are needed only when proj is
    # tall (a short record), so a wide proj takes the thin SVD and never
    # forms its (T - s + 1)-square right factor
    u2, s2, _ = np.linalg.svd(proj, full_matrices=proj.shape[1] < proj.shape[0])
    machine = RankPolicy.relative(max(proj.shape) * _EPS)
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
    if n_z is None and exact:
        # every direction at machine floor annihilates R_s exactly; by Wedin's
        # bound each is accurate to the largest floor value over the gap
        dir_err = max(_EPS, s2[n_kept] / s2[n_kept - 1]) if n_kept else _EPS
        n_z = n_total - RankPolicy.relative(max(k_mat.shape) * dir_err).rank(svals)
    elif n_z is None:
        pos = svals[: RankPolicy.relative(1e-14).rank(svals)]
        gap = _largest_gap(pos)
        n_z = n_total - (gap[0] + 1 if gap else pos.size)
    n_z = int(n_z)
    if n_z < 1 or n_z > n_total:
        raise RecoveryError(f"annihilator constraints leave no solution basis (n_z={n_z})")
    sol = fix_column_signs(vt[n_total - n_z:].T)
    norms = np.linalg.norm(sol, axis=0)
    if np.any(norms < 1e-12):
        raise RecoveryError("annihilator produced a zero fault direction")
    sol = sol / norms
    return FaultPair(sol[:n_x], sol[n_x:])


def recover(
    y,
    u,
    sys: StateSpace,
    s: int,
    policy: RankPolicy | None = None,
    method: str = "structure",
) -> FaultRecovery:
    """Full pipeline: residual Hankels, fault dimension, and matrix basis.

    The rank threshold resolved on the R_{s+1} spectrum is shared by the
    rank difference and by the structure method's truncation of R_s.

    method "structure" runs the constraint-matrix construction with the
    solution dimension pinned to the theory count n_v + zeta_eff (see
    ``FaultRecovery.zeta_eff``), which matches the exact nullspace dimension
    on clean data. method "annihilator" uses the noise-robust annihilator
    formulation with its own solution count; both compute the same solution
    set on clean data. A basis wider than n_v + max(zeta_eff, 0) is flagged
    by ``FaultRecovery.excess_basis``.
    """
    r_s = residual_hankel(y, u, sys, s)
    r_s1 = residual_hankel(y, u, sys, s + 1)
    n_v, diag = _fault_dim(r_s, r_s1, policy or RankPolicy.gap())
    if n_v < 1:
        raise RecoveryError(
            "no fault detected (rank difference is zero); nothing to recover"
        )
    if method == "structure":
        zeta_eff = _effective_zero_count(sys.n_x, s, n_v, diag.rank_s)
        if n_v + zeta_eff < 1:
            raise RecoveryError(
                f"no fault directions to recover (n_v estimate {n_v}, "
                f"effective zero count {zeta_eff})"
            )
        pair = recover_fault_matrices(r_s, sys, s, rank=diag.rank_s, n_z=n_v + zeta_eff)
    elif method == "annihilator":
        pair = annihilator_fault_basis(r_s, sys, s)
    else:
        raise ValueError(f"unknown recovery method {method!r}")
    return FaultRecovery(
        F_hat=pair.F,
        G_hat=pair.G,
        n_z=pair.n_v,
        n_v_estimate=n_v,
        rank_s=diag.rank_s,
        rank_s_plus_1=diag.rank_s_plus_1,
        singular_values_s=diag.singular_values_s,
        singular_values_s_plus_1=diag.singular_values_s_plus_1,
        window_s=s,
    )


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
    w = as_signal(window, "window")
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


def _fault_channel_smoother(a, f, c, g, resid):
    """Damped least-squares fault signal and initial state of one channel.

    Minimizes sum_k |r(k) - C xi(k) - G v(k)|^2 + rho^2 (|xi(0)|^2 + sum_k
    |v(k)|^2) over xi(k+1) = A xi(k) + F v(k) by a fixed-interval
    square-root information smoother (Paige & Saunders 1977). The backward
    sweep keeps the cost-to-go from step k as |R_k xi - z_k|^2; at each step
    one QR factorization triangularizes

        [ rho I       0           0       ]   acting on   [ v(k)  ]
        [ G           C           r(k)    ]               [ xi(k) ]
        [ R_{k+1} F   R_{k+1} A   z_{k+1} ]               [ -1    ]

    whose leading n_v rows give v(k) as an affine function of xi(k) and whose
    next n_x rows are (R_k, z_k). The forward pass runs that feedback from
    the damped xi(0). Storage is T per-step blocks of the system's own sizes.
    Returns (xi0, v) with v of shape (T, n_v).
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
    gains = np.empty((t, n_v, width))
    for k in range(t - 1, -1, -1):
        stack[n_v:n_v + n_y, -1] = resid[k]
        stack[n_v + n_y:, :-1] = info_r @ fa
        stack[n_v + n_y:, -1] = info_z
        # LAPACK directly: np.linalg.qr's dispatch costs more than this block
        tri = np.triu(dgeqrf(stack)[0][:width])
        gains[k] = tri[:n_v]
        info_r = tri[n_v:-1, n_v:-1]
        info_z = tri[n_v:-1, -1]
    # the same damping on xi(0): min |R_0 xi - z_0|^2 + rho^2 |xi|^2
    init = np.zeros((2 * n_x, n_x + 1))
    init[:n_x, :n_x] = info_r
    init[:n_x, -1] = info_z
    init[n_x:, :n_x] = rho * np.eye(n_x)
    tri = np.linalg.qr(init, mode="r")
    xi0 = np.linalg.solve(tri[:n_x, :n_x], tri[:n_x, -1])
    # v(k) = g_k - L_k xi(k), all gains solved at once
    solved = np.linalg.solve(gains[:, :, :n_v], gains[:, :, n_v:])
    feedback = solved[:, :, :-1]
    offset = solved[:, :, -1]
    closed = a - f @ feedback
    drive = offset @ f.T
    xs = np.empty((t, n_x))
    x = xi0
    for k in range(t):
        xs[k] = x
        x = closed[k] @ x + drive[k]
    v = offset - np.einsum("kij,kj->ki", feedback, xs)
    return xi0, v


def reconstruct_fault(y, u, sys: StateSpace, fg: FaultPair, x_tilde_0) -> FaultReconstruction:
    """Recover the residual-system initial state and a compatible fault signal.

    The residual r(k) = y(k) - C x~(k) - D u(k) is replayed against the fault
    channel (A, F, C, G): the result is the minimum-norm [xi0; v] among the
    least-squares solutions of O_T xi0 + T^f_T v = r, to within a relative
    rho^2 / sigma^2 on each singular direction sigma of [O_T T^f_T], where
    rho = 1e-10 max(|C|, |G|, |CF|). No rank decision is made. With
    invariant zeros in the channel the replay has a family of solutions and
    the minimum-norm one is reported. Time and memory are linear in T: no
    matrix square in T is formed, only T blocks of the system's own sizes.
    ``replay_residual`` is the relative error of simulating the channel from
    (xi0, v) against r.
    """
    u_data, y_data = _input_output_arrays(u, y)
    fg.check_matches(sys)
    if y_data.shape[0] < 1:
        raise ValueError("reconstruction needs at least one sample")
    y_nom, x_nom = simulate(sys, None, x_tilde_0, u_data)
    resid = y_data - y_nom
    xi0, v_hat = _fault_channel_smoother(sys.A, fg.F, sys.C, fg.G, resid)
    y_fault, xi = simulate(StateSpace(sys.A, fg.F, sys.C, fg.G), None, xi0, v_hat)
    norm = np.linalg.norm(resid)
    replay = float(np.linalg.norm(y_fault - resid) / norm) if norm > 0 else 0.0
    return FaultReconstruction(xi0=xi0, v=v_hat, replay_residual=replay, x_full=xi + x_nom)


def select_representative(
    recovery: FaultRecovery,
    policy: str = "leading",
    n_v: int | None = None,
    feasibility: float = 0.3,
) -> FaultPair:
    """Pick a concrete n_v-column fault pair from the recovered basis.

    "leading" takes the dominant right-singular directions of [F_hat; G_hat].
    "sparse-G" / "sparse-F" pick directions annihilating G_hat / F_hat, for
    use when prior structure (state-only or output-only faults) is known;
    they fail when no sufficiently annihilating direction exists.
    """
    stack = np.vstack([as_matrix(recovery.F_hat, "F_hat"), as_matrix(recovery.G_hat, "G_hat")])
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
        if leak > feasibility:
            raise ValueError(
                f"policy {policy} infeasible: best directions leak {leak:.3g} "
                f"of their energy into the structured block"
            )
    else:
        raise ValueError(f"unknown representative policy {policy!r}")
    rep = stack @ p
    norms = np.linalg.norm(rep, axis=0)
    if np.any(norms < 1e-12):
        raise ValueError("selected representative has a zero column")
    rep = fix_column_signs(rep / norms)
    return FaultPair(rep[:n_x], rep[n_x:])
