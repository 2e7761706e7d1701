"""Past-input MOESP identification of the nominal quadruple from faulty
input/output data, order selection, Markov-parameter comparison, and nominal
initial-state estimation.

The fault acts like an unmeasured disturbance that is uncorrelated with the
input, so instrumenting with past inputs removes it asymptotically and the
nominal (A, B, C, D) channel is identified consistently. All functions are
pure; identification runs over independent datasets can proceed in parallel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matstack import (
    RankPolicy,
    _CHUNK,
    _GAP_RATIO,
    _depth,
    _fold_into,
    _hankel_factor,
    _input_output_arrays,
    _integer,
    _largest_gap,
    _lti_states,
    _markov_blocks,
    block_toeplitz,  # noqa: F401 (unused here; the benchmark traces it in this module)
    extended_observability,
    min_norm_lsq,
)
from .sysgen import StateSpace, _system_record, simulate

__all__ = [
    "DegenerateDataError",
    "ExcitationError",
    "IdentResult",
    "OrderSelection",
    "estimate_initial_state",
    "estimate_order",
    "markov_params",
    "pi_moesp",
]


class ExcitationError(RuntimeError):
    """Input is not persistently exciting enough for identification."""


class DegenerateDataError(RuntimeError):
    """Data carries no usable signal (all singular values negligible)."""


@dataclass
class OrderSelection:
    """Order picked from a singular spectrum, with the deciding gap ratio."""

    order: int
    gap_ratio: float
    confident: bool


@dataclass
class IdentResult:
    """Output of the subspace identification step.

    ``order_confident`` is set when the automatic order selection
    (``estimate_order``) on ``order_singular_values`` finds a confident gap
    at the order this model has, whether that order was selected or given.
    """

    system: StateSpace
    order_singular_values: np.ndarray
    x_tilde_0: np.ndarray
    window_s: int
    order_confident: bool

    def __post_init__(self):
        self.order_singular_values = np.asarray(self.order_singular_values, dtype=float)
        self.x_tilde_0 = np.asarray(self.x_tilde_0, dtype=float).reshape(-1)

    @property
    def chosen_order(self) -> int:
        return self.system.n_x


def estimate_order(singular_values) -> OrderSelection:
    """Order at the largest consecutive singular-value ratio.

    Ties break toward the smaller order. When no ratio reaches ``_GAP_RATIO``
    (10), the full count of non-negligible values is returned with the
    confidence flag cleared. All values negligible is an error.
    """
    s = np.asarray(singular_values, dtype=float)
    if s.size == 0:
        raise ValueError("empty singular value list")
    if np.any(np.diff(s) > 1e-12):
        raise ValueError("singular values must be nonincreasing")
    if s[0] < 1e-12:
        raise DegenerateDataError("all singular values below 1e-12")
    # drop the negligible tail before ranking gaps
    m = RankPolicy.relative(1e-12).rank(s)
    best_i, best_ratio = _largest_gap(s[:m]) or (None, 0.0)
    if best_i is not None and best_ratio >= _GAP_RATIO:
        return OrderSelection(order=best_i + 1, gap_ratio=float(best_ratio), confident=True)
    return OrderSelection(order=m, gap_ratio=float(best_ratio), confident=False)


# condition number of the input factor R_UU above which pi_moesp folds the
# input windows a second time, in R_UU's own coordinates (see there): half
# the lowest one (19.5, a T = 10^5 record) at which the single solve was
# seen to leave the full factor's observability range by more than 1e-10
# rad; that angle grows about as the condition number squared
_REFOLD_COND = 9.7


def _identification_window(order: int) -> int:
    """Window s of an identification at a known order, 2 order + 2."""
    return 2 * order + 2


def _check_identification_record(t: int, s, n_u: int) -> int:
    """The identification rule: a window s read by the depth rule
    (``matstack._depth``), T > 2s samples, and at least as many input
    Hankel columns (T - 2s + 1) as input rows of [U_f; U_p] (2 s n_u),
    which persistency of excitation needs. Returns s. ``pi_moesp`` applies
    it to a record, and ``ExperimentConfig`` to its own T and n_u at
    ``_identification_window`` of its n_x."""
    s = _depth("s", s)
    if t <= 2 * s or t - 2 * s + 1 < 2 * s * n_u:
        raise ValueError(f"T={t} samples cannot identify at window s={s} with n_u={n_u}: "
                         f"need T > 2s and T - 2s + 1 >= 2 s n_u")
    return s


def pi_moesp(
    u,
    y,
    s: int | None = None,
    order="auto",
    order_hint: int | None = None,
    demean: bool = False,
) -> IdentResult:
    """Identify (A, B, C, D) and the initial state from input/output data.

    Reads the column space of the extended observability matrix off the
    SVD of L32, the block of the triangular factor of the stacked
    past-input, future-input and future-output block Hankel data
    [U_f; U_p; Y_f]^T that holds the future outputs orthogonal to future
    inputs and correlated with the past-input instruments. L32 lies in the
    factor's first 2 s n_u rows, so only the input windows W = [U_f; U_p]^T
    are factored (R_UU), and the same chunks give W^T Y_f^T, from which
    R_UU^T R_UY = W^T Y_f^T gives those rows: L32 is R_UY's U_p rows,
    transposed. Y_f's own block (L33) is never formed. The solve loses
    digits in proportion to R_UU's condition number, so for an input whose
    R_UU has one above 9.7 (a strongly low-pass input, say) the windows are
    folded a second time as W R_UU^-1, whose factor is well conditioned;
    either way L32 agrees with the full factor's to rounding. C comes from
    the first block row, A from the shift-invariance least squares, and B,
    D together with the initial state from one joint linear least-squares
    pass. The pass covers all T samples when the identified A has spectral
    radius rho <= 1, and the first min(T, max(4n, floor(200 / ln rho)))
    samples otherwise, where the state responses stay bounded
    (``_estimate_b_d_x0``). Both the data and the regression are folded
    into their triangular factors chunk by chunk (``matstack._hankel_factor``
    and ``matstack._fold_into``), so memory does not grow with T beyond the
    record itself; a record of at most ``_CHUNK`` (2048) data columns is
    one chunk, the one-shot QR.

    ``order`` is an integer or "auto" (largest singular-value gap); ``s``,
    an integer ``order`` and ``order_hint`` are read by the depth rule
    (``matstack._depth``): a numpy integer is taken, and a float, a bool or
    a value below 1 is refused with a ValueError that names the argument.
    The automatic selection runs on the spectrum either way and gives
    ``order_confident``, so an all-negligible spectrum raises
    ``DegenerateDataError`` for an integer order too. ``s`` is the
    identification window; default ``_identification_window`` of order_hint
    (or of an integer order) when one is available, else 10. A record too
    short for that window is refused before the data are factored, with a
    ValueError that names T, s and n_u (``_check_identification_record``:
    T > 2s, and at least 2 s n_u input Hankel columns); an input that has
    the columns but does not excite them raises ``ExcitationError``.
    ``demean`` removes sample means first, which suppresses the bias a
    non-zero-mean fault would otherwise leak into the estimates; the
    identified quadruple is offset independent either way.
    """
    u_data, y_data = _input_output_arrays(u, y)
    t, n_u = u_data.shape
    n_y = y_data.shape[1]
    # subtracted chunk by chunk, so no centred copy of the record is formed
    u_mean = u_data.mean(axis=0) if demean else np.zeros(n_u)
    y_mean = y_data.mean(axis=0) if demean else np.zeros(n_y)
    n = None if isinstance(order, str) and order == "auto" else _depth("order", order)
    hint = n if order_hint is None else _depth("order_hint", order_hint)
    if s is None:
        s = _identification_window(hint) if hint else 10
    s = _check_identification_record(t, s, n_u)
    n_cols = t - 2 * s + 1
    i1 = s * n_u
    i2 = 2 * s * n_u

    # W = [U_f; U_p]^T, the depth-2s windows of u less their means as rows
    u_centre, y_centre = np.tile(u_mean, s), np.tile(y_mean, s)

    def input_factor(scale):
        """The factor of W scale (W itself for None) and (W scale)^T Y_f^T,
        summed from each chunk before its fold overwrites it."""
        cross = np.zeros((i2, s * n_y))

        def rows(out, h_u, h_y):
            nonlocal cross
            w = out if scale is None else np.empty(out.shape)
            np.subtract(h_u[:, i1:], u_centre, out=w[:, :i1])
            np.subtract(h_u[:, :i1], u_centre, out=w[:, i1:])
            if scale is not None:
                np.matmul(w, scale, out=out)
            cross += out.T @ (h_y[:, s * n_y :] - y_centre)

        return _hankel_factor((u_data, y_data), 2 * s, n_cols, i2, rows), cross

    r_uu, cross = input_factor(None)
    spectrum = np.linalg.svd(r_uu, compute_uv=False)
    # persistency of excitation: the input Hankel covariance U U^T / N must
    # be full rank; its singular values are those of R_UU squared over N,
    # so 1e-4 relative here is 1e-8 relative there
    if RankPolicy.relative(1e-4).rank(spectrum) < i2:
        raise ExcitationError(
            "input Hankel covariance is rank deficient; the input does not "
            "persistently excite the system"
        )
    # the rows of [U_f; U_p; Y_f]^T's factor over W are R_UY with
    # R_UU^T R_UY = W^T Y_f^T, and L32 is R_UY's U_p rows, transposed. The
    # solve loses digits in proportion to R_UU's condition number, so above
    # _REFOLD_COND the windows are folded again as W R_UU^-1, whose factor
    # R_2 is well conditioned: R_UU's is then R_2 R_UU, with R_2's diagonal
    # made positive so the rows keep R_UU's signs
    if RankPolicy.relative(1 / _REFOLD_COND).rank(spectrum) < i2:
        r_uu, cross = input_factor(np.linalg.inv(r_uu))
        r_uu *= np.sign(np.diagonal(r_uu))[:, None]
    l32 = np.linalg.solve(r_uu.T, cross)[i1:].T

    u_svd, s_svd, _ = np.linalg.svd(l32, full_matrices=False)
    svals = s_svd / np.sqrt(n_cols)
    # pad so the report always carries s * n_y entries
    padded = np.zeros(s * n_y)
    padded[: svals.size] = svals

    if n is not None and n > min(l32.shape):
        raise ValueError(f"order {n} exceeds the singular-value plateau ({min(l32.shape)})")
    sel = estimate_order(svals)
    n = sel.order if n is None else n
    if n >= s * n_y:
        raise ValueError("order too large for the identification window")

    obs_est = u_svd[:, :n]
    c_hat = obs_est[:n_y, :]
    a_hat = min_norm_lsq(obs_est[: (s - 1) * n_y, :], obs_est[n_y:, :])

    b_hat, d_hat, x0_hat = _estimate_b_d_x0(a_hat, c_hat, u_data, y_data, u_mean, y_mean)
    system = StateSpace(a_hat, b_hat, c_hat, d_hat)
    return IdentResult(
        system=system,
        order_singular_values=padded,
        x_tilde_0=x0_hat,
        window_s=s,
        order_confident=sel.confident and sel.order == n,
    )


def _estimate_b_d_x0(a, c, u_data, y_data, u_mean=0.0, y_mean=0.0):
    """Joint least squares for B, D and x0 given A and C, on the record less
    the means ``u_mean`` and ``y_mean``.

    The regressors are C A^k (for x0), C Z_j(k) with Z_j(k+1) = A Z_j(k) +
    u_j(k) I (for column j of B), and u_j(k) I (for column j of D). A^k and
    the Z_j run as one recursion W(k+1) = A W(k) + [0, u(k)^T kron I],
    W(0) = [I, 0], which ``matstack._lti_states`` lifts into batched steps.
    It runs over chunks of ``_CHUNK`` samples from the carried block start
    W, and each chunk's rows [Phi | y] are written straight into the fold
    buffer (``matstack._fold_into``) and folded into one (n_params + 1)
    square triangular factor [R_11 r_12; 0 r_22], so the solution is the
    minimum-norm least-squares one of R_11 theta = r_12 with the same
    relative cutoff, and no regressor array longer than a chunk is formed.
    The u_j(k) I blocks of the drive and of the rows are written as
    diagonals (``_put_unit_input_blocks``), not formed from an identity
    broadcast; the rows, R and the solution have the bits they had when
    they were.
    """
    t, n_u = u_data.shape
    n_y = y_data.shape[1]
    n = a.shape[0]
    n_w = n + n * n_u
    n_params = n_w + n_y * n_u
    # an unstable A estimate would overflow the regressor recursion; fit on
    # the longest prefix where the state responses stay bounded
    horizon = t
    rho = float(np.abs(np.linalg.eigvals(a)).max())
    if rho > 1.0:
        horizon = min(t, max(4 * n, int(200.0 / np.log(rho))))
    w = np.hstack([np.eye(n), np.zeros((n, n * n_u))])
    r = np.empty((0, n_params + 1))
    for k0 in range(0, horizon, _CHUNK):
        k1 = min(k0 + _CHUNK, horizon)
        u_h = u_data[k0:k1] - u_mean
        drive = np.zeros((len(u_h), n, n_w))
        _put_unit_input_blocks(drive[:, :, n:], u_h)
        w_all = _lti_states(a, w, drive)

        def fill(out):
            # a view of the buffer rows, sample by sample; setting the shape
            # raises where reshape would silently copy
            rows = out.view()
            rows.shape = (len(u_h), n_y, n_params + 1)
            rows[:, :, :n_w] = c @ w_all[:-1]
            rows[:, :, n_w:-1] = 0.0
            _put_unit_input_blocks(rows[:, :, n_w:-1], u_h)
            rows[:, :, -1] = y_data[k0:k1] - y_mean

        r = _fold_into(r, len(u_h) * n_y, fill)
        w = w_all[-1]
    theta = min_norm_lsq(r[:n_params, :n_params], r[:n_params, -1])
    x0 = theta[:n]
    b = theta[n : n + n * n_u].reshape(n_u, n).T
    d = theta[n + n * n_u :].reshape(n_u, n_y).T
    return b, d, x0


def _put_unit_input_blocks(out, u_data) -> None:
    """Write the per-sample blocks [u_0(k) I_m, ..., u_(n_u-1)(k) I_m] into
    ``out``, a zeroed (T, m, m n_u) view: entry (i, j m + i) of sample k is
    u_j(k), one strided copy per i, with no identity broadcast."""
    m = out.shape[1]
    for i in range(m):
        out[:, i, i::m] = u_data


def markov_params(sys: StateSpace, count: int) -> list:
    """Impulse-response parameters (D, CB, CAB, ..., C A^(count-2) B); the
    depth rule (``matstack._depth``) reads ``count``."""
    return list(_markov_blocks(sys.A, sys.B, sys.C, sys.D, _depth("count", count)))


def estimate_initial_state(sys: StateSpace, u, y, horizon: int) -> np.ndarray:
    """Least-squares initial state of the nominal channel over a horizon.

    Regresses y less the zero-state response to u (one ``simulate``) on the
    extended observability matrix over the first ``horizon`` samples, so
    memory is linear in the horizon: no horizon-deep Toeplitz is formed.
    The record's channel counts must be the system's
    (``sysgen._system_record``). ``horizon`` is read by the integer rule
    (``matstack._integer``), so a float or a bool is refused with a
    ValueError that names it, and it must be at least n_x and at most T.
    """
    u_data, y_data = _system_record(u, y, sys)
    horizon = _integer("horizon", horizon)
    if horizon < sys.n_x:
        raise ValueError(f"horizon {horizon} shorter than the state dimension {sys.n_x}")
    if horizon > u_data.shape[0]:
        raise ValueError("horizon exceeds the available samples")
    obs = extended_observability(sys.A, sys.C, horizon)
    forced, _ = simulate(sys, None, None, u_data[:horizon])
    return min_norm_lsq(obs, (y_data[:horizon] - forced).reshape(-1))
