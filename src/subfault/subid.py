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
    _GAP_RATIO,
    _input_output_arrays,
    _largest_gap,
    _lti_states,
    _markov_blocks,
    block_hankel,
    block_toeplitz,
    extended_observability,
    min_norm_lsq,
    numerical_rank,
)
from .sysgen import StateSpace

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
    """Output of the subspace identification step."""

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


def pi_moesp(
    u,
    y,
    s: int | None = None,
    order="auto",
    order_hint: int | None = None,
    demean: bool = False,
) -> IdentResult:
    """Identify (A, B, C, D) and the initial state from input/output data.

    Builds past-input, future-input and future-output block Hankel matrices,
    takes the triangular factor of the stacked data [U_f; U_p; Y_f], and
    reads the column space of the extended observability matrix off the SVD
    of the block of future outputs that is orthogonal to future inputs and
    correlated with the past-input instruments. C comes from the first block
    row, A from the shift-invariance least squares, and B, D together with
    the initial state from one joint linear least-squares pass over all
    samples.

    ``order`` is an integer or "auto" (largest singular-value gap). ``s`` is
    the identification window; default 2*order_hint + 2 when a hint is
    available, else 10, and T > 2s is required. ``demean`` removes sample
    means first, which suppresses the bias a non-zero-mean fault would
    otherwise leak into the estimates; the identified quadruple is offset
    independent either way.
    """
    u_data, y_data = _input_output_arrays(u, y)
    if demean:
        u_data = u_data - u_data.mean(axis=0)
        y_data = y_data - y_data.mean(axis=0)
    t, n_u = u_data.shape
    n_y = y_data.shape[1]
    if s is None:
        hint = order_hint if order_hint is not None else (order if isinstance(order, int) else None)
        s = 2 * hint + 2 if hint else 10
    if s < 1:
        raise ValueError("window s must be positive")
    if t <= 2 * s:
        raise ValueError(f"need T > 2s samples: T={t}, s={s}")
    n_cols = t - 2 * s + 1

    u_all = block_hankel(u_data, 2 * s, n_cols)
    u_past = u_all[: s * n_u]
    u_fut = u_all[s * n_u :]
    y_fut = block_hankel(y_data[s:], s, n_cols)

    # persistency of excitation: the input Hankel covariance must be full rank
    cov = (u_all @ u_all.T) / n_cols
    if numerical_rank(cov, RankPolicy.relative(1e-8)) < 2 * s * n_u:
        raise ExcitationError(
            "input Hankel covariance is rank deficient; the input does not "
            "persistently excite the system"
        )

    stacked = np.vstack([u_fut, u_past, y_fut])
    r_fac = np.linalg.qr(stacked.T, mode="r")
    lower = r_fac.T
    i1 = s * n_u
    i2 = 2 * s * n_u
    l32 = lower[i2:, i1:i2]

    u_svd, s_svd, _ = np.linalg.svd(l32, full_matrices=False)
    svals = s_svd / np.sqrt(n_cols)
    # pad so the report always carries s * n_y entries
    padded = np.zeros(s * n_y)
    padded[: svals.size] = svals

    confident = True
    if order == "auto":
        sel = estimate_order(svals)
        n = sel.order
        confident = sel.confident
    else:
        n = int(order)
        if n < 1:
            raise ValueError("order must be positive")
        if n > min(l32.shape):
            raise ValueError(
                f"order {n} exceeds the singular-value plateau ({min(l32.shape)})"
            )
    if n >= s * n_y:
        raise ValueError("order too large for the identification window")

    obs_est = u_svd[:, :n]
    c_hat = obs_est[:n_y, :]
    a_hat = min_norm_lsq(obs_est[: (s - 1) * n_y, :], obs_est[n_y:, :])

    b_hat, d_hat, x0_hat = _estimate_b_d_x0(a_hat, c_hat, u_data, y_data)
    system = StateSpace(a_hat, b_hat, c_hat, d_hat)
    return IdentResult(
        system=system,
        order_singular_values=padded,
        x_tilde_0=x0_hat,
        window_s=s,
        order_confident=confident,
    )


def _estimate_b_d_x0(a, c, u_data, y_data):
    """Joint least squares for B, D and x0 given A and C.

    The regressors are C A^k (for x0), C Z_j(k) with Z_j(k+1) = A Z_j(k) +
    u_j(k) I (for column j of B), and u_j(k) I (for column j of D). A^k and
    the Z_j run as one recursion W(k+1) = A W(k) + [0, u(k)^T kron I],
    W(0) = [I, 0], which ``matstack._lti_states`` lifts into about 2 sqrt(T)
    batched steps.
    """
    t, n_u = u_data.shape
    n_y = y_data.shape[1]
    n = a.shape[0]
    n_params = n + n * n_u + n_y * n_u
    # an unstable A estimate would overflow the regressor recursion; fit on
    # the longest prefix where the state responses stay bounded
    horizon = t
    rho = float(np.abs(np.linalg.eigvals(a)).max())
    if rho > 1.0:
        horizon = min(t, max(4 * n, int(200.0 / np.log(rho))))
    u_h = u_data[:horizon]
    drive = np.zeros((horizon - 1, n, n + n * n_u))
    drive[:, :, n:] = _unit_input_blocks(u_h[:-1], n)
    w0 = np.hstack([np.eye(n), np.zeros((n, n * n_u))])
    w_all = _lti_states(a, w0, drive)
    phi = np.empty((horizon, n_y, n_params))
    phi[:, :, : n + n * n_u] = c @ w_all
    phi[:, :, n + n * n_u :] = _unit_input_blocks(u_h, n_y)
    theta = min_norm_lsq(phi.reshape(horizon * n_y, n_params), y_data[:horizon].reshape(-1))
    x0 = theta[:n]
    b = theta[n : n + n * n_u].reshape(n_u, n).T
    d = theta[n + n * n_u :].reshape(n_u, n_y).T
    return b, d, x0


def _unit_input_blocks(u_data, m: int) -> np.ndarray:
    """Per-sample [u_0(k) I_m, ..., u_(n_u-1)(k) I_m], shape (T, m, m n_u)."""
    t, n_u = u_data.shape
    return (u_data[:, None, :, None] * np.eye(m)[None, :, None, :]).reshape(t, m, m * n_u)


def markov_params(sys: StateSpace, count: int) -> list:
    """Impulse-response parameters (D, CB, CAB, ..., C A^(count-2) B)."""
    if count < 1:
        raise ValueError("count must be at least 1")
    return list(_markov_blocks(sys.A, sys.B, sys.C, sys.D, count))


def estimate_initial_state(sys: StateSpace, u, y, horizon: int) -> np.ndarray:
    """Least-squares initial state of the nominal channel over a horizon."""
    u_data, y_data = _input_output_arrays(u, y)
    if horizon < sys.n_x:
        raise ValueError(f"horizon {horizon} shorter than the state dimension {sys.n_x}")
    if horizon > u_data.shape[0]:
        raise ValueError("horizon exceeds the available samples")
    obs = extended_observability(sys.A, sys.C, horizon)
    toep = block_toeplitz(sys.A, sys.B, sys.C, sys.D, horizon)
    rhs = y_data[:horizon].reshape(-1) - toep @ u_data[:horizon].reshape(-1)
    return min_norm_lsq(obs, rhs)
