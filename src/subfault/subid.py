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
    _fold_factor,
    _hankel_factor,
    _input_output_arrays,
    _largest_gap,
    _lti_states,
    _markov_blocks,
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


def _identification_window(order: int) -> int:
    """Window s of an identification at a known order, 2 order + 2."""
    return 2 * order + 2


def pi_moesp(
    u,
    y,
    s: int | None = None,
    order="auto",
    order_hint: int | None = None,
    demean: bool = False,
) -> IdentResult:
    """Identify (A, B, C, D) and the initial state from input/output data.

    Takes the triangular factor R of the stacked past-input, future-input
    and future-output block Hankel data [U_f; U_p; Y_f]^T, and reads the
    column space of the extended observability matrix off the SVD of the
    block of future outputs that is orthogonal to future inputs and
    correlated with the past-input instruments. C comes from the first block
    row, A from the shift-invariance least squares, and B, D together with
    the initial state from one joint linear least-squares pass over all
    samples. Both the data and the regression are folded into their
    triangular factors chunk by chunk (``matstack._hankel_factor``), so
    memory does not grow with T beyond the record itself; a record of at
    most ``_CHUNK`` (2048) data columns is one chunk, the one-shot QR.

    ``order`` is an integer or "auto" (largest singular-value gap); the
    automatic selection runs on the spectrum either way and gives
    ``order_confident``, so an all-negligible spectrum raises
    ``DegenerateDataError`` for an integer order too. ``s`` is the
    identification window; default ``_identification_window`` of order_hint
    (or of an integer order) when one is available, else 10, and T > 2s is
    required. ``demean`` removes sample means first, which suppresses the
    bias a non-zero-mean fault would otherwise leak into the estimates; the
    identified quadruple is offset independent either way.
    """
    u_data, y_data = _input_output_arrays(u, y)
    t, n_u = u_data.shape
    n_y = y_data.shape[1]
    # subtracted chunk by chunk, so no centred copy of the record is formed
    u_mean = u_data.mean(axis=0) if demean else np.zeros(n_u)
    y_mean = y_data.mean(axis=0) if demean else np.zeros(n_y)
    if s is None:
        hint = order_hint if order_hint is not None else (order if isinstance(order, int) else None)
        s = _identification_window(hint) if hint else 10
    if s < 1:
        raise ValueError("window s must be positive")
    if t <= 2 * s:
        raise ValueError(f"need T > 2s samples: T={t}, s={s}")
    n_cols = t - 2 * s + 1
    i1 = s * n_u
    i2 = 2 * s * n_u

    # [U_f; U_p; Y_f] from the depth-2s windows of u and of y
    centre = np.concatenate([np.tile(u_mean, 2 * s), np.tile(y_mean, s)])
    r_fac = _hankel_factor(
        (u_data, y_data),
        2 * s,
        n_cols,
        lambda h_u, h_y: np.hstack([h_u[:, i1:], h_u[:, :i1], h_y[:, s * n_y :]]) - centre,
    )
    # persistency of excitation: the input Hankel covariance U U^T / N must
    # be full rank; its singular values are those of the input block of R
    # squared over N, so 1e-4 relative here is 1e-8 relative there
    if numerical_rank(r_fac[:i2, :i2], RankPolicy.relative(1e-4)) < i2:
        raise ExcitationError(
            "input Hankel covariance is rank deficient; the input does not "
            "persistently excite the system"
        )

    lower = r_fac.T
    l32 = lower[i2:, i1:i2]

    u_svd, s_svd, _ = np.linalg.svd(l32, full_matrices=False)
    svals = s_svd / np.sqrt(n_cols)
    # pad so the report always carries s * n_y entries
    padded = np.zeros(s * n_y)
    padded[: svals.size] = svals

    n = None if order == "auto" else int(order)
    if n is not None and n < 1:
        raise ValueError("order must be positive")
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
    W, and each chunk's rows [Phi | y] are folded into one (n_params + 1)
    square triangular factor [R_11 r_12; 0 r_22], so the solution is the
    minimum-norm least-squares one of R_11 theta = r_12 with the same
    relative cutoff, and no regressor array longer than a chunk is formed.
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
        drive[:, :, n:] = _unit_input_blocks(u_h, n)
        w_all = _lti_states(a, w, drive)
        rows = np.empty((len(u_h), n_y, n_params + 1))
        rows[:, :, :n_w] = c @ w_all[:-1]
        rows[:, :, n_w:-1] = _unit_input_blocks(u_h, n_y)
        rows[:, :, -1] = y_data[k0:k1] - y_mean
        r = _fold_factor(r, rows.reshape(-1, n_params + 1))
        w = w_all[-1]
    theta = min_norm_lsq(r[:n_params, :n_params], r[:n_params, -1])
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
