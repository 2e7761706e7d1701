"""Discrete-time LTI simulation, random test systems with placed transmission
zeros, benchmark input/fault/noise generators, and fault-channel zero and
invertibility analysis.

All randomized operations take an explicit seed and are deterministic given
it: each draws from the generator of ``_rng``, which refuses a seed of None.
Signals are plain (T, dim) float arrays; nothing here mutates shared
state.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from numbers import Real

import numpy as np

from .matstack import (
    RankPolicy,
    _depth,
    _input_output_arrays,
    _lti_states,
    _quadruple,
    _read_csv_body,
    as_matrix,
    block_toeplitz,  # noqa: F401 (unused here; the benchmark traces it in this module)
    extended_observability,
    numerical_rank,
)

__all__ = [
    "FaultPair",
    "StateSpace",
    "ZeroReport",
    "colored_noise",
    "fault_signal",
    "load_system_json",
    "random_system",
    "read_trajectory_csv",
    "save_system_json",
    "simulate",
    "stack_channels",
    "transmission_zeros",
    "white_input",
    "write_trajectory_csv",
]

# the pole of the first-order filter that colors the measurement noise
_NOISE_FILTER_POLE = 0.7
# random test systems draw their poles in the disk of this radius
_POLE_RADIUS = 0.95


def stack_channels(*signals) -> np.ndarray:
    """Concatenate same-length signals channel-wise."""
    parts = [as_matrix(s, "signal") for s in signals]
    lengths = {p.shape[0] for p in parts}
    if len(lengths) != 1:
        raise ValueError(f"channel lengths differ: {sorted(lengths)}")
    return np.hstack(parts)


def _controllability(a, b) -> np.ndarray:
    """[B, AB, ..., A^(n_x-1) B], the transposed observability stack of (A^T, B^T)."""
    return extended_observability(a.T, b.T, a.shape[0]).T


@dataclass
class StateSpace:
    """Quadruple (A, B, C, D) of a discrete-time LTI system."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        self.A, self.B, self.C, self.D = _quadruple(self.A, self.B, self.C, self.D)

    @property
    def n_x(self) -> int:
        return self.A.shape[0]

    @property
    def n_u(self) -> int:
        return self.B.shape[1]

    @property
    def n_y(self) -> int:
        return self.C.shape[0]

    def spectral_radius(self) -> float:
        return float(np.abs(np.linalg.eigvals(self.A)).max())

    def is_stable(self) -> bool:
        return self.spectral_radius() < 1.0 + 1e-10

    def is_minimal(self) -> bool:
        """Observability of (A, C) and controllability of (A, B) by rank test."""
        policy = RankPolicy.relative(1e-8)
        obs = extended_observability(self.A, self.C, self.n_x)
        return (
            numerical_rank(obs, policy) == self.n_x
            and numerical_rank(_controllability(self.A, self.B), policy) == self.n_x
        )


def _system_record(u, y, sys: StateSpace):
    """(u, y) of a record of ``sys`` as ``matstack._input_output_arrays``
    gives them: the record's channel counts must be the system's. Every
    stage that reads a record against a system checks it here."""
    u_data, y_data = _input_output_arrays(u, y)
    if (u_data.shape[1], y_data.shape[1]) != (sys.n_u, sys.n_y):
        raise ValueError(f"record channel counts (n_u, n_y) = {u_data.shape[1], y_data.shape[1]} "
                         f"do not match the system's {sys.n_u, sys.n_y}")
    return u_data, y_data


@dataclass
class FaultPair:
    """Matrices (F, G) through which the fault enters state and output."""

    F: np.ndarray
    G: np.ndarray

    def __post_init__(self):
        # a pair is one that some channel can carry: the quadruple rule at a
        # zero A and C of the pair's own state and output counts
        f, g = as_matrix(self.F, "F"), as_matrix(self.G, "G")
        n_x, n_y = f.shape[0], g.shape[0]
        _, self.F, _, self.G = _quadruple(np.zeros((n_x, n_x)), f, np.zeros((n_y, n_x)), g, "AFCG")

    @property
    def n_v(self) -> int:
        return self.F.shape[1]

    def stack(self) -> np.ndarray:
        return np.vstack([self.F, self.G])

    def check_matches(self, sys: StateSpace) -> None:
        """Refuse a pair that does not make (A, F, C, G) a channel quadruple
        with the system's A and C (``matstack._quadruple``)."""
        _quadruple(sys.A, self.F, sys.C, self.G, "AFCG")


@dataclass
class ZeroReport:
    """Transmission-zero structure of a fault channel, read by
    ``transmission_zeros`` at one rank threshold from one reduction of the
    channel and one of its dual.

    ``finite_zeros`` lists finite zeros with multiplicity by repetition.
    ``infinite_zero_count`` is the deficiency k n_v - rank T_k of the
    channel's Markov-parameter Toeplitz matrix at depth k = l_delay + 1, or
    k = n_x + 1 when the channel is not left invertible. ``l_delay`` is the
    smallest inversion delay, or None when the channel is not left
    invertible.
    """

    finite_zeros: list = field(default_factory=list)
    infinite_zero_count: int = 0
    l_delay: int | None = None

    @property
    def zeta(self) -> int:
        return len(self.finite_zeros) + self.infinite_zero_count

    @property
    def left_invertible(self) -> bool:
        return self.l_delay is not None


# ---------------------------------------------------------------------------
# simulation


def _initial_state(x, sys: StateSpace, name: str) -> np.ndarray:
    """The initial-state rule: ``x`` as a finite length-n_x array of
    ``sys``, refused under ``name`` otherwise. ``simulate`` reads its x0
    here, and a system file its ``x_tilde_0``."""
    x = as_matrix(x, name).ravel()
    if x.size != sys.n_x:
        raise ValueError(f"{name} must have {sys.n_x} entries, got {x.size}")
    return x


def simulate(sys: StateSpace, fault: FaultPair | None, x0, u, v=None, w=None):
    """Run x(k+1) = A x + B u + F v, y(k) = C x + D u + G v + w.

    Returns the arrays (y, x), where x carries T+1 samples including the
    terminal state.
    """
    u_data = as_matrix(u, "u")
    t = u_data.shape[0]
    if u_data.shape[1] != sys.n_u:
        raise ValueError(f"u has {u_data.shape[1]} channels, system expects {sys.n_u}")
    if fault is not None:
        fault.check_matches(sys)
        if v is None:
            raise ValueError("fault matrices given but no fault signal")
        v_data = as_matrix(v, "v")
        if v_data.shape != (t, fault.n_v):
            raise ValueError(
                f"v must be {t}x{fault.n_v}, got {v_data.shape[0]}x{v_data.shape[1]}"
            )
    elif v is not None:
        raise ValueError("fault signal v given but no fault matrices")
    else:
        v_data = None
    if w is not None:
        w_data = as_matrix(w, "w")
        if w_data.shape != (t, sys.n_y):
            raise ValueError(
                f"w must be {t}x{sys.n_y}, got {w_data.shape[0]}x{w_data.shape[1]}"
            )
    else:
        w_data = None
    x = np.zeros(sys.n_x) if x0 is None else _initial_state(x0, sys, "x0")

    # every input term is one matmul; the state recursion runs lifted
    drive = u_data @ sys.B.T
    feed = u_data @ sys.D.T
    if v_data is not None:
        drive = drive + v_data @ fault.F.T
        feed = feed + v_data @ fault.G.T
    xs = _lti_states(sys.A, x[:, None], drive[:, :, None])[:, :, 0]
    ys = xs[:t] @ sys.C.T + feed
    if w_data is not None:
        ys = ys + w_data
    return ys, xs


# ---------------------------------------------------------------------------
# signal generators


def _rng(seed, caller: str) -> np.random.Generator:
    """The seed rule: a randomized operation draws from the generator of an
    explicit seed. None, from which numpy would draw fresh OS entropy, is
    refused with a ValueError that names the ``caller``."""
    if seed is None:
        raise ValueError(f"{caller} needs an explicit seed, got None")
    return np.random.default_rng(seed)


def white_input(n_u: int, t: int, seed) -> np.ndarray:
    """I.i.d. standard normal input samples from the seeded generator; T is
    read by the depth rule (``matstack._depth``)."""
    t = _depth("T", t)
    return _rng(seed, "white_input").standard_normal((t, n_u))


def fault_signal(kind: str, t: int, seed=None) -> np.ndarray:
    """One of the two built-in scalar fault waveforms.

    "v1": 0.1 + sin(0.25 * k**1.3), a drifting non-periodic sinusoid.
    "v2": 1 - 0.99**k + z(k), a saturating ramp plus unit white noise
    (requires a seed for z, ``_rng``). T is read by the depth rule
    (``matstack._depth``).
    """
    t = _depth("T", t)
    k = np.arange(t, dtype=float)
    if kind == "v1":
        vals = 0.1 + np.sin(0.25 * k**1.3)
    elif kind == "v2":
        vals = 1.0 - 0.99**k + _rng(seed, "fault_signal").standard_normal(t)
    else:
        raise ValueError(f"unknown fault signal kind {kind!r}")
    return vals[:, None]


def _check_noise_level(snr_db) -> None:
    """The noise-level rule: ``snr_db`` is None or a real number, not a
    str or a bool, that is neither NaN nor -inf, which set no noise level.
    ``colored_noise`` applies it, and ``ExperimentConfig`` to its own
    ``snr_db``."""
    real = isinstance(snr_db, Real) and not isinstance(snr_db, bool)
    if snr_db is not None and not (real and snr_db > -math.inf):
        raise ValueError(f"snr_db must be None or a number, not NaN or -inf, got {snr_db!r}")


def colored_noise(n_y: int, t: int, snr_db, reference, seed) -> np.ndarray:
    """First-order low-pass filtered Gaussian noise at a per-channel SNR.

    White noise is shaped by f(k) = 0.7 f(k-1) + e(k) (``_NOISE_FILTER_POLE``),
    then each channel is scaled so 10*log10(power(ref_ch)/power(noise_ch))
    equals ``snr_db``.
    ``snr_db`` None or +inf yields the zero signal. Any other value must be
    a real number, neither NaN nor -inf (``_check_noise_level``): a str such
    as "40" or a bool is refused with a ``ValueError``, not converted. A
    seed of None is refused whatever the level (``_rng``).
    """
    _check_noise_level(snr_db)
    rng = _rng(seed, "colored_noise")
    ref = as_matrix(reference, "reference")
    if ref.shape != (t, n_y):
        raise ValueError(f"reference must be {t}x{n_y}, got {ref.shape}")
    if snr_db is None or snr_db == math.inf:
        return np.zeros((t, n_y))
    e = rng.standard_normal((t, n_y))
    # per channel over Python floats, which round exactly as the per-sample
    # array recursion does; f keeps e's row-major layout, so the power sums
    # below add in the same order
    f = np.empty_like(e)
    for j in range(n_y):
        steps = itertools.accumulate(e[:, j].tolist(), lambda prev, x: _NOISE_FILTER_POLE * prev + x)
        f[:, j] = np.fromiter(steps, float, count=t)
    ref_power = np.mean(ref**2, axis=0)
    if np.any(ref_power <= 0):
        bad = int(np.argmin(ref_power))
        raise ValueError(f"reference channel {bad} has zero power; SNR undefined")
    noise_power = np.mean(f**2, axis=0)
    target = ref_power * 10.0 ** (-float(snr_db) / 10.0)
    f *= np.sqrt(target / noise_power)
    return f


# ---------------------------------------------------------------------------
# transmission zeros and left invertibility


def _zero_policy(a, f, c, g, tol: float = 1e-8) -> RankPolicy:
    """The zero readout's one rank rule: a singular value at or below
    tol |[A F; C G]|_F of the channel counts as zero."""
    return RankPolicy.absolute(tol * np.linalg.norm(np.block([[a, f], [c, g]])))


def _zero_reduction(a, b, c, d, policy: RankPolicy):
    """Emami-Naeini & Van Dooren's reduction (Automatica 18(4), 1982), all
    of it orthogonal: a system (A_r, B_r, C_r, D_r) with the same finite
    zeros as (A, B, C, D) and D_r of full row rank, and the rank of D at
    each step.

    While D is row-rank deficient, its rows are compressed so that the
    deficient ones read [C_2 0]. Zero rows (C_2 = 0) change the pencil's
    rank nowhere and are dropped. Otherwise the states are rotated by W so
    that C_2 W = [0 C_22] with C_22 of full column rank; those rows then
    add rank C_22 to the pencil's rank at every point, so the states of
    C_22 are removed and their state equations join the outputs:
    A_r = A_11, B_r = B_1, C_r = [C_11; A_21], D_r = [D_1; B_2]. Each step
    removes one level of infinite zeros exactly; an eigenvalue solver on
    the whole pencil reads a chain of k infinite zeros to within about
    eps^(1/k) only, near enough to pass for finite ones.

    The first k ranks sum to the rank of T_k, the Toeplitz matrix of the
    first k Markov parameters, with the steps past the last read at the
    last rank (Van Dooren, IEEE TAC 26(1), 1981). The ranks never fall,
    since D_1 stays a block of the next D. The last rank plus n_x is the
    normal rank of the pencil [A - qI, B; C, D].
    """
    ranks = []
    while True:
        u, s_d, _ = np.linalg.svd(d)
        rank_d = policy.rank(s_d)
        ranks.append(rank_d)
        if rank_d == d.shape[0]:
            return a, b, c, d, ranks
        c = u.T @ c
        d = (u.T @ d)[:rank_d]
        _, s_c, vt = np.linalg.svd(c[rank_d:])
        rank_c = policy.rank(s_c)
        if rank_c == 0:
            c = c[:rank_d]
            continue
        # W = [kernel of C_2, its row space]
        w = np.vstack([vt[rank_c:], vt[:rank_c]]).T
        k = a.shape[0] - rank_c
        a, b = w.T @ a @ w, w.T @ b
        c, d = np.vstack([(c[:rank_d] @ w)[:, :k], a[k:, :k]]), np.vstack([d, b[k:]])
        a, b = a[:k, :k], b[:k]


def transmission_zeros(a, f, c, g, tol: float = 1e-8) -> ZeroReport:
    """Zero structure of the channel (A, F, C, G), read from two
    ``_zero_reduction`` runs at one threshold, ``_zero_policy`` with ``tol``.

    The reduction of the channel reads the ranks sigma_0, sigma_1, ... of
    G_r at its steps; they are the rank increments of the Toeplitz matrices
    T_1, T_2, ..., and the Rosenbrock pencil [A-qI, F; C, G] has normal
    rank n_x plus the last one. The channel is left invertible when the
    last one is n_v: the inversion delay is the first l with
    sigma_l = n_v, and the infinite-zero count is the sum of n_v - sigma_i
    over i <= l. Otherwise the count is (n_x+1) n_v - rank T_(n_x+1).

    Finite zeros are the values where the pencil drops below its normal
    rank. The reduced channel keeps them and has a G_r of full row rank;
    the reduction of its dual (A_r^T, C_r^T, F_r^T, G_r^T) then leaves a
    square invertible G, because its rank never falls from the full
    column rank it starts at. That last system's pencil is regular with
    no infinite zeros, so the finite zeros are the eigenvalues of
    A - F G^-1 C, for every channel shape. A singular pencil, such as that
    of a channel with a repeated fault column, loses its zero rows and
    columns on the way. The quadruple rule (``matstack._quadruple``)
    refuses a channel whose shapes do not fit together: A not square, F
    without n_x rows, C without n_x columns, or G not n_y x n_v.
    """
    a, f, c, g = _quadruple(a, f, c, g, "AFCG")
    n = a.shape[0]
    nv = f.shape[1]

    policy = _zero_policy(a, f, c, g, tol)
    a, f, c, g, ranks = _zero_reduction(a, f, c, g, policy)
    l_delay = ranks.index(nv) if ranks[-1] == nv else None
    depth = n + 1 if l_delay is None else l_delay + 1
    infinite = depth * nv - sum((ranks + ranks[-1:] * depth)[:depth])

    a, c, f, g, _ = _zero_reduction(a.T, c.T, f.T, g.T, policy)
    finite = []
    for z in np.linalg.eigvals(a - c @ np.linalg.solve(g, f)):
        z = complex(z)
        if abs(z.imag) <= 1e-9 * (1.0 + abs(z.real)):
            z = complex(z.real, 0.0)
        finite.append(z)
    finite.sort(key=lambda z: (z.real, z.imag))
    return ZeroReport(finite_zeros=finite, infinite_zero_count=int(infinite), l_delay=l_delay)


# ---------------------------------------------------------------------------
# random test systems


def _random_stable_a(n_x: int, rng: np.random.Generator) -> np.ndarray:
    """Real matrix with eigenvalues uniform in the disk of radius ``_POLE_RADIUS``."""
    n_pairs = int(rng.integers(0, n_x // 2 + 1))
    a = np.zeros((n_x, n_x))
    for k in range(0, 2 * n_pairs, 2):
        r = _POLE_RADIUS * np.sqrt(rng.uniform())
        th = rng.uniform(0.0, np.pi)
        re, im = r * np.cos(th), r * np.sin(th)
        a[k : k + 2, k : k + 2] = [[re, im], [-im, re]]
    for k in range(2 * n_pairs, n_x):
        a[k, k] = rng.uniform(-_POLE_RADIUS, _POLE_RADIUS)
    q, r = np.linalg.qr(rng.standard_normal((n_x, n_x)))
    q = q * np.sign(np.diag(r))
    return q @ a @ q.T


def _place_fault_pair(
    sys: StateSpace, n_v: int, zeros: np.ndarray, rng: np.random.Generator
) -> FaultPair:
    """Draw (F, G) from the linear solution set enforcing the requested zeros.

    Each zero z with a random nonzero input direction v imposes the
    homogeneous constraint C (zI - A)^{-1} F v + G v = 0, linear in (F, G).
    A random element of the constraint nullspace is returned, with columns
    of [F; G] normalized to unit length.
    """
    n_x, n_y = sys.n_x, sys.n_y
    n_params = n_v * (n_x + n_y)
    rows = []
    for z in zeros:
        v_dir = rng.standard_normal(n_v)
        v_dir /= np.linalg.norm(v_dir)
        w = sys.C @ np.linalg.inv(z * np.eye(n_x) - sys.A)
        # block row: [W (v^T kron I_nx), (v^T kron I_ny)] acting on [vecF; vecG]
        rows.append(np.hstack([w @ np.kron(v_dir, np.eye(n_x)), np.kron(v_dir, np.eye(n_y))]))
    if rows:
        k = np.vstack(rows)
        _, svals, vt = np.linalg.svd(k, full_matrices=True)
        null = vt[RankPolicy.relative(1e-10).rank(svals):].T
        if null.shape[1] == 0:
            raise ValueError(
                f"cannot place {len(zeros)} zeros on a channel with "
                f"{n_params} free parameters"
            )
        theta = null @ rng.standard_normal(null.shape[1])
    else:
        theta = rng.standard_normal(n_params)
    f = theta[: n_v * n_x].reshape(n_v, n_x).T
    g = theta[n_v * n_x :].reshape(n_v, n_y).T
    stack = np.vstack([f, g])
    norms = np.linalg.norm(stack, axis=0)
    if np.any(norms < 1e-10):
        raise ValueError("degenerate fault direction drawn")
    return FaultPair(f / norms, g / norms)


def _channel_controllable(a, f) -> bool:
    return numerical_rank(_controllability(a, f), RankPolicy.relative(1e-8)) == a.shape[0]


def _check_study_shape(n_x: int, n_y: int, n_v: int, *zero_counts) -> None:
    """The study-shape rule: more outputs than fault channels, and each zero
    count between 0 and n_x. ``random_system`` applies it to its one zero
    count, and ``ExperimentConfig`` to its dims and every zero count."""
    if n_y <= n_v:
        raise ValueError(f"need more outputs than fault channels (n_y > n_v): n_y={n_y}, n_v={n_v}")
    for zero_count in zero_counts:
        if not 0 <= zero_count <= n_x:
            raise ValueError(f"zero count {zero_count} is not between 0 and n_x={n_x}")


def random_system(
    n_x: int,
    n_u: int,
    n_y: int,
    n_v: int,
    zero_count: int,
    seed,
    max_tries: int = 50,
):
    """Stable minimal system plus a left-invertible fault channel.

    The channel (A, F, C, G) is minimal and has exactly ``zero_count``
    finite real transmission zeros drawn from a standard normal (systems
    may be non-minimum phase). Deterministic given the seed. n_y > n_v and
    0 <= zero_count <= n_x are required (``_check_study_shape``), and so is
    a seed other than None (``_rng``).
    """
    _check_study_shape(n_x, n_y, n_v, zero_count)
    rng = _rng(seed, "random_system")
    last_err = "exhausted attempts"
    for _ in range(max_tries):
        a = _random_stable_a(n_x, rng)
        sys = StateSpace(
            a,
            rng.standard_normal((n_x, n_u)),
            rng.standard_normal((n_y, n_x)),
            rng.standard_normal((n_y, n_u)),
        )
        if not sys.is_minimal():
            last_err = "nominal system not minimal"
            continue
        eigs = np.linalg.eigvals(a)
        zeros = rng.standard_normal(zero_count)
        # keep placed zeros away from poles and from each other
        if zero_count:
            pole_dist = np.min(np.abs(zeros[:, None] - eigs[None, :]))
            mutual = np.abs(np.subtract.outer(zeros, zeros))
            mutual_dist = np.min(mutual[~np.eye(zero_count, dtype=bool)]) if zero_count > 1 else np.inf
            if pole_dist < 1e-2 or mutual_dist < 1e-2:
                last_err = "placed zeros too close to poles or to each other"
                continue
        try:
            fault = _place_fault_pair(sys, n_v, zeros, rng)
        except ValueError as exc:
            last_err = str(exc)
            continue
        if not _channel_controllable(a, fault.F):
            last_err = "fault channel not controllable"
            continue
        report = transmission_zeros(a, fault.F, sys.C, fault.G)
        if report.l_delay is None:
            last_err = "fault channel not left invertible"
            continue
        found = sorted(z.real for z in report.finite_zeros)
        if len(report.finite_zeros) != zero_count or any(
            abs(z.imag) > 1e-6 for z in report.finite_zeros
        ):
            last_err = "zero placement produced a different zero count"
            continue
        if zero_count and np.max(np.abs(np.asarray(found) - np.sort(zeros))) > 1e-6:
            last_err = "placed zeros not recovered at tolerance"
            continue
        return sys, fault
    raise ValueError(
        f"could not generate a system with dims ({n_x},{n_u},{n_y},{n_v}) and "
        f"{zero_count} zeros after {max_tries} attempts: {last_err}"
    )


# ---------------------------------------------------------------------------
# persistence


def write_trajectory_csv(path, traj) -> None:
    data = as_matrix(traj, "signal")
    lines = ["t," + ",".join(f"ch{i}" for i in range(data.shape[1])) + "\n"]
    lines += [f"{k}," + ",".join(map(repr, row)) + "\n" for k, row in enumerate(data.tolist())]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(lines))


def read_trajectory_csv(path) -> np.ndarray:
    """The (T, dim) signal of a trajectory CSV: a ``t,ch0,...`` header, then
    one sample per line after its index, read by ``matstack._read_csv_body``
    (blank lines skipped; an empty or ragged body and a non-finite entry
    refused)."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        if header[0] != "t":
            raise ValueError(f"bad trajectory CSV header in {path}")
        data = _read_csv_body(fh, path, "trajectory")
    return as_matrix(data[:, 1:], "trajectory")


def save_system_json(path, sys: StateSpace, fault: FaultPair | None = None, x_tilde_0=None) -> None:
    """Write a system file: A, B, C, D and their dims, then, when given, F
    and G and the initial state ``x_tilde_0``, as strict JSON (sorted keys,
    indent 2, a trailing newline; a non-finite value raises)."""
    obj = {
        "A": sys.A.tolist(),
        "B": sys.B.tolist(),
        "C": sys.C.tolist(),
        "D": sys.D.tolist(),
        "dims": {"n_x": sys.n_x, "n_u": sys.n_u, "n_y": sys.n_y},
    }
    if fault is not None:
        obj["F"] = fault.F.tolist()
        obj["G"] = fault.G.tolist()
        obj["dims"]["n_v"] = fault.n_v
    if x_tilde_0 is not None:
        obj["x_tilde_0"] = _initial_state(x_tilde_0, sys, "x_tilde_0").tolist()
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def load_system_json(path):
    """(StateSpace, FaultPair or None, x_tilde_0 or None) of a system file.
    F and G come together: a file with only one of them is refused."""
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    sys = StateSpace(obj["A"], obj["B"], obj["C"], obj["D"])
    if ("F" in obj) != ("G" in obj):
        raise ValueError(f"system file {path} carries only one of F and G")
    fault = FaultPair(obj["F"], obj["G"]) if "F" in obj else None
    x_tilde_0 = _initial_state(obj["x_tilde_0"], sys, "x_tilde_0") if "x_tilde_0" in obj else None
    return sys, fault, x_tilde_0
