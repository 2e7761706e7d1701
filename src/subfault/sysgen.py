"""Discrete-time LTI simulation, random test systems with placed transmission
zeros, benchmark input/fault/noise generators, and fault-channel zero and
invertibility analysis.

All randomized operations take an explicit seed and are deterministic given
it. Signals are plain (T, dim) float arrays; nothing here mutates shared
state.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .matstack import (
    RankPolicy,
    _lti_states,
    as_matrix,
    block_toeplitz,
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

# pencil eigenvalues with modulus beyond this are treated as infinite
_INFINITE_ZERO_CUTOFF = 1e6


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
        self.A = as_matrix(self.A, "A")
        self.B = as_matrix(self.B, "B")
        self.C = as_matrix(self.C, "C")
        self.D = as_matrix(self.D, "D")
        n = self.A.shape[0]
        if self.A.shape[1] != n:
            raise ValueError(f"A must be square, got {self.A.shape}")
        if self.B.shape[0] != n:
            raise ValueError("B row count does not match the state dimension")
        if self.C.shape[1] != n:
            raise ValueError("C column count does not match the state dimension")
        if self.D.shape != (self.C.shape[0], self.B.shape[1]):
            raise ValueError(
                f"D must be {self.C.shape[0]}x{self.B.shape[1]}, got {self.D.shape}"
            )

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

    def is_stable(self, tol: float = 1e-10) -> bool:
        return self.spectral_radius() < 1.0 + tol

    def is_minimal(self, tol: float = 1e-8) -> bool:
        """Observability of (A, C) and controllability of (A, B) by rank test."""
        policy = RankPolicy.relative(tol)
        obs = extended_observability(self.A, self.C, self.n_x)
        return (
            numerical_rank(obs, policy) == self.n_x
            and numerical_rank(_controllability(self.A, self.B), policy) == self.n_x
        )


@dataclass
class FaultPair:
    """Matrices (F, G) through which the fault enters state and output."""

    F: np.ndarray
    G: np.ndarray

    def __post_init__(self):
        self.F = as_matrix(self.F, "F")
        self.G = as_matrix(self.G, "G")
        if self.F.shape[1] != self.G.shape[1]:
            raise ValueError("F and G must have the same number of columns")

    @property
    def n_v(self) -> int:
        return self.F.shape[1]

    def stack(self) -> np.ndarray:
        return np.vstack([self.F, self.G])

    def check_matches(self, sys: StateSpace) -> None:
        if self.F.shape[0] != sys.n_x:
            raise ValueError("F row count does not match the state dimension")
        if self.G.shape[0] != sys.n_y:
            raise ValueError("G row count does not match the output dimension")


@dataclass
class ZeroReport:
    """Transmission-zero structure of a fault channel.

    ``finite_zeros`` lists finite zeros with multiplicity by repetition.
    ``l_delay`` is the smallest inversion delay, or None when the channel is
    not left invertible.
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
    x = np.zeros(sys.n_x) if x0 is None else np.asarray(x0, dtype=float).reshape(-1)
    if x.shape[0] != sys.n_x:
        raise ValueError(f"x0 must have length {sys.n_x}, got {x.shape[0]}")

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


def white_input(n_u: int, t: int, seed) -> np.ndarray:
    """I.i.d. standard normal input samples from the seeded generator."""
    if t < 1:
        raise ValueError("T must be at least 1")
    rng = np.random.default_rng(seed)
    return rng.standard_normal((t, n_u))


def fault_signal(kind: str, t: int, seed=None) -> np.ndarray:
    """One of the two built-in scalar fault waveforms.

    "v1": 0.1 + sin(0.25 * k**1.3), a drifting non-periodic sinusoid.
    "v2": 1 - 0.99**k + z(k), a saturating ramp plus unit white noise
    (requires a seed for z).
    """
    if t < 1:
        raise ValueError("T must be at least 1")
    k = np.arange(t, dtype=float)
    if kind == "v1":
        vals = 0.1 + np.sin(0.25 * k**1.3)
    elif kind == "v2":
        rng = np.random.default_rng(seed)
        vals = 1.0 - 0.99**k + rng.standard_normal(t)
    else:
        raise ValueError(f"unknown fault signal kind {kind!r}")
    return vals[:, None]


def colored_noise(n_y: int, t: int, snr_db, reference, seed) -> np.ndarray:
    """First-order low-pass filtered Gaussian noise at a per-channel SNR.

    White noise is shaped by f(k) = 0.7 f(k-1) + e(k), then each channel is
    scaled so 10*log10(power(ref_ch)/power(noise_ch)) equals ``snr_db``.
    ``snr_db`` None or +inf yields the zero signal.
    """
    ref = as_matrix(reference, "reference")
    if ref.shape != (t, n_y):
        raise ValueError(f"reference must be {t}x{n_y}, got {ref.shape}")
    if snr_db is None or float(snr_db) == math.inf:
        return np.zeros((t, n_y))
    if not math.isfinite(float(snr_db)):
        raise ValueError("snr_db must be finite, None, or +inf")
    rng = np.random.default_rng(seed)
    e = rng.standard_normal((t, n_y))
    # per channel over Python floats, which round exactly as the per-sample
    # array recursion does; f keeps e's row-major layout, so the power sums
    # below add in the same order
    f = np.empty_like(e)
    for j in range(n_y):
        steps = itertools.accumulate(e[:, j].tolist(), lambda prev, x: 0.7 * prev + x)
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


def _rosenbrock(a, f, c, g, q: complex) -> np.ndarray:
    n = a.shape[0]
    top = np.hstack([a - q * np.eye(n), f])
    bottom = np.hstack([c, g])
    return np.vstack([top, bottom])


def _square_pencil_eigs(a, f, c, g) -> np.ndarray:
    """Finite generalized eigenvalues of the square Rosenbrock pencil."""
    n, nv = a.shape[0], f.shape[1]
    m = np.block([[a, f], [c, g]])
    e = np.zeros((n + nv, n + nv))
    e[:n, :n] = np.eye(n)
    hom = scipy.linalg.eig(m, e, right=False, homogeneous_eigvals=True)
    out = []
    for al, be in zip(hom[0], hom[1]):
        if abs(be) <= 1e-12 * max(abs(al), 1.0):
            continue  # infinite
        q = al / be
        if not np.isfinite(q) or abs(q) > _INFINITE_ZERO_CUTOFF:
            continue
        out.append(complex(q))
    return np.asarray(out)


def transmission_zeros(a, f, c, g, tol: float = 1e-8) -> ZeroReport:
    """Zero structure of the channel (A, F, C, G).

    One rank sweep over the impulse-response Toeplitz matrices T_1 ...
    T_(n_x+1) reads everything but the finite zeros. Its rank increments
    rise to the normal rank of the transfer matrix, so the Rosenbrock
    pencil [A-qI, F; C, G] has normal rank n_x plus the last increment. The
    depth where an increment first reaches the input dimension gives the
    inversion delay and the infinite-zero count; a channel whose increments
    never reach it is not left invertible, and its count is the deficiency
    of T_(n_x+1). Finite zeros are the values where the pencil drops below
    its normal rank. Candidates are the eigenvalues of one square pencil,
    the channel itself or, with more outputs than inputs, a fixed random
    output mix of it; the rank test on the original pencil rejects the
    eigenvalues the mix adds.
    """
    a = as_matrix(a, "A")
    f = as_matrix(f, "F")
    c = as_matrix(c, "C")
    g = as_matrix(g, "G")
    n = a.shape[0]
    nv = f.shape[1]
    ny = c.shape[0]
    if a.shape[1] != n or f.shape[0] != n or c.shape[1] != n or g.shape != (ny, nv):
        raise ValueError("channel quadruple has inconsistent dimensions")

    # a pencil at a complex point is complex and numerical_rank would drop
    # its imaginary part, so every spectrum here is counted directly
    policy = RankPolicy.relative(tol)

    prev_rank = 0
    for s in range(1, n + 2):
        rank_s = policy.rank(np.linalg.svd(block_toeplitz(a, f, c, g, s), compute_uv=False))
        step = rank_s - prev_rank
        if step == nv:
            break
        prev_rank = rank_s
    l_delay = s - 1 if step == nv else None
    infinite = s * nv - rank_s
    normal_rank = n + step

    if ny == nv:
        candidates = _square_pencil_eigs(a, f, c, g)
    elif ny > nv:
        s_mix = np.random.default_rng(24601).standard_normal((nv, ny))
        candidates = _square_pencil_eigs(a, f, s_mix @ c, s_mix @ g)
    else:
        # wide channels are never left invertible; no finite-zero search
        candidates = []

    finite = []
    for z in candidates:
        pencil = _rosenbrock(a, f, c, g, z)
        if policy.rank(np.linalg.svd(pencil, compute_uv=False)) < normal_rank:
            if abs(z.imag) <= 1e-9 * (1.0 + abs(z.real)):
                z = complex(z.real, 0.0)
            finite.append(z)
    finite.sort(key=lambda z: (z.real, z.imag))
    return ZeroReport(finite_zeros=finite, infinite_zero_count=int(infinite), l_delay=l_delay)


# ---------------------------------------------------------------------------
# random test systems


def _random_stable_a(n_x: int, rng: np.random.Generator, radius: float = 0.95) -> np.ndarray:
    """Real matrix with eigenvalues uniform in the disk of the given radius."""
    n_pairs = int(rng.integers(0, n_x // 2 + 1))
    blocks = []
    for _ in range(n_pairs):
        r = radius * np.sqrt(rng.uniform())
        th = rng.uniform(0.0, np.pi)
        re, im = r * np.cos(th), r * np.sin(th)
        blocks.append(np.array([[re, im], [-im, re]]))
    for _ in range(n_x - 2 * n_pairs):
        blocks.append(np.array([[rng.uniform(-radius, radius)]]))
    a = scipy.linalg.block_diag(*blocks)
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


def _channel_controllable(a, f, tol: float = 1e-8) -> bool:
    return numerical_rank(_controllability(a, f), RankPolicy.relative(tol)) == a.shape[0]


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
    may be non-minimum phase). Deterministic given the seed.
    """
    if n_y <= n_v:
        raise ValueError("need more outputs than fault channels (n_y > n_v)")
    if zero_count < 0 or zero_count > n_x:
        raise ValueError("zero_count must be between 0 and n_x")
    rng = np.random.default_rng(seed)
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
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t," + ",".join(f"ch{i}" for i in range(data.shape[1])) + "\n")
        for k, row in enumerate(data):
            fh.write(f"{k}," + ",".join(repr(float(x)) for x in row) + "\n")


def read_trajectory_csv(path) -> np.ndarray:
    """The (T, dim) signal of a trajectory CSV: a ``t,ch0,...`` header, then
    one sample per line after its index. Blank lines are skipped; an empty
    or ragged body and a non-finite sample are refused."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        if header[0] != "t":
            raise ValueError(f"bad trajectory CSV header in {path}")
        body = (line for line in fh if line.strip())
        first = next(body, None)
        if first is None:
            raise ValueError(f"no samples in {path}")
        data = np.loadtxt(itertools.chain([first], body), delimiter=",", comments=None, ndmin=2)
    return as_matrix(data[:, 1:], "trajectory")


def _system_json(sys: StateSpace, fault: FaultPair | None = None) -> dict:
    """The object of a system file: A, B, C, D, their dims and, given a
    fault, F and G."""
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
    return obj


def save_system_json(path, sys: StateSpace, fault: FaultPair | None = None, seed=None) -> None:
    obj = _system_json(sys, fault)
    if seed is not None:
        obj["seed"] = seed
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_system_json(path):
    """(StateSpace, FaultPair or None, x~0 or None) of a system file; the
    optional ``x_tilde_0`` key is the initial state ``identify`` writes."""
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    sys = StateSpace(obj["A"], obj["B"], obj["C"], obj["D"])
    fault = None
    if "F" in obj and "G" in obj:
        fault = FaultPair(obj["F"], obj["G"])
    x_tilde_0 = None
    if "x_tilde_0" in obj:
        x_tilde_0 = as_matrix(obj["x_tilde_0"], "x_tilde_0").ravel()
        if x_tilde_0.size != sys.n_x:
            raise ValueError(f"x_tilde_0 must have {sys.n_x} entries, got {x_tilde_0.size}")
    return sys, fault, x_tilde_0


def load_system_json(path):
    """Returns (StateSpace, FaultPair or None)."""
    return _read_system_json(path)[:2]
