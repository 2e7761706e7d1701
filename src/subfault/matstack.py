"""Dense linear-algebra kernel for block-structured system data.

Everything operates on plain float64 numpy arrays, and no sparse machinery
is provided. Block Hankel data matrices have a few dozen rows but one
column per sample, so their width grows with the record length T; the
pipeline reads them only through their small triangular factors, which
``_hankel_factor`` accumulates over chunks of columns so that no T-wide
matrix is formed (``block_hankel`` builds the full matrix, which only
tests and the public ``faultrec.residual_hankel`` use). Every triangular
factor in the package, those folds and the fault smoother's steps alike,
comes from one QR kernel (``_triangle``): LAPACK dgeqrf called directly on
a Fortran-ordered buffer, with the optimal workspace queried once per
shape. On a fold's shapes np.linalg.qr's dispatch and copies cost more
than the routine, so a fold takes a half to a third of its time (2108 x
60: 3.4 to 1.75 ms; 6158 x 14: 1.8 to 0.63 ms, one BLAS thread), with the
same bits (see ``_triangle``). Markov parameters are built in one place
(``_markov_blocks``). A block Toeplitz matrix grows with the square of its
depth, so the pipeline builds one only at a window depth (a few to a few
dozen blocks), never at the record length.
State recursions over a whole record run in one place (``_lti_states``),
lifted by a block length of about sqrt(T) (or of the chunk) so that no
Python loop runs once per sample: ``simulate``, the B/D/x0 regressors and
both passes of the stationary fault smoother use it, and the smoother's
only per-sample loop left is its data-independent tail near T. All
decompositions are deterministic: singular-vector signs are normalized so
that each column's first significant entry is positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dgeqrf, dgeqrf_lwork

__all__ = [
    "RankPolicy",
    "as_matrix",
    "block_hankel",
    "block_toeplitz",
    "extended_observability",
    "fix_column_signs",
    "min_norm_lsq",
    "numerical_rank",
    "principal_angles",
    "range_basis",
    "range_equal",
    "read_matrix_csv",
    "write_matrix_csv",
]


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite, C-contiguous 2-D float array; 1-D input becomes one
    column, so a (T,) time series becomes a (T, 1) signal. A strided view is
    copied, so a matrix computes with the same bits whether it came from a
    decomposition or was read back from a file."""
    m = np.asarray(a, dtype=float)
    if m.ndim == 1:
        m = m[:, None]
    if m.ndim != 2:
        raise ValueError(f"{name} must be 1-D or 2-D, got shape {m.shape}")
    if m.size and not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return np.ascontiguousarray(m)


def _input_output_arrays(u, y):
    """Coerce an input/output record pair, checking that the lengths agree."""
    u_data = as_matrix(u, "u")
    y_data = as_matrix(y, "y")
    if u_data.shape[0] != y_data.shape[0]:
        raise ValueError(
            f"u and y lengths differ: {u_data.shape[0]} vs {y_data.shape[0]}"
        )
    return u_data, y_data


def fix_column_signs(m: np.ndarray) -> np.ndarray:
    """Flip columns so the first entry larger than 1e-12*max|col| is positive."""
    m = np.array(m, dtype=float, copy=True)
    for j in range(m.shape[1]):
        col = m[:, j]
        big = np.abs(col) > 1e-12 * max(np.abs(col).max(initial=0.0), 1e-300)
        idx = np.flatnonzero(big)
        if idx.size and col[idx[0]] < 0:
            m[:, j] = -col
    return m


# ---------------------------------------------------------------------------
# rank machinery

# least consecutive singular-value ratio read as a gap (rank and order)
_GAP_RATIO = 10.0


@dataclass(frozen=True)
class RankPolicy:
    """Rule for deciding numerical rank from a singular spectrum.

    This is the package's one rank decision point: every rank, nullity and
    gap readout resolves a threshold here and counts with ``rank``; gap
    indices come from the module's one largest-ratio scan.

    kind "abs": count values above ``tol``.
    kind "rel": count values above ``tol * sigma_1``.
    kind "gap": rank at the smallest index maximizing sigma_i / sigma_{i+1}
        over the values down to the first one at or below 1e-300 sigma_1;
        the winning ratio must reach ``_GAP_RATIO`` (10), otherwise the
        relative rule with ``tol`` (1e-8) is used as fallback.
    kind "floor": count values above ``scale`` times the smallest singular
        value (at least 1e-15 sigma_1), treating the spectrum bottom as the
        noise floor. On exact-arithmetic data the bottom is the machine
        floor, so this reduces to counting all structurally nonzero values.
        The scale is 3, or 1.2 in the annihilator.
    """

    kind: str = "rel"
    tol: float = 1e-8
    scale: float = 3.0

    def __post_init__(self):
        if self.kind not in ("abs", "rel", "gap", "floor"):
            raise ValueError(f"unknown rank policy kind {self.kind!r}")
        if self.tol < 0:
            raise ValueError("tolerance must be nonnegative")

    @classmethod
    def absolute(cls, tol: float) -> "RankPolicy":
        return cls(kind="abs", tol=tol)

    @classmethod
    def relative(cls, tol: float = 1e-8) -> "RankPolicy":
        return cls(kind="rel", tol=tol)

    @classmethod
    def gap(cls) -> "RankPolicy":
        return cls(kind="gap")

    @classmethod
    def noise_floor(cls, scale: float = 3.0) -> "RankPolicy":
        return cls(kind="floor", scale=scale)

    def threshold(self, singular_values) -> float:
        """Absolute cutoff implied by this policy for the given spectrum."""
        s = np.asarray(singular_values, dtype=float)
        if s.size == 0:
            return self.tol
        if self.kind == "abs":
            return self.tol
        if self.kind == "rel":
            return self.tol * s[0]
        if self.kind == "floor":
            if s[0] <= 0:
                return 0.0
            machine = s[0] * 1e-15
            floor = s[-1] if s[-1] > machine else machine
            return float(self.scale * floor)
        # gap: stop ranking once the spectrum hits exact zeros
        gap = _largest_gap(s[: RankPolicy.relative(1e-300).rank(s) + 1])
        if gap is not None and gap[1] >= _GAP_RATIO:
            hi, lo = s[gap[0]], s[gap[0] + 1]
            # geometric-mean cutoff between kept and dropped values
            return float(np.sqrt(hi * max(lo, hi * 1e-14)))
        return self.tol * s[0]

    def rank(self, singular_values) -> int:
        """Number of singular values above this policy's threshold."""
        s = np.asarray(singular_values, dtype=float)
        return int(np.sum(s > self.threshold(s)))


def _largest_gap(s):
    """(i, s[i] / s[i+1]) at the largest consecutive ratio of a nonincreasing
    spectrum, the first such i on ties; the ratio is infinite where s[i+1]
    is exactly 0. None for fewer than two values."""
    best = None
    for i in range(len(s) - 1):
        ratio = s[i] / s[i + 1] if s[i + 1] > 0 else np.inf
        if best is None or ratio > best[1]:
            best = (i, ratio)
    return best


def numerical_rank(m, policy: RankPolicy | None = None) -> int:
    """Numerical rank of ``m`` under ``policy`` (default: relative 1e-8)."""
    m = as_matrix(m)
    if m.size == 0:
        raise ValueError("cannot compute the rank of an empty matrix")
    return (policy or RankPolicy.relative()).rank(np.linalg.svd(m, compute_uv=False))


# ---------------------------------------------------------------------------
# block constructions


def block_hankel(signal, depth: int, width: int | None = None) -> np.ndarray:
    """Block-Hankel matrix of a time series.

    Block (i, j) is sample ``signal[i + j]`` as a column, i in 0..depth-1,
    j in 0..width-1, so column j stacks the window starting at sample j.
    """
    data = as_matrix(signal, "signal")
    t, dim = data.shape
    if depth < 1:
        raise ValueError("depth must be at least 1")
    if width is None:
        width = t - depth + 1
    if width < 1:
        raise ValueError("width must be at least 1")
    needed = depth + width - 1
    if t < needed:
        raise ValueError(
            f"signal too short: block Hankel with depth {depth} and width {width} "
            f"requires {needed} samples, only {t} available"
        )
    h = np.empty((depth * dim, width))
    for i in range(depth):
        h[i * dim:(i + 1) * dim, :] = data[i:i + width].T
    return h


def extended_observability(a, c, s: int) -> np.ndarray:
    """Stack [C; CA; ...; C A^(s-1)], the Markov parameters C A^k B with B = I."""
    a = as_matrix(a, "A")
    c = as_matrix(c, "C")
    n = a.shape[0]
    if a.shape[1] != n:
        raise ValueError(f"A must be square, got {a.shape}")
    if c.shape[1] != n:
        raise ValueError(f"C has {c.shape[1]} columns but A is {n}x{n}")
    if s < 1:
        raise ValueError("s must be at least 1")
    p = c.shape[0]
    return _markov_blocks(a, np.eye(n), c, np.zeros((p, n)), s + 1)[1:].reshape(s * p, n)


def _markov_blocks(a, b, c, d, count: int) -> np.ndarray:
    """Markov parameters D, CB, CAB, ..., C A^(count-2) B of checked float
    matrices, stacked with shape (count, p, m)."""
    out = np.empty((count,) + d.shape)
    out[0] = d
    cak = c
    for k in range(1, count):
        out[k] = cak @ b
        cak = cak @ a
    return out


def block_toeplitz(a, b, c, d, s: int) -> np.ndarray:
    """Lower block-triangular impulse-response matrix.

    D on the block diagonal and C A^(k-1) B on the k-th block subdiagonal;
    maps a stacked input window to the stacked output window.
    """
    a = as_matrix(a, "A")
    b = as_matrix(b, "B")
    c = as_matrix(c, "C")
    d = as_matrix(d, "D")
    n = a.shape[0]
    if a.shape[1] != n or b.shape[0] != n or c.shape[1] != n:
        raise ValueError("A, B, C have inconsistent state dimensions")
    p, m = c.shape[0], b.shape[1]
    if d.shape != (p, m):
        raise ValueError(f"D must be {p}x{m}, got {d.shape}")
    if s < 1:
        raise ValueError("s must be at least 1")
    # block (i, j) is parameter i - j; the appended zero block fills j > i
    params = np.concatenate([_markov_blocks(a, b, c, d, s), np.zeros((1, p, m))])
    lag = np.arange(s)[:, None] - np.arange(s)[None, :]
    blocks = params[np.where(lag >= 0, lag, s)]
    return blocks.transpose(0, 2, 1, 3).reshape(s * p, s * m)


def _lti_states(a, x0, drive) -> np.ndarray:
    """States x(0..T) of x(k+1) = A x(k) + drive(k), shape (T+1, n, p), for
    x0 of shape (n, p) and drive of shape (T, n, p).

    The recursion is lifted by the block length L = ceil(sqrt(T)): with
    s_b = x(bL) and z_b(j) the zero-start response to drive(bL..bL+j),
    x(bL + j + 1) = A^(j+1) s_b + z_b(j). So about 2 sqrt(T) batched steps
    replace the T sequential ones: L steps build every block's z_b at once,
    T/L steps carry s_(b+1) = A^L s_b + z_b(L-1), and one batched product
    adds A^(j+1) s_b inside every block. The result matches the per-sample
    recursion up to rounding.
    """
    t, n, p = drive.shape
    blk = math.isqrt(max(t - 1, 0)) + 1
    out = np.empty((t + 1, n, p))
    out[0] = x0
    # row 1 + b*blk + j holds z_b(j); the rows of one offset j form a stride
    out[1::blk] = drive[::blk]
    for j in range(1, blk):
        cur = out[1 + j::blk]
        np.matmul(a, out[j::blk][: len(cur)], out=cur)
        cur += drive[j::blk]
    powers = np.empty((blk + 1, n, n))
    powers[0] = np.eye(n)
    for j in range(blk):
        powers[j + 1] = a @ powers[j]
    # block starts, in place: row (b+1)*blk holds z_b(blk-1) until updated
    full = t // blk
    for b in range(full):
        out[(b + 1) * blk] += powers[blk] @ out[b * blk]
    # A^(j+1) s_b for every block b and offset j < blk-1 (the last offset of
    # a full block is already its successor's start)
    lift = powers[1:blk] @ out[0:t:blk, None]
    out[1:1 + full * blk].reshape(full, blk, n, p)[:, :-1] += lift[:full]
    out[1 + full * blk:] += lift[full:, : t - full * blk].reshape(-1, n, p)
    return out


# ---------------------------------------------------------------------------
# triangular factors of tall data matrices

# columns of a data matrix (samples of a regression) per chunk of a
# triangular-factor pass; swept over T = 1e3 .. 1e6 (see CHANGES.md)
_CHUNK = 2048


@lru_cache(maxsize=256)
def _qr_lwork(m: int, n: int) -> int:
    """LAPACK's optimal dgeqrf workspace for an m x n matrix."""
    work, _ = dgeqrf_lwork(m, n)
    return max(int(work), 1)


def _triangle(buf) -> np.ndarray:
    """Householder triangular factor R of ``buf`` = Q R, shape
    (min(m, n), n), upper trapezoidal.

    The package's one QR kernel: LAPACK dgeqrf called directly, in place on
    a Fortran-ordered float64 ``buf``, which it overwrites (any other array
    is copied first and left intact). np.linalg.qr's dispatch costs 2-4x
    the routine itself on a fold's shapes. The workspace is LAPACK's
    optimum, queried once per shape and cached, so a per-step loop pays no
    query: with scipy's default of 3n, a factor wider than 128 columns
    takes LAPACK's unblocked path, which rounds differently and is slower
    (2300 x 200: 22 against 13 ms). With the optimum, R equals
    scipy.linalg.qr's bit for bit, and np.linalg.qr(buf, mode="r")'s
    wherever numpy links a LAPACK that rounds alike; past 128 columns that
    holds with one BLAS thread, as two threaded BLAS builds may split the
    blocked updates differently.
    """
    m, n = buf.shape
    qr = dgeqrf(buf, lwork=_qr_lwork(m, n), overwrite_a=1)[0]
    return np.triu(qr[: min(m, n)])


def _fold_factor(r, rows) -> np.ndarray:
    """Triangular factor R' of [r; rows], with R'^T R' = r^T r + rows^T rows.

    One step of a sequential tall-skinny QR (TSQR, Demmel et al. 2012),
    through ``_triangle``: [r; rows] is written straight into the Fortran
    buffer the kernel factors in place, with no stacked copy in between.
    Folding into an empty ``r`` (zero rows) is one QR of ``rows``. A
    Householder step maps a diagonal entry to minus its sign, so every fold
    would flip the rows already in ``r``; they are flipped back, and a
    factor keeps the row signs of the first QR that formed it. Neither
    ``r`` nor ``rows`` is modified. Shape (min(rows so far, width), width).
    """
    k = r.shape[0]
    buf = np.empty((k + rows.shape[0], rows.shape[1]), order="F")
    buf[:k] = r
    buf[k:] = rows
    out = _triangle(buf)
    kept = np.diagonal(r)
    out[: kept.size] *= np.where(np.diagonal(out)[: kept.size] * kept < 0, -1.0, 1.0)[:, None]
    return out


def _hankel_factor(signals, depth: int, width: int, rows) -> np.ndarray:
    """Triangular factor R of a data matrix M built from block Hankels, with
    M^T = Q R, accumulated over chunks of ``_CHUNK`` columns.

    ``rows(h_1, ..., h_m)`` receives, for one run of columns j, the window
    signal_i[j .. j + depth - 1] of each of the ``signals`` flattened sample
    by sample (so h_i is block_hankel(signal_i, depth)[:, j].T), and returns
    those columns of M as rows. Each chunk is folded into R by
    ``_fold_factor``, so nothing wider than a chunk is formed; a matrix of
    at most ``_CHUNK`` columns is one fold, the one-shot factor of M^T from
    the kernel ``_triangle`` (LAPACK dgeqrf at its optimal workspace). The
    Gram matrix R^T R equals M M^T up to rounding.
    """
    if width < 1:
        raise ValueError("width must be at least 1")
    r = None
    for j0 in range(0, width, _CHUNK):
        n = min(_CHUNK, width - j0)
        windows = [
            np.lib.stride_tricks.sliding_window_view(x[j0 : j0 + n + depth - 1], depth, axis=0)
            .transpose(0, 2, 1)
            .reshape(n, -1)
            for x in signals
        ]
        block = rows(*windows)
        r = _fold_factor(block[:0] if r is None else r, block)
    return r


def _residual_factors(y, u, a, b, c, d, s: int):
    """Lower-triangular factors of the residual Hankels R_s and R_(s+1) of a
    record, R_k = Y_k - T_k U_k with T_k = block_toeplitz(a, b, c, d, k).

    Each L has L L^T = R_k R_k^T, shape (k n_y, min(T - k + 1, k n_y)).
    R_(s+1)^T's factor takes one ``_hankel_factor`` pass. R_s is R_(s+1)'s
    leading s n_y rows plus one last column, the window from T - s, so its
    factor is that factor's leading (s n_y)-square block with the column
    folded in. Returns (L_s, L_(s+1)). Both the fault-dimension readout
    and the example's compensated spectra (an input-free model, B = 0 and
    D = 0) take their factors from here.
    """
    if y.shape[1] != c.shape[0] or u.shape[1] != b.shape[1]:
        raise ValueError("trajectory channel counts do not match the system")
    t, p = y.shape[0], s * c.shape[0]

    def rows(depth):
        t_k = block_toeplitz(a, b, c, d, depth)
        return lambda h_y, h_u: h_y - h_u @ t_k.T

    deep = _hankel_factor((y, u), s + 1, t - s, rows(s + 1))
    last = rows(s)(y[t - s :].reshape(1, -1), u[t - s :].reshape(1, -1))
    return _fold_factor(deep[:p, :p], last).T, deep.T


# ---------------------------------------------------------------------------
# subspaces


def range_basis(m, policy: RankPolicy | None = None, rank: int | None = None) -> np.ndarray:
    """Orthonormal basis of the column space, truncated at the numerical rank.

    The columns are left singular vectors with signs fixed, shape
    (rows, rank).
    """
    m = as_matrix(m)
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    if rank is None:
        rank = (policy or RankPolicy.relative()).rank(s)
    return fix_column_signs(u[:, :rank])


def _coerce_basis(u) -> np.ndarray:
    b = as_matrix(u, "basis")
    if b.shape[1] == 0:
        return b
    # orthonormalize arbitrary spanning sets for convenience
    return range_basis(b, RankPolicy.relative(1e-12))


def principal_angles(u, v) -> np.ndarray:
    """Principal angles between two subspaces, nonincreasing, in [0, pi/2].

    Accepts matrices whose columns span the subspaces; count equals the
    smaller of the two dimensions.
    """
    bu = _coerce_basis(u)
    bv = _coerce_basis(v)
    if bu.shape[0] != bv.shape[0]:
        raise ValueError(
            f"ambient dimensions differ: {bu.shape[0]} vs {bv.shape[0]}"
        )
    if bu.shape[1] == 0 or bv.shape[1] == 0:
        return np.zeros(0)
    angles = scipy.linalg.subspace_angles(bu, bv)
    return np.sort(angles)[::-1]


def range_equal(m1, m2, tol: float = 1e-8) -> bool:
    """True iff both matrices and their concatenation share numerical rank.

    A single absolute threshold derived from the concatenated spectrum is
    applied to all three matrices so borderline directions are judged
    consistently.
    """
    m1 = as_matrix(m1, "M1")
    m2 = as_matrix(m2, "M2")
    if m1.shape[0] != m2.shape[0]:
        raise ValueError(f"row counts differ: {m1.shape[0]} vs {m2.shape[0]}")
    both = np.hstack([m1, m2])
    s_all = np.linalg.svd(both, compute_uv=False)
    if s_all.size == 0 or s_all[0] == 0:
        return True
    shared = RankPolicy.absolute(tol * s_all[0])
    r1 = numerical_rank(m1, shared)
    r2 = numerical_rank(m2, shared)
    r12 = shared.rank(s_all)
    return r1 == r2 == r12


# ---------------------------------------------------------------------------
# least squares


def min_norm_lsq(a, b) -> np.ndarray:
    """Minimum-Frobenius-norm minimizer of ||A X - B||_F.

    Shape of X follows B: a 1-D right-hand side yields a 1-D solution.
    """
    a = as_matrix(a, "A")
    b_arr = np.asarray(b, dtype=float)
    vector = b_arr.ndim == 1
    b2 = b_arr.reshape(-1, 1) if vector else b_arr
    if a.shape[0] != b2.shape[0]:
        raise ValueError(f"row counts differ: A has {a.shape[0]}, B has {b2.shape[0]}")
    x, _, _, _ = scipy.linalg.lstsq(a, b2, lapack_driver="gelsd")
    return x[:, 0] if vector else x


# ---------------------------------------------------------------------------
# CSV persistence ("rows,cols" header, one row per line)


def write_matrix_csv(path, m) -> None:
    m = as_matrix(m)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{m.shape[0]},{m.shape[1]}\n")
        for row in m:
            fh.write(",".join(repr(float(x)) for x in row) + "\n")


def read_matrix_csv(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        try:
            rows, cols = (int(x) for x in header.split(","))
        except ValueError as exc:
            raise ValueError(f"bad matrix CSV header {header!r}") from exc
        data = [[float(x) for x in line.strip().split(",")] for line in fh if line.strip()]
    m = np.asarray(data, dtype=float)
    if m.shape != (rows, cols):
        raise ValueError(f"matrix CSV body {m.shape} does not match header ({rows},{cols})")
    return m
