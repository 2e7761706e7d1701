"""Dense linear-algebra kernel for block-structured system data.

Everything operates on plain float64 numpy arrays, and no sparse machinery
is provided. Block Hankel data matrices have a few dozen rows but one
column per sample, so their width grows with the record length T; the
pipeline reads them only through their small triangular factors, which
``_hankel_factor`` accumulates over chunks of columns so that no T-wide
matrix is formed (``block_hankel`` builds the full matrix, which only
tests and the public ``faultrec.residual_hankel`` use). The windows of a
chunk are overlapping views of the record (``_windows``), and each
chunk's rows are written straight into the Fortran-ordered buffer that
the fold factors in place (``_fold_into``), so no row is copied twice.
Which rows are factored is the caller's: PI-MOESP factors only its input
windows [U_f; U_p] and reads the output block through cross-products
(``subid.pi_moesp``), the fault readout its residual windows
(``_residual_factors``). Every triangular factor in the package, those
folds and the fault smoother's steps alike, comes from one QR kernel
(``_triangle``): LAPACK dgeqrf, from the LAPACK numpy links
(``numpy.linalg.lapack_lite``), called directly on a Fortran-ordered
buffer, with the optimal workspace from one LAPACK query per shape. On a
fold's shapes np.linalg.qr's dispatch and copies cost more than the
routine, so a fold takes a half to a third of its time (2108 x 60: 3.4 to
1.75 ms; 6158 x 14: 1.8 to 0.63 ms, one BLAS thread), with the same bits
(see ``_triangle``). Every LAPACK call of the package goes through numpy;
scipy is not imported. Markov
parameters are built in one place (``_markov_blocks``). A block Toeplitz
matrix grows with the square of its depth, so the pipeline builds one only
at a window depth (a few to a few dozen blocks), never at the record
length.
State recursions over a whole record run in one place (``_lti_states``),
lifted by a block length of about sqrt(T) (or of the chunk) so that no
Python loop runs once per sample: ``simulate``, the B/D/x0 regressors and
both passes of the stationary fault smoother use it, and the smoother's
only per-sample loop left is its data-independent tail near T. All
decompositions are deterministic: singular-vector signs are normalized so
that each column's first significant entry is positive.
"""

from __future__ import annotations

import itertools
import math
import operator
from contextlib import suppress
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.linalg import lapack_lite

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


def _integer(name: str, value) -> int:
    """``value`` as an int: ``operator.index`` must take it, a bool is refused."""
    if not isinstance(value, bool):
        with suppress(TypeError):
            return operator.index(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _depth(name: str, value) -> int:
    """The depth rule: ``value`` read by ``_integer`` and at least 1. Every
    window depth, Hankel width, record length and count the package refuses
    below 1 is read here."""
    value = _integer(name, value)
    if value < 1:
        raise ValueError(f"{name} must be at least 1, got {value}")
    return value


def _quadruple(a, b, c, d, names: str = "ABCD"):
    """The quadruple rule: the four matrices of a state-space quadruple,
    each as ``as_matrix`` gives it, with A square, B with n rows, C with n
    columns and D of shape (rows of C) x (columns of B), for n the rows of
    A. ``names`` names the four in the messages ("AFCG" for a fault
    channel). Every entry point that takes a quadruple checks it here."""
    a, b, c, d = (as_matrix(m, name) for m, name in zip((a, b, c, d), names))
    na, nb, nc, nd = names
    n = a.shape[0]
    if a.shape[1] != n:
        raise ValueError(f"{na} must be square, got {a.shape[0]}x{a.shape[1]}")
    if b.shape[0] != n:
        raise ValueError(f"{nb} has {b.shape[0]} rows but {na} is {n}x{n}")
    if c.shape[1] != n:
        raise ValueError(f"{nc} has {c.shape[1]} columns but {na} is {n}x{n}")
    if d.shape != (c.shape[0], b.shape[1]):
        raise ValueError(f"{nd} must be {c.shape[0]}x{b.shape[1]}, got {d.shape[0]}x{d.shape[1]}")
    return a, b, c, d


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
        if not (math.isfinite(self.tol) and self.tol >= 0):
            raise ValueError(f"tolerance must be finite and nonnegative, got {self.tol!r}")
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise ValueError(f"scale must be finite and positive, got {self.scale!r}")

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
    depth = _depth("depth", depth)
    width = _depth("width", t - depth + 1 if width is None else width)
    needed = depth + width - 1
    if t < needed:
        raise ValueError(
            f"signal too short: block Hankel with depth {depth} and width {width} "
            f"requires {needed} samples, only {t} available"
        )
    return np.ascontiguousarray(_windows(data, depth, width).T)


def _windows(x, depth: int, n: int) -> np.ndarray:
    """The first n windows x[j .. j + depth - 1] of a C-ordered (T, dim)
    signal, each flattened sample by sample, as the rows of an
    (n, depth dim) view: the transpose of the block Hankel's first n
    columns. Window j is the run of depth dim numbers from x[j], so the rows
    overlap in memory and nothing is copied; BLAS takes no such view, so a
    product reads a copy of it."""
    flat = np.ravel(x[: n + depth - 1])
    return np.lib.stride_tricks.sliding_window_view(flat, depth * x.shape[1])[:: x.shape[1]]


def extended_observability(a, c, s: int) -> np.ndarray:
    """Stack [C; CA; ...; C A^(s-1)], the Markov parameters C A^k B of the
    quadruple (A, I, C, 0). The quadruple rule (``_quadruple``) refuses a
    non-square A and a C whose columns are not A's; the depth rule
    (``_depth``) refuses an ``s`` that is not an integer of at least 1."""
    a, c = as_matrix(a, "A"), as_matrix(c, "C")
    n, p = a.shape[0], c.shape[0]
    quadruple = _quadruple(a, np.eye(n), c, np.zeros((p, n)))
    s = _depth("s", s)
    return _markov_blocks(*quadruple, s + 1)[1:].reshape(s * p, n)


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
    maps a stacked input window to the stacked output window. The quadruple
    rule (``_quadruple``) refuses matrices whose shapes do not fit together,
    and the depth rule (``_depth``) an ``s`` that is not an integer of at
    least 1.
    """
    a, b, c, d = _quadruple(a, b, c, d)
    s = _depth("s", s)
    p, m = d.shape
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
    """LAPACK's optimal dgeqrf workspace for an m x n matrix (a workspace
    query: LAPACK reads only the shape and writes the size to work[0])."""
    work = np.empty(1)
    _dgeqrf(np.empty((n, m)), np.empty(min(m, n)), work, -1)
    return max(int(work[0]), 1)


def _dgeqrf(a_t, tau, work, lwork: int) -> None:
    """LAPACK dgeqrf through numpy's own lapack_lite, on the C-ordered
    transpose ``a_t`` (n x m) of a Fortran-ordered m x n matrix."""
    n, m = a_t.shape
    info = lapack_lite.dgeqrf(m, n, a_t, max(m, 1), tau, work, lwork, 0)["info"]
    if info:
        raise np.linalg.LinAlgError(f"dgeqrf returned info = {info}")


def _triangle(buf) -> np.ndarray:
    """Householder triangular factor R of ``buf`` = Q R, shape
    (min(m, n), n), upper trapezoidal.

    The package's one QR kernel: LAPACK dgeqrf called directly, from the
    LAPACK that numpy links (``numpy.linalg.lapack_lite``), in place on a
    Fortran-ordered float64 ``buf``, which it overwrites (any other array
    is copied first and left intact). np.linalg.qr's dispatch costs 2-4x
    the routine itself on a fold's shapes. The workspace is LAPACK's
    optimum, queried once per shape and cached, so a per-step loop pays no
    query: with a minimal workspace (n), a factor wider than 128 columns
    takes LAPACK's unblocked path, which rounds differently and is slower
    (2300 x 200: 24 against 10 ms, one BLAS thread). With the optimum, R
    equals np.linalg.qr(buf, mode="r")'s bit for bit, since both call the
    same routine of the same library with the same workspace.
    """
    m, n = buf.shape
    a = np.asfortranarray(buf, dtype=float)
    lwork = _qr_lwork(m, n)
    _dgeqrf(a.T, np.empty(min(m, n)), np.empty(lwork), lwork)
    # np.triu's own select, with its mask built once per shape
    return np.where(_strict_lower(min(m, n), n), np.zeros(1), a[: min(m, n)])


@lru_cache(maxsize=256)
def _strict_lower(m: int, n: int) -> np.ndarray:
    """Read-only boolean mask of the entries below the diagonal of m x n."""
    mask = np.tri(m, n, -1, dtype=bool)
    mask.flags.writeable = False
    return mask


def _fold_into(r, n: int, fill) -> np.ndarray:
    """Triangular factor R' of [r; rows], with R'^T R' = r^T r + rows^T rows,
    for n rows that ``fill(out)`` writes into ``out``: the last n rows of
    the Fortran-ordered buffer that the kernel factors in place.

    One step of a sequential tall-skinny QR (TSQR, Demmel et al. 2012),
    through ``_triangle``. The rows go into the buffer where they are made,
    so no C-ordered copy is transposed into it; ``out`` holds them until the
    QR overwrites it, so ``fill`` may also read them for sums of its own.
    Folding into an empty ``r`` (zero rows) is one QR of the rows. A
    Householder step maps a diagonal entry to minus its sign, so every fold
    would flip the rows already in ``r``; they are flipped back, and a
    factor keeps the row signs of the first QR that formed it. ``r`` is not
    modified. Shape (min(rows so far, width), width).
    """
    k = r.shape[0]
    buf = np.empty((k + n, r.shape[1]), order="F")
    buf[:k] = r
    fill(buf[k:])
    out = _triangle(buf)
    kept = np.diagonal(r)
    out[: kept.size] *= np.where(np.diagonal(out)[: kept.size] * kept < 0, -1.0, 1.0)[:, None]
    return out


def _hankel_factor(signals, depth: int, width: int, cols: int, rows) -> np.ndarray:
    """Triangular factor R of a data matrix M with ``cols`` rows built from
    block Hankels, with M^T = Q R, accumulated over chunks of ``_CHUNK``
    columns.

    ``rows(out, h_1, ..., h_m)`` receives, for one run of n columns j, the
    windows signal_i[j .. j + depth - 1] of each of the ``signals``
    flattened sample by sample, as the (n, depth dim_i) views of
    ``_windows`` (so h_i[j] is block_hankel(signal_i, depth)[:, j]), and
    writes those columns of M as rows into ``out`` (n x cols), the fold
    buffer itself (``_fold_into``); ``np.copyto`` writes one signal's own
    windows there. Nothing wider than a chunk is formed; a matrix of at
    most ``_CHUNK`` columns is one fold, the one-shot factor of M^T from the
    kernel ``_triangle`` (LAPACK dgeqrf at its optimal workspace). The Gram
    matrix R^T R equals M M^T up to rounding.
    """
    width = _depth("width", width)
    r = np.empty((0, cols))
    for j0 in range(0, width, _CHUNK):
        n = min(_CHUNK, width - j0)
        windows = [_windows(x[j0:], depth, n) for x in signals]
        r = _fold_into(r, n, lambda out: rows(out, *windows))
    return r


def _hankel_pair_factors(signals, s: int, rows) -> tuple:
    """Lower-triangular factors of the data matrices M_s and M_(s+1) of a
    record, where M_k has as many rows as the first signal's depth-k
    windows (k dim_0) and its columns are written by ``rows(k)`` from the
    depth-k windows of ``signals`` (see ``_hankel_factor``).

    Each L has L L^T = M_k M_k^T, shape (p_k, min(T - k + 1, p_k)) for
    p_k rows of M_k. M_(s+1)^T's factor takes one ``_hankel_factor`` pass.
    M_s is M_(s+1)'s leading p_s rows plus one last column, the window from
    T - s, so its factor is that factor's leading p_s-square block with the
    column folded in. Returns (L_s, L_(s+1)).
    """
    t, dim = signals[0].shape
    deep = _hankel_factor(signals, s + 1, t - s, (s + 1) * dim, rows(s + 1))
    p = s * dim
    last = [x[t - s :].reshape(1, -1) for x in signals]
    return _fold_into(deep[:p, :p], 1, lambda out: rows(s)(out, *last)).T, deep.T


def _residual_factors(y, u, a, b, c, d, s: int):
    """Lower-triangular factors (L_s, L_(s+1)) of the residual Hankels R_s
    and R_(s+1) of a record, R_k = Y_k - T_k U_k with
    T_k = block_toeplitz(a, b, c, d, k), from ``_hankel_pair_factors``;
    each L has shape (k n_y, min(T - k + 1, k n_y)). The fault-dimension
    readout takes its factors from here, for a record whose channel
    counts it has checked against the system.
    """

    def rows(depth):
        t_k = block_toeplitz(a, b, c, d, depth)

        def fill(out, h_y, h_u):
            np.subtract(h_y, np.ascontiguousarray(h_u) @ t_k.T, out=out)

        return fill

    return _hankel_pair_factors((y, u), s, rows)


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


def _span_basis(m) -> np.ndarray:
    """Orthonormal basis of the subspace the columns of ``m`` span: the
    package's one span rule, every direction above 1e-12 sigma_1. Principal
    angles and the projection residual both read a subspace through here,
    so the two scores of one stack agree on its dimension."""
    return range_basis(as_matrix(m, "basis"), RankPolicy.relative(1e-12))


def principal_angles(u, v) -> np.ndarray:
    """Principal angles between two subspaces, nonincreasing, in [0, pi/2].

    Accepts matrices whose columns span the subspaces; count equals the
    smaller of the two dimensions (none when either spans nothing). Each
    input is orthonormalized once, by ``_span_basis``. Knyazev &
    Argentati's sine-cosine rule (SIAM J. Sci. Comput. 23(6), 2002) gives
    the cosines as the singular values of Q_u^T Q_v and the sines as those
    of the part of the smaller basis outside the other; the i-th largest
    cosine and the i-th smallest sine belong to one angle, which one
    arctan2 step reads accurately whatever its size. scipy's
    subspace_angles applies its sine mask to the angles in the wrong order
    instead, so a small angle next to one above 45 degrees comes out of
    arccos, accurate to about 1e-8 only.
    """
    qa, qb = _span_basis(u), _span_basis(v)
    if qa.shape[0] != qb.shape[0]:
        raise ValueError(f"ambient dimensions differ: {qa.shape[0]} vs {qb.shape[0]}")
    cross = qa.T @ qb
    cosines = np.linalg.svd(cross, compute_uv=False)
    rest = qb - qa @ cross if qa.shape[1] >= qb.shape[1] else qa - qb @ cross.T
    sines = np.linalg.svd(rest, compute_uv=False)[::-1]
    return np.sort(np.arctan2(sines, cosines))[::-1]


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
    LAPACK gelsd with singular values below eps * sigma_1 taken as zero
    (scipy.linalg.lstsq's default cutoff; numpy's own is max(shape) times
    larger).
    """
    a = as_matrix(a, "A")
    vector = np.ndim(b) == 1
    b2 = as_matrix(b, "B")
    if a.shape[0] != b2.shape[0]:
        raise ValueError(f"row counts differ: A has {a.shape[0]}, B has {b2.shape[0]}")
    x = np.linalg.lstsq(a, b2, rcond=np.finfo(float).eps)[0]
    return x[:, 0] if vector else x


# ---------------------------------------------------------------------------
# CSV persistence ("rows,cols" header, one row per line)


def write_matrix_csv(path, m) -> None:
    m = as_matrix(m)
    lines = [f"{m.shape[0]},{m.shape[1]}\n"]
    lines += [",".join(map(repr, row)) + "\n" for row in m.tolist()]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(lines))


def _read_csv_body(fh, path, name: str) -> np.ndarray:
    """The rest of an open CSV file, as ``as_matrix`` gives it under ``name``.
    Blank lines are skipped; an empty or ragged body and a non-finite entry
    are refused."""
    body = (line for line in fh if line.strip())
    first = next(body, None)
    if first is None:
        raise ValueError(f"no samples in {path}")
    data = np.loadtxt(itertools.chain([first], body), delimiter=",", comments=None, ndmin=2)
    return as_matrix(data, name)


def read_matrix_csv(path) -> np.ndarray:
    """The matrix of a matrix CSV: a ``rows,cols`` header, then one row per
    line, read by ``_read_csv_body``; a body of another shape is refused."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        try:
            rows, cols = (int(x) for x in header.split(","))
        except ValueError as exc:
            raise ValueError(f"bad matrix CSV header {header!r}") from exc
        m = _read_csv_body(fh, path, "matrix")
    if m.shape != (rows, cols):
        raise ValueError(f"matrix CSV body {m.shape} does not match header ({rows},{cols})")
    return m
