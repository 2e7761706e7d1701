import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from subfault.sysgen import fault_signal, simulate, white_input

from subfault.matstack import (
    _CHUNK,
    RankPolicy,
    _fold_into,
    _hankel_factor,
    _largest_gap,
    _lti_states,
    _residual_factors,
    _triangle,
    block_hankel,
    block_toeplitz,
    extended_observability,
    min_norm_lsq,
    numerical_rank,
    principal_angles,
    range_basis,
    range_equal,
    read_matrix_csv,
    write_matrix_csv,
)

# reference residual-spectrum singular values for the benchmark system
FIG_SV_R5 = [26.5500789412737, 24.5755309469592, 17.464565160419, 16.8178553234019,
             13.3593909879432, 9.80428541092819, 0.642137996198499, 0.424179989481712,
             0.196427980417734, 0.1811099220302]
FIG_SV_R6 = [26.6613566971983, 26.2480832086168, 20.6959018289427, 17.2298675859753,
             13.9731111147254, 13.3147972062507, 9.23786667136778, 0.674689402948074,
             0.473886886786674, 0.271201768646024, 0.184044483183736, 0.157473233749879]


def hankel_oracle(data, depth, width):
    """Index-by-index block Hankel construction."""
    data = np.atleast_2d(np.asarray(data, float).T).T
    d = data.shape[1]
    h = np.zeros((depth * d, width))
    for i in range(depth):
        for j in range(width):
            h[i * d:(i + 1) * d, j] = data[i + j]
    return h


class TestBlockHankel:
    def test_scalar_signal(self):
        h = block_hankel([1.0, 2.0, 3.0, 4.0], 2, 3)
        assert np.array_equal(h, [[1, 2, 3], [2, 3, 4]])

    def test_constant_signal_rank_one(self):
        h = block_hankel(np.ones(30), 4, 20)
        assert numerical_rank(h) == 1

    def test_matches_oracle_for_vector_signal(self):
        rng = np.random.default_rng(3)
        data = rng.standard_normal((6, 2))
        h = block_hankel(data, 2, 4)
        assert h.shape == (4, 4)
        assert np.allclose(h, hankel_oracle(data, 2, 4))

    @pytest.mark.parametrize("depth, width", [(1, 50), (4, 20), (7, 44)])
    def test_matches_oracle_bitwise_in_c_order(self, depth, width):
        data = np.random.default_rng(5).standard_normal((50, 3))
        h = block_hankel(data, depth, width)
        assert h.flags.c_contiguous
        assert np.array_equal(h, hankel_oracle(data, depth, width))

    def test_default_width_uses_all_samples(self):
        data = np.arange(10.0)
        assert block_hankel(data, 3).shape == (3, 8)

    def test_too_short_reports_counts(self):
        with pytest.raises(ValueError, match="requires 6 samples, only 4"):
            block_hankel([1.0, 2.0, 3.0, 4.0], 3, 4)

    def test_shift_property(self):
        rng = np.random.default_rng(11)
        data = rng.standard_normal((25, 3))
        s, n = 4, 10
        deep = block_hankel(data, s + 1, n)
        shallow = block_hankel(data, s, n)
        # dropping the first block row shifts the window by one sample
        assert np.allclose(deep[3:, : n - 1], shallow[:, 1:n])


class TestExtendedObservability:
    def test_identity_system(self):
        obs = extended_observability(np.eye(2), np.eye(2), 3)
        assert np.array_equal(obs, np.vstack([np.eye(2)] * 3))

    def test_demo_system_depth_two(self, demo):
        sys, _ = demo
        obs = extended_observability(sys.A, sys.C, 2)
        assert np.allclose(obs, [[1, 0, 0], [0, 1, 0], [0, 1, 0], [0, 0, 1]])

    def test_depth_one_is_c(self, demo):
        sys, _ = demo
        assert np.array_equal(extended_observability(sys.A, sys.C, 1), sys.C)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            extended_observability(np.eye(3), np.eye(2), 2)


class TestBlockToeplitz:
    def test_depth_one_is_d(self, demo):
        sys, _ = demo
        assert np.array_equal(block_toeplitz(sys.A, sys.B, sys.C, sys.D, 1), sys.D)

    def test_demo_system_markov_layout(self, demo):
        # CB = 0 for this system, so depth 2 is all zero and the first
        # nonzero parameter CAB = [0, 1] appears on the second subdiagonal
        sys, _ = demo
        t2 = block_toeplitz(sys.A, sys.B, sys.C, sys.D, 2)
        assert np.allclose(t2, np.zeros((4, 2)))
        t3 = block_toeplitz(sys.A, sys.B, sys.C, sys.D, 3)
        oracle = np.zeros((6, 3))
        for i in range(3):
            for j in range(i + 1):
                if i == j:
                    blk = sys.D
                else:
                    blk = sys.C @ np.linalg.matrix_power(sys.A, i - j - 1) @ sys.B
                oracle[i * 2:(i + 1) * 2, j:j + 1] = blk
        assert np.allclose(t3, oracle)
        assert np.allclose(t3[4:6, 0], [0.0, 1.0])

    def test_zero_b_gives_block_diagonal_d(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((3, 3))
        c = rng.standard_normal((2, 3))
        d = rng.standard_normal((2, 2))
        t = block_toeplitz(a, np.zeros((3, 2)), c, d, 3)
        oracle = np.kron(np.eye(3), d)
        assert np.allclose(t, oracle)

    @pytest.mark.parametrize("seed", range(4))
    def test_gather_matches_block_loop(self, seed):
        rng = np.random.default_rng(seed)
        n, p, m = rng.integers(1, 5, size=3)
        a, b, c, d = (rng.standard_normal(sh) for sh in [(n, n), (n, m), (p, n), (p, m)])
        s = 7
        params = [d]
        cak = c
        for _ in range(s - 1):
            params.append(cak @ b)
            cak = cak @ a
        oracle = np.zeros((s * p, s * m))
        for i in range(s):
            for j in range(i + 1):
                oracle[i * p:(i + 1) * p, j * m:(j + 1) * m] = params[i - j]
        assert np.array_equal(block_toeplitz(a, b, c, d, s), oracle)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            block_toeplitz(np.eye(2), np.ones((3, 1)), np.ones((1, 2)), np.zeros((1, 1)), 2)


def _loop_states(a, x0, drive):
    """Per-sample reference for the lifted state recursion."""
    out = np.empty((drive.shape[0] + 1,) + x0.shape)
    out[0] = x = x0
    for k in range(drive.shape[0]):
        x = a @ x + drive[k]
        out[k + 1] = x
    return out


class TestLtiStates:
    @pytest.mark.parametrize("rho", [0.5, 0.95, 1.038])
    @pytest.mark.parametrize("p", [1, 7])
    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_matches_per_sample_loop(self, n, p, rho):
        # block edges (T = 15, 16, 17 around L = 4), tiny and non-square T,
        # and an unstable A whose states grow about 1.6e16-fold at T = 1000
        rng = np.random.default_rng([n, p, int(1000 * rho)])
        m = rng.standard_normal((n, n))
        a = m * (rho / np.abs(np.linalg.eigvals(m)).max())
        for t in (0, 1, 2, 3, 15, 16, 17, 1000):
            x0 = rng.standard_normal((n, p))
            drive = rng.standard_normal((t, n, p))
            ref = _loop_states(a, x0, drive)
            got = _lti_states(a, x0, drive)
            assert got.shape == ref.shape == (t + 1, n, p)
            scale = np.abs(ref).max(axis=(0, 1))
            assert np.all(np.abs(got - ref).max(axis=(0, 1)) <= 1e-12 * scale), t

    def test_memory_linear_in_length(self):
        # the result and one temporary of its size are the whole footprint;
        # a power per sample (5x the result) or any T x T matrix exceeds it
        t, n = 100_000, 5
        rng = np.random.default_rng(7)
        m = rng.standard_normal((n, n))
        a = m * (0.95 / np.abs(np.linalg.eigvals(m)).max())
        drive = rng.standard_normal((t, n, 1))
        tracemalloc.start()
        try:
            _lti_states(a, np.ones((n, 1)), drive)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * drive.nbytes


# record widths around the chunk of the triangular-factor pass: one short
# chunk, one full chunk, a full chunk plus one column, two plus one
CHUNK_WIDTHS = [_CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1]


def _spectra_agree(factor, full):
    """Singular values of a factor and of the matrix it compresses, within
    1e-12 sigma_1."""
    got = np.linalg.svd(factor, compute_uv=False)
    ref = np.linalg.svd(full, compute_uv=False)
    return got.shape == ref.shape and np.abs(got - ref).max() <= 1e-12 * ref[0]


class TestChunkedFactor:
    @pytest.mark.parametrize("width", CHUNK_WIDTHS)
    def test_matches_one_shot_qr(self, width):
        # the reference is the one-shot QR of the whole transposed Hankel
        rng = np.random.default_rng(width)
        depth = 4
        signal = rng.standard_normal((width + depth - 1, 3))
        full = block_hankel(signal, depth, width)
        ref = np.linalg.qr(full.T, mode="r")
        got = _hankel_factor((signal,), depth, width, depth * 3, np.copyto)
        assert got.shape == ref.shape
        assert _spectra_agree(got, ref)
        assert np.abs(got.T @ got - full @ full.T).max() <= 1e-12 * np.abs(full @ full.T).max()
        # one chunk is the one-shot QR itself; folds keep the row signs of
        # the first chunk's QR
        if width <= _CHUNK:
            assert np.array_equal(got, ref)
        first = np.linalg.qr(full[:, :_CHUNK].T, mode="r")
        assert np.array_equal(np.sign(np.diag(got)), np.sign(np.diag(first)))

    def test_row_map_and_short_width(self):
        # rows() sees every signal's windows and writes into the fold
        # buffer; a matrix narrower than its height keeps the trapezoidal
        # shape of the one-shot factor
        rng = np.random.default_rng(5)
        u = rng.standard_normal((12, 1))
        y = rng.standard_normal((12, 2))
        width = 12 - 4 + 1
        full = np.vstack([block_hankel(y, 4, width), -2.0 * block_hankel(u, 4, width)])
        got = _hankel_factor((y, u), 4, width, 12,
                             lambda out, h_y, h_u: np.copyto(out, np.hstack([h_y, -2.0 * h_u])))
        assert got.shape == (width, 12)
        assert _spectra_agree(got, full)
        with pytest.raises(ValueError):
            _hankel_factor((y,), 13, 0, 26, np.copyto)

    @pytest.mark.parametrize("width", CHUNK_WIDTHS)
    def test_residual_factors_match_full_hankels(self, demo, width):
        # R_(s+1) has `width` columns; R_s one more, folded in last
        sys, fault = demo
        s = 5
        t = width + s
        u = white_input(1, t, seed=[width, 1])
        y, _ = simulate(sys, fault, np.ones(3), u, fault_signal("v1", t))
        y = y + 1e-3 * np.random.default_rng(width).standard_normal(y.shape)
        a, b, c, d = sys.A, sys.B, sys.C, sys.D
        low_s, low_s1 = _residual_factors(y, u, a, b, c, d, s)
        for low, depth in ((low_s, s), (low_s1, s + 1)):
            t_k = block_toeplitz(a, b, c, d, depth)
            full = block_hankel(y, depth) - t_k @ block_hankel(u, depth)
            assert low.shape == (depth * 2, min(full.shape))
            assert not np.triu(low, 1).any()
            assert _spectra_agree(low, full)


def _fold_factor(r, rows):
    """One fold of rows already formed, copied into the fold buffer."""
    return _fold_into(r, len(rows), lambda out: np.copyto(out, rows))


class TestTriangleKernel:
    def test_fold_leaves_its_inputs_intact(self):
        rng = np.random.default_rng(3)
        r = np.linalg.qr(rng.standard_normal((30, 6)), mode="r")
        for rows in (rng.standard_normal((40, 6)), np.asfortranarray(rng.standard_normal((40, 6)))):
            r_before, rows_before = r.copy(), rows.copy()
            _fold_factor(r, rows)
            assert np.array_equal(r, r_before)
            assert np.array_equal(rows, rows_before)

    def test_c_ordered_buffer_is_copied(self):
        # the smoother factors one C-ordered stack per step and rewrites
        # only some of its rows, so the kernel must not overwrite it
        buf = np.random.default_rng(4).standard_normal((9, 5))
        before = buf.copy()
        got = _triangle(buf)
        assert np.array_equal(buf, before)
        assert np.array_equal(got, np.linalg.qr(before, mode="r"))

    def test_trapezoidal_factor(self):
        # fewer rows than columns: R is (rows, width), upper trapezoidal
        rng = np.random.default_rng(6)
        rows = rng.standard_normal((3, 7))
        got = _fold_factor(rows[:0], rows)
        assert got.shape == (3, 7)
        assert not np.tril(got, -1).any()
        assert _spectra_agree(got, rows)
        more = rng.standard_normal((2, 7))
        folded = _fold_factor(got, more)
        full = np.vstack([rows, more])
        assert folded.shape == (5, 7)
        assert not np.tril(folded, -1).any()
        assert _spectra_agree(folded, full)
        assert np.array_equal(np.sign(np.diag(folded))[:3], np.sign(np.diag(got)))

    def test_factor_wider_than_blocking_crossover(self):
        # past 128 columns dgeqrf takes its blocked path only with LAPACK's
        # optimal workspace; the fold agrees with the one-shot factor and
        # keeps the first QR's row signs
        rng = np.random.default_rng(7)
        full = rng.standard_normal((700, 200))
        first = _fold_factor(full[:0], full[:300])
        got = _fold_factor(first, full[300:])
        ref = np.linalg.qr(full, mode="r")
        assert got.shape == ref.shape == (200, 200)
        assert _spectra_agree(got, ref)
        assert np.abs(got.T @ got - full.T @ full).max() <= 1e-12 * np.abs(full.T @ full).max()
        assert np.array_equal(np.sign(np.diag(got)), np.sign(np.diag(first)))
        # np.linalg.qr queries the same optimal workspace from the same
        # LAPACK, so its factor is the kernel's bit for bit, at any BLAS
        # thread count (another library's blocked update may split
        # differently across threads)
        assert np.array_equal(first, np.linalg.qr(full[:300], mode="r"))


class TestNumericalRank:
    def test_identity(self):
        assert numerical_rank(np.eye(4), RankPolicy.relative(1e-8)) == 4

    def test_reference_spectrum_reads_rank_six_under_gap(self):
        assert numerical_rank(np.diag(FIG_SV_R5), RankPolicy.gap()) == 6
        index, ratio = _largest_gap(FIG_SV_R5)
        assert index + 1 == 6 and ratio > 10

    def test_constructed_low_rank_with_perturbation(self):
        rng = np.random.default_rng(9)
        m = np.outer(rng.standard_normal(6), rng.standard_normal(6))
        m += np.outer(rng.standard_normal(6), rng.standard_normal(6))
        m += 1e-12 * rng.standard_normal((6, 6))
        assert numerical_rank(m, RankPolicy.relative(1e-8)) == 2

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError):
            numerical_rank(np.zeros((0, 3)))

    def test_floor_policy_counts_structural_values(self):
        s = np.diag([10.0, 5.0, 2.0, 1e-13, 5e-14])
        assert numerical_rank(s, RankPolicy.noise_floor(3.0)) == 3

    def test_report_zero_matrix(self):
        assert numerical_rank(np.zeros((3, 3))) == 0


class TestRankPrimitives:
    @pytest.mark.parametrize("spectrum", [FIG_SV_R5, FIG_SV_R6])
    @pytest.mark.parametrize(
        "policy",
        [RankPolicy.absolute(1.0), RankPolicy.relative(0.1), RankPolicy.gap(),
         RankPolicy.noise_floor(3.0)],
        ids=["abs", "rel", "gap", "floor"],
    )
    def test_rank_agrees_with_numerical_rank(self, policy, spectrum):
        assert policy.rank(spectrum) == numerical_rank(np.diag(spectrum), policy)

    @pytest.mark.parametrize("make, message", [
        (lambda: RankPolicy.relative(float("nan")), "tolerance must be finite and nonnegative"),
        (lambda: RankPolicy.absolute(float("inf")), "tolerance must be finite and nonnegative"),
        (lambda: RankPolicy.absolute(-1.0), "tolerance must be finite and nonnegative"),
        (lambda: RankPolicy.noise_floor(-1.0), "scale must be finite and positive"),
        (lambda: RankPolicy.noise_floor(0.0), "scale must be finite and positive"),
        (lambda: RankPolicy.noise_floor(float("nan")), "scale must be finite and positive"),
        (lambda: RankPolicy.noise_floor(float("inf")), "scale must be finite and positive"),
    ])
    def test_a_threshold_that_counts_nothing_sensible_is_refused(self, make, message):
        # a NaN tolerance read every rank as 0, and a negative scale read
        # every value of the spectrum as kept
        with pytest.raises(ValueError, match=message):
            make()

    def test_gap_takes_first_index_on_ties(self):
        assert _largest_gap([8.0, 4.0, 2.0, 1.0]) == (0, 2.0)

    def test_gap_infinite_before_exact_zero(self):
        assert _largest_gap([5.0, 1.0, 1e-3, 0.0]) == (2, np.inf)

    def test_gap_needs_two_values(self):
        assert _largest_gap([]) is None
        assert _largest_gap([3.0]) is None


class TestMinNormLsq:
    def test_identity(self):
        b = np.arange(6.0).reshape(3, 2)
        assert np.allclose(min_norm_lsq(np.eye(3), b), b)

    def test_symmetric_minimum_norm(self):
        x = min_norm_lsq(np.array([[1.0, 1.0]]), np.array([2.0]))
        assert np.allclose(x, [1.0, 1.0])

    def test_consistent_rank_deficient(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((8, 3)) @ rng.standard_normal((3, 5))
        x0 = rng.standard_normal((5, 2))
        b = a @ x0
        x = min_norm_lsq(a, b)
        assert np.linalg.norm(a @ x - b) <= 1e-10
        assert np.linalg.norm(x) <= np.linalg.norm(x0) + 1e-12

    def test_inconsistent_residual_orthogonal_to_range(self):
        rng = np.random.default_rng(13)
        a = rng.standard_normal((7, 3))
        b = rng.standard_normal(7)
        resid = a @ min_norm_lsq(a, b) - b
        assert np.linalg.norm(a.T @ resid) <= 1e-10 * np.linalg.norm(b)

    def test_row_mismatch(self):
        with pytest.raises(ValueError):
            min_norm_lsq(np.eye(3), np.ones(4))

    def test_non_finite_right_hand_side_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            min_norm_lsq(np.eye(2), np.array([1.0, np.nan]))

    def test_matches_scipy_gelsd_bit_for_bit(self):
        # the same LAPACK routine at the same cutoff, eps * sigma_1
        rng = np.random.default_rng(21)
        cases = [(np.zeros((0, 3)), np.zeros((0, 2))), (np.zeros((3, 0)), np.ones((3, 2)))]
        for i in range(300):
            m, n, k = (int(x) for x in rng.integers(1, 12, 3))
            a = rng.standard_normal((m, n))
            if i % 3 == 0:
                r = int(rng.integers(1, min(m, n) + 1))
                a = rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
            b = rng.standard_normal(m) if i % 5 == 0 else rng.standard_normal((m, k))
            cases.append((a, b))
        for a, b in cases:
            ref = scipy.linalg.lstsq(a, b, lapack_driver="gelsd")[0]
            assert np.array_equal(min_norm_lsq(a, b), ref)


class TestSubspaceGeometry:
    def test_equal_subspaces(self):
        u = np.eye(4)[:, :2]
        assert np.allclose(principal_angles(u, u), 0.0)

    def test_orthogonal_lines(self):
        u = np.eye(3)[:, [0]]
        v = np.eye(3)[:, [1]]
        assert np.allclose(principal_angles(u, v), np.pi / 2)

    def test_planar_rotation_angle(self):
        alpha = 0.3
        u = np.eye(3)[:, [0]]
        v = np.array([[np.cos(alpha)], [np.sin(alpha)], [0.0]])
        assert abs(principal_angles(u, v)[0] - alpha) < 1e-12

    def test_spanning_set_read_at_its_rank(self):
        # unpivoted QR of these columns has a zero second diagonal entry,
        # though they span {e1, e2}
        spanning = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
        assert np.allclose(principal_angles(spanning, np.eye(3)[:, [1]]), 0.0)

    def test_symmetry_and_orthogonal_invariance(self):
        rng = np.random.default_rng(77)
        u = np.linalg.qr(rng.standard_normal((8, 3)))[0]
        v = np.linalg.qr(rng.standard_normal((8, 3)))[0]
        a1 = principal_angles(u, v)
        a2 = principal_angles(v, u)
        assert np.allclose(a1, a2, atol=1e-10)
        q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        a3 = principal_angles(u @ q, v)
        assert np.allclose(a1, a3, atol=1e-10)

    def test_matches_scipy_subspace_angles(self):
        rng = np.random.default_rng(78)
        eps = np.finfo(float).eps
        for i in range(300):
            n = int(rng.integers(2, 10))
            u = rng.standard_normal((n, int(rng.integers(1, n + 1))))
            v = rng.standard_normal((n, int(rng.integers(1, n + 1))))
            if i % 2:
                # nearly shared directions take the sine branch
                v[:, :1] = u[:, :1] + 1e-9 * rng.standard_normal((n, 1))
            got = principal_angles(u, v)
            assert np.abs(got - _subspace_angles_oracle(u, v)).max() <= 4 * eps
            if u.shape[1] + v.shape[1] > n:
                # the subspaces must intersect (case i = 5: dimensions 4 and
                # 6 in R^9), so the smallest angle is 0; read through arccos
                # it came out at 2e-8 to 4e-8
                assert got[-1] <= 8 * eps, i


def _subspace_angles_oracle(u, v):
    """scipy.linalg.subspace_angles with its sine mask applied to the angles
    it was built for: each angle from the arcsine of its sine where its
    cosine^2 is at least 1/2, else from the arccosine of its cosine.
    Nonincreasing."""
    qa, qb = scipy.linalg.orth(u), scipy.linalg.orth(v)
    if qa.shape[1] < qb.shape[1]:
        qa, qb = qb, qa
    cross = qa.T @ qb
    # both in the order of the angles, smallest first
    cosines = scipy.linalg.svdvals(cross)
    sines = scipy.linalg.svdvals(qb - qa @ cross)[::-1]
    angles = np.where(cosines**2 >= 0.5, np.arcsin(np.clip(sines, -1.0, 1.0)),
                      np.arccos(np.clip(cosines, -1.0, 1.0)))
    return np.sort(angles)[::-1]


class TestRangeEqual:
    def test_identical(self):
        m = np.random.default_rng(0).standard_normal((5, 3))
        assert range_equal(m, m)

    def test_different_lines(self):
        assert not range_equal(np.eye(3)[:, [0]], np.eye(3)[:, [1]])

    def test_invariant_under_right_multiplication(self):
        rng = np.random.default_rng(21)
        m = rng.standard_normal((6, 4))
        j = rng.standard_normal((4, 4)) + 4 * np.eye(4)
        assert range_equal(m, m @ j)

    def test_row_count_mismatch(self):
        with pytest.raises(ValueError):
            range_equal(np.eye(3), np.eye(4))

    def test_matrix_power_ranges_sample(self):
        # range(A^(n+1)) = range(A^n) for every square matrix
        rng = np.random.default_rng(33)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            a = _bounded_spectrum_matrix(n, rng)
            an = np.linalg.matrix_power(a, n)
            assert range_equal(np.linalg.matrix_power(a, n + 1), an, tol=1e-8)


def _bounded_spectrum_matrix(n, rng):
    """Random matrix whose nonzero eigenvalues stay away from the tolerance cliff."""
    kind = rng.integers(0, 3)
    if kind == 0:  # nilpotent Jordan block
        return np.diag(np.ones(n - 1), 1) if n > 1 else np.zeros((1, 1))
    eigs = rng.uniform(0.5, 1.5, size=n) * rng.choice([-1.0, 1.0], size=n)
    if kind == 1:  # singular with moderate nonzero spectrum
        k = int(rng.integers(1, n))
        eigs[:k] = 0.0
    d = np.diag(eigs)
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    return q @ d @ q.T


class TestMatrixCsv:
    def test_round_trip(self, tmp_path):
        m = np.random.default_rng(1).standard_normal((4, 3))
        path = tmp_path / "m.csv"
        write_matrix_csv(path, m)
        assert np.array_equal(read_matrix_csv(path), m)
        assert path.read_text().splitlines()[0] == "4,3"

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nonsense\n1.0,2.0\n")
        with pytest.raises(ValueError):
            read_matrix_csv(path)

    @pytest.mark.parametrize("body, message", [
        ("1.0,nan\n3.0,4.0\n", "non-finite"),
        ("1.0,2.0\n-inf,4.0\n", "non-finite"),
        ("1.0,2.0\n3.0\n", "number of columns changed"),
        ("", "no samples"),
    ])
    def test_body_is_checked(self, tmp_path, body, message):
        path = tmp_path / "bad.csv"
        path.write_text("2,2\n" + body)
        with pytest.raises(ValueError, match=message):
            read_matrix_csv(path)


class TestRangeBasis:
    def test_truncates_at_rank(self):
        rng = np.random.default_rng(6)
        m = rng.standard_normal((6, 2)) @ rng.standard_normal((2, 9))
        basis = range_basis(m)
        assert basis.shape == (6, 2)
        assert np.allclose(basis.T @ basis, np.eye(2), atol=1e-12)
        # the basis spans the columns
        proj = basis @ (basis.T @ m)
        assert np.allclose(proj, m, atol=1e-10)
