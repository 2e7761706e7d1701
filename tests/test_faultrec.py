import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg.lapack import dgeqrf

from subfault.harness import demo_system, projection_residual
from subfault.matstack import (
    RankPolicy,
    block_toeplitz,
    extended_observability,
    range_equal,
)
from subfault.sysgen import (
    FaultPair,
    StateSpace,
    fault_signal,
    random_system,
    _place_fault_pair,
    simulate,
    transmission_zeros,
    white_input,
)
from subfault import faultrec, matstack
from subfault.faultrec import (
    FaultRecovery,
    RecoveryError,
    annihilator_fault_basis,
    behaviorally_equivalent,
    estimate_fault_dim,
    fault_dim_from_ranks,
    recover,
    recover_fault_matrices,
    reconstruct_fault,
    residual_hankel,
    select_representative,
    verify_rank_formula,
    window_in_behavior,
)

TRUE_DIRECTION = np.array([0.938, 0.328, 0.115, 0.0, 0.0])


def _noise_free_run(seed, zero_count, n_v=2, t=1000, dims=(5, 1, 3)):
    n_x, n_u, n_y = dims
    sys, fault = random_system(n_x, n_u, n_y, n_v, zero_count, seed=seed)
    x0 = np.random.default_rng([seed, 4]).standard_normal(n_x)
    u = white_input(n_u, t, seed=[seed, 1])
    v = white_input(n_v, t, seed=[seed, 9])
    y, _ = simulate(sys, fault, x0, u, v)
    return sys, fault, u, v, y


class TestResidualHankel:
    def test_quiet_system_gives_zero_residual(self, demo):
        sys, _ = demo
        t = 40
        y, _ = simulate(sys, None, np.zeros(3), np.zeros((t, 1)))
        r = residual_hankel(y, np.zeros((t, 1)), sys, 5)
        assert np.linalg.norm(r) == 0.0

    def test_fault_free_rank_bounded_by_states(self):
        sys, _ = random_system(4, 2, 3, 1, 0, seed=6)
        u = white_input(2, 500, seed=1)
        x0 = np.array([1.0, -2.0, 0.5, 0.3])
        y, _ = simulate(sys, None, x0, u)
        from subfault.matstack import numerical_rank

        r = residual_hankel(y, u, sys, 6)
        assert numerical_rank(r, RankPolicy.relative(1e-8)) <= 4

    def test_demo_ranks_match_rank_formula(self, demo_run):
        # the benchmark channel is minimal with one infinite zero, so
        # rank(R_s) = n_x + s n_v - zeta; the smaller reference readout
        # corresponds to the compensated residual spectra
        sys, fault, x0, u, v, y, _ = demo_run
        n_v, diag = estimate_fault_dim(y, u, sys, 5, policy=RankPolicy.gap())
        zr = transmission_zeros(sys.A, fault.F, sys.C, fault.G)
        assert diag.rank_s == sys.n_x + 5 * 1 - zr.zeta == 7
        assert diag.rank_s_plus_1 == sys.n_x + 6 * 1 - zr.zeta == 8

    def test_compensated_variant_removes_nominal_response(self, demo_run):
        sys, fault, x0, u, v, y, _ = demo_run
        r = residual_hankel(y, u, sys, 5, x_tilde_0=x0)
        # only the fault subsystem remains: rank collapses to the Hankel of
        # a nearly one-dimensional signal
        sv = np.linalg.svd(r, compute_uv=False)
        assert sv[5] / sv[0] < 1e-2

    def test_too_short(self, demo):
        sys, _ = demo
        with pytest.raises(ValueError):
            residual_hankel(np.zeros((3, 2)), np.zeros((3, 1)), sys, 5)


class TestFaultDim:
    def test_demo_dimension_is_one(self, demo_run):
        sys, fault, x0, u, v, y, _ = demo_run
        n_v, _ = estimate_fault_dim(y, u, sys, 5)
        assert n_v == 1

    def test_fault_free_dimension_zero(self):
        sys, _ = random_system(4, 2, 3, 1, 0, seed=3)
        u = white_input(2, 600, seed=4)
        y, _ = simulate(sys, None, np.ones(4), u)
        n_v, _ = estimate_fault_dim(y, u, sys, 5, policy=RankPolicy.relative(1e-8))
        assert n_v == 0

    def test_two_channel_fault(self):
        sys, fault, u, v, y = _noise_free_run(seed=14, zero_count=0)
        n_v, _ = estimate_fault_dim(y, u, sys, 6, policy=RankPolicy.relative(1e-8))
        assert n_v == 2

    def test_negative_difference_raises(self):
        with pytest.raises(RecoveryError):
            fault_dim_from_ranks(7, 6)

    @pytest.mark.parametrize("method", ["structure", "annihilator"])
    def test_recover_reads_dimension_through_estimate_fault_dim(
        self, demo_run, monkeypatch, method
    ):
        # recover takes n_v, the ranks and the factor of R_s from one
        # estimate_fault_dim call, which builds one chunked factor and forms
        # no residual Hankel
        sys, fault, x0, u, v, y, _ = demo_run
        calls = {"estimate_fault_dim": 0, "residual_hankel": 0, "_hankel_factor": 0}

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(faultrec, "estimate_fault_dim")
        counted(faultrec, "residual_hankel")
        counted(matstack, "_hankel_factor")
        rec = recover(y, u, sys, s=5, method=method)
        assert calls == {"estimate_fault_dim": 1, "residual_hankel": 0, "_hankel_factor": 1}
        n_v, diag = estimate_fault_dim(y, u, sys, 5)
        assert (rec.n_v_estimate, rec.rank_s, rec.rank_s_plus_1) == (
            n_v, diag.rank_s, diag.rank_s_plus_1
        )
        r_s = residual_hankel(y, u, sys, 5)
        gram = r_s @ r_s.T
        factor_gram = diag.residual_s @ diag.residual_s.T
        assert np.abs(factor_gram - gram).max() <= 1e-12 * np.abs(gram).max()
        assert diag.residual_columns == r_s.shape[1]


class TestVerifyRankFormula:
    def test_structured_no_zero_channel(self):
        # F = 0 with full-column-rank G: no zeros at all, full rank identity
        rng = np.random.default_rng(12)
        a = 0.5 * rng.standard_normal((4, 4))
        c = rng.standard_normal((3, 4))
        g = rng.standard_normal((3, 2))
        assert verify_rank_formula(a, np.zeros((4, 2)), c, g, s=5)

    def test_placed_zero_channels(self):
        for seed, zc in ((21, 1), (22, 2), (23, 3)):
            sys, fault = random_system(5, 1, 3, 2, zc, seed=seed)
            assert verify_rank_formula(sys.A, fault.F, sys.C, fault.G, s=6)

    def test_not_left_invertible_rejected(self):
        # two identical fault columns destroy left invertibility
        rng = np.random.default_rng(1)
        a = 0.5 * rng.standard_normal((3, 3))
        f = np.tile(rng.standard_normal((3, 1)), (1, 2))
        c = rng.standard_normal((3, 3))
        g = np.tile(rng.standard_normal((3, 1)), (1, 2))
        with pytest.raises(ValueError, match="left invertible"):
            verify_rank_formula(a, f, c, g, s=4)


class TestRecoverFaultMatrices:
    def test_demo_exact_branch(self, demo_run):
        sys, fault, x0, u, v, y, _ = demo_run
        rec = recover(y, u, sys, s=5, policy=RankPolicy.gap())
        assert rec.n_v_estimate == 1
        assert rec.n_z == 2
        true_stack = fault.stack() / np.linalg.norm(fault.stack())
        assert projection_residual(true_stack, rec.stack()) <= 1e-6
        rep = select_representative(rec, policy="sparse-G", n_v=1)
        target = TRUE_DIRECTION / np.linalg.norm(TRUE_DIRECTION)
        got = rep.stack().ravel()
        assert np.linalg.norm(np.abs(got) - np.abs(target)) <= 1e-6

    def test_no_zero_channel_recovers_exact_range(self):
        sys, fault, u, v, y = _noise_free_run(seed=31, zero_count=0)
        rec = recover(y, u, sys, s=6, policy=RankPolicy.relative(1e-8))
        assert rec.n_z == fault.n_v
        assert range_equal(rec.stack(), fault.stack(), tol=1e-8)

    def test_solution_dimension_tracks_zero_count(self):
        for seed, zc in ((41, 1), (42, 2), (43, 3)):
            sys, fault, u, v, y = _noise_free_run(seed=seed, zero_count=zc)
            rec = recover(y, u, sys, s=6, policy=RankPolicy.relative(1e-8))
            assert rec.n_z == fault.n_v + zc
            assert projection_residual(fault.stack(), rec.stack()) <= 1e-6

    def test_annihilator_matches_structure_solution(self):
        for seed, zc in ((51, 0), (52, 2)):
            sys, fault, u, v, y = _noise_free_run(seed=seed, zero_count=zc)
            _, readout = estimate_fault_dim(y, u, sys, 6)
            structural = recover(y, u, sys, s=6, policy=RankPolicy.relative(1e-8))
            # the spectral-gap dimension readout agrees on clean data
            auto = annihilator_fault_basis(readout, sys)
            assert auto.n_v == structural.n_z
            assert range_equal(structural.stack(), auto.stack(), tol=1e-6)

    @pytest.mark.parametrize(
        "dims, s, n_v, t",
        [((4, 2, 3), 7, 1, 1000), ((6, 1, 4), 8, 2, 1000), ((4, 2, 3), 7, 1, 22)],
        ids=["dims0-7-1", "dims1-8-2", "short-record"],
    )
    def test_annihilator_clean_readout_across_shapes(self, dims, s, n_v, t):
        # one floor direction leaves K wide, several must all be kept; the
        # exact-data readout is the nullity of K in both cases. On the short
        # record the projected residual (17 x 16) is taller than wide, so the
        # annihilating directions include the ones past its width
        for zc in (0, 1, 2):
            sys, fault, u, v, y = _noise_free_run(
                seed=300 + zc, zero_count=zc, n_v=n_v, t=t, dims=dims
            )
            _, readout = estimate_fault_dim(y, u, sys, s)
            structural = recover(y, u, sys, s=s, policy=RankPolicy.relative(1e-8))
            auto = annihilator_fault_basis(readout, sys)
            assert auto.n_v == structural.n_z == n_v + zc
            assert range_equal(structural.stack(), auto.stack(), tol=1e-6)

    @pytest.mark.parametrize(
        "dims, s, n_v, t",
        [
            ((4, 2, 3), 7, 1, 1000),
            ((6, 1, 4), 8, 2, 1000),
            ((4, 2, 3), 7, 1, 22),
            ((4, 2, 3), 7, 1, 100_000),
        ],
        ids=["dims0-7-1", "dims1-8-2", "short-record", "long-record"],
    )
    def test_annihilator_factor_keeps_machine_rule(self, dims, s, n_v, t):
        # the cases above, and a record long enough that its machine floor
        # (up to 3e-14 sigma_1) lies above s n_y eps: read through the factor
        # of R_s, the annihilator keeps as many directions and reads the same
        # n_z as on R_s itself, because its machine rule keeps R_s's width
        # T - s + 1 rather than the factor's (at most s n_y)
        eps = np.finfo(float).eps
        for zc in (0, 1, 2):
            sys, fault, u, v, y = _noise_free_run(
                seed=300 + zc, zero_count=zc, n_v=n_v, t=t, dims=dims
            )
            r_s = residual_hankel(y, u, sys, s)
            _, diag = estimate_fault_dim(y, u, sys, s)
            assert diag.residual_columns == r_s.shape[1] == t - s + 1
            b_perp = np.linalg.svd(extended_observability(sys.A, sys.C, s))[0][:, sys.n_x:]
            full = np.linalg.svd(b_perp.T @ r_s, compute_uv=False)
            # the parent rule on the full product, max(shape) * eps
            machine = RankPolicy.relative(max(b_perp.shape[1], t - s + 1) * eps)
            kept = machine.rank(full)
            projected = np.linalg.svd(b_perp.T @ diag.residual_s, compute_uv=False)
            assert machine.rank(projected) == kept
            assert kept < full.size
            assert annihilator_fault_basis(diag, sys).n_v == n_v + zc

    @pytest.mark.parametrize(
        "method, basis",
        [("structure", "recover_fault_matrices"), ("annihilator", "annihilator_fault_basis")],
    )
    def test_recover_calls_the_public_basis_function(self, demo_run, monkeypatch, method, basis):
        # recover reads the basis function through the module attribute at
        # call time, so a rebinding (a tracing span, say) sees every call,
        # and hands it the readout it built
        sys, fault, x0, u, v, y, _ = demo_run
        seen = []
        original = getattr(faultrec, basis)

        def wrapper(dims, model):
            seen.append(dims)
            return original(dims, model)

        monkeypatch.setattr(faultrec, basis, wrapper)
        rec = recover(y, u, sys, s=5, method=method)
        assert len(seen) == 1
        assert (seen[0].window_s, seen[0].residual_columns) == (5, 996)
        assert rec.rank_s == seen[0].rank_s and rec.residual_s is seen[0].residual_s

    def test_recover_memory_independent_of_record_length(self, demo):
        # at T = 1e5 R_s and R_(s+1) alone are 8 MB and 9.6 MB, and their
        # full-width SVDs several times that; only chunks of them are formed
        sys, fault = demo
        t = 100_000
        u = white_input(1, t, seed=[1, 1])
        y, _ = simulate(sys, fault, np.zeros(3), u, fault_signal("v1", t))
        for method in ("structure", "annihilator"):
            tracemalloc.start()
            try:
                recover(y, u, sys, s=5, method=method)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 16 * 2**20, method

    def test_annihilator_memory_independent_of_record_width(self):
        # at T=4000 the full right singular factor of the 13 x 3995 projected
        # residual alone would take 128 MB; the readout carries R_s's factor
        sys, fault, u, v, y = _noise_free_run(seed=71, zero_count=1, t=4000)
        _, readout = estimate_fault_dim(y, u, sys, 6)
        tracemalloc.start()
        try:
            annihilator_fault_basis(readout, sys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_fault_free_data_raises_in_both_methods(self):
        sys, _ = random_system(4, 2, 3, 1, 0, seed=66)
        u = white_input(2, 600, seed=4)
        y, _ = simulate(sys, None, np.ones(4), u)
        for method in ("structure", "annihilator"):
            with pytest.raises(RecoveryError, match="no fault"):
                recover(y, u, sys, s=5, policy=RankPolicy.relative(1e-8), method=method)

    def test_window_too_small_rejected(self, demo_run):
        sys, fault, x0, u, v, y, _ = demo_run
        _, readout = estimate_fault_dim(y, u, sys, 2)
        with pytest.raises(ValueError):
            recover_fault_matrices(readout, sys)

    def test_solution_dimension_out_of_range_rejected(self, demo_run):
        sys, fault, x0, u, v, y, _ = demo_run
        _, readout = estimate_fault_dim(y, u, sys, 5)
        # the readout's ranks give n_z = n_v + zeta_eff = 6 n_v + n_x - rank_s
        # against 5 rank_s + n_x unknowns: ranks (3, 3) give n_z = 0, and
        # ranks (7, 15) the first n_z above the 38 unknowns, 44
        assert (readout.rank_s, readout.rank_s_plus_1) == (7, 8)
        for rank_s, rank_s1 in ((3, 3), (7, 15)):
            with pytest.raises(RecoveryError, match="not available"):
                recover_fault_matrices(replace(readout, rank_s=rank_s, rank_s_plus_1=rank_s1), sys)
        assert recover_fault_matrices(readout, sys).n_v == 2

    def test_rank_inconsistent_result_is_recovery_error(self):
        readout = dict(
            singular_values_s=np.ones(3), singular_values_s_plus_1=np.ones(5), threshold=0.5,
            residual_s=np.ones((2, 2)), residual_columns=2, window_s=2,
        )
        # n_v = 5 - 3 = 2 from the ranks; a one-column basis is too small
        with pytest.raises(RecoveryError, match="smaller than the fault dimension"):
            FaultRecovery(F_hat=np.ones((2, 1)), G_hat=np.ones((1, 1)),
                          rank_s=3, rank_s_plus_1=5, **readout)
        with pytest.raises(RecoveryError, match="linearly dependent"):
            FaultRecovery(F_hat=np.ones((2, 2)), G_hat=np.ones((1, 2)),
                          rank_s=3, rank_s_plus_1=5, **readout)


class TestBehavioralEquivalence:
    def test_right_multiplication_invariance(self):
        sys, fault, u, v, y = _noise_free_run(seed=61, zero_count=1)
        j = np.random.default_rng(3).standard_normal((2, 2)) + 3 * np.eye(2)
        other = FaultPair(fault.F @ j, fault.G @ j)
        assert behaviorally_equivalent(sys.A, sys.C, fault, other)

    def test_demo_state_only_vs_output_only(self, demo):
        # the eigen-direction fault and its output-side counterpart generate
        # the same behavior; exact for the true eigenvector, and within the
        # three-decimal rounding of the printed pair
        sys, fault = demo
        evals, evecs = np.linalg.eig(sys.A)
        i = int(np.argmin(np.abs(evals - 0.3496)))
        e = np.real(evecs[:, i]).reshape(-1, 1)
        e *= np.sign(e[0, 0])
        exact_state = FaultPair(e, np.zeros((2, 1)))
        output_only = FaultPair(np.zeros((3, 1)), (sys.C @ e))
        assert behaviorally_equivalent(sys.A, sys.C, exact_state, output_only, tol=1e-8)
        printed = FaultPair(fault.F, fault.G)
        printed_g = FaultPair(np.zeros((3, 1)), np.array([[-0.944], [-0.33]]))
        assert behaviorally_equivalent(sys.A, sys.C, printed, printed_g, tol=1e-2)

    def test_generic_pairs_differ(self):
        sys, fault, u, v, y = _noise_free_run(seed=62, zero_count=0)
        rng = np.random.default_rng(8)
        other = FaultPair(rng.standard_normal(fault.F.shape), rng.standard_normal(fault.G.shape))
        assert not behaviorally_equivalent(sys.A, sys.C, fault, other)


class TestWindowMembership:
    def test_lemma_equivalence_with_negatives(self):
        # for windows with a valid prefix, extending by one sample stays in
        # the behavior iff the shifted suffix does; corrupted tails violate
        # both sides together
        rng = np.random.default_rng(70)
        checked_negative = 0
        for trial in range(20):
            n_x, n_y, n_v = 3, 2, 1
            sys, fault = random_system(n_x, 1, n_y, n_v, int(rng.integers(0, 2)), seed=200 + trial)
            a, f, c, g = sys.A, fault.F, sys.C, fault.G
            m = n_x + 1
            xi0 = rng.standard_normal(n_x)
            v = rng.standard_normal((m + 1, n_v))
            chan = StateSpace(a, f, c, g)
            r, _ = simulate(chan, None, xi0, v)
            w = r  # m + 1 samples
            assert window_in_behavior(a, f, c, g, w[:m], tol=1e-8)
            lhs = window_in_behavior(a, f, c, g, w, tol=1e-8)
            rhs = window_in_behavior(a, f, c, g, w[1:], tol=1e-8)
            assert lhs and rhs
            bad = np.array(w)
            bad[-1] += rng.standard_normal(n_y)
            lhs_bad = window_in_behavior(a, f, c, g, bad, tol=1e-8)
            rhs_bad = window_in_behavior(a, f, c, g, bad[1:], tol=1e-8)
            assert lhs_bad == rhs_bad
            if not lhs_bad:
                checked_negative += 1
        assert checked_negative >= 15  # corruption almost always leaves the behavior


class TestReconstruction:
    def test_demo_exact_reconstruction(self, demo_run):
        sys, fault, x0, u, v, y, _ = demo_run
        rec = recover(y, u, sys, s=5, policy=RankPolicy.gap())
        rep = select_representative(rec, policy="sparse-G", n_v=1)
        from subfault.subid import estimate_initial_state

        x_t0 = estimate_initial_state(sys, u, y, horizon=50)
        recon = reconstruct_fault(y, u, sys, rep, x_t0)
        assert recon.replay_residual <= 1e-8
        corr = np.corrcoef(recon.v[:, 0], v[:, 0])[0, 1]
        assert abs(corr) >= 0.99

    def test_zero_residual_gives_zero_reconstruction(self, demo):
        sys, fault = demo
        t = 30
        u = white_input(1, t, seed=0)
        y, _ = simulate(sys, None, np.zeros(3), u)
        recon = reconstruct_fault(y, u, sys, FaultPair(fault.F, fault.G), np.zeros(3))
        assert recon.replay_residual == 0.0
        assert np.allclose(recon.v, 0, atol=1e-9)
        assert np.allclose(recon.xi0, 0, atol=1e-9)

    def test_invariant_zero_channel_replays(self):
        sys, fault, u, v, y = _noise_free_run(seed=77, zero_count=2, t=300)
        from subfault.subid import estimate_initial_state

        x_t0 = estimate_initial_state(sys, u, y, horizon=30)
        recon = reconstruct_fault(y, u, sys, fault, x_t0)
        assert recon.replay_residual <= 1e-8

    @pytest.mark.parametrize(
        "seed, zero_count, n_v, dims",
        [
            (5002, 2, 1, (4, 1, 2)),
            (5010, 2, 1, (4, 1, 2)),
            (5001, 1, 1, (4, 1, 2)),
            (4001, 1, 2, (4, 1, 3)),
        ],
    )
    def test_minimum_norm_matches_pseudo_inverse(self, seed, zero_count, n_v, dims):
        # channels with transmission zeros: O_T xi0 + T^f_T v = r has a family
        # of solutions, and the reconstruction must be its minimum-norm member
        t = 400
        sys, fault, u, v, y = _noise_free_run(seed, zero_count, n_v=n_v, t=t, dims=dims)
        x_t0 = np.zeros(sys.n_x)
        recon = reconstruct_fault(y, u, sys, fault, x_t0)
        assert recon.replay_residual <= 1e-8

        y_nom, _ = simulate(sys, None, x_t0, u)
        rhs = (y - y_nom).reshape(-1)
        dense = np.hstack(
            [
                extended_observability(sys.A, sys.C, t),
                block_toeplitz(sys.A, fault.F, sys.C, fault.G, t),
            ]
        )
        left, sv, right_t = np.linalg.svd(dense, full_matrices=False)
        keep = sv > 1e-10 * sv[0]
        assert not keep.all()  # the reference really has to pick one solution
        reference = right_t[keep].T @ ((left[:, keep].T @ rhs) / sv[keep])
        got = np.concatenate([recon.xi0, recon.v.reshape(-1)])
        assert np.linalg.norm(got - reference) <= 1e-6 * np.linalg.norm(reference)

    def test_long_record_memory_linear_in_length(self, demo):
        # the dense [O_T T^f_T] at T=10^4 alone would take 1.6 GB
        sys, fault = demo
        t = 10_000
        x0 = np.random.default_rng([20240, 4]).standard_normal(sys.n_x)
        u = white_input(sys.n_u, t, seed=[20240, 1])
        v = fault_signal("v1", t)
        y, _ = simulate(sys, fault, x0, u, v)
        tracemalloc.start()
        try:
            recon = reconstruct_fault(y, u, sys, fault, x0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert recon.replay_residual <= 1e-8
        assert peak < 16 * 2**20

    def test_non_finite_sample_rejected(self, demo_run):
        sys, fault, x0, u, v, y, _ = demo_run
        bad = y.copy()
        bad[17, 1] = np.nan
        with pytest.raises(ValueError, match="y contains non-finite"):
            reconstruct_fault(bad, u, sys, fault, x0)


def _per_step_smoother(a, f, c, g, resid):
    """Per-step reference for the smoother's tail and stationary passes: the
    backward sweep and the forward feedback run once per sample, with every
    step's gain block stored."""
    t = resid.shape[0]
    n_x, n_v = f.shape
    n_y = c.shape[0]
    width = n_v + n_x + 1
    rho = faultrec._DAMPING * max(np.linalg.norm(c), np.linalg.norm(g), np.linalg.norm(c @ f))
    rho = rho or faultrec._DAMPING
    stack = np.zeros((n_v + n_y + n_x, width))
    stack[:n_v, :n_v] = rho * np.eye(n_v)
    stack[n_v:n_v + n_y, :n_v] = g
    stack[n_v:n_v + n_y, n_v:-1] = c
    fa = np.hstack([f, a])
    upper = np.triu(np.ones((width, width), dtype=bool))
    info_r = np.zeros((n_x, n_x))
    info_z = np.zeros(n_x)
    gains = np.empty((t, n_v, width))
    for k in range(t - 1, -1, -1):
        stack[n_v:n_v + n_y, -1] = resid[k]
        stack[n_v + n_y:, :-1] = info_r @ fa
        stack[n_v + n_y:, -1] = info_z
        tri = np.where(upper, dgeqrf(stack)[0][:width], 0.0)
        gains[k] = tri[:n_v]
        info_r = tri[n_v:-1, n_v:-1]
        info_z = tri[n_v:-1, -1]
    init = np.zeros((2 * n_x, n_x + 1))
    init[:n_x, :n_x] = info_r
    init[:n_x, -1] = info_z
    init[n_x:, :n_x] = rho * np.eye(n_x)
    tri = np.linalg.qr(init, mode="r")
    xi0 = np.linalg.solve(tri[:n_x, :n_x], tri[:n_x, -1])
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
    return xi0, offset - np.einsum("kij,kj->ki", feedback, xs)


def _channel_output(a, f, c, g, t, seed):
    """Output of the fault channel itself from a random state and white v."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((t, f.shape[1]))
    y, _ = simulate(StateSpace(a, f, c, g), None, rng.standard_normal(a.shape[0]), v)
    return y


def _replay(a, f, c, g, xi0, v, resid):
    y, _ = simulate(StateSpace(a, f, c, g), None, xi0, v)
    return np.linalg.norm(y - resid) / np.linalg.norm(resid)


def _rel(x, ref):
    scale = np.linalg.norm(ref)
    return np.linalg.norm(x - ref) / scale if scale else np.linalg.norm(x)


def _smoother_channels():
    sys, fault = demo_system()
    channels = [pytest.param(sys.A, fault.F, sys.C, fault.G, 0, id="demo")]
    for zeros in range(4):
        for seed in (0, 1):
            s, fl = random_system(5, 1, 3, 2, zeros, seed=1000 * zeros + seed)
            channels.append(
                pytest.param(s.A, fl.F, s.C, fl.G, zeros, id=f"zeros{zeros}-seed{seed}")
            )
    return channels


class TestStationarySmoother:
    """The smoother against its per-step reference.

    Zero-free channels must agree to 1e-12 relative. With invariant zeros the
    minimum-norm v is decided by rounding, so there the replay must be as
    good as the reference's and v must agree within the reference's own
    sensitivity: the largest move of its v under three 1e-15 relative
    perturbations of r. The bound allows 10x that move, because a single
    draw undersamples what a change of arithmetic order does.
    """

    _EPS = float(np.finfo(float).eps)

    @pytest.mark.parametrize("a, f, c, g, zeros", _smoother_channels())
    def test_matches_per_step_reference(self, a, f, c, g, zeros):
        t_full = 1000
        resid_full = _channel_output(a, f, c, g, t_full, seed=[zeros, 3])
        tail = faultrec._fault_channel_smoother(a, f, c, g, resid_full)[2]
        lengths = sorted({1, 2, tail - 1, tail, tail + 1, t_full} & set(range(1, t_full + 1)))
        rng = np.random.default_rng([zeros, 5])
        for t in lengths:
            resid = resid_full[:t]
            xi0, v, per_step, info = faultrec._fault_channel_smoother(a, f, c, g, resid)
            ref_xi0, ref_v = _per_step_smoother(a, f, c, g, resid)
            assert v.shape == info.shape == (t, f.shape[1])
            assert per_step == min(t, tail)
            if zeros == 0:
                assert _rel(v, ref_v) <= 1e-12, t
                assert _rel(xi0, ref_xi0) <= 1e-12, t
                continue
            sensitivity = max(
                _rel(_per_step_smoother(a, f, c, g, resid * (1 + 1e-15 * e))[1], ref_v)
                for e in rng.standard_normal((3,) + resid.shape)
            )
            assert _rel(v, ref_v) <= 10 * sensitivity, t
            replay = _replay(a, f, c, g, xi0, v, resid)
            ref_replay = _replay(a, f, c, g, ref_xi0, ref_v, resid)
            assert replay <= ref_replay + 16 * self._EPS, t

    @pytest.mark.parametrize("zero", [1.0, -1.0])
    def test_unit_circle_zero_stays_per_step(self, demo, zero):
        # an invariant zero on the unit circle: the factor never settles, and
        # the whole record runs the per-step sweep, arithmetic unchanged
        sys, _ = demo
        fault = _place_fault_pair(sys, 1, np.array([zero]), np.random.default_rng(3))
        a, f, c, g = sys.A, fault.F, sys.C, fault.G
        found = transmission_zeros(a, f, c, g).finite_zeros
        assert np.allclose(found, [zero], atol=1e-9)
        resid = _channel_output(a, f, c, g, 1000, seed=11)
        xi0, v, per_step, _ = faultrec._fault_channel_smoother(a, f, c, g, resid)
        ref_xi0, ref_v = _per_step_smoother(a, f, c, g, resid)
        assert per_step == 1000
        assert np.array_equal(v, ref_v)
        assert np.array_equal(xi0, ref_xi0)

    def test_memory_holds_no_per_step_blocks(self, demo):
        # per-step storage over T=10^5 (gains, solved gains, closed loops)
        # took 13.5x the residual's bytes; the stationary passes keep a few
        # T x n arrays, and the short tail's blocks
        sys, fault = demo
        resid = _channel_output(sys.A, fault.F, sys.C, fault.G, 100_000, seed=13)
        tracemalloc.start()
        try:
            _, _, per_step, _ = faultrec._fault_channel_smoother(
                sys.A, fault.F, sys.C, fault.G, resid
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert per_step < 1000
        assert peak <= 10 * resid.nbytes


class TestSelectRepresentative:
    def test_identity_when_exactly_determined(self):
        sys, fault, u, v, y = _noise_free_run(seed=81, zero_count=0)
        rec = recover(y, u, sys, s=6, policy=RankPolicy.relative(1e-8))
        rep = select_representative(rec, policy="leading", n_v=rec.n_z)
        assert range_equal(rep.stack(), rec.stack(), tol=1e-8)

    def test_random_mixings_stay_equivalent(self):
        sys, fault, u, v, y = _noise_free_run(seed=82, zero_count=1)
        rec = recover(y, u, sys, s=6, policy=RankPolicy.relative(1e-8))
        rng = np.random.default_rng(5)
        rep = select_representative(rec, policy="leading", n_v=2)
        for _ in range(5):
            p = rng.standard_normal((rec.n_z, 2))
            mixed = FaultPair(rec.F_hat @ p, rec.G_hat @ p)
            assert behaviorally_equivalent(sys.A, sys.C, rep, mixed, tol=1e-8)

    def test_sparse_policy_infeasible(self):
        sys, fault, u, v, y = _noise_free_run(seed=83, zero_count=1)
        rec = recover(y, u, sys, s=6, policy=RankPolicy.relative(1e-8))
        # a generic basis admits no output-annihilating direction pool of
        # size 2 at the default feasibility bound
        with pytest.raises(ValueError, match="infeasible|cannot select"):
            select_representative(rec, policy="sparse-G", n_v=rec.n_z + 1)

    def test_unknown_policy(self, demo_run):
        sys, fault, x0, u, v, y, _ = demo_run
        rec = recover(y, u, sys, s=5, policy=RankPolicy.gap())
        with pytest.raises(ValueError, match="unknown"):
            select_representative(rec, policy="bogus", n_v=1)


class TestTheoremProperties:
    def test_true_pair_in_recovered_range(self):
        for seed, zc in ((91, 0), (92, 1), (93, 2)):
            sys, fault, u, v, y = _noise_free_run(seed=seed, zero_count=zc)
            rec = recover(y, u, sys, s=6, policy=RankPolicy.relative(1e-8))
            assert projection_residual(fault.stack(), rec.stack()) <= 1e-6

    def test_realization_property(self):
        # recovering from data generated by any representative returns the
        # same solution range
        sys, fault, u, v, y = _noise_free_run(seed=94, zero_count=1)
        rec = recover(y, u, sys, s=6, policy=RankPolicy.relative(1e-8))
        rng = np.random.default_rng(7)
        p = rng.standard_normal((rec.n_z, 2))
        alt = FaultPair(rec.F_hat @ p, rec.G_hat @ p)
        x0 = rng.standard_normal(sys.n_x)
        v2 = white_input(2, 1000, seed=100)
        y2, _ = simulate(sys, alt, x0, u, v2)
        rec2 = recover(y2, u, sys, s=6, policy=RankPolicy.relative(1e-8))
        assert range_equal(rec.stack(), rec2.stack(), tol=1e-8)
