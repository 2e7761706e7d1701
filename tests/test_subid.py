import tracemalloc

import numpy as np
import pytest

from subfault.harness import demo_system, markov_relative_error
from subfault.matstack import _CHUNK, block_hankel, min_norm_lsq
from subfault.sysgen import (
    StateSpace,
    colored_noise,
    fault_signal,
    random_system,
    simulate,
    white_input,
)
from subfault.subid import (
    DegenerateDataError,
    ExcitationError,
    _estimate_b_d_x0,
    _unit_input_blocks,
    estimate_initial_state,
    estimate_order,
    markov_params,
    pi_moesp,
)


def _fault_free_data(seed, t, n_x=4, n_u=2, n_y=2):
    sys, _ = random_system(n_x, n_u, n_y, 1, 0, seed=seed)
    u = white_input(n_u, t, seed=[seed, 1])
    x0 = np.random.default_rng([seed, 4]).standard_normal(n_x)
    y, _ = simulate(sys, None, x0, u)
    return sys, u, y


class TestPiMoesp:
    def test_exact_data_consistency(self):
        sys, u, y = _fault_free_data(seed=3, t=2000)
        result = pi_moesp(u, y, order=sys.n_x)
        assert markov_relative_error(result.system, sys) <= 1e-6

    def test_multi_input_replay_from_initial_state(self):
        # two inputs check the column order of the B/D/x0 regressor: the
        # identified model replays noise-free data from its initial state
        sys, fault = random_system(4, 2, 3, 2, 0, seed=17)
        u = white_input(2, 600, seed=[17, 1])
        x0 = np.random.default_rng([17, 4]).standard_normal(4)
        y, _ = simulate(sys, None, x0, u)
        result = pi_moesp(u, y, order=sys.n_x)
        y_hat, _ = simulate(result.system, None, result.x_tilde_0, u)
        assert np.linalg.norm(y_hat - y) <= 1e-8 * np.linalg.norm(y)

    def test_demo_with_active_fault(self, demo_run):
        sys, fault, x0, u, v, y, _ = demo_run
        result = pi_moesp(u, y, order=3)
        assert markov_relative_error(result.system, sys) <= 0.05

    def test_demean_matches_the_centred_record(self, demo):
        # the means are subtracted chunk by chunk, in the data factor and in
        # the regression, with bitwise the result of centring the record
        sys, fault = demo
        t = _CHUNK + 100
        u = white_input(1, t, seed=[t, 1]) + 0.5
        y, _ = simulate(sys, fault, np.ones(3), u, fault_signal("v1", t))
        y = y - 0.3
        got = pi_moesp(u, y, order=3, demean=True)
        ref = pi_moesp(u - u.mean(axis=0), y - y.mean(axis=0), order=3)
        for name in ("A", "B", "C", "D"):
            assert np.array_equal(getattr(got.system, name), getattr(ref.system, name)), name
        assert np.array_equal(got.x_tilde_0, ref.x_tilde_0)

    @pytest.mark.parametrize("order, confident", [(2, False), (3, True), (4, False)])
    def test_given_order_is_confident_only_at_the_spectrum_gap(self, demo, order, confident):
        # the demo record from rest: the order spectrum's one confident gap
        # is after the third value, so only order 3 is confirmed
        sys, fault = demo
        u = white_input(1, 1000, seed=[20240, 1])
        y, _ = simulate(sys, fault, np.zeros(3), u, fault_signal("v1", 1000))
        assert pi_moesp(u, y, order=order).order_confident is confident

    def test_given_order_on_negligible_spectrum_raises(self):
        u = white_input(1, 400, seed=[1, 1])
        with pytest.raises(DegenerateDataError):
            pi_moesp(u, np.zeros((400, 2)), order=2)
        # a non-positive order is still an input error, checked first
        with pytest.raises(ValueError):
            pi_moesp(u, np.zeros((400, 2)), order=0)

    def test_zero_input_raises_excitation_error(self):
        t = 200
        y = np.random.default_rng(0).standard_normal((t, 2))
        with pytest.raises(ExcitationError):
            pi_moesp(np.zeros((t, 1)), y, s=5)

    def test_report_shape_invariants(self, demo_run):
        sys, fault, x0, u, v, y, _ = demo_run
        result = pi_moesp(u, y, s=8, order=3)
        assert result.chosen_order == result.system.n_x == 3
        assert result.order_singular_values.shape == (8 * sys.n_y,)
        assert result.window_s == 8
        assert result.x_tilde_0.shape == (3,)

    def test_consistency_does_not_degrade_with_horizon(self):
        errs = []
        for t in (2000, 4000):
            sys, u, y = _fault_free_data(seed=11, t=t)
            errs.append(markov_relative_error(pi_moesp(u, y, order=sys.n_x).system, sys))
        assert errs[0] <= 1e-6
        assert errs[1] <= 1e-6

    def test_fault_robust_error_trend(self, demo):
        # median Markov error over seeds decreases as the record grows
        sys, fault = demo
        medians = []
        for t in (500, 1000, 4000):
            errs = []
            for seed in range(10):
                x0 = np.random.default_rng([seed, 4]).standard_normal(3)
                u = white_input(1, t, seed=[seed, 1])
                v = fault_signal("v1", t)
                y, _ = simulate(sys, fault, x0, u, v)
                errs.append(markov_relative_error(pi_moesp(u, y, order=3).system, sys))
            medians.append(np.median(errs))
        assert medians[0] > medians[1] > medians[2]

    def test_identified_stability_logged(self, demo_run, capsys):
        # stability of the estimate is expected but not asserted; log only
        sys, fault, x0, u, v, y, _ = demo_run
        result = pi_moesp(u, y, order=3)
        rho = result.system.spectral_radius()
        if rho >= 1 + 1e-6:
            print(f"note: identified system unstable (rho={rho})")
        assert rho < 1.5  # sanity only

    def test_order_auto_on_demo(self, demo):
        sys, fault = demo
        hits = 0
        for seed in range(10):
            x0 = np.random.default_rng([seed, 4]).standard_normal(3)
            u = white_input(1, 1000, seed=[seed, 1])
            v = fault_signal("v1", 1000)
            y, _ = simulate(sys, fault, x0, u, v)
            result = pi_moesp(u, y, order="auto", order_hint=3)
            hits += result.chosen_order == 3
        assert hits >= 9


class TestEstimateOrder:
    def test_dominant_gap(self):
        sel = estimate_order([10.0, 9.0, 8.0, 1e-6, 1e-7])
        assert sel.order == 3
        assert sel.confident

    def test_degenerate_spectrum(self):
        with pytest.raises(DegenerateDataError):
            estimate_order([1e-13, 1e-14])

    def test_flat_spectrum_low_confidence(self):
        sel = estimate_order([5.0, 5.0, 5.0, 5.0])
        assert sel.order == 4
        assert not sel.confident

    def test_increasing_input_rejected(self):
        with pytest.raises(ValueError):
            estimate_order([1.0, 2.0])


class TestMarkovParams:
    def test_demo_first_three(self, demo):
        sys, _ = demo
        params = markov_params(sys, 3)
        assert np.allclose(params[0], 0)
        assert np.allclose(params[1].ravel(), [0.0, 0.0])
        assert np.allclose(params[2].ravel(), [0.0, 1.0])

    def test_zero_b(self):
        rng = np.random.default_rng(1)
        from subfault.sysgen import StateSpace

        sys = StateSpace(rng.standard_normal((3, 3)), np.zeros((3, 2)),
                         rng.standard_normal((2, 3)), rng.standard_normal((2, 2)))
        params = markov_params(sys, 4)
        assert all(np.allclose(p, 0) for p in params[1:])

    def test_similarity_invariance(self):
        rng = np.random.default_rng(10)
        from subfault.sysgen import StateSpace

        a = 0.5 * rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 2))
        c = rng.standard_normal((3, 4))
        d = rng.standard_normal((3, 2))
        t = rng.standard_normal((4, 4)) + 4 * np.eye(4)
        sys1 = StateSpace(a, b, c, d)
        sys2 = StateSpace(np.linalg.solve(t, a @ t), np.linalg.solve(t, b), c @ t, d)
        for p1, p2 in zip(markov_params(sys1, 6), markov_params(sys2, 6)):
            assert np.allclose(p1, p2, atol=1e-10)


class TestInitialState:
    def test_round_trip(self):
        sys, _ = random_system(3, 2, 2, 1, 0, seed=8)
        x0 = np.array([0.7, -1.1, 0.4])
        u = white_input(2, 100, seed=2)
        y, _ = simulate(sys, None, x0, u)
        est = estimate_initial_state(sys, u, y, horizon=20)
        assert np.allclose(est, x0, atol=1e-8)

    def test_zero_data(self):
        sys, _ = random_system(3, 1, 2, 1, 0, seed=9)
        t = 30
        est = estimate_initial_state(sys, np.zeros((t, 1)), np.zeros((t, 2)), horizon=10)
        assert np.allclose(est, 0)

    def test_short_horizon_rejected(self):
        sys, _ = random_system(4, 1, 2, 1, 0, seed=10)
        with pytest.raises(ValueError):
            estimate_initial_state(sys, np.zeros((10, 1)), np.zeros((10, 2)), horizon=3)


def _loop_b_d_x0(a, c, u_data, y_data):
    """Per-sample reference for the B/D/x0 regressors: W(k+1) = A W(k) +
    [0, u(k)^T kron I], W(0) = [I, 0], one product per sample."""
    t, n_u = u_data.shape
    n_y = y_data.shape[1]
    n = a.shape[0]
    drive = _unit_input_blocks(u_data, n)
    w_all = np.empty((t, n, n + n * n_u))
    w = np.hstack([np.eye(n), np.zeros((n, n * n_u))])
    for k in range(t):
        w_all[k] = w
        w = a @ w
        w[:, n:] += drive[k]
    phi = np.concatenate([c @ w_all, _unit_input_blocks(u_data, n_y)], axis=2)
    theta = np.linalg.lstsq(phi.reshape(t * n_y, -1), y_data.reshape(-1), rcond=None)[0]
    return (
        theta[n : n + n * n_u].reshape(n_u, n).T,
        theta[n + n * n_u :].reshape(n_u, n_y).T,
        theta[:n],
    )


def test_lifted_regressors_match_per_sample_loop(demo_run):
    sys, fault, x0, u, v, y, _ = demo_run
    ident = pi_moesp(u, y, order=sys.n_x)
    a, c = ident.system.A, ident.system.C
    assert np.abs(np.linalg.eigvals(a)).max() < 1.0
    got = _estimate_b_d_x0(a, c, u, y)
    ref = _loop_b_d_x0(a, c, u, y)
    for name, g, r in zip(("B", "D", "x0"), got, ref):
        assert np.linalg.norm(g - r) <= 1e-10 * np.linalg.norm(r), name


# record widths around the chunk of the triangular-factor pass
CHUNK_WIDTHS = [_CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1]


def _one_shot_pi_moesp(u, y, s, n):
    """Reference identification: the one-shot QR of the whole stacked data
    [U_f; U_p; Y_f], then A and C as in ``pi_moesp``, and B, D, x0 from the
    per-sample regressors solved by one least-squares call."""
    n_u, n_y = u.shape[1], y.shape[1]
    n_cols = u.shape[0] - 2 * s + 1
    u_all = block_hankel(u, 2 * s, n_cols)
    stacked = np.vstack([u_all[s * n_u :], u_all[: s * n_u], block_hankel(y[s:], s, n_cols)])
    lower = np.linalg.qr(stacked.T, mode="r").T
    obs = np.linalg.svd(lower[2 * s * n_u :, s * n_u : 2 * s * n_u])[0][:, :n]
    a = min_norm_lsq(obs[: (s - 1) * n_y], obs[n_y:])
    c = obs[:n_y]
    b, d, _ = _loop_b_d_x0(a, c, u, y)
    return StateSpace(a, b, c, d)


def _chunk_records(width):
    """(name, system, window s, u, y) for records whose data matrix has
    ``width`` columns: the demo record with its fault, and a random
    (5,1,3,2) record with one zero at 40 dB."""
    sys, fault = demo_system()
    t = width + 2 * 8 - 1
    u = white_input(1, t, seed=[t, 1])
    y, _ = simulate(sys, fault, np.ones(3), u, fault_signal("v1", t))
    yield "demo", sys, 8, u, y
    sys, fault = random_system(5, 1, 3, 2, 1, seed=11)
    t = width + 2 * 12 - 1
    u = white_input(1, t, seed=[t, 2])
    y, _ = simulate(sys, fault, np.ones(5), u, white_input(2, t, seed=[t, 9]))
    yield "random-40dB", sys, 12, u, y + colored_noise(3, t, 40.0, y, seed=[t, 3])


@pytest.mark.parametrize("width", CHUNK_WIDTHS)
def test_identification_does_not_change_coordinates_across_chunks(width):
    # the identified realization matches the one-shot reference entry by
    # entry, so a change of state coordinates (a sign flip of a state, say)
    # fails here even though it leaves the Markov parameters alone
    for name, sys, s, u, y in _chunk_records(width):
        ident = pi_moesp(u, y, s=s, order=sys.n_x)
        ref = _one_shot_pi_moesp(u, y, s, sys.n_x)
        assert np.abs(ident.system.A - ref.A).max() <= 1e-10, name
        assert np.abs(ident.system.C - ref.C).max() <= 1e-10, name
        got = np.array(markov_params(ident.system, 12))
        want = np.array(markov_params(ref, 12))
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want), name


@pytest.mark.parametrize("width", CHUNK_WIDTHS)
def test_chunked_regressors_carry_the_block_start(demo_run, width):
    # B, D and x0 over records that end just before, at and after chunk
    # edges match the per-sample loop; an identified (A, C) leaves a
    # residual, so every sample of every chunk moves the solution
    sys, fault, x0, u, v, y, _ = demo_run
    ident = pi_moesp(u, y, order=sys.n_x).system
    u_t = white_input(1, width, seed=[width, 1])
    y_t, _ = simulate(sys, fault, x0, u_t, fault_signal("v1", width))
    got = _estimate_b_d_x0(ident.A, ident.C, u_t, y_t)
    ref = _loop_b_d_x0(ident.A, ident.C, u_t, y_t)
    for name, g, r in zip(("B", "D", "x0"), got, ref):
        assert np.linalg.norm(g - r) <= 1e-10 * np.linalg.norm(r), name


def test_memory_independent_of_record_length():
    # at T = 1e5 the stacked data matrix alone is 26 MB and the regressors
    # 13 MB; only chunks of them are formed
    sys, fault = demo_system()
    t = 100_000
    u = white_input(1, t, seed=[1, 1])
    y, _ = simulate(sys, fault, np.zeros(3), u, fault_signal("v1", t))
    tracemalloc.start()
    try:
        pi_moesp(u, y, order=3, demean=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
