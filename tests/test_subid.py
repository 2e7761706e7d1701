import tracemalloc

import numpy as np
import pytest
import scipy.signal

from subfault.harness import (
    ExperimentConfig,
    _fault_trajectory,
    _simulate_record,
    demo_system,
    markov_relative_error,
)
from subfault.matstack import (
    _CHUNK,
    RankPolicy,
    _fold_into,
    _hankel_factor,
    _lti_states,
    block_hankel,
    extended_observability,
    min_norm_lsq,
    numerical_rank,
    principal_angles,
)
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

    def test_numpy_integer_order_sets_the_window(self, demo_run):
        sys, fault, x0, u, v, y, _ = demo_run
        result = pi_moesp(u, y, order=np.int64(3))
        assert result.window_s == 8
        assert np.array_equal(result.system.A, pi_moesp(u, y, order=3).system.A)

    def test_fractional_order_refused(self, demo_run):
        sys, fault, x0, u, v, y, _ = demo_run
        with pytest.raises(ValueError, match="order must be an integer, got 2.9"):
            pi_moesp(u, y, order=2.9)

    def test_boolean_order_refused(self, demo_run):
        sys, fault, x0, u, v, y, _ = demo_run
        with pytest.raises(ValueError, match="order must be an integer, got True"):
            pi_moesp(u, y, order=True)

    def test_fractional_window_refused(self, demo_run):
        sys, fault, x0, u, v, y, _ = demo_run
        with pytest.raises(ValueError, match="s must be an integer, got 8.5"):
            pi_moesp(u, y, s=8.5, order=3)

    def test_fractional_order_hint_refused(self, demo_run):
        sys, fault, x0, u, v, y, _ = demo_run
        with pytest.raises(ValueError, match="order_hint must be an integer, got 3.0"):
            pi_moesp(u, y, order_hint=3.0)

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

    def test_memory_linear_in_the_horizon(self):
        # a horizon-deep Toeplitz of the demo system at horizon 3000 alone
        # is 144 MB; the observability matrix and one simulation are 0.2 MB
        sys, _ = demo_system()
        x0 = np.array([0.7, -1.1, 0.4])
        u = white_input(1, 3000, seed=3)
        y, _ = simulate(sys, None, x0, u)
        tracemalloc.start()
        try:
            est = estimate_initial_state(sys, u, y, horizon=3000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        assert np.allclose(est, x0, atol=1e-8)

    def test_short_horizon_rejected(self):
        sys, _ = random_system(4, 1, 2, 1, 0, seed=10)
        with pytest.raises(ValueError):
            estimate_initial_state(sys, np.zeros((10, 1)), np.zeros((10, 2)), horizon=3)


def _unit_input_blocks(u_data, m: int) -> np.ndarray:
    """Per-sample [u_0(k) I_m, ..., u_(n_u-1)(k) I_m], shape (T, m, m n_u),
    as a broadcast product with the identity."""
    t, n_u = u_data.shape
    return (u_data[:, None, :, None] * np.eye(m)[None, :, None, :]).reshape(t, m, m * n_u)


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


# ---------------------------------------------------------------------------
# identification from the input factor, against the full-factor route


def _full_factor_pi_moesp(u, y, s, n):
    """``pi_moesp(u, y, s=s, order=n, demean=True)`` through the full
    factor: [U_f; U_p; Y_f]^T folded whole by ``_hankel_factor``, L32 read
    as lower[i2:, i1:i2], and B, D, x0 from the package's regression.
    Returns (system, order spectrum, R_UU)."""
    n_u, n_y = u.shape[1], y.shape[1]
    n_cols = u.shape[0] - 2 * s + 1
    i1, i2 = s * n_u, 2 * s * n_u
    u_mean, y_mean = u.mean(axis=0), y.mean(axis=0)
    centre = np.concatenate([np.tile(u_mean, 2 * s), np.tile(y_mean, s)])

    def rows(out, h_u, h_y):
        np.copyto(out, np.hstack([h_u[:, i1:], h_u[:, :i1], h_y[:, s * n_y :]]) - centre)

    r_fac = _hankel_factor((u, y), 2 * s, n_cols, i2 + s * n_y, rows)
    lower = r_fac.T
    u_svd, s_svd, _ = np.linalg.svd(lower[i2:, i1:i2], full_matrices=False)
    obs = u_svd[:, :n]
    a = min_norm_lsq(obs[: (s - 1) * n_y], obs[n_y:])
    c = obs[:n_y]
    b, d, _ = _estimate_b_d_x0(a, c, u, y, u_mean, y_mean)
    return StateSpace(a, b, c, d), s_svd / np.sqrt(n_cols), r_fac[:i2, :i2]


def _input_factor_records():
    """(name, u, y, order, spectrum tolerance relative to sigma_1)."""
    sys, fault = demo_system()
    t = 1000
    x0 = np.random.default_rng([20240, 4]).standard_normal(3)
    u = white_input(1, t, seed=[20240, 1])
    y, _ = simulate(sys, fault, x0, u, fault_signal("v1", t))
    yield "clean-demo", u, y, 3, 1e-12
    config = ExperimentConfig.montecarlo_defaults()
    seed = config.seed ^ 5
    study_sys, study_fault = random_system(5, 1, 3, 2, 0, seed=seed)
    u_s, y_s = _simulate_record(study_sys, study_fault, _fault_trajectory(2, t, seed), config, seed)
    yield "study-40dB", u_s, y_s, 5, 1e-12
    two_sys, two_fault = random_system(4, 2, 3, 2, 0, seed=17)
    u_2 = white_input(2, 600, seed=[17, 1])
    y_2, _ = simulate(two_sys, two_fault, np.ones(4), u_2, white_input(2, 600, seed=[17, 2]))
    yield "two-input", u_2, y_2, 4, 1e-12
    # white noise through two real poles at 0.98: R_UU is ill-conditioned
    # but clears the excitation rule; the longer record folds its windows
    # over three chunks, twice
    for name, t_l in (("low-pass", t), ("low-pass-chunked", 2 * _CHUNK + 500)):
        lowpass = scipy.signal.lfilter([1.0], np.poly([0.98, 0.98]), white_input(1, t_l + 200, seed=[3, 1]),
                                       axis=0)[200:]
        y_l, _ = simulate(sys, fault, x0, lowpass, fault_signal("v1", t_l))
        yield name, lowpass, y_l, 3, 1e-9


@pytest.mark.parametrize("name, u, y, order, spectrum_tol", list(_input_factor_records()),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_input_factor_matches_the_full_factor(name, u, y, order, spectrum_tol):
    # R_UY = R_UU^-T (W Y_f^T) is the full factor's block above L33, so the
    # spectrum, the observability range and the model are the full route's
    got = pi_moesp(u, y, order=order, demean=True)
    s = got.window_s
    ref, spectrum, r_uu = _full_factor_pi_moesp(u, y, s, order)
    cond = np.linalg.cond(r_uu)
    if name.startswith("low-pass"):
        assert 1e3 <= cond
    else:
        assert cond < 1e3
    width = min(spectrum.size, got.order_singular_values.size)
    assert np.abs(got.order_singular_values[:width] - spectrum[:width]).max() <= spectrum_tol * spectrum[0]
    angles = principal_angles(extended_observability(got.system.A, got.system.C, s),
                              extended_observability(ref.A, ref.C, s))
    assert angles.max() <= 1e-10
    want = np.array(markov_params(ref, 2 * s))
    assert np.linalg.norm(np.array(markov_params(got.system, 2 * s)) - want) <= 1e-9 * np.linalg.norm(want)


def test_input_below_the_excitation_rule_is_refused_as_before():
    # two sinusoids excite four of the 16 input rows at s = 8; the full
    # factor's R_UU reads the same deficient rank
    sys, fault = demo_system()
    k = np.arange(400.0)[:, None]
    u = np.sin(0.3 * k) + np.sin(1.1 * k)
    y, _ = simulate(sys, fault, np.ones(3), u, fault_signal("v1", 400))
    with pytest.raises(ExcitationError, match="^input Hankel covariance is rank deficient; "
                                              "the input does not persistently excite the system$"):
        pi_moesp(u, y, order=3, demean=True)
    assert numerical_rank(_full_factor_pi_moesp(u, y, 8, 3)[2], RankPolicy.relative(1e-4)) < 16


def _reference_b_d_x0(a, c, u_data, y_data, u_mean=0.0, y_mean=0.0):
    """The regression as it stood with its rows formed apart from the fold
    buffer and its drive built from the identity broadcast."""
    t, n_u = u_data.shape
    n_y = y_data.shape[1]
    n = a.shape[0]
    n_w = n + n * n_u
    n_params = n_w + n_y * n_u
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
        rows = rows.reshape(-1, n_params + 1)
        r = _fold_into(r, len(rows), lambda out: np.copyto(out, rows))
        w = w_all[-1]
    theta = min_norm_lsq(r[:n_params, :n_params], r[:n_params, -1])
    return theta[n : n + n * n_u].reshape(n_u, n).T, theta[n + n * n_u :].reshape(n_u, n_y).T, theta[:n]


@pytest.mark.parametrize("t", [1000, 2 * _CHUNK + 1])
def test_regression_rows_written_in_place_keep_their_bits(demo, t):
    sys, fault = demo
    u = white_input(1, t, seed=[t, 1]) + 0.5
    y, _ = simulate(sys, fault, np.ones(3), u, fault_signal("v1", t))
    ident = pi_moesp(u, y, order=3, demean=True).system
    means = (u.mean(axis=0), y.mean(axis=0))
    got = _estimate_b_d_x0(ident.A, ident.C, u, y, *means)
    want = _reference_b_d_x0(ident.A, ident.C, u, y, *means)
    for name, g, w in zip(("B", "D", "x0"), got, want):
        assert g.shape == w.shape and g.tobytes() == w.tobytes(), name
