import numpy as np
import pytest

from subfault.faultrec import reconstruct_fault
from subfault.matstack import (
    RankPolicy,
    as_matrix,
    block_hankel,
    block_toeplitz,
    extended_observability,
)
from subfault.sysgen import (
    FaultPair,
    StateSpace,
    ZeroReport,
    _place_fault_pair,
    _rosenbrock,
    _square_pencil_eigs,
    colored_noise,
    fault_signal,
    load_system_json,
    random_system,
    read_trajectory_csv,
    save_system_json,
    simulate,
    stack_channels,
    transmission_zeros,
    white_input,
    write_trajectory_csv,
)


def _match_candidates(z1, z2, tol=1e-6):
    """Greedy multiset intersection of two candidate lists within tolerance."""
    matched = []
    pool = list(z2)
    for z in z1:
        best_i, best_d = None, np.inf
        for i, other in enumerate(pool):
            d = abs(z - other)
            if d < best_d:
                best_i, best_d = i, d
        if best_i is not None and best_d <= tol * (1.0 + abs(z)):
            matched.append(z)
            pool.pop(best_i)
    return matched


def _two_probe_transmission_zeros(a, f, c, g, tol=1e-8):
    """Reference for ``transmission_zeros``: the earlier routine that reads the
    normal rank from two random complex pencil probes, intersects the
    candidates of two random squarings, and redoes the terminal Toeplitz
    SVD for channels that are not left invertible."""
    a, f, c, g = (as_matrix(m) for m in (a, f, c, g))
    n, nv, ny = a.shape[0], f.shape[1], c.shape[0]
    policy = RankPolicy.relative(tol)

    probe_rng = np.random.default_rng(1917)
    normal_rank = 0
    for _ in range(2):
        q0 = complex(probe_rng.normal(scale=3.0), probe_rng.normal(scale=3.0))
        pencil = _rosenbrock(a, f, c, g, q0)
        normal_rank = max(normal_rank, policy.rank(np.linalg.svd(pencil, compute_uv=False)))
    left_invertible_rank = normal_rank == n + nv

    if ny == nv:
        candidates = list(_square_pencil_eigs(a, f, c, g))
    elif ny > nv:
        srng = np.random.default_rng(24601)
        cands = []
        for _ in range(2):
            s_mix = srng.standard_normal((nv, ny))
            cands.append(_square_pencil_eigs(a, f, s_mix @ c, s_mix @ g))
        candidates = _match_candidates(cands[0], cands[1])
    else:
        candidates = []

    finite = []
    for z in candidates:
        pencil = _rosenbrock(a, f, c, g, z)
        if policy.rank(np.linalg.svd(pencil, compute_uv=False)) < normal_rank:
            if abs(z.imag) <= 1e-9 * (1.0 + abs(z.real)):
                z = complex(z.real, 0.0)
            finite.append(z)
    finite.sort(key=lambda z: (z.real, z.imag))

    l_delay = None
    infinite = 0
    prev_rank = 0
    for s in range(1, n + 2):
        rank_s = policy.rank(np.linalg.svd(block_toeplitz(a, f, c, g, s), compute_uv=False))
        if rank_s - prev_rank == nv:
            l_delay = s - 1
            infinite = s * nv - rank_s
            break
        prev_rank = rank_s
    if not left_invertible_rank:
        l_delay = None
    if l_delay is None:
        ts = block_toeplitz(a, f, c, g, n + 1)
        infinite = (n + 1) * nv - policy.rank(np.linalg.svd(ts, compute_uv=False))
    return ZeroReport(finite_zeros=finite, infinite_zero_count=int(infinite), l_delay=l_delay)


def _reference_channels():
    """Random channels from ``random_system`` and degenerate ones around them."""
    channels = {}
    for dims, most_zeros in (((5, 1, 3, 2), 3), ((3, 1, 2, 1), 2), ((4, 2, 3, 1), 2)):
        for zc in range(most_zeros + 1):
            sys, fault = random_system(*dims, zc, seed=40 + zc)
            channels[f"random {dims}, {zc} zeros"] = (sys.A, fault.F, sys.C, fault.G)
    rng = np.random.default_rng(8)
    for i in range(6):
        a = 0.5 * rng.standard_normal((4, 4))
        c = rng.standard_normal((3, 4))
        f = rng.standard_normal((4, 2))
        g = rng.standard_normal((3, 2))
        unobservable, c_blind = a.copy(), c.copy()
        unobservable[0, 1:] = unobservable[1:, 0] = 0.0
        c_blind[:, 0] = 0.0
        channels[f"square {i}"] = (a, f, c[:2], g[:2])
        channels[f"wide {i}"] = (a, f, c[:1], g[:1])
        channels[f"F = 0, {i}"] = (a, 0 * f, c, g)
        channels[f"G = 0, {i}"] = (a, f, c, 0 * g)
        channels[f"repeated fault column {i}"] = (a, f[:, [0, 0]], c, g[:, [0, 0]])
        channels[f"unobservable mode {i}"] = (unobservable, f, c_blind, g)
    return channels


class TestSimulate:
    def test_zero_everything_gives_zero_output(self, demo):
        sys, fault = demo
        t = 20
        y, x = simulate(sys, fault, np.zeros(3), np.zeros((t, 1)), np.zeros((t, 1)))
        assert np.allclose(y, 0)
        assert np.allclose(x, 0)
        assert len(x) == t + 1

    def test_demo_impulse_response(self, demo):
        sys, _ = demo
        u = np.zeros((4, 1))
        u[0, 0] = 1.0
        y, _ = simulate(sys, None, np.zeros(3), u)
        assert np.allclose(y[0], 0)            # D = 0
        assert np.allclose(y[1], sys.C @ sys.B.ravel())
        assert np.allclose(y[1], [0.0, 0.0])
        assert np.allclose(y[2], sys.C @ sys.A @ sys.B.ravel())
        assert np.allclose(y[2], [0.0, 1.0])

    def test_joint_linearity(self, demo):
        sys, fault = demo
        rng = np.random.default_rng(4)
        t = 50
        parts = []
        for _ in range(2):
            parts.append((rng.standard_normal(3), rng.standard_normal((t, 1)),
                          rng.standard_normal((t, 1)), rng.standard_normal((t, 2))))
        y_sum, x_sum = simulate(
            sys, fault,
            parts[0][0] + parts[1][0],
            parts[0][1] + parts[1][1],
            parts[0][2] + parts[1][2],
            parts[0][3] + parts[1][3],
        )
        y1, x1 = simulate(sys, fault, *parts[0])
        y2, x2 = simulate(sys, fault, *parts[1])
        assert np.allclose(y_sum, y1 + y2, atol=1e-10)
        assert np.allclose(x_sum, x1 + x2, atol=1e-10)

    def test_non_finite_sample_rejected(self, demo):
        sys, _ = demo
        u = np.zeros((10, 1))
        u[3, 0] = np.nan
        with pytest.raises(ValueError, match="u contains non-finite"):
            simulate(sys, None, np.zeros(3), u)

    def test_length_mismatch_rejected(self, demo):
        sys, fault = demo
        with pytest.raises(ValueError):
            simulate(sys, fault, None, np.zeros((10, 1)), np.zeros((9, 1)))

    def test_data_equation_consistency(self, demo_run):
        # Y_s = O_s X + T_s U_s + T^f_s V_s ties the simulator to every builder
        sys, fault, x0, u, v, y, x = demo_run
        s = 4
        n = len(u) - s + 1
        y_h = block_hankel(y, s)
        u_h = block_hankel(u, s)
        v_h = block_hankel(v, s)
        obs = extended_observability(sys.A, sys.C, s)
        t_u = block_toeplitz(sys.A, sys.B, sys.C, sys.D, s)
        t_f = block_toeplitz(sys.A, fault.F, sys.C, fault.G, s)
        lhs = y_h
        rhs = obs @ x[:n].T + t_u @ u_h + t_f @ v_h
        assert np.linalg.norm(lhs - rhs) <= 1e-8 * np.linalg.norm(lhs)


    def test_multi_channel_matches_dense_data_equation(self):
        # two inputs and two fault channels check the channel order of every
        # input term against y = O_T x0 + T_T u + T^f_T v + w
        sys, fault = random_system(4, 2, 3, 2, 0, seed=17)
        t = 60
        rng = np.random.default_rng(17)
        x0 = rng.standard_normal(4)
        u, v, w = (rng.standard_normal((t, k)) for k in (2, 2, 3))
        y, _ = simulate(sys, fault, x0, u, v, w)
        dense = (
            extended_observability(sys.A, sys.C, t) @ x0
            + block_toeplitz(sys.A, sys.B, sys.C, sys.D, t) @ u.reshape(-1)
            + block_toeplitz(sys.A, fault.F, sys.C, fault.G, t) @ v.reshape(-1)
            + w.reshape(-1)
        )
        assert np.linalg.norm(y.reshape(-1) - dense) <= 1e-12 * np.linalg.norm(dense)


class TestSignals:
    def test_white_input_deterministic(self):
        a = white_input(2, 50, seed=7)
        b = white_input(2, 50, seed=7)
        assert np.array_equal(a, b)

    def test_white_input_mean(self):
        u = white_input(3, 10000, seed=1)
        assert np.all(np.abs(u.mean(axis=0)) < 0.05)

    def test_white_input_hankel_covariance(self):
        u = white_input(1, 10000, seed=2)
        h = block_hankel(u, 5)
        cov = h @ h.T / h.shape[1]
        assert np.linalg.eigvalsh(cov).min() >= 0.5

    def test_fault_v1_values(self):
        v = fault_signal("v1", 11)
        assert v[0, 0] == pytest.approx(0.1)
        assert v[10, 0] == pytest.approx(0.1 + np.sin(0.25 * 10**1.3))

    def test_fault_v2_construction(self):
        t = 200
        v = fault_signal("v2", t, seed=9)
        z = np.random.default_rng(9).standard_normal(t)
        ramp = 1.0 - 0.99 ** np.arange(t)
        assert np.allclose(v[:, 0], ramp + z)
        assert v[0, 0] == pytest.approx(z[0])  # ramp starts at zero

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            fault_signal("v3", 10)

    def test_stack_channels(self):
        v = stack_channels(fault_signal("v1", 20), fault_signal("v2", 20, seed=0))
        assert v.shape == (20, 2)

    def test_cross_covariance_with_input_decays(self):
        # inputs and faults decorrelate as the horizon grows, at every lag
        for lag_set in [range(6)]:
            norms = []
            for t in (1000, 10000):
                u = white_input(1, t + 6, seed=5)
                v = fault_signal("v1", t + 6)
                worst = 0.0
                for lag in lag_set:
                    acc = sum(np.outer(u[k - lag], v[k]) for k in range(lag, t))
                    worst = max(worst, np.linalg.norm(acc / t))
                norms.append(worst)
            assert norms[1] < norms[0]


class TestColoredNoise:
    def test_none_snr_gives_zero(self):
        ref = np.ones((50, 2))
        w = colored_noise(2, 50, None, ref, seed=1)
        assert np.allclose(w, 0)

    def test_zero_db_matches_reference_power(self):
        rng = np.random.default_rng(3)
        ref = rng.standard_normal((2000, 2)) * [1.0, 3.0]
        w = colored_noise(2, 2000, 0.0, ref, seed=4)
        ratio = np.mean(w**2, axis=0) / np.mean(ref**2, axis=0)
        assert np.all(np.abs(ratio - 1.0) < 0.02)

    def test_forty_db(self):
        rng = np.random.default_rng(5)
        ref = rng.standard_normal((2000, 3))
        w = colored_noise(3, 2000, 40.0, ref, seed=6)
        ratio = np.mean(w**2, axis=0) / np.mean(ref**2, axis=0)
        assert np.all(np.abs(ratio / 1e-4 - 1.0) < 0.02)

    def test_filter_matches_per_sample_recursion(self):
        # the per-channel recursion must round exactly as the per-sample one
        t, n_y = 1000, 3
        ref = np.random.default_rng(12).standard_normal((t, n_y))
        e = np.random.default_rng(7).standard_normal((t, n_y))
        f = np.empty_like(e)
        prev = np.zeros(n_y)
        for k in range(t):
            prev = 0.7 * prev + e[k]
            f[k] = prev
        f *= np.sqrt(np.mean(ref**2, axis=0) * 10.0 ** (-40.0 / 10.0) / np.mean(f**2, axis=0))
        assert np.array_equal(colored_noise(n_y, t, 40.0, ref, seed=7), f)

    def test_negative_infinite_snr_rejected(self):
        # -inf dB would be infinite noise, not the zero trajectory of +inf
        ref = np.ones((10, 1))
        assert np.array_equal(colored_noise(1, 10, float("inf"), ref, seed=0), 0 * ref)
        with pytest.raises(ValueError, match="snr_db"):
            colored_noise(1, 10, float("-inf"), ref, seed=0)

    def test_zero_power_reference_rejected(self):
        ref = np.zeros((10, 1))
        with pytest.raises(ValueError, match="zero power"):
            colored_noise(1, 10, 40.0, ref, seed=0)


class TestTransmissionZeros:
    def test_demo_channel_has_one_infinite_zero(self, demo):
        sys, fault = demo
        zr = transmission_zeros(sys.A, fault.F, sys.C, fault.G)
        assert zr.finite_zeros == []
        assert zr.infinite_zero_count == 1
        assert zr.l_delay == 1
        assert zr.zeta == 1
        assert zr.left_invertible

    def test_square_invertible_g_has_no_infinite_zeros(self):
        rng = np.random.default_rng(2)
        a = 0.3 * rng.standard_normal((3, 3))
        zr = transmission_zeros(a, rng.standard_normal((3, 2)),
                                rng.standard_normal((2, 3)), np.eye(2))
        assert zr.infinite_zero_count == 0
        assert zr.l_delay == 0

    def test_scalar_zero_formula(self):
        # zero of the scalar channel solves g (q - a) + c f = 0
        a, f, c, g = 0.5, 1.0, 1.0, -0.25
        zr = transmission_zeros([[a]], [[f]], [[c]], [[g]])
        assert len(zr.finite_zeros) == 1
        expected = a - c * f / g
        assert abs(zr.finite_zeros[0] - expected) < 1e-6

    def test_tall_full_column_rank_g(self):
        rng = np.random.default_rng(7)
        a = 0.4 * rng.standard_normal((4, 4))
        c = rng.standard_normal((3, 4))
        g = rng.standard_normal((3, 2))
        zr = transmission_zeros(a, np.zeros((4, 2)), c, g)
        assert zr.zeta == 0
        assert zr.l_delay == 0

    def test_matches_two_probe_reference(self):
        not_invertible = 0
        for name, channel in _reference_channels().items():
            zr = transmission_zeros(*channel)
            assert zr == _two_probe_transmission_zeros(*channel), name
            not_invertible += not zr.left_invertible
        assert not_invertible >= 12  # every wide and repeated-column channel

    def test_not_left_invertible_channel(self, demo):
        # doubling the demo's fault column leaves T_s the rank of the single
        # column, s - 1, so the increments never reach n_v = 2 and T_4 keeps
        # a deficiency of 4 * 2 - 3
        sys, fault = demo
        zr = transmission_zeros(sys.A, fault.F[:, [0, 0]], sys.C, fault.G[:, [0, 0]])
        assert zr.l_delay is None
        assert not zr.left_invertible
        assert zr.infinite_zero_count == 5
        assert zr.finite_zeros == []

    def test_zero_multiplicity_counted(self):
        # forcing both input directions to vanish at the same point gives a
        # zero of multiplicity two
        sys, _ = random_system(5, 1, 4, 2, 0, seed=55, max_tries=100)
        rng = np.random.default_rng(31)
        fault = _place_fault_pair(sys, 2, np.array([0.8, 0.8]), rng)
        zr = transmission_zeros(sys.A, fault.F, sys.C, fault.G)
        assert sum(1 for z in zr.finite_zeros if abs(z - 0.8) < 1e-6) == 2


class TestRandomSystem:
    def test_dimensions_and_stability(self):
        sys, fault = random_system(5, 1, 3, 2, 2, seed=123)
        assert (sys.n_x, sys.n_u, sys.n_y, fault.n_v) == (5, 1, 3, 2)
        assert sys.is_stable()
        assert sys.is_minimal()

    def test_requested_zero_counts_recovered(self):
        for zc in (0, 1, 2, 3):
            sys, fault = random_system(5, 1, 3, 2, zc, seed=50 + zc)
            zr = transmission_zeros(sys.A, fault.F, sys.C, fault.G)
            assert len(zr.finite_zeros) == zc
            assert all(abs(z.imag) < 1e-9 for z in zr.finite_zeros)
            assert zr.left_invertible

    def test_place_then_detect_specific_zero(self):
        sys, _ = random_system(4, 1, 3, 1, 0, seed=17)
        rng = np.random.default_rng(99)
        fault = _place_fault_pair(sys, 1, np.array([1.7]), rng)
        zr = transmission_zeros(sys.A, fault.F, sys.C, fault.G)
        assert any(abs(z - 1.7) < 1e-6 for z in zr.finite_zeros)

    def test_deterministic(self):
        s1, f1 = random_system(4, 1, 2, 1, 1, seed=5)
        s2, f2 = random_system(4, 1, 2, 1, 1, seed=5)
        assert np.array_equal(s1.A, s2.A)
        assert np.array_equal(f1.F, f2.F)

    def test_rejects_wide_fault(self):
        with pytest.raises(ValueError, match="n_y > n_v"):
            random_system(4, 1, 2, 2, 0, seed=1)


class TestTypesAndPersistence:
    def test_trajectory_validation(self):
        with pytest.raises(ValueError, match="trajectory contains non-finite"):
            as_matrix(np.array([[1.0], [np.nan]]), "trajectory")
        assert as_matrix(np.ones(5)).shape == (5, 1)

    def test_signals_are_plain_arrays(self, tmp_path, demo_run):
        sys, fault, x0, u, v, y, x = demo_run
        path = tmp_path / "y.csv"
        write_trajectory_csv(path, y)
        signals = {
            "y": y,
            "x": x,
            "white_input": white_input(2, 30, seed=1),
            "fault_signal": fault_signal("v2", 30, seed=2),
            "colored_noise": colored_noise(sys.n_y, 1000, 40.0, y, seed=3),
            "stack_channels": stack_channels(v, v),
            "read_trajectory_csv": read_trajectory_csv(path),
            "reconstructed v": reconstruct_fault(y, u, sys, fault, x0).v,
        }
        for name, sig in signals.items():
            assert type(sig) is np.ndarray and sig.ndim == 2, name

    def test_non_finite_csv_sample_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,ch0\n0,1.0\n1,nan\n")
        with pytest.raises(ValueError, match="trajectory contains non-finite entries"):
            read_trajectory_csv(path)

    @pytest.mark.parametrize("body, message", [
        ("", "no samples"),
        ("\n  \n", "no samples"),
        ("0,1.0,2.0\n1,3.0\n", "number of columns changed"),
        ("0,1.0\n1,inf\n", "non-finite"),
    ])
    def test_csv_body_is_checked(self, tmp_path, body, message):
        path = tmp_path / "bad.csv"
        path.write_text("t,ch0,ch1\n" + body)
        with pytest.raises(ValueError, match=message):
            read_trajectory_csv(path)

    def test_csv_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "gaps.csv"
        path.write_text("t,ch0,ch1\n\n0,1.5,-2\n   \n1,3,4e-3\n\n")
        assert np.array_equal(read_trajectory_csv(path), [[1.5, -2.0], [3.0, 4e-3]])
        path.write_text("time,ch0\n0,1\n")
        with pytest.raises(ValueError, match="header"):
            read_trajectory_csv(path)

    def test_matrices_are_c_contiguous(self):
        # a strided view computes with other bits than the same values read
        # back from a file, so the coercion copies it
        m = np.arange(24.0).reshape(4, 6)
        for view in (m[:, ::2], m.T, m[1:3, :3]):
            out = as_matrix(view)
            assert out.flags.c_contiguous and np.array_equal(out, view)
        assert as_matrix(m) is m

    def test_state_space_validation(self):
        with pytest.raises(ValueError):
            StateSpace(np.eye(2), np.ones((3, 1)), np.ones((1, 2)), np.zeros((1, 1)))

    def test_fault_pair_validation(self, demo):
        sys, _ = demo
        pair = FaultPair(np.ones((3, 1)), np.ones((2, 1)))
        pair.check_matches(sys)
        with pytest.raises(ValueError):
            FaultPair(np.ones((3, 1)), np.ones((2, 2)))

    def test_trajectory_csv_round_trip(self, tmp_path):
        tr = np.random.default_rng(0).standard_normal((7, 3))
        path = tmp_path / "traj.csv"
        write_trajectory_csv(path, tr)
        header = path.read_text().splitlines()[0]
        assert header == "t,ch0,ch1,ch2"
        back = read_trajectory_csv(path)
        assert np.array_equal(back, tr)

    def test_system_json_round_trip(self, tmp_path, demo):
        sys, fault = demo
        path = tmp_path / "sys.json"
        save_system_json(path, sys, fault, seed=42)
        back_sys, back_fault = load_system_json(path)
        assert np.array_equal(back_sys.A, sys.A)
        assert np.array_equal(back_fault.G, fault.G)
