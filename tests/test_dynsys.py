import re

import numpy as np
import pytest

from gsync import (CatMap, CoordinateProjection, CustomObservation, CustomSystem,
                   LinearObservation, OdeFlow, TorusRotation, check_equivariance,
                   delay_window, lorenz_field, lorenz_system, tangent_norm_bounds)
from gsync.dynsys import DiscreteSystem
from gsync.errors import DimensionMismatch, NonFiniteError, RoundTripFailure

from conftest import LORENZ_M0


def rk4_once(field, y, h):
    # independent single-step integrator used as an oracle
    k1 = field(y)
    k2 = field(y + 0.5 * h * k1)
    k3 = field(y + 0.5 * h * k2)
    k4 = field(y + h * k3)
    return y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def lorenz_jacobian_field(m, sigma=10.0, rho=28.0, beta=8.0 / 3.0):
    u, v, w = m
    return np.array([[-sigma, sigma, 0.0],
                     [rho - w, -1.0, -u],
                     [v, u, -beta]])


def reference_delay_window(sys, obs, m, length):
    # the step-by-step loop delay_window replaced, one observation per point
    rows, cur = [], np.asarray(m, dtype=float)
    for k in range(length):
        rows.append(np.atleast_1d(obs(cur)))
        if k + 1 < length:
            cur = sys.inverse_step(cur)
    return np.array(rows)


def reference_orbit(sys, m, lo, hi):
    # phi^k(m) for k in [lo, hi], stepping outward from m one step at a time
    seg, cur = {0: m}, m
    for k in range(1, hi + 1):
        cur = seg[k] = sys.step(cur)
    cur = m
    for k in range(-1, lo - 1, -1):
        cur = seg[k] = sys.inverse_step(cur)
    return seg


def reference_equivariance(sys, obs, m, t, window):
    m = np.asarray(m, dtype=float)
    orbit_m = reference_orbit(sys, m, min(-window + t, 0), max(window + t, 0))
    orbit_mt = reference_orbit(sys, orbit_m[t], -window, window)
    return max([0.0] + [float(np.max(np.abs(np.atleast_1d(obs(orbit_m[tau + t]))
                                            - np.atleast_1d(obs(orbit_mt[tau])))))
                        for tau in range(-window, window + 1)])


def per_sample_suprema(system, samples):
    # the base class's sample-by-sample kernel, each matrix's norm on its own
    return tuple(max([0.0] + [float(np.linalg.svd(J, compute_uv=False)[0]) for J in maps])
                 for maps in DiscreteSystem._tangent_maps(system, np.asarray(samples)))


def shear(m):
    return np.array([m[0] + 0.3 * np.sin(m[1]), m[1]])


def shear_inverse(m):
    return np.array([m[0] - 0.3 * np.sin(m[1]), m[1]])


def shear_jacobian(sign):
    return lambda m: np.array([[1.0, sign * 0.3 * np.cos(m[1])], [0.0, 1.0]])


def orbit_case(which, lorenz, lorenz_traj, torus):
    if which == "torus":
        return torus, CoordinateProjection([1], phase_dim=2), np.array([0.11, 0.77])
    if which == "cat":
        return CatMap(), CoordinateProjection([0, 1], phase_dim=2), np.array([0.11, 0.77])
    return lorenz, CoordinateProjection([0, 2], phase_dim=3), lorenz_traj.points[1500]


class TestAnalyticMaps:
    @pytest.mark.parametrize("angles", [[0.1, np.nan], [np.inf, 0.3], [-np.inf]])
    def test_rotation_rejects_non_finite_angles(self, angles):
        with pytest.raises(ValueError, match="angles must be finite"):
            TorusRotation(angles)

    def test_identity_rotation(self):
        sys = TorusRotation([0.0, 0.0])
        m = np.array([0.3, 0.7])
        assert np.allclose(sys.step(m), m, atol=0.0)

    def test_rotation_inverse_closed_form(self):
        theta = np.array([0.17, 0.41])
        sys = TorusRotation(theta)
        m = np.array([0.9, 0.05])
        assert np.allclose(sys.inverse_step(m), (m - theta) % 1.0, atol=1e-15)

    def test_cat_map_hand_values(self):
        # [[2,1],[1,1]] (0.5,0.5) = (1.5,1.0), reduced mod 1 to (0.5,0.0)
        cat = CatMap()
        assert np.allclose(cat.step([0.5, 0.5]), [0.5, 0.0], atol=1e-15)
        # inverse matrix [[1,-1],[-1,2]] applied to (0.5, 0.0) gives (0.5, 0.5)
        assert np.allclose(cat.inverse_step([0.5, 0.0]), [0.5, 0.5], atol=1e-15)

    def test_cat_fixed_point_origin(self):
        cat = CatMap()
        traj = cat.trajectory([0.0, 0.0], 10)
        assert np.all(traj.points == 0.0)

    def test_torus_outputs_reduced(self, torus):
        traj = torus.trajectory([0.99, 0.5], 500)
        assert np.all(traj.points >= 0.0) and np.all(traj.points < 1.0)
        cat = CatMap()
        traj = cat.trajectory([0.123, 0.456], 500)
        assert np.all(traj.points >= 0.0) and np.all(traj.points < 1.0)

    def test_analytic_roundtrip_1000_points(self, torus):
        rng = np.random.default_rng(7)
        for sys in (torus, CatMap()):
            pts = rng.uniform(0.0, 1.0, size=(1000, 2))
            worst = max(np.linalg.norm(sys.inverse_step(sys.step(m)) - m) for m in pts)
            # the wrap can move a reconstructed 0.0 to 1.0-eps, compare on the torus
            worst_torus = max(
                np.linalg.norm((sys.inverse_step(sys.step(m)) - m + 0.5) % 1.0 - 0.5)
                for m in pts)
            assert worst_torus <= 1e-13, worst


class TestLorenzFlow:
    @pytest.mark.parametrize("h", [np.nan, np.inf, -np.inf, 0.0, -0.01])
    def test_flow_rejects_bad_step(self, h):
        with pytest.raises(ValueError, match="h must be positive and finite"):
            OdeFlow(lorenz_field(), phase_dim=3, h=h)

    @pytest.mark.parametrize("params", [{"sigma": np.nan}, {"rho": np.inf},
                                        {"beta": -np.inf}, {"beta": np.nan}])
    def test_lorenz_rejects_non_finite_parameters(self, params):
        with pytest.raises(ValueError, match="Lorenz parameters must be finite"):
            lorenz_field(**params)
        with pytest.raises(ValueError, match="Lorenz parameters must be finite"):
            lorenz_system(**params)

    def test_step_matches_independent_rk4(self):
        sys = lorenz_system(substeps=1)
        field = lorenz_field()
        m = LORENZ_M0
        expected = rk4_once(field, m, 0.01)
        assert np.allclose(sys.step(m), expected, atol=1e-15)

    def test_richardson_half_step(self):
        # successive substep refinements must shrink by the scheme's order (2^4)
        whole = lorenz_system(h=0.01, substeps=1)
        half = lorenz_system(h=0.01, substeps=2)
        quarter = lorenz_system(h=0.01, substeps=4)
        m = LORENZ_M0
        d1 = np.linalg.norm(whole.step(m) - half.step(m))
        d2 = np.linalg.norm(half.step(m) - quarter.step(m))
        assert 0.0 < d1 < 1e-4
        assert 8.0 < d1 / d2 < 32.0

    def test_roundtrip_1000_attractor_points(self, lorenz, lorenz_traj):
        pts = lorenz_traj.points[1000:3000:2][:1000]
        worst = max(np.linalg.norm(lorenz.inverse_step(lorenz.step(m)) - m) for m in pts)
        assert worst <= 1e-9

    def test_roundtrip_failure_detected(self):
        sloppy = lorenz_system(h=0.05, substeps=1)
        m = np.array([1.0, 5.0, 20.0])
        with pytest.raises(RoundTripFailure):
            sloppy.inverse_step(sloppy.step(m))

    def test_nonfinite_reports_substep(self):
        sys = lorenz_system(h=10.0, substeps=4)
        with pytest.raises(NonFiniteError, match="substep"):
            sys.trajectory([1e150, 1e150, 1e150], 5)

    def test_trajectory_shape_and_recursion(self, lorenz, lorenz_traj):
        assert len(lorenz_traj) == 4001
        for k in (0, 500, 2222, 3999):
            assert np.array_equal(lorenz_traj.points[k + 1], lorenz.step(lorenz_traj.points[k]))

    def test_trajectory_bounded_after_transients(self, lorenz_traj):
        pts = lorenz_traj.points[100:]
        assert np.all(np.abs(pts[:, 0]) < 30.0)
        assert np.all(np.abs(pts[:, 1]) < 30.0)
        assert np.all((pts[:, 2] > 0.0) & (pts[:, 2] < 60.0))

    def test_single_step_trajectory(self, lorenz):
        traj = lorenz.trajectory(LORENZ_M0, 1)
        assert len(traj) == 2
        assert np.array_equal(traj.points[1], lorenz.step(LORENZ_M0))

    def test_literal_sign_variant_is_not_the_butterfly(self):
        lit = lorenz_system(literal_sign=True)
        with pytest.raises(NonFiniteError):
            lit.trajectory(LORENZ_M0, 2000)


class TestFastPaths:
    """The float and batched Lorenz paths against the numpy reference."""

    def test_field_batch_matches_rows(self, lorenz_traj):
        sigma, rho, beta = 10.0, 28.0, 8.0 / 3.0
        field = lorenz_field(sigma, rho, beta)
        pts = lorenz_traj.points[::37]
        rows = np.array([field(m) for m in pts])
        assert np.array_equal(field(pts), rows)
        assert np.array_equal(field(pts.reshape(-1, 1, 3)), rows.reshape(-1, 1, 3))
        u, v, w = pts.T
        hand = np.stack([sigma * (v - u), u * (rho - w) - v, u * v - beta * w], axis=-1)
        assert np.array_equal(rows, hand)
        assert field.components(*pts[5].tolist()) == tuple(rows[5].tolist())

    def test_float_trajectory_and_step_match_numpy_integration(self, lorenz, lorenz_traj):
        ref = np.empty_like(lorenz_traj.points)
        ref[0] = m = LORENZ_M0
        for k in range(len(ref) - 1):
            m = lorenz._integrate(m, lorenz.h)
            ref[k + 1] = m
        assert np.array_equal(lorenz_traj.points, ref)
        for m in ref[[0, 1234, 4000]]:
            assert np.array_equal(lorenz.step(m), lorenz._integrate(m, lorenz.h))
            assert np.array_equal(lorenz.inverse_step(m), lorenz._integrate(m, -lorenz.h))

    def test_user_field_keeps_numpy_path(self, lorenz_traj):
        field = lorenz_field()
        plain = OdeFlow(lambda m: field(m), phase_dim=3, h=0.01, substeps=8)
        assert np.array_equal(plain.trajectory(LORENZ_M0, 200).points,
                              lorenz_traj.points[:201])

    @pytest.mark.parametrize("n", [101, 1001])
    def test_batched_tangent_bounds_match_per_sample(self, lorenz, lorenz_traj, n, monkeypatch):
        idx = np.linspace(0, len(lorenz_traj) - 1, n).astype(int)
        samples = lorenz_traj.points[idx]
        want = per_sample_suprema(lorenz, samples)

        def per_sample(m):
            raise AssertionError("the batched kernel fell back to the per-sample one")

        monkeypatch.setattr(lorenz, "jacobian", per_sample)
        assert tangent_norm_bounds(lorenz, samples) == want

    @pytest.mark.parametrize("which", ["torus", "cat"])
    def test_exact_tangent_batches_match_per_sample(self, torus, which):
        system = torus if which == "torus" else CatMap()
        samples = np.random.default_rng(2).uniform(0.0, 1.0, size=(1000, 2))
        fwd, inv = system._tangent_maps(samples)
        assert fwd.shape == inv.shape == (1000, 2, 2)
        assert np.array_equal(fwd[17], system.jacobian(samples[17]))
        assert np.array_equal(inv[17], system.inverse_jacobian(samples[17]))
        assert tangent_norm_bounds(system, samples) == per_sample_suprema(system, samples)

    def test_non_finite_batch_left_to_per_sample_check(self):
        # the matrix is the one source of the cat map's tangent maps: the
        # batch, the per-point maps and the per-sample kernel all see it
        broken = CatMap()
        broken.matrix = np.array([[np.nan, 1.0], [1.0, 1.0]])
        samples = np.array([[0.1, 0.2], [0.3, 0.4]])
        assert np.array_equal(broken._tangent_maps(samples)[0][1], broken.matrix, equal_nan=True)
        assert np.array_equal(broken.jacobian(samples[1]), broken.matrix, equal_nan=True)
        with pytest.raises(NonFiniteError, match="tangent map evaluation is non-finite"):
            tangent_norm_bounds(broken, samples)
        with pytest.raises(NonFiniteError, match="tangent map evaluation is non-finite"):
            DiscreteSystem._tangent_maps(broken, samples)

    def test_batched_tangent_bounds_roundtrip_failure(self, lorenz_traj):
        sloppy = lorenz_system(h=0.05, substeps=1)
        with pytest.raises(RoundTripFailure):
            tangent_norm_bounds(sloppy, lorenz_traj.points[2000:2010])

    def test_batched_tangent_bounds_divergent_sample(self, lorenz, lorenz_traj):
        samples = np.vstack([lorenz_traj.points[2000:2003], [1e150, 1e150, 1e150]])
        with pytest.raises(NonFiniteError, match="substep"):
            tangent_norm_bounds(lorenz, samples)


def step_loop(system, m0, n_steps):
    """Points of ``n_steps`` checked numpy steps from m0, with the error that
    ``trajectory`` reports at the step that fails."""
    points = [np.asarray(m0, dtype=float)]
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps):
            try:
                points.append(system.step(points[-1]))
            except NonFiniteError as exc:
                raise NonFiniteError(f"trajectory failed at step {k + 1}: {exc}") from None
    return np.array(points)


ANALYTIC_SYSTEMS = {
    "torus": lambda: TorusRotation([np.sqrt(2.0) - 1.0, np.sqrt(10.0) - 3.0]),
    "torus3": lambda: TorusRotation([0.1234567, -0.7654321, 1.5e308]),
    "cat": CatMap,
}


class TestPlainFloatSteps:
    """TorusRotation and CatMap trajectories against a loop over ``step``."""

    @pytest.mark.parametrize("which", sorted(ANALYTIC_SYSTEMS))
    def test_trajectories_match_step_loop(self, which):
        system = ANALYTIC_SYSTEMS[which]()
        rng = np.random.default_rng(17)
        d = system.phase_dim
        starts = [rng.uniform(0.0, 1.0, d), rng.uniform(-1e6, 1e6, d),
                  rng.normal(size=d) * 1e300, np.full(d, -0.0), np.full(d, 5e-324),
                  np.resize([1e308, -1e308], d), np.resize([2.0 ** 1022, -0.75], d),
                  np.resize([-np.finfo(float).max, 0.5], d)]
        for m0 in starts:
            try:
                expected = step_loop(system, m0, 10 ** 4)
            except NonFiniteError as exc:  # 2 * -max overflows on the cat map
                with pytest.raises(NonFiniteError, match=f"^{re.escape(str(exc))}$"), \
                        np.errstate(over="ignore", invalid="ignore"):
                    system.trajectory(m0, 10 ** 4)
                continue
            with np.errstate(over="ignore"):  # the checked step takes huge cat starts
                points = system.trajectory(m0, 10 ** 4).points
            assert points.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("which, m0, step", [
        ("torus3", [0.5, 0.5, 1e308], 2),  # 1e308 + 1.5e308 overflows
        ("torus3", [0.5, 0.5, np.finfo(float).max], 2),
        ("cat", [1e308, 1e308], 2),
        ("cat", [np.finfo(float).max, 0.0], 2),
    ])
    def test_overflowing_start_fails_at_the_same_step(self, which, m0, step):
        system = ANALYTIC_SYSTEMS[which]()
        with pytest.raises(NonFiniteError) as expected:
            step_loop(system, m0, 5)
        with pytest.raises(NonFiniteError) as got, np.errstate(over="ignore", invalid="ignore"):
            system.trajectory(m0, 5)
        assert str(got.value) == str(expected.value)
        assert str(got.value).startswith(f"trajectory failed at step {step}: non-finite point")
        # the last point is not checked: one step from such a start returns it
        with np.errstate(over="ignore", invalid="ignore"):
            short = system.trajectory(m0, step - 1).points
        assert short.tobytes() == step_loop(system, m0, step - 1).tobytes()
        assert not np.isfinite(short[-1]).all()


class TestDelayAndEquivariance:
    def test_delay_window_single_row(self, torus):
        obs = CoordinateProjection([0], phase_dim=2)
        m = np.array([0.3, 0.6])
        win = delay_window(torus, obs, m, 1)
        assert win.shape == (1, 1)
        assert win[0, 0] == 0.3

    def test_delay_window_torus_closed_form(self, torus):
        obs = CoordinateProjection([0], phase_dim=2)
        m = np.array([0.37, 0.81])
        win = delay_window(torus, obs, m, 3)
        theta1 = torus.angles[0]
        expected = np.array([[m[0]], [(m[0] - theta1) % 1.0], [(m[0] - 2 * theta1) % 1.0]])
        assert np.allclose(win, expected, atol=1e-12)

    def test_equivariance_zero_shift_exact(self, torus):
        obs = CoordinateProjection([0], phase_dim=2)
        assert check_equivariance(torus, obs, [0.2, 0.9], t=0, window=10) == 0.0

    def test_equivariance_torus(self, torus):
        obs = CoordinateProjection([0], phase_dim=2)
        err = check_equivariance(torus, obs, [0.2, 0.9], t=5, window=20)
        assert err <= 1e-12

    def test_equivariance_lorenz(self, lorenz, lorenz_traj, lorenz_obs):
        m = lorenz_traj.points[2500]
        err = check_equivariance(lorenz, lorenz_obs, m, t=3, window=50)
        assert err <= 1e-7

    @pytest.mark.parametrize("t", range(-10, 11))
    def test_equivariance_all_shifts_builtin(self, torus, t):
        obs = CoordinateProjection([1], phase_dim=2)
        assert check_equivariance(torus, obs, [0.11, 0.77], t=t, window=10) <= 1e-7
        cat = CatMap()
        assert check_equivariance(cat, obs, [0.11, 0.77], t=t, window=10) <= 1e-7

    @pytest.mark.parametrize("t", range(-10, 11))
    def test_equivariance_lorenz_shifts(self, lorenz, lorenz_traj, lorenz_obs, t):
        m = lorenz_traj.points[1500]
        assert check_equivariance(lorenz, lorenz_obs, m, t=t, window=10) <= 1e-7

    @pytest.mark.parametrize("which", ["torus", "cat", "lorenz"])
    @pytest.mark.parametrize("t", [-12, -3, 0, 3, 12])
    def test_orbits_equal_step_loops(self, lorenz, lorenz_traj, torus, which, t):
        sys, obs, m = orbit_case(which, lorenz, lorenz_traj, torus)
        assert check_equivariance(sys, obs, m, t=t, window=10) == \
            reference_equivariance(sys, obs, m, t, 10)
        assert np.array_equal(delay_window(sys, obs, m, 10),
                              reference_delay_window(sys, obs, m, 10))

    @pytest.mark.parametrize("t", [-12, 3])
    def test_orbits_linear_observation(self, lorenz, lorenz_traj, t):
        # one batched m @ W.T may round differently from one point at a time
        obs = LinearObservation([[0.3, -1.7, 0.05], [1.0 / 3.0, 2.0 / 7.0, -0.9]])
        m = lorenz_traj.points[1500]
        win = delay_window(lorenz, obs, m, 10)
        ref = reference_delay_window(lorenz, obs, m, 10)
        assert np.allclose(win, ref, rtol=1e-15, atol=0.0)
        scale = float(np.max(np.abs(ref)))
        err = check_equivariance(lorenz, obs, m, t=t, window=10)
        assert abs(err - reference_equivariance(lorenz, obs, m, t, 10)) <= 1e-15 * scale


class TestTangentNorms:
    @pytest.mark.parametrize("system, samples", [
        (CatMap(), [[np.nan, np.nan, np.nan]]),
        (TorusRotation([0.1, 0.2]), [[1.0]]),
    ])
    def test_closed_forms_reject_wrong_dimension(self, system, samples):
        with pytest.raises(DimensionMismatch, match="expected a point of dimension 2"):
            tangent_norm_bounds(system, samples)

    def test_closed_forms_reject_non_finite_sample(self):
        with pytest.raises(NonFiniteError, match="non-finite point"):
            tangent_norm_bounds(CatMap(), [[0.1, 0.2], [np.nan, 0.3]])

    def test_torus_isometry(self, torus):
        rng = np.random.default_rng(3)
        sup_f, sup_i = tangent_norm_bounds(torus, rng.uniform(0, 1, size=(50, 2)))
        assert sup_f == pytest.approx(1.0, abs=1e-14)
        assert sup_i == pytest.approx(1.0, abs=1e-14)

    def test_cat_map_singular_values(self):
        # oracle: largest singular value of the hand matrix [[2,1],[1,1]]
        expected = np.linalg.svd(np.array([[2.0, 1.0], [1.0, 1.0]]), compute_uv=False)[0]
        assert expected == pytest.approx((3.0 + np.sqrt(5.0)) / 2.0, abs=1e-12)
        rng = np.random.default_rng(4)
        sup_f, sup_i = tangent_norm_bounds(CatMap(), rng.uniform(0, 1, size=(20, 2)))
        assert sup_f == pytest.approx(expected, abs=1e-12)
        assert sup_i == pytest.approx(expected, abs=1e-12)

    def test_lorenz_fd_vs_variational(self, lorenz, lorenz_traj):
        # oracle: integrate the variational system alongside the flow
        field = lorenz_field()

        def extended(y):
            m, J = y[:3], y[3:].reshape(3, 3)
            return np.concatenate([field(m), (lorenz_jacobian_field(m) @ J).ravel()])

        for m in lorenz_traj.points[[1200, 2000, 3100]]:
            y = np.concatenate([m, np.eye(3).ravel()])
            h = 0.01 / 8
            for _ in range(8):
                y = rk4_once(extended, y, h)
            J_var = y[3:].reshape(3, 3)
            J_fd = lorenz.jacobian(m)
            rel = np.linalg.norm(J_fd - J_var) / np.linalg.norm(J_var)
            assert rel <= 1e-4

    def test_lorenz_tangent_bounds_finite_and_monotone(self, lorenz, lorenz_traj):
        small = tangent_norm_bounds(lorenz, lorenz_traj.points[2000:2100])
        larger = tangent_norm_bounds(lorenz, lorenz_traj.points[2000:2400])
        assert np.isfinite(small).all() and np.isfinite(larger).all()
        assert larger[0] >= small[0] and larger[1] >= small[1]

    def test_fd_jacobians_bit_identical_to_formula(self):
        def forward(m):
            return np.array([m[0] + 0.3 * np.sin(m[1]), m[1] + m[0] ** 2])

        sys_ = CustomSystem(forward, None, phase_dim=2, fd_step=1e-5)
        obs = CustomObservation(lambda m: np.array([m[0] * m[1], np.cos(m[0])]),
                                obs_dim=2, phase_dim=2)
        m = np.array([0.37, -1.2])
        for f, h, got in ((forward, 1e-5, sys_.jacobian(m)), (obs, 1e-6, obs.jacobian(m))):
            want = np.empty((2, 2))
            for j in range(2):
                e = np.zeros(2)
                e[j] = h
                want[:, j] = (f(m + e) - f(m - e)) / (2.0 * h)
            assert np.array_equal(got, want)

    def test_exact_tangent_capability(self, torus, lorenz):
        assert torus.exact_tangent and CatMap().exact_tangent
        assert not lorenz.exact_tangent
        assert not CustomSystem(CatMap().step, CatMap().inverse_step, phase_dim=2).exact_tangent

    def test_fd_matches_analytic_jacobian(self):
        cat = CatMap()
        fd_version = CustomSystem(cat.step, cat.inverse_step, phase_dim=2)
        # points whose images stay away from the wrap, so FD sees a smooth map
        for m in ([0.21, 0.33], [0.13, 0.52]):
            rel = np.linalg.norm(fd_version.jacobian(m) - cat.jacobian(m)) / np.linalg.norm(cat.jacobian(m))
            assert rel <= 1e-6


TANGENT_KERNEL_CASES = ["torus2", "torus3", "cat", "lorenz", "numpy_field",
                        "custom_callables", "custom_fd"]


def tangent_kernel_case(which, lorenz, lorenz_traj):
    """(system, samples) for one tangent-kernel case."""
    uniform = np.random.default_rng(11).uniform(0.0, 1.0, size=(300, 3))
    attractor = lorenz_traj.points[::40]
    if which == "torus2":
        return TorusRotation([np.sqrt(2.0) - 1.0, np.sqrt(10.0) - 3.0]), uniform[:, :2]
    if which == "torus3":
        return TorusRotation([0.1, np.sqrt(2.0) - 1.0, 0.7]), uniform
    if which == "cat":
        return CatMap(), uniform[:, :2]
    if which == "lorenz":
        return lorenz, attractor
    if which == "numpy_field":
        field = lorenz_field()
        return OdeFlow(lambda m: field(m), phase_dim=3, h=0.01, substeps=8), attractor
    if which == "custom_callables":
        return CustomSystem(shear, shear_inverse, phase_dim=2, jacobian=shear_jacobian(1.0),
                            inverse_jacobian=shear_jacobian(-1.0)), uniform[:, 1:]
    return CustomSystem(shear, shear_inverse, phase_dim=2), uniform[:, 1:]


class TestTangentKernel:
    @pytest.mark.parametrize("which", TANGENT_KERNEL_CASES)
    def test_stacks_equal_per_point_maps(self, lorenz, lorenz_traj, which):
        system, samples = tangent_kernel_case(which, lorenz, lorenz_traj)
        n, d = samples.shape
        fwd, inv = system._tangent_maps(samples)
        assert fwd.shape == inv.shape == (n, d, d)
        for k, m in enumerate(samples):
            assert np.array_equal(fwd[k], system.jacobian(m))
            assert np.array_equal(inv[k], system.inverse_jacobian(m))

    @pytest.mark.parametrize("which", TANGENT_KERNEL_CASES)
    def test_suprema_equal_per_sample_kernel(self, lorenz, lorenz_traj, which):
        system, samples = tangent_kernel_case(which, lorenz, lorenz_traj)
        assert tangent_norm_bounds(system, samples) == per_sample_suprema(system, samples)

    def test_custom_callables_are_the_closed_forms(self):
        system = CustomSystem(shear, shear_inverse, phase_dim=2, jacobian=shear_jacobian(1.0),
                              inverse_jacobian=shear_jacobian(-1.0))
        samples = np.array([[0.2, 0.0], [0.5, np.pi / 3.0]])
        fwd, inv = system._tangent_maps(samples)
        assert np.array_equal(fwd[0], [[1.0, 0.3], [0.0, 1.0]])
        assert np.array_equal(inv[1], [[1.0, -0.3 * np.cos(np.pi / 3.0)], [0.0, 1.0]])

    def test_non_finite_custom_map_raises_at_its_sample(self):
        calls = []

        def jacobian(m):
            calls.append(m[0])
            return np.full((2, 2), np.nan) if m[0] > 0.5 else np.eye(2)

        system = CustomSystem(shear, shear_inverse, phase_dim=2, jacobian=jacobian,
                              inverse_jacobian=lambda m: np.eye(2))
        with pytest.raises(NonFiniteError, match="tangent map evaluation is non-finite"):
            tangent_norm_bounds(system, [[0.1, 0.0], [0.9, 0.0], [0.2, 0.0]])
        assert calls == [0.1, 0.9]

    def test_non_finite_batch_left_to_per_sample_kernel(self, lorenz_traj):
        class Overflowing(OdeFlow):
            def _integrate_batch(self, points, h):
                images = super()._integrate_batch(points, h)
                if h > 0:  # images of m + e_0 and m - e_0 overflow their quotient
                    images[1::13], images[4::13] = 1e308, -1e308
                return images

        field = lorenz_field()
        system = Overflowing(field, phase_dim=3, h=0.01, substeps=8)
        samples = lorenz_traj.points[2000:2005]
        with np.errstate(over="ignore"):
            fwd, inv = system._tangent_maps(samples)
        want_fwd, want_inv = DiscreteSystem._tangent_maps(system, samples)
        assert np.isfinite(fwd).all()
        assert np.array_equal(fwd, want_fwd) and np.array_equal(inv, want_inv)


class TestObservations:
    def test_linear_observation(self):
        W = np.array([[1.0, 2.0, 0.0]])
        obs = LinearObservation(W)
        assert obs(np.array([1.0, 1.0, 5.0])) == pytest.approx([3.0])
        assert obs.norm_bound() == pytest.approx(np.sqrt(5.0))

    @pytest.mark.parametrize("W", [[[1.0, np.nan, 0.0]], [[np.inf, 0.0, 0.0]]])
    def test_linear_observation_rejects_non_finite_matrix(self, W):
        with pytest.raises(ValueError, match="observation matrix must be finite"):
            LinearObservation(W)

    def test_projection_batch(self):
        obs = CoordinateProjection([0], phase_dim=3)
        out = obs(np.ones((7, 3)))
        assert out.shape == (7, 1)

    @pytest.mark.parametrize("index", [0.7, float("nan"), float("inf")])
    def test_projection_rejects_non_integer_index(self, index):
        with pytest.raises(ValueError, match="integers"):
            CoordinateProjection([index], phase_dim=2)

    def test_exact_norm_capability(self):
        # only closed-form norm bounds are exact; a custom map's is a sample maximum
        assert CoordinateProjection([0], phase_dim=2).exact_norm
        assert LinearObservation([[1.0, 2.0]]).exact_norm
        assert not CustomObservation(lambda m: m[..., :1], 1, 2).exact_norm
        assert not CustomObservation(lambda m: m[..., :1], 1, 2,
                                     jacobian=lambda m: [[1.0, 0.0]]).exact_norm

    @pytest.mark.parametrize("indices, d", [([0], 1), ([1], 3), ([2, 0], 3), ([3, 1, 7, 0], 8)])
    def test_projection_is_a_unit_row_linear_observation(self, indices, d):
        obs = CoordinateProjection(indices, phase_dim=d)
        assert isinstance(obs, LinearObservation)
        assert np.array_equal(obs.matrix, np.eye(d)[indices])
        assert np.array_equal(obs.jacobian(np.zeros(d)), np.eye(d)[indices])
        assert obs.norm_bound() == 1.0 and obs.norm_bound(np.ones((3, d))) == 1.0
        assert (obs.obs_dim, obs.phase_dim) == (len(indices), d)

    def test_projection_copies_coordinates(self):
        # a product with the unit rows would give +0.0 for -0.0 and nan for 0 * inf
        obs = CoordinateProjection([2, 0], phase_dim=4)
        m = np.array([-0.0, np.inf, np.nan, -np.inf])
        assert obs(m).tobytes() == np.array([np.nan, -0.0]).tobytes()
        batch = np.array([m, [1.0, -np.inf, -0.0, np.nan]])
        assert obs(batch).tobytes() == np.array([[np.nan, -0.0], [-0.0, 1.0]]).tobytes()

    def test_projection_accepts_integral_floats(self):
        obs = CoordinateProjection([1.0, 0.0], phase_dim=2)
        assert obs.indices == [1, 0]
        assert obs(np.array([0.25, 0.75])) == pytest.approx([0.75, 0.25])
