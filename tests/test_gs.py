from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gsync import (AxisBox, Ball, CatMap, CoordinateProjection, CustomObservation, CustomStateMap,
                   LinearDelay, PowerSine, Trajectory, compare_gs, delay_window, drive_gs,
                   multistability_sweep, observe_trajectory, psi_iterate_gs,
                   recursion_residual, run_recursion, write_gs_csv)
from gsync.errors import DisjointRanges, GsyncError, NonFiniteError, RegionEscape
from gsync.gs import _drive_regions, _max_row_norm

from conftest import LORENZ_M0, esn_reservoir

IV_LFX = 0.9 * 0.9 ** (-0.1)
EPS = np.finfo(float).eps


def constant_map(w):
    w = np.asarray(w, dtype=float)
    return CustomStateMap(lambda x, z: np.broadcast_to(w, x.shape[:-1] + w.shape).copy(),
                          state_dim=w.size, input_dim=1,
                          jac_state=lambda x, z: np.zeros((w.size, w.size)),
                          jac_input=lambda x, z: np.zeros((w.size, 1)))


@pytest.fixture(scope="module")
def torus_traj(torus):
    return torus.trajectory([0.13, 0.41], 300)


@pytest.fixture(scope="module")
def iv_drive(power_sine, lorenz, lorenz_obs, lorenz_traj, eight_boxes):
    return drive_gs(power_sine, lorenz, lorenz_obs, LORENZ_M0, [1.0, 1.0, 1.0],
                    washout_steps=2000, record_steps=2000, region=eight_boxes[0],
                    trajectory=lorenz_traj)


def reference_states(F, z, x0):
    # the step-by-step loop that run_recursion replaces
    x = np.asarray(x0, dtype=float)
    states = [x]
    for zt in z:
        x = F.eval(x, zt)
        states.append(x)
    return np.stack(states)


class TestRunRecursion:
    # a batch takes (T, B, 1) inputs and (B, N) states, as input_forgetting does
    @pytest.mark.parametrize("batch", [None, 5, 100])
    @pytest.mark.parametrize("which", ["power_sine", "esn16"])
    def test_bit_identical_to_step_loop(self, which, batch, power_sine, monkeypatch):
        F = power_sine if which == "power_sine" else esn_reservoir()
        rng = np.random.default_rng(3)
        shape = (F.state_dim,) if batch is None else (batch, F.state_dim)
        x0 = rng.uniform(0.9, 1.1, size=shape)
        z = rng.uniform(-15.0, 15.0, size=(300, 1) if batch is None else (300, batch, 1))
        expected = reference_states(F, z, x0)

        seen = []
        original = F.apply

        def recording_apply(x, u):
            seen.append(np.shape(x))
            return original(x, u)

        monkeypatch.setattr(F, "apply", recording_apply)
        states = run_recursion(F, z, x0)
        assert states.shape == (len(z) + 1,) + shape
        assert np.array_equal(states, expected)
        assert seen == [shape] * len(z)

    def test_empty_input_returns_start(self, power_sine):
        states = run_recursion(power_sine, np.empty((0, 1)), [1.0, 1.0, 1.0])
        assert np.array_equal(states, [[1.0, 1.0, 1.0]])

    def test_power_sine_close_to_pow_formula(self, power_sine):
        # sin^2 is now s * s; the old lone-state step squared with pow
        F = power_sine

        def old_step(x, zt):
            s = np.sin(F.k * np.float64(zt[0]))
            term = F.lam * np.array([s, np.cos(F.k * np.float64(zt[0])), np.float64(s) ** 2])
            return np.sign(x) * np.abs(x) ** F.alpha + term

        rng = np.random.default_rng(5)
        z = rng.uniform(-15.0, 15.0, size=(5000, 1))
        x = np.array([1.0, -1.0, 1.0])
        old = [x]
        for zt in z:
            x = old_step(x, zt)
            old.append(x)
        new = run_recursion(F, z, old[0])
        assert np.max(np.abs(new - np.stack(old))) <= 1e-15

    def test_power_sine_input_terms_independent_of_batch_shape(self, power_sine):
        z = np.random.default_rng(13).uniform(-15.0, 15.0, size=(5000, 1))
        lone = np.stack([power_sine.input_terms(zt) for zt in z])
        assert np.array_equal(power_sine.input_terms(z), lone)

    def test_scalar_input_sequence(self, power_sine):
        z = np.linspace(-3.0, 3.0, 25)
        x0 = np.array([1.0, 1.0, -1.0])
        assert np.array_equal(run_recursion(power_sine, z, x0),
                              run_recursion(power_sine, z[:, None], x0))

    def test_esn_close_to_one_step_formula(self):
        # input_terms adds z C^T + zeta first; the old step added x A^T + z C^T first
        F = esn_reservoir()
        z = np.random.default_rng(8).uniform(0.0, 1.0, size=(7000, 1))
        x = np.zeros(16)
        old = [x]
        for zt in z:
            x = np.tanh(x @ F.A.T + zt @ F.C.T + F.zeta)
            old.append(x)
        old = np.stack(old)
        new = run_recursion(F, z, old[0])
        # relative to the largest state component: a few roundings, not compounded
        assert np.max(np.abs(new - old)) <= 4 * EPS * np.max(np.abs(old))

    def test_single_scalar_input(self, power_sine):
        x0 = np.array([1.0, 1.0, -1.0])
        states = run_recursion(power_sine, 0.5, x0)
        assert np.array_equal(states, run_recursion(power_sine, [[0.5]], x0))
        assert np.array_equal(states[1], power_sine.eval(x0, [0.5]))


class TestDriveGS:
    def test_constant_map_ignores_start(self, torus, torus_traj):
        w = np.array([0.4, -0.2])
        F = constant_map(w)
        obs = CoordinateProjection([0], 2)
        a = drive_gs(F, torus, obs, [0.13, 0.41], [5.0, 5.0], washout_steps=0,
                     record_steps=20, trajectory=torus_traj)
        b = drive_gs(F, torus, obs, [0.13, 0.41], [-3.0, 8.0], washout_steps=0,
                     record_steps=20, trajectory=torus_traj)
        assert np.allclose(a.values[1:], w, atol=0.0)
        assert np.array_equal(a.values[1:], b.values[1:])

    def test_section_iv_stays_in_box(self, iv_drive, eight_boxes):
        assert np.all(eight_boxes[0].contains(iv_drive.values))
        assert len(iv_drive) == 2001
        assert iv_drive.times[0] == 2000 and iv_drive.times[-1] == 4000

    def test_washout_independence(self, power_sine, lorenz, lorenz_obs,
                                  lorenz_traj, eight_boxes, iv_drive):
        other = drive_gs(power_sine, lorenz, lorenz_obs, LORENZ_M0,
                         [1.05, 0.95, 1.1], washout_steps=2000, record_steps=2000,
                         region=eight_boxes[0], trajectory=lorenz_traj)
        sup = np.max(np.linalg.norm(other.values - iv_drive.values, axis=-1))
        assert sup <= 1e-12

    def test_region_escape_reports_first_index(self, power_sine, lorenz,
                                               lorenz_obs, lorenz_traj):
        tight = AxisBox([0.99] * 3, [1.01] * 3, label="tight")
        with pytest.raises(RegionEscape) as err:
            drive_gs(power_sine, lorenz, lorenz_obs, LORENZ_M0, [1.0, 1.0, 1.0],
                     washout_steps=0, record_steps=100, region=tight,
                     trajectory=lorenz_traj)
        assert err.value.index is not None

    def test_redrive_identity_from_any_start(self, power_sine, lorenz, lorenz_obs,
                                             lorenz_traj, eight_boxes, iv_drive):
        rng = np.random.default_rng(42)
        x0 = rng.uniform(0.9, 1.1, size=3)
        redriven = drive_gs(power_sine, lorenz, lorenz_obs, LORENZ_M0, x0,
                            washout_steps=2000, record_steps=2000,
                            region=eight_boxes[0], trajectory=lorenz_traj)
        assert compare_gs(iv_drive, redriven) <= 1e-10


class TestPsiIterate:
    def test_constant_map_converges_immediately(self, torus, torus_traj):
        w = np.array([0.4, -0.2])
        F = constant_map(w)
        obs = CoordinateProjection([0], 2)
        gs = psi_iterate_gs(F, torus, obs, torus_traj, f0_const=w, tol=1e-12,
                            max_iters=10)
        assert gs.method["converged"]
        assert gs.method["n_iters"] == 1
        assert np.allclose(gs.values, w, atol=0.0)

    def test_takens_nilpotent_exact_in_seven_sweeps(self, torus, torus_traj):
        F = LinearDelay(q=3)
        obs = CoordinateProjection([0], 2)

        def closed_form(points):
            # oracle: unroll the rotation backwards in exact arithmetic
            theta1 = torus.angles[0]
            return np.stack([(points[:, 0] - j * theta1) % 1.0 for j in range(7)], axis=1)

        expected = closed_form(torus_traj.points[6:])
        seven = psi_iterate_gs(F, torus, obs, torus_traj, f0_const=np.full(7, 0.5),
                               tol=0.0, max_iters=7, record_from=6)
        err7 = np.max(np.linalg.norm(seven.values - expected, axis=-1))
        assert err7 <= 1e-12
        six = psi_iterate_gs(F, torus, obs, torus_traj, f0_const=np.full(7, 0.5),
                             tol=0.0, max_iters=6, record_from=6)
        err6 = np.max(np.linalg.norm(six.values - expected, axis=-1))
        assert err6 > 1e-12

    def test_takens_limit_matches_delay_window(self, torus, torus_traj):
        F = LinearDelay(q=3)
        obs = CoordinateProjection([0], 2)
        gs = psi_iterate_gs(F, torus, obs, torus_traj, f0_const=np.zeros(7),
                            tol=1e-12, max_iters=50, record_from=6)
        assert gs.method["converged"]
        for idx in (0, 37, 150, len(gs) - 1):
            win = delay_window(torus, obs, gs.points[idx], 7)[:, 0]
            wrapped = (gs.values[idx] - win + 0.5) % 1.0 - 0.5
            assert np.max(np.abs(wrapped)) <= 1e-12

    def test_takens_limit_all_builtin_systems(self, lorenz, lorenz_traj):
        # exact arithmetic systems reach the delay vector to 1e-12; the flow
        # map comparison is limited by the inverse-integration round trip
        from gsync import CatMap, Trajectory
        obs = CoordinateProjection([0], 2)
        F = LinearDelay(q=3)
        cat_traj = CatMap().trajectory([0.1234, 0.5678], 200)
        gs = psi_iterate_gs(F, CatMap(), obs, cat_traj, f0_const=np.zeros(7),
                            tol=0.0, max_iters=7, record_from=6)
        for idx in (0, 50, 150):
            win = delay_window(CatMap(), obs, gs.points[idx], 7)[:, 0]
            wrapped = (gs.values[idx] - win + 0.5) % 1.0 - 0.5
            assert np.max(np.abs(wrapped)) <= 1e-12

        lobs = CoordinateProjection([0], 3)
        sub = Trajectory(points=lorenz_traj.points[2000:2200], t0=2000)
        lgs = psi_iterate_gs(F, lorenz, lobs, sub, f0_const=np.zeros(7),
                             tol=0.0, max_iters=7, record_from=6)
        for idx in (0, 80, 180):
            win = delay_window(lorenz, lobs, lgs.points[idx], 7)[:, 0]
            assert np.max(np.abs(lgs.values[idx] - win)) <= 1e-7

    def test_psi_matches_drive_section_iv(self, power_sine, lorenz, lorenz_obs,
                                          lorenz_traj, eight_boxes, iv_drive):
        gs = psi_iterate_gs(power_sine, lorenz, lorenz_obs, lorenz_traj,
                            f0_const=np.ones(3), tol=1e-12, max_iters=500,
                            record_from=2000, region=eight_boxes[0], l_fx=IV_LFX)
        assert gs.method["converged"]
        assert compare_gs(iv_drive, gs) <= 1e-10
        # a-priori error bound is reported alongside the final sup-change
        assert np.isfinite(gs.method["apriori_bound"])
        assert gs.method["final_change"] <= 1e-12

    def test_psi_monotone_contraction_of_changes(self, power_sine, lorenz,
                                                 lorenz_obs, lorenz_traj):
        gs = psi_iterate_gs(power_sine, lorenz, lorenz_obs, lorenz_traj,
                            f0_const=np.ones(3), tol=1e-12, max_iters=500,
                            l_fx=IV_LFX)
        h = np.asarray(gs.method["change_history"])
        # geometric decay of sweep-to-sweep changes past the first sweep;
        # float difference noise dominates below ~1e-9, so guard there
        mask = h[1:-1] > 1e-9
        ratios = (h[2:] / h[1:-1])[mask]
        assert np.all(ratios <= IV_LFX + 1e-6)

    def test_power_sine_matches_eval_sweeps(self, power_sine, lorenz, lorenz_obs,
                                            lorenz_traj):
        # reference: the Jacobi sweep loop written with F.eval on every sweep
        F = power_sine
        traj = lorenz_traj
        z = observe_trajectory(lorenz_obs, traj)
        f = np.ones((len(traj), 3))
        boundary = F.eval(np.ones(3), z[0])
        history = []
        for _ in range(500):
            f_new = np.empty_like(f)
            f_new[0] = boundary
            f_new[1:] = F.eval(f[:-1], z[1:])
            history.append(float(np.max(np.linalg.norm(f_new - f, axis=-1))))
            f = f_new
            if history[-1] <= 1e-12:
                break
        gs = psi_iterate_gs(F, lorenz, lorenz_obs, traj, f0_const=np.ones(3),
                            tol=1e-12, max_iters=500)
        assert np.array_equal(gs.values, f)
        assert gs.method["change_history"] == history


def spiked_observation(value):
    """The first torus coordinate, with point 50 observed as ``value``."""
    def obs_func(m):
        z = np.atleast_2d(m)[..., :1].copy()
        z[50] = value
        return z
    return CustomObservation(obs_func, obs_dim=1, phase_dim=2)


class TestNonFinite:
    @pytest.fixture
    def run(self, torus, torus_traj):
        def run(method, F, obs, start=(1.0, 1.0, 1.0)):
            if method == "drive":
                return drive_gs(F, torus, obs, [0.13, 0.41], start, washout_steps=10,
                                record_steps=100, trajectory=torus_traj)
            return psi_iterate_gs(F, torus, obs, torus_traj, f0_const=start,
                                  tol=1e-12, max_iters=50)
        return run

    @pytest.mark.parametrize("method", ["drive", "psi"])
    def test_nan_observation(self, run, power_sine, method):
        with pytest.raises(NonFiniteError, match="observation produced non-finite values"):
            run(method, power_sine, spiked_observation(np.nan))

    @pytest.mark.parametrize("method", ["drive", "psi"])
    def test_input_term_overflow(self, run, method):
        # a finite observation whose k * z overflows to inf, so sin(kz) is nan
        F = PowerSine(0.9, 0.009, 10.0)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NonFiniteError, match="^power-sine evaluation is non-finite$"):
            run(method, F, spiked_observation(1e308))

    def test_recursion_checks_its_states(self):
        F = PowerSine(0.9, 0.009, 10.0)
        z = np.zeros((20, 1))
        z[7] = 1e308
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NonFiniteError, match="^power-sine evaluation is non-finite$"):
            run_recursion(F, z, np.ones(3))
        with pytest.raises(NonFiniteError, match="^power-sine evaluation is non-finite$"):
            run_recursion(F, np.zeros((3, 1)), [1.0, np.inf, 1.0])

    def test_psi_stops_at_the_first_non_finite_sweep(self, run, monkeypatch):
        F = PowerSine(0.9, 0.009, 10.0)
        sweeps = []
        original = F.apply
        # a sweep applies F to all points at once; eval applies it to one
        monkeypatch.setattr(F, "apply",
                            lambda x, u: sweeps.append(np.ndim(x) == 2) or original(x, u))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteError):
            run("psi", F, spiked_observation(1e308))
        assert sum(sweeps) == 1

    @pytest.mark.parametrize("method", ["drive", "psi"])
    def test_nan_start(self, run, power_sine, method):
        obs = CoordinateProjection([0], 2)
        with pytest.raises(NonFiniteError, match="^power-sine evaluation is non-finite$"):
            run(method, power_sine, obs, start=(np.nan, 1.0, 1.0))

    def test_esn_keeps_non_finite_states(self):
        # Esn never checked finiteness; its recursion still returns the nans
        F = esn_reservoir(units=4)
        z = np.zeros((6, 1))
        z[2] = np.nan
        states = run_recursion(F, z, np.zeros(4))
        assert np.isfinite(states[:3]).all() and np.isnan(states[3:]).all()


def reference_psi(F, obs, traj, f0, tol, max_iters, record_from=0, l_fx=None):
    """The Jacobi loop that psi_iterate_gs ran before its exact change norm:
    an isfinite pass over every sweep, then np.linalg.norm of the change.
    Returns the recorded values, the residuals and the method record."""
    z = observe_trajectory(obs, traj)
    f0 = np.asarray(f0, dtype=float)
    f = np.broadcast_to(f0, (len(traj), F.state_dim)).copy()
    boundary = F.eval(f0, z[0])
    u = F.input_terms(z[1:])
    history, converged = [], False
    for _ in range(max_iters):
        f_new = np.empty_like(f)
        f_new[0] = boundary
        f_new[1:] = F.apply(f[:-1], u)
        finite = np.isfinite(f_new[1:]).all(axis=1)
        if not finite.all():
            i = int(np.argmin(finite))
            F.eval(f[i], z[i + 1])
        history.append(float(np.max(np.linalg.norm(f_new - f, axis=-1))))
        f = f_new
        if history[-1] <= tol:
            converged = True
            break
    apriori = float("nan")
    if l_fx is not None and 0.0 < l_fx < 1.0:
        apriori = l_fx ** len(history) / (1.0 - l_fx) * history[0]
    values = f[record_from:]
    pred = F.eval(values[:-1], z[record_from + 1:])
    residuals = np.concatenate([[np.nan], np.linalg.norm(values[1:] - pred, axis=-1)])
    method = {"name": "psi", "n_iters": len(history), "f0": f0.tolist(), "tol": tol,
              "converged": converged, "final_change": history[-1],
              "first_change": history[0], "change_history": history,
              "apriori_bound": apriori, "record_from": record_from}
    return values, residuals, method


def doubling_map():
    """F(x, z) = 2x: finite sweeps from 1e300 whose squared changes overflow,
    then at sweep 28 an overflow to inf that ``eval`` rejects."""
    return CustomStateMap(lambda x, z: 2.0 * x, state_dim=2, input_dim=1)


class TestPsiAgainstJacobiLoop:
    @pytest.fixture
    def case(self, request, power_sine, lorenz_traj, lorenz_obs, torus, torus_traj):
        iv = dict(F=power_sine, obs=lorenz_obs, traj=lorenz_traj, f0=np.ones(3), tol=1e-12,
                  record_from=2000, l_fx=IV_LFX)
        torus_obs = CoordinateProjection([0], 2)
        sub = Trajectory(points=lorenz_traj.points[2000:2200], t0=2000)
        cases = {
            "power_sine": dict(iv, max_iters=500),
            "power_sine_capped": dict(iv, max_iters=5),
            "esn16": dict(F=esn_reservoir(), obs=torus_obs, traj=torus_traj, f0=np.zeros(16),
                          tol=1e-13, max_iters=200, record_from=20, l_fx=0.35),
            "esn16_nan_start": dict(F=esn_reservoir(), obs=torus_obs, traj=torus_traj,
                                    f0=np.full(16, np.nan), tol=1e-13, max_iters=4),
            "linear_delay": dict(F=LinearDelay(3), obs=lorenz_obs, traj=sub, f0=np.zeros(7),
                                 tol=0.0, max_iters=20, record_from=6),
            "linear_delay_capped": dict(F=LinearDelay(3), obs=lorenz_obs, traj=sub,
                                        f0=np.zeros(7), tol=0.0, max_iters=7, record_from=6),
            "custom": dict(F=CustomStateMap(lambda x, z: 0.5 * np.tanh(x) + z, state_dim=2,
                                            input_dim=1),
                           obs=torus_obs, traj=torus_traj, f0=np.array([0.3, -0.2]), tol=1e-14,
                           max_iters=100, record_from=50, l_fx=0.5),
        }
        return cases[request.param]

    @pytest.mark.parametrize("case", ["power_sine", "power_sine_capped", "esn16", "esn16_nan_start",
                                      "linear_delay", "linear_delay_capped", "custom"],
                             indirect=True)
    def test_same_values_residuals_and_record(self, case):
        values, residuals, method = reference_psi(**case)
        gs = psi_iterate_gs(case["F"], None, case["obs"], case["traj"], case["f0"],
                            tol=case["tol"], max_iters=case["max_iters"],
                            record_from=case.get("record_from", 0), l_fx=case.get("l_fx"))
        assert gs.values.tobytes() == values.tobytes()
        assert gs.residuals.tobytes() == residuals.tobytes()
        # repr tells float from np.float64 and prints nan, which == never matches
        assert repr(gs.method) == repr(method)
        if not np.isnan(method["final_change"]) and not np.isnan(method["apriori_bound"]):
            assert gs.method == method

    def test_same_error_at_the_same_sweep(self, torus, torus_traj, monkeypatch):
        F = doubling_map()
        obs = CoordinateProjection([0], 2)
        sweeps = []
        original = F.apply
        monkeypatch.setattr(F, "apply",
                            lambda x, u: sweeps.append(np.ndim(x) == 2) or original(x, u))
        errors = []
        with np.errstate(over="ignore"):
            for run in (lambda: reference_psi(F, obs, torus_traj, [1e300, -1e300], 0.0, 100),
                        lambda: psi_iterate_gs(F, torus, obs, torus_traj, [1e300, -1e300],
                                               tol=0.0, max_iters=100)):
                with pytest.raises(NonFiniteError) as exc:
                    run()
                errors.append((str(exc.value), sum(sweeps)))
                sweeps.clear()
        assert errors[0] == errors[1]
        assert errors[0] == ("custom state map returned non-finite values", 28)


@st.composite
def change_matrices(draw):
    """Matrices (n, N) of sweep changes, with planted inf, nan (either sign),
    zeros, subnormals and values whose squares overflow."""
    cols = draw(st.integers(1, 12))
    rows = draw(st.sampled_from([1, 2, 3, 7, 8, 9, 33, 1000]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = draw(st.sampled_from([1e-320, 1e-160, 1.0, 1e155, 1e300]))
    d = rng.normal(size=(rows, cols)) * scale
    planted = draw(st.lists(st.sampled_from([np.inf, -np.inf, np.nan, -np.nan, 0.0, -0.0,
                                             5e-324, 1e200, np.finfo(float).max]),
                            max_size=3 * cols))
    d.ravel()[rng.integers(0, d.size, size=len(planted))] = planted
    return d


@settings(derandomize=True, deadline=None, max_examples=300)
@given(d=change_matrices())
# nan of both signs in one row: a lone row and a many-row matrix propagate
# different ones
@example(d=np.array([[np.nan, -np.nan]]))
@example(d=np.array([[1.0, np.nan, -np.nan], [-np.nan, 2.0, np.nan]]))
@example(d=np.array([[1e200, np.inf, 3.0]] * 3))
def test_max_row_norm_is_numpys_bit_for_bit(d):
    with np.errstate(over="ignore", invalid="ignore"):
        expected = np.max(np.linalg.norm(d, axis=-1))
        got = _max_row_norm(d)
    assert np.float64(got).tobytes() == expected.tobytes()


def lone_drives(F, sys, obs, traj, starts, regions, washout, record):
    """drive_gs per start, each raised error in place of its synchronization."""
    out = []
    for x0, region in zip(starts, regions):
        try:
            out.append(drive_gs(F, sys, obs, None, x0, washout_steps=washout,
                                record_steps=record, region=region, trajectory=traj))
        except GsyncError as exc:
            out.append(exc)
    return out


def assert_same_drive(a, b):
    if isinstance(b, GsyncError):
        assert type(a) is type(b) and str(a) == str(b)
        return
    for name in ("times", "points", "values", "residuals"):
        assert np.array_equal(getattr(a, name), getattr(b, name), equal_nan=True), name
    assert (a.residual_max, a.residual_mean) == (b.residual_max, b.residual_mean)
    assert (a.method, a.region_label) == (b.method, b.region_label)


class TestStackedDrive:
    @pytest.fixture(scope="class")
    def torus_case(self, power_sine, torus, eight_boxes):
        return (power_sine, torus, CoordinateProjection([0], 2),
                torus.trajectory([0.3, 0.6], 5000), eight_boxes, 1000, 4000)

    @pytest.fixture(scope="class")
    def lorenz_case(self, power_sine, lorenz, lorenz_obs, lorenz_traj, eight_boxes):
        return power_sine, lorenz, lorenz_obs, lorenz_traj, eight_boxes[:2], 2000, 2000

    @pytest.mark.parametrize("case", ["torus_case", "lorenz_case"])
    def test_power_sine_bit_identical_to_lone_drives(self, case, request, monkeypatch):
        F, sys, obs, traj, regions, washout, record = request.getfixturevalue(case)
        starts = [r.center() for r in regions]
        lone = lone_drives(F, sys, obs, traj, starts, regions, washout, record)
        shapes = []
        original = F.apply
        monkeypatch.setattr(F, "apply", lambda x, u: shapes.append(np.shape(x)) or original(x, u))
        stacked = _drive_regions(F, sys, obs, None, starts, regions, washout, record, traj)
        # one recursion over all regions, one step at a time, then a residual per region
        steps = washout + record
        assert shapes == [(len(regions), 3)] * steps + [(record, 3)] * len(regions)
        z = observe_trajectory(obs, traj)
        for a, b, x0 in zip(stacked, lone, starts):
            assert_same_drive(a, b)
            # a lone drive is still the (N,)-state recursion
            old = run_recursion(F, z[1:washout + record + 1], x0)[washout:]
            assert np.array_equal(b.values, old)

    def test_regions_share_one_copy_of_the_points(self, torus_case, torus_traj):
        F, sys, obs, traj, regions, washout, record = torus_case
        drives = _drive_regions(F, sys, obs, None, [r.center() for r in regions], regions,
                                washout, record, traj)
        assert all(d.points is drives[0].points for d in drives)
        assert not np.shares_memory(drives[0].points, traj.points)
        assert not any(np.shares_memory(a.values, b.values)
                       for i, a in enumerate(drives) for b in drives[i + 1:])
        psi = psi_iterate_gs(F, sys, obs, torus_traj, regions[0].center(),
                             record_from=100, region=regions[0])
        assert not np.shares_memory(psi.points, torus_traj.points)

    def test_sweep_matches_lone_drives(self, torus_case):
        F, sys, obs, traj, regions, washout, record = torus_case
        result = multistability_sweep(F, regions, sys, obs, None, washout_steps=washout,
                                      record_steps=record, trajectory=traj)
        lone = lone_drives(F, sys, obs, traj, [r.center() for r in regions], regions,
                           washout, record)
        assert result.labels == [r.label for r in regions] and not result.failures
        for a, b in zip(result.synchronizations, lone):
            assert_same_drive(a, b)

    def test_esn_within_bound_of_lone_drives(self):
        # a (B, 16) @ A.T row may round differently from a lone (1, 16) @ A.T
        F = esn_reservoir()
        cat, obs = CatMap(), CoordinateProjection([0], 2)
        traj = cat.trajectory([0.3, 0.7], 2000)
        regions = [AxisBox([-1.0] * 16, [1.0] * 16, label="box"),
                   Ball(np.zeros(16), 1.0, label="ball")]
        starts = [r.center() + 0.1 * i for i, r in enumerate(regions)]
        stacked = _drive_regions(F, cat, obs, None, starts, regions, 500, 1500, traj)
        for a, b in zip(stacked, lone_drives(F, cat, obs, traj, starts, regions, 500, 1500)):
            assert np.array_equal(a.times, b.times) and np.array_equal(a.points, b.points)
            assert np.max(np.abs(a.values - b.values)) <= 4 * EPS * np.max(np.abs(b.values))
            assert a.residual_max <= 4 * EPS and b.residual_max <= 4 * EPS

    def test_failures_are_the_lone_drives_errors(self, torus_case):
        F, sys, obs, traj, boxes, _, _ = torus_case
        escape = AxisBox([5.0] * 3, [5.2] * 3, label="escape")
        starts = [boxes[0].center(), boxes[1].center(), escape.center(), [1.0, -1.0, 1.0],
                  [1.0, 1.0, 1.0, 1.0]]
        regions = [boxes[0], boxes[1], escape, boxes[3], None]
        stacked = _drive_regions(F, sys, obs, None, starts, regions, 100, 400, traj)
        lone = lone_drives(F, sys, obs, traj, starts, regions, 100, 400)
        assert [type(r).__name__ for r in stacked] == \
            ["SampledGS", "SampledGS", "RegionEscape", "RegionEscape", "DimensionMismatch"]
        assert "first at step index" in str(stacked[2])
        assert "initial state lies outside" in str(stacked[3])
        for a, b in zip(stacked, lone):
            assert_same_drive(a, b)

    def test_non_finite_row_is_driven_alone(self, torus, monkeypatch):
        # finite from every start except those with a first coordinate above 10
        F = CustomStateMap(lambda x, z: np.where(x[..., :1] > 10.0, np.nan, 0.5 * x + z),
                           state_dim=2, input_dim=1)
        obs = CoordinateProjection([0], 2)
        traj = torus.trajectory([0.13, 0.41], 300)
        regions = [AxisBox([-3.0, -3.0], [3.0, 3.0], label="A"),
                   AxisBox([19.0, -1.0], [21.0, 1.0], label="bad"),
                   AxisBox([-2.5, -2.5], [2.5, 2.5], label="C")]
        starts = [r.center() for r in regions]
        lone = lone_drives(F, torus, obs, traj, starts, regions, 50, 200)
        calls = []
        original = F.apply
        monkeypatch.setattr(F, "apply", lambda x, u: calls.append(np.shape(x)) or original(x, u))
        result = multistability_sweep(F, regions, torus, obs, None, washout_steps=50,
                                      record_steps=200, trajectory=traj)
        # the stacked run stops at its first step; then each region runs alone
        assert calls[0] == (3, 2) and set(calls[1:]) == {(2,)}
        assert isinstance(lone[1], NonFiniteError)
        assert result.failures == {"bad": f"NonFiniteError: {lone[1]}"}
        assert result.labels == ["A", "C"]
        for a, b in zip(result.synchronizations, [lone[0], lone[2]]):
            assert_same_drive(a, b)

    def test_observation_error_fails_every_region(self, torus, power_sine, eight_boxes):
        obs = CustomObservation(lambda m: np.full(m.shape[:-1] + (1,), np.nan), obs_dim=1,
                                phase_dim=2)
        traj = torus.trajectory([0.13, 0.41], 300)
        result = multistability_sweep(power_sine, eight_boxes[:2], torus, obs, None,
                                      washout_steps=50, record_steps=200, trajectory=traj)
        lone = lone_drives(power_sine, torus, obs, traj, [b.center() for b in eight_boxes[:2]],
                           eight_boxes[:2], 50, 200)
        assert result.failures == {b.label: f"NonFiniteError: {err}"
                                   for b, err in zip(eight_boxes[:2], lone)}


class TestResiduals:
    def test_stored_per_row(self, power_sine, lorenz_obs, iv_drive):
        res = iv_drive.residuals
        assert res.shape == (len(iv_drive),) and np.isnan(res[0])
        assert (iv_drive.residual_max, iv_drive.residual_mean) == \
            (float(np.max(res[1:])), float(np.mean(res[1:])))
        assert np.max(res[1:]) == recursion_residual(iv_drive, power_sine, lorenz_obs)[0]

    def test_psi_stores_per_row(self, power_sine, lorenz, lorenz_traj):
        gs = psi_iterate_gs(power_sine, lorenz, CoordinateProjection([0], 3), lorenz_traj,
                            f0_const=np.ones(3), tol=1e-12, max_iters=500, record_from=100)
        assert gs.residuals.shape == (len(gs),) and np.isnan(gs.residuals[0])
        assert gs.residual_max == float(np.max(gs.residuals[1:]))

    def test_drive_residual_is_construction_exact(self, iv_drive):
        assert iv_drive.residual_max <= 1e-13

    def test_psi_residual_at_tolerance(self, power_sine, lorenz, lorenz_obs,
                                       lorenz_traj):
        gs = psi_iterate_gs(power_sine, lorenz, lorenz_obs, lorenz_traj,
                            f0_const=np.ones(3), tol=1e-12, max_iters=500)
        assert gs.residual_max <= 1e-12 * (1.0 + IV_LFX) + 1e-15

    def test_residual_detects_corruption(self, power_sine, lorenz_obs, iv_drive):
        corrupted = iv_drive.values.copy()
        corrupted[1000] += 0.01
        tampered = type(iv_drive)(times=iv_drive.times, points=iv_drive.points,
                                  values=corrupted, method=iv_drive.method)
        mx, _ = recursion_residual(tampered, power_sine, lorenz_obs)
        assert mx >= 0.01 * (1.0 - IV_LFX)

    def test_stored_stats_match_recompute(self, power_sine, lorenz_obs, iv_drive):
        mx, mean = recursion_residual(iv_drive, power_sine, lorenz_obs)
        assert mx == pytest.approx(iv_drive.residual_max, abs=1e-16)
        assert mean == pytest.approx(iv_drive.residual_mean, abs=1e-16)


class TestCompare:
    def test_identical_gs_zero(self, iv_drive):
        assert compare_gs(iv_drive, iv_drive) == 0.0

    def test_disjoint_ranges(self, power_sine, lorenz, lorenz_obs, lorenz_traj,
                             eight_boxes):
        early = drive_gs(power_sine, lorenz, lorenz_obs, LORENZ_M0, [1.0] * 3,
                         washout_steps=100, record_steps=100,
                         trajectory=lorenz_traj)
        late = drive_gs(power_sine, lorenz, lorenz_obs, LORENZ_M0, [1.0] * 3,
                        washout_steps=300, record_steps=100,
                        trajectory=lorenz_traj)
        with pytest.raises(DisjointRanges):
            compare_gs(early, late)

    def test_separate_boxes_far_apart(self, power_sine, lorenz, lorenz_obs,
                                      lorenz_traj, eight_boxes, iv_drive):
        other = drive_gs(power_sine, lorenz, lorenz_obs, LORENZ_M0,
                         eight_boxes[1].center(), washout_steps=2000,
                         record_steps=2000, region=eight_boxes[1],
                         trajectory=lorenz_traj)
        assert compare_gs(iv_drive, other) >= 1.7


class TestMultistability:
    def test_eight_box_sweep(self, power_sine, lorenz, lorenz_obs, lorenz_traj,
                             eight_boxes):
        result = multistability_sweep(power_sine, eight_boxes, lorenz, lorenz_obs,
                                      LORENZ_M0, washout_steps=2000,
                                      record_steps=2000, trajectory=lorenz_traj)
        assert not result.failures
        assert len(result.synchronizations) == 8
        assert result.echo_index == 8
        assert min(result.separations.values()) >= 1.6

    def test_single_region(self, power_sine, lorenz, lorenz_obs, lorenz_traj,
                           eight_boxes):
        result = multistability_sweep(power_sine, eight_boxes[:1], lorenz,
                                      lorenz_obs, LORENZ_M0, washout_steps=500,
                                      record_steps=200, trajectory=lorenz_traj)
        assert len(result.synchronizations) == 1
        assert result.separations == {}
        assert result.echo_index == 1

    def test_duplicate_region_counts_once(self, power_sine, lorenz, lorenz_obs,
                                          lorenz_traj, eight_boxes):
        twin = AxisBox(eight_boxes[0].lo, eight_boxes[0].hi, label="V1copy")
        result = multistability_sweep(power_sine, [eight_boxes[0], twin], lorenz,
                                      lorenz_obs, LORENZ_M0, washout_steps=1000,
                                      record_steps=500, trajectory=lorenz_traj)
        sep = result.separations[("V1", "V1copy")]
        assert sep <= 1e-12
        assert result.echo_index == 1

    def test_failures_keep_sweeping(self, power_sine, lorenz, lorenz_obs,
                                    lorenz_traj, eight_boxes):
        bad = AxisBox([5.0] * 3, [5.2] * 3, label="nowhere")
        result = multistability_sweep(power_sine, [bad, eight_boxes[0]], lorenz,
                                      lorenz_obs, LORENZ_M0, washout_steps=500,
                                      record_steps=200, trajectory=lorenz_traj)
        assert result.failures["nowhere"].startswith("RegionEscape")
        assert len(result.synchronizations) == 1

    @pytest.mark.parametrize("washout, record, message", [
        (0, 0, "record_steps must be >= 1"), (-5, 3, "washout_steps must be >= 0")])
    def test_step_counts_are_checked_before_the_trajectory(self, torus, power_sine,
                                                            eight_boxes, washout, record,
                                                            message):
        with pytest.raises(ValueError, match=message):
            multistability_sweep(power_sine, eight_boxes[:2], torus,
                                 CoordinateProjection([0], 2), [0.13, 0.41],
                                 washout_steps=washout, record_steps=record)

    def test_programming_errors_propagate(self, torus, torus_traj):
        def broken(x, z):
            raise TypeError("broken state map")

        F = CustomStateMap(broken, state_dim=2, input_dim=1)
        box = AxisBox([-1.0, -1.0], [1.0, 1.0], label="B")
        with pytest.raises(TypeError, match="broken state map"):
            multistability_sweep(F, [box], torus, CoordinateProjection([0], 2),
                                 [0.13, 0.41], washout_steps=10, record_steps=10,
                                 trajectory=torus_traj)


class TestSerialization:
    def test_csv_writes_stored_residuals(self, tmp_path, power_sine, lorenz_obs, iv_drive,
                                         monkeypatch):
        recomputed = tmp_path / "recomputed.csv"
        write_gs_csv(replace(iv_drive, residuals=None), recomputed, F=power_sine, obs=lorenz_obs)

        def no_eval(x, z):
            raise AssertionError("stored residuals are not recomputed")

        monkeypatch.setattr(power_sine, "eval", no_eval)
        stored = tmp_path / "stored.csv"
        write_gs_csv(iv_drive, stored, F=power_sine, obs=lorenz_obs)
        assert stored.read_bytes() == recomputed.read_bytes()
        write_gs_csv(iv_drive, tmp_path / "no_map.csv")
        assert (tmp_path / "no_map.csv").read_bytes() == stored.read_bytes()

    def test_gs_csv_roundtrip(self, tmp_path, power_sine, lorenz_obs, iv_drive):
        path = tmp_path / "gs.csv"
        write_gs_csv(iv_drive, path, F=power_sine, obs=lorenz_obs,
                     metadata={"note": "test"}, time_scale=0.01)
        lines = path.read_text().splitlines()
        meta = [l for l in lines if l.startswith("#")]
        assert any("method: drive" in l for l in meta)
        header = next(l for l in lines if not l.startswith("#"))
        assert header == "t,m1,m2,m3,f1,f2,f3,residual"
        first_data = lines[lines.index(header) + 1].split(",")
        assert float(first_data[0]) == pytest.approx(20.0)
        assert first_data[-1] == "nan"
        second = lines[lines.index(header) + 2].split(",")
        assert np.isfinite(float(second[-1]))

    def test_matrix_rows_match_field_formatting(self, tmp_path):
        from gsync._csvtext import BLOCK_VALUES
        from gsync.gs import _write_csv
        rng = np.random.default_rng(9)
        special = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e300, 3.0, -7.0, 0.1]
        n = 2 * (BLOCK_VALUES // 3) + 5  # two full blocks of 3-value rows and a partial one
        scaled = rng.normal(size=3 * n) * 10.0 ** rng.integers(-20, 20, size=3 * n)
        matrix = np.concatenate([scaled, np.tile(special, 3)]).reshape(-1, 3)
        meta, header = {"note": "x"}, ["a", "b", "c"]
        _write_csv(tmp_path / "fields.csv", meta, header,
                   ([f"{c:.17g}" for c in row] for row in matrix))
        _write_csv(tmp_path / "matrix.csv", meta, header, matrix)
        assert (tmp_path / "fields.csv").read_bytes() == (tmp_path / "matrix.csv").read_bytes()
