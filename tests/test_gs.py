import os
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gsync import (AxisBox, Ball, CatMap, CoordinateProjection, CustomObservation, CustomStateMap,
                   Esn, LinearDelay, PowerSine, StateMap, Trajectory, compare_gs, delay_window,
                   drive_gs, multistability_sweep, observe_trajectory, psi_iterate_gs,
                   SampledGS, recursion_residual, run_recursion, write_gs_csv)
from gsync.errors import (DimensionMismatch, DisjointRanges, DomainViolation, GsyncError,
                          NonFiniteError, RegionEscape)
from gsync import gs as gs_module
from gsync.gs import _drive_regions, _max_row_norm, _row_norms

from conftest import (LORENZ_M0, esn_reservoir, formula, gs_columns, record_steps,
                      traced_peak)

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
    # the step-by-step loop that run_recursion replaces, with F from formula
    apply = formula(F)
    x = np.asarray(x0, dtype=float)
    states = [x]
    for zt in z:
        x = apply(x, F.input_terms(zt))
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
        record_steps(F, monkeypatch, lambda x: seen.append(np.shape(x)))
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

    def test_no_sweeps_keep_the_start(self, torus, torus_traj):
        gs = psi_iterate_gs(constant_map(np.array([0.4, -0.2])), torus,
                            CoordinateProjection([0], 2), torus_traj, f0_const=np.zeros(2),
                            max_iters=0, l_fx=0.5)
        m = gs.method
        assert m["n_iters"] == 0 and m["converged"] is False and m["change_history"] == []
        assert all(np.isnan(m[k]) for k in ("first_change", "final_change", "apriori_bound"))
        assert np.all(gs.values == 0.0)

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
        # a sweep applies F to all points at once; eval applies it to one
        record_steps(F, monkeypatch, lambda x: sweeps.append(np.ndim(x) == 2))
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


def thresholded_map():
    """A contraction from starts whose first coordinate is at most 10, nan above."""
    return CustomStateMap(lambda x, z: np.where(x[..., :1] > 10.0, np.nan, 0.5 * x + z),
                          state_dim=2, input_dim=1)


# map, a start it fails from, a start it is finite from, its non-finite rule's text
RULE_CASES = {
    "power_sine": (lambda: PowerSine(0.9, 0.009, 10.0), [np.inf, 1.0, 1.0], [1.0, 1.0, 1.0],
                   "power-sine evaluation is non-finite"),
    "custom": (thresholded_map, [20.0, 0.0], [0.5, 0.5],
               "custom state map returned non-finite values"),
    "esn": (lambda: esn_reservoir(units=4), [np.nan, 0.0, 0.0, 0.0], np.zeros(4), None),
}


def esn_by_formula(F, z, x0):
    """tanh(x A^T + (z C^T + zeta)) step by step, as numpy evaluates the Esn."""
    u = z @ F.C.T + F.zeta
    states = [np.asarray(x0, dtype=float)]
    for ut in u:
        states.append(np.tanh(states[-1] @ F.A.T + ut))
    return np.stack(states)


class TestNonFiniteRule:
    """Every entry point judges a map's states by its one rule: ``PowerSine`` and
    ``CustomStateMap`` raise the same error everywhere, ``Esn`` keeps its nans."""

    @pytest.fixture
    def case(self, request, torus_traj):
        make, bad, good, text = RULE_CASES[request.param]
        z = observe_trajectory(CoordinateProjection([0], 2), torus_traj)
        return make(), np.asarray(bad), np.asarray(good), text, z

    def calls(self, F, bad, good, z, torus, torus_traj):
        obs = CoordinateProjection([0], 2)

        def drive(x0):
            return drive_gs(F, torus, obs, None, x0, washout_steps=10, record_steps=100,
                            trajectory=torus_traj)
        return {
            "eval": lambda: F.eval(bad, z[0]),
            "run_recursion": lambda: run_recursion(F, z[1:], bad),
            "drive_gs": lambda: drive(bad),
            "stacked": lambda: _drive_regions(F, torus, obs, None, [good, bad, good],
                                              [None] * 3, 10, 100, torus_traj),
            "psi": lambda: psi_iterate_gs(F, torus, obs, torus_traj, f0_const=bad,
                                          tol=1e-12, max_iters=50),
            "lone_good": lambda: drive(good),
        }

    @pytest.mark.parametrize("case", ["power_sine", "custom"], indirect=True)
    def test_raising_rules_raise_the_same_error_everywhere(self, case, torus, torus_traj):
        F, bad, good, text, z = case
        calls = self.calls(F, bad, good, z, torus, torus_traj)
        for name in ("eval", "run_recursion", "drive_gs", "psi"):
            with np.errstate(invalid="ignore"), \
                    pytest.raises(NonFiniteError, match=f"^{text}$"):
                calls[name]()
        with np.errstate(invalid="ignore"):
            stacked = calls["stacked"]()
        assert isinstance(stacked[1], NonFiniteError) and str(stacked[1]) == text
        for row in (0, 2):
            assert_same_drive(stacked[row], calls["lone_good"]())

    @pytest.mark.parametrize("case", ["esn"], indirect=True)
    def test_esn_keeps_its_nans_everywhere(self, case, torus, torus_traj):
        F, bad, good, text, z = case
        calls = self.calls(F, bad, good, z, torus, torus_traj)
        expected = esn_by_formula(F, z[1:], bad)
        assert np.isnan(expected[1:]).all()
        assert calls["eval"]().tobytes() == expected[1].tobytes()
        assert calls["run_recursion"]().tobytes() == expected.tobytes()
        lone = calls["drive_gs"]()
        assert lone.values.tobytes() == expected[10:111].tobytes()
        assert np.isnan(lone.residuals).all() and np.isnan(lone.residual_max)
        stacked = calls["stacked"]()
        assert stacked[1].values.tobytes() == lone.values.tobytes()
        assert np.isnan(stacked[1].residuals).all() and np.isnan(stacked[1].residual_max)
        # the finite rows stay finite: a nan row does not leak into the batch
        good = calls["lone_good"]().values
        for row in (0, 2):
            assert np.max(np.abs(stacked[row].values - good)) <= 4 * EPS * np.max(np.abs(good))
        psi = calls["psi"]()
        assert psi.method["n_iters"] == 50 and not psi.method["converged"]
        assert np.isnan(psi.values).all() and np.isnan(psi.method["change_history"]).all()

    def test_custom_rule_in_the_sweep(self, torus, torus_traj):
        regions = [AxisBox([-3.0, -3.0], [3.0, 3.0], label="A"),
                   AxisBox([19.0, -1.0], [21.0, 1.0], label="bad")]
        result = multistability_sweep(thresholded_map(), regions, torus,
                                      CoordinateProjection([0], 2), None, washout_steps=10,
                                      record_steps=100, trajectory=torus_traj)
        assert result.labels == ["A"]
        assert result.failures == {"bad": "NonFiniteError: custom state map returned "
                                          "non-finite values"}

    @pytest.mark.parametrize("case", ["power_sine", "custom"], indirect=True)
    def test_failing_recursion_evaluates_no_step_again(self, case, monkeypatch):
        F, bad, good, text, z = case
        evals = []
        original = F.eval
        monkeypatch.setattr(F, "eval", lambda x, z: evals.append(1) or original(x, z))
        with pytest.raises(NonFiniteError, match=f"^{text}$"):
            run_recursion(F, z[1:], bad)
        assert evals == []

    def test_custom_recursion_runs_to_the_end_before_raising(self, monkeypatch):
        F = thresholded_map()
        steps = []
        record_steps(F, monkeypatch, lambda x: steps.append(1))
        with pytest.raises(NonFiniteError):
            run_recursion(F, np.zeros((30, 1)), [20.0, 0.0])
        assert len(steps) == 30

    def test_stacked_loop_error_is_every_driven_start_error(self, torus, torus_traj):
        def refusing(x, z):
            if np.any(x[..., 0] > 10.0):
                raise DomainViolation("a state above 10")
            return 0.5 * x + z

        F = CustomStateMap(refusing, state_dim=2, input_dim=1)
        obs = CoordinateProjection([0], 2)
        starts = [[0.5, 0.5], [20.0, 0.0], [0.0, 5.0]]
        regions = [None, None, AxisBox([-1.0, -1.0], [1.0, 1.0], label="R")]
        stacked = _drive_regions(F, torus, obs, None, starts, regions, 10, 100, torus_traj)
        # the start outside its region keeps its own error; the two driven share one
        assert isinstance(stacked[2], RegionEscape)
        assert isinstance(stacked[0], DomainViolation) and stacked[1] is stacked[0]
        lone = lone_drives(F, torus, obs, torus_traj, starts, regions, 10, 100)
        assert_same_drive(stacked[1], lone[1])
        assert_same_drive(stacked[2], lone[2])

    def test_input_terms_error_is_every_start_error(self, power_sine, torus, torus_traj,
                                                    eight_boxes):
        obs = CoordinateProjection([0, 1], 2)  # two inputs for a one-input map
        starts = [b.center() for b in eight_boxes[:3]]
        stacked = _drive_regions(power_sine, torus, obs, None, starts, eight_boxes[:3],
                                 10, 100, torus_traj)
        lone = lone_drives(power_sine, torus, obs, torus_traj, starts, eight_boxes[:3], 10, 100)
        assert all(isinstance(err, DimensionMismatch) for err in lone)
        for a, b in zip(stacked, lone):
            assert_same_drive(a, b)


def reference_psi(F, obs, traj, f0, tol, max_iters, record_from=0, l_fx=None):
    """The Jacobi loop that psi_iterate_gs ran before its exact change norm
    and its preallocated iterates: fresh arrays from ``formula(F)``, an
    isfinite pass over every sweep, then np.linalg.norm of the change.
    Returns the recorded values, the residuals and the method record."""
    apply = formula(F)

    def evaluate(x, z):  # eval with the formula: input terms, F, the non-finite rule
        out = apply(np.asarray(x, dtype=float), F.input_terms(z))
        F._check_finite(out)
        return out

    z = observe_trajectory(obs, traj)
    f0 = np.asarray(f0, dtype=float)
    f = np.broadcast_to(f0, (len(traj), F.state_dim)).copy()
    boundary = evaluate(f0, z[0])
    u = F.input_terms(z[1:])
    history, converged = [], False
    for _ in range(max_iters):
        f_new = np.empty_like(f)
        f_new[0] = boundary
        f_new[1:] = apply(f[:-1], u)
        finite = np.isfinite(f_new[1:]).all(axis=1)
        if not finite.all():
            i = int(np.argmin(finite))
            evaluate(f[i], z[i + 1])
        history.append(float(np.max(np.linalg.norm(f_new - f, axis=-1))))
        f = f_new
        if history[-1] <= tol:
            converged = True
            break
    apriori = float("nan")
    if l_fx is not None and 0.0 < l_fx < 1.0:
        apriori = l_fx ** len(history) / (1.0 - l_fx) * history[0]
    values = f[record_from:]
    pred = evaluate(values[:-1], z[record_from + 1:])
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


class HalvingSine(StateMap):
    """A map that defines only a two-argument ``apply``: F(x, z) = x / 2 + sin z_1."""

    def __init__(self):
        super().__init__(state_dim=2, input_dim=1)

    def apply(self, x, u):
        return 0.5 * x + np.sin(u[..., :1])


def squashed(name):
    """The 16-unit reservoir with another squashing."""
    F = esn_reservoir()
    return Esn(F.A, F.C, zeta=F.zeta, squashing=name)


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
            "apply_only": dict(F=HalvingSine(), obs=torus_obs, traj=torus_traj,
                               f0=np.array([0.3, -0.2]), tol=1e-14, max_iters=100, record_from=50),
            # lam = 0 and sin kz < 0 put -0.0 in u; the start's -0.0 has np.sign
            # +0.0, so F's first coordinate is +0.0, where copysign gives -0.0
            "power_sine_negative_zero": dict(
                F=PowerSine(0.9, 0.0, 1.0), traj=torus_traj, f0=np.array([-0.0, 1.0, 1.0]),
                obs=CustomObservation(lambda m: -0.5 - m[..., :1], obs_dim=1, phase_dim=2),
                tol=1e-12, max_iters=50),
            **{f"esn_{name}": dict(F=squashed(name), obs=torus_obs, traj=torus_traj,
                                   f0=np.zeros(16), tol=1e-13, max_iters=200, record_from=20)
               for name in ("tanh", "logistic", "identity")},
        }
        return cases[request.param]

    @pytest.mark.parametrize("case", ["power_sine", "power_sine_capped", "esn16", "esn16_nan_start",
                                      "linear_delay", "linear_delay_capped", "custom",
                                      "apply_only", "power_sine_negative_zero", "esn_tanh",
                                      "esn_logistic", "esn_identity"],
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

        def sweep(x):
            sweeps.append(np.ndim(x) == 2)

        def record_apply():
            original = F.apply
            monkeypatch.setattr(F, "apply", lambda x, u: sweep(x) or original(x, u))

        errors = []
        # each loop is recorded through the entry point it calls: the
        # reference through apply, psi_iterate_gs through its prepared kernel
        with np.errstate(over="ignore"):
            for record, run in (
                    (record_apply,
                     lambda: reference_psi(F, obs, torus_traj, [1e300, -1e300], 0.0, 100)),
                    (lambda: record_steps(F, monkeypatch, sweep),
                     lambda: psi_iterate_gs(F, torus, obs, torus_traj, [1e300, -1e300],
                                            tol=0.0, max_iters=100))):
                record()
                with pytest.raises(NonFiniteError) as exc:
                    run()
                monkeypatch.undo()
                errors.append((str(exc.value), sum(sweeps)))
                sweeps.clear()
        assert errors[0] == errors[1]
        assert errors[0] == ("custom state map returned non-finite values", 28)

    def test_negative_zero_case_holds_negative_zeros(self, torus_traj):
        obs = CustomObservation(lambda m: -0.5 - m[..., :1], obs_dim=1, phase_dim=2)
        u = PowerSine(0.9, 0.0, 1.0).input_terms(observe_trajectory(obs, torus_traj))
        assert np.signbit(u[:, 0]).all() and not np.signbit(u[:, 1:]).any()
        assert not np.signbit(np.sign(-0.0)) and np.signbit(np.copysign(0.0, -0.0))

    def test_apply_only_map_through_the_stacked_drive(self, torus, torus_traj):
        F = HalvingSine()
        obs = CoordinateProjection([0], 2)
        starts = [[0.3, -0.2], [-1.0, 2.0], [0.0, -0.0]]
        stacked = _drive_regions(F, torus, obs, None, starts, [None] * 3, 10, 100, torus_traj)
        z = observe_trajectory(obs, torus_traj)
        for gs, x0 in zip(stacked, starts):
            values = reference_states(F, z[1:111], x0)[10:]
            assert gs.values.tobytes() == values.tobytes()
            residuals = np.linalg.norm(values[1:] - formula(F)(values[:-1], z[11:111]), axis=-1)
            assert gs.residuals[1:].tobytes() == residuals.tobytes()
            assert gs.method == {"name": "drive", "washout_steps": 10, "x0": x0}


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
        got = _max_row_norm(d.copy(), np.full(len(d), 7.0))
    assert_numpys(got, expected, bits=len(d) >= 2 or not np.isnan(d).any())


@pytest.mark.parametrize("cols", [3, 16])
def test_max_row_norm_allocates_no_array(cols):
    # a psi sweep's change on cat_reservoir's 16 units, and on a 3-d state
    d = np.random.default_rng(cols).normal(size=(7001, cols))
    sums = np.empty(len(d))
    _max_row_norm(d.copy(), sums)
    diff = d.copy()
    tracemalloc.start()
    try:
        _max_row_norm(diff, sums)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4096


def test_psi_holds_at_most_three_and_a_half_iterates():
    # a wide reservoir on a long orbit, where the iterate-sized arrays are
    # the working set: the sweeps hold two iterates and the input terms, the
    # residuals the final iterate, the input terms and the prediction
    # (seven iterates when the change had its own buffer and the residuals
    # a copy of the values and of their differences)
    F = esn_reservoir(64)
    cat = CatMap()
    traj = cat.trajectory([0.1, 0.3], 4000)
    peak, gs = traced_peak(lambda: psi_iterate_gs(F, cat, CoordinateProjection([0], 2), traj,
                                                  np.zeros(64), tol=1e-12, max_iters=100))
    assert gs.method["converged"] and gs.values.shape == (4001, 64)
    assert peak <= 3.5 * gs.values.nbytes


def test_drive_samples_are_built_after_the_stacked_states_are_freed():
    # two wide reservoirs on a short washout, where the stacked states
    # (washout + record + 1, 2, N) are as large as the two recorded copies:
    # the samples' residuals (input terms and prediction) come after the
    # stack is freed (three recorded sizes when it lived until the end)
    F = esn_reservoir(64)
    cat = CatMap()
    traj = cat.trajectory([0.1, 0.3], 4010)
    starts = [np.full(64, 0.1), np.full(64, -0.1)]
    peak, results = traced_peak(lambda: _drive_regions(
        F, cat, CoordinateProjection([0], 2), None, starts, [None, None], 10, 4000, traj))
    recorded = sum(gs.values.nbytes for gs in results)
    assert [gs.values.shape for gs in results] == [(4001, 64)] * 2
    assert peak <= 2.5 * recorded


def assert_numpys(got, expected, bits):
    """got is numpy's expected bit for bit if ``bits``, else equal with nan in
    the same places: a nan's sign, which '%.17g' does not print, may differ."""
    got, expected = np.asarray(got), np.asarray(expected)
    assert got.shape == expected.shape
    if bits:
        assert got.tobytes() == expected.tobytes()
    else:
        assert np.array_equal(got, expected, equal_nan=True)


# values whose rounding, sign or propagation a reduction can get wrong
ROW_SPECIALS = [np.inf, -np.inf, np.nan, -np.nan, 0.0, -0.0, 5e-324, -2.5e-310,
                1e308, -1e308, np.finfo(float).max]


@st.composite
def short_rows(draw):
    """Matrices (n, N) of 1 to 20 columns and 0, 1, 2 or 5000 rows, with
    planted specials (``ROW_SPECIALS``) and rows made only of them."""
    cols = draw(st.integers(1, 20))
    rows = draw(st.sampled_from([0, 1, 2, 5000]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = draw(st.sampled_from([1e-320, 1e-160, 1.0, 1e155, 1e307]))
    d = rng.normal(size=(rows, cols)) * scale
    if rows:
        planted = draw(st.lists(st.sampled_from(ROW_SPECIALS), max_size=3 * cols))
        d.ravel()[rng.integers(0, d.size, size=len(planted))] = planted
        special = rng.integers(0, rows, size=draw(st.integers(0, 3)))
        d[special] = rng.choice(ROW_SPECIALS, size=(len(special), cols))
    return d


@settings(derandomize=True, deadline=None, max_examples=300)
@given(d=short_rows())
@example(d=np.array([[np.nan, -np.nan]]))
@example(d=np.array([[-np.nan, np.nan, 1.0], [1.0, -np.nan, np.nan]]))
@example(d=np.array([[-0.0] * 8, [1e308] * 8, [np.inf, -np.nan] + [0.0] * 6]))
def test_row_norms_are_numpys_bit_for_bit(d):
    with np.errstate(over="ignore", invalid="ignore"):
        expected = np.linalg.norm(d, axis=-1)
        got = _row_norms(d.copy())
    assert_numpys(got, expected, bits=len(d) >= 2 or not np.isnan(d).any())


@st.composite
def box_points(draw):
    """An AxisBox of 1 to 20 dimensions and points (n, dim) as in
    ``short_rows``, with coordinates planted on its faces, and faces at 0.0
    or -0.0, where margins are zeros of either sign."""
    d = draw(short_rows())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    cols = d.shape[1]
    bounds = np.array([(0.0, 1.0), (-0.0, 1.0), (-1.0, -0.0), (-1.0, 0.0), (-1e308, 1e308),
                       (0.5, 0.5 + 1e-16), (1e-310, 2e-310)])[rng.integers(0, 7, size=cols)]
    if len(d):
        at = rng.integers(0, d.size, size=draw(st.integers(0, 2 * cols)))
        d.ravel()[at] = bounds[at % cols, rng.integers(0, 2, size=len(at))]
    return AxisBox(*bounds.T), d


@settings(derandomize=True, deadline=None, max_examples=300)
@given(case=box_points())
@example(case=(AxisBox([0.0, 0.0], [1.0, 1.0]), np.array([[-0.0, 0.0], [0.0, -0.0]] * 3)))
@example(case=(AxisBox([0.0, 0.0, 0.0], [1.0, 1.0, 1.0]),
               np.array([[np.nan, -np.nan, 0.5], [-np.nan, np.nan, 0.5], [0.5, -np.nan, np.nan]])))
# nine columns of zeros: numpy's row minimum is -0, the column-by-column one 0
@example(case=(AxisBox([0.0] * 9, [1.0] * 9), np.array([[-0.0] * 3 + [0.0] * 6] * 2)))
def test_box_margin_is_numpys_row_minimum_bit_for_bit(case):
    box, x = case
    with np.errstate(over="ignore", invalid="ignore"):
        expected = np.minimum(x - box.lo, box.hi - x).min(axis=-1)
        got = box.boundary_margin(x)
    assert_numpys(got, expected, bits=not np.isnan(x).any())


@settings(derandomize=True, deadline=None, max_examples=300)
@given(d=short_rows(), center=st.sampled_from([0.0, -0.0, 0.25, -1e-310]))
def test_ball_margin_is_numpys_bit_for_bit(d, center):
    ball = Ball(np.full(d.shape[1], center), 0.5)
    with np.errstate(over="ignore", invalid="ignore"):
        expected = 0.5 - np.linalg.norm(d - ball.center(), axis=-1)
        got = ball.boundary_margin(d)
        assert_numpys(got, expected, bits=len(d) >= 2 or not np.isnan(d).any())
        if len(d):  # a lone point
            assert np.float64(ball.boundary_margin(d[0])).tobytes() == expected[:1].tobytes()


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
        record_steps(F, monkeypatch, lambda x: shapes.append(np.shape(x)))
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
        record_steps(F, monkeypatch, lambda x: calls.append(np.shape(x)))
        result = multistability_sweep(F, regions, torus, obs, None, washout_steps=50,
                                      record_steps=200, trajectory=traj)
        # one stacked run of all 250 steps, its rows judged alone: no (2,) re-drive
        # (the residual evals of the two kept regions call apply, not the kernel)
        assert [s for s in calls if s != (200, 2)] == [(3, 2)] * 250
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


def read_only(a):
    a.flags.writeable = False
    return a


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

    @pytest.mark.parametrize("func", [lambda x, z: x, lambda x, z: x[..., ::-1],
                                      lambda x, z: np.broadcast_to(z[..., :1], x.shape),
                                      lambda x, z: read_only(0.5 * x)])
    def test_prediction_that_is_not_its_own_array_is_left_alone(self, func, iv_drive):
        # a custom map may return a view of the values, a broadcast or a
        # read-only array: the differences then go into a new array
        F = CustomStateMap(func, state_dim=3, input_dim=1)
        obs = CustomObservation(lambda m: m[..., :1], obs_dim=1, phase_dim=3)
        values = iv_drive.values.copy()
        gs = replace(iv_drive, values=values)
        pred = func(values[:-1], iv_drive.points[1:, :1])
        want = np.linalg.norm(values[1:] - pred, axis=-1)
        assert recursion_residual(gs, F, obs) == (float(np.max(want)), float(np.mean(want)))
        assert values.tobytes() == iv_drive.values.tobytes()


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

    def test_echo_index_counts_connected_components(self, power_sine, torus, monkeypatch):
        # A and B are 10 apart; the hub C, listed last, meets each of them
        values = [np.zeros((11, 1)), np.full((11, 1), 10.0), np.arange(11.0)[:, None]]
        monkeypatch.setattr(gs_module, "_drive_regions",
                            lambda *args: [SimpleNamespace(values=v) for v in values])
        regions = [AxisBox([0.9] * 3, [1.1] * 3, label=label) for label in "ABC"]
        result = multistability_sweep(power_sine, regions, torus, CoordinateProjection([0], 2),
                                      None)
        assert result.separations == {("A", "B"): 10.0, ("A", "C"): 0.0, ("B", "C"): 0.0}
        assert result.echo_index == 1

    @pytest.mark.parametrize("labels, echo_index", [("", None), ("ABC", 2)])
    def test_labels_must_be_distinct(self, power_sine, torus, torus_traj, labels,
                                     echo_index, monkeypatch):
        # two boxes around (1, 1, 1) hold the same synchronization
        regions = [AxisBox([0.9] * 3, [1.1] * 3), AxisBox([0.8] * 3, [1.2] * 3),
                   AxisBox([-1.1] * 3, [-0.9] * 3)]
        for region, label in zip(regions, labels):
            region.label = label
        obs = CoordinateProjection([0], 2)
        if echo_index is None:
            driven = []
            original = gs_module._drive_regions
            monkeypatch.setattr(gs_module, "_drive_regions",
                                lambda *args: driven.append(1) or original(*args))
            with pytest.raises(ValueError, match="region label '' repeats"):
                multistability_sweep(power_sine, regions, torus, obs, None, washout_steps=50,
                                     record_steps=200, trajectory=torus_traj)
            assert driven == []
        else:
            result = multistability_sweep(power_sine, regions, torus, obs, None,
                                          washout_steps=50, record_steps=200,
                                          trajectory=torus_traj)
            assert len(result.separations) == 3 and result.echo_index == echo_index

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

    def test_shared_columns_are_keyed_by_their_bytes(self, tmp_path, iv_drive):
        # same shapes throughout; -0.0 == 0.0 and nan != nan, but their text differs
        # or matches by the bytes alone: one shared key per distinct column
        payload_nan = np.array([0x7FF8000000000001], dtype=np.uint64).view(np.float64)[0]
        points, values, res = (iv_drive.points.copy(), iv_drive.values.copy(),
                               iv_drive.residuals.copy())
        points[0, 0] = values[0, 0] = res[1] = 0.0
        signed = [a.copy() for a in (points, values, res)]
        signed[0][0, 0] = signed[1][0, 0] = signed[2][1] = -0.0
        nans = [a.copy() for a in (points, values, res)]
        nans[0][1, 1] = np.nan
        nans[1][1, 1] = -np.nan
        nans[2][2] = payload_nan
        infs = [points, values.copy(), res.copy()]
        infs[1][2, 2] = -np.inf
        infs[2][3:5] = [np.inf, -np.inf]
        # residuals with a value column's bytes: the same floats, as the last column
        as_last = [points, values, values[:, 0].copy()]
        variants = [(points, values, res, None), (*signed, None), (points, values, res, None),
                    (*nans, None), (*(a.copy() for a in nans), None), (*infs, None),
                    (*as_last, None), (points, values, res, 0.01), (*signed, 0.01)]
        shared, columns = {}, set()
        for p, v, r, scale in variants:
            gs = replace(iv_drive, points=p, values=v, residuals=r)
            write_gs_csv(gs, tmp_path / "shared.csv", time_scale=scale, shared=shared)
            write_gs_csv(gs, tmp_path / "alone.csv", time_scale=scale)
            assert (tmp_path / "shared.csv").read_bytes() == (tmp_path / "alone.csv").read_bytes()
            columns |= gs_columns(gs, scale)
        # 8 columns, then new: 3 signed zeros, 3 nans, 2 infinities, 1 column
        # as the last, 1 scaled t.  A column key starts with its separator; the
        # other entries are files', and each write dropped its file's last one
        column_keys = [key for key in shared if isinstance(key[0], str)]
        assert len(column_keys) == len(columns) == 18
        assert [at[0] for key, at in shared.items() if key not in column_keys] == \
            [os.path.realpath(tmp_path / "shared.csv")]
        rows = (tmp_path / "shared.csv").read_text().splitlines()[-len(iv_drive):]
        assert rows[0].startswith("20,-0,") and rows[0].endswith(",nan")
        assert rows[1].endswith(",-0")

    def test_a_repeated_body_is_copied_from_the_earlier_file(self, tmp_path, iv_drive,
                                                             monkeypatch):
        from gsync import _csvtext
        shared = {}
        write_gs_csv(iv_drive, tmp_path / "a.csv", metadata={"note": "a"}, shared=shared)

        def unused(*args):
            raise AssertionError("a repeated body is not rendered or joined again")

        monkeypatch.setattr(_csvtext, "column_fields", unused)
        monkeypatch.setattr(_csvtext, "fields_text", unused)
        other = replace(iv_drive, region_label="other")
        write_gs_csv(other, tmp_path / "b.csv", metadata={"note": "longer b"}, shared=shared)
        monkeypatch.undo()
        for gs, name, note in [(iv_drive, "a", "a"), (other, "b", "longer b")]:
            write_gs_csv(gs, tmp_path / "alone.csv", metadata={"note": note})
            assert (tmp_path / f"{name}.csv").read_bytes() == (tmp_path / "alone.csv").read_bytes()

    def test_a_rewritten_file_is_never_a_copy_source(self, tmp_path, iv_drive):
        # the same body to the same path renders again; so does the body of a
        # file that a later write replaced
        other = replace(iv_drive, values=-iv_drive.values)
        shared = {}
        for gs, name in [(iv_drive, "a"), (iv_drive, "a"), (other, "a"), (iv_drive, "b")]:
            write_gs_csv(gs, tmp_path / f"{name}.csv", shared=shared)
            write_gs_csv(gs, tmp_path / "alone.csv")
            assert (tmp_path / f"{name}.csv").read_bytes() == (tmp_path / "alone.csv").read_bytes()

    @settings(deadline=None, max_examples=60, derandomize=True)
    @given(data=st.data())
    def test_files_through_one_shared_map_are_their_lone_writes(self, tmp_path_factory, data):
        tmp_path = tmp_path_factory.mktemp("writes")
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, 1e300, 0.1]
        bits = st.one_of(st.sampled_from(special).map(lambda x: np.float64(x).view(np.uint64)),
                         st.integers(0, 2 ** 64 - 1))
        pools = {n: data.draw(st.lists(st.lists(bits, min_size=n, max_size=n), min_size=1,
                                       max_size=4)) for n in (2, 3)}
        pools = {n: np.array(pool, dtype=np.uint64).view(np.float64) for n, pool in pools.items()}

        def columns(n, k):  # k columns of n rows drawn from the pool: shared or not
            pick = data.draw(st.lists(st.integers(0, len(pools[n]) - 1), min_size=k, max_size=k))
            return pools[n][pick].T

        shared = {}
        for _ in range(data.draw(st.integers(1, 5))):
            n, pd, nd = data.draw(st.sampled_from([2, 3])), *data.draw(st.tuples(
                st.integers(1, 3), st.integers(1, 3)))
            gs = SampledGS(times=data.draw(st.integers(0, 5)) + np.arange(n),
                           points=columns(n, pd), values=columns(n, nd), method={"name": "x"},
                           residuals=columns(n, 1)[:, 0])
            scale = data.draw(st.sampled_from([None, 0.01]))
            write_gs_csv(gs, tmp_path / "shared.csv", time_scale=scale, shared=shared)
            write_gs_csv(gs, tmp_path / "alone.csv", time_scale=scale)
            assert (tmp_path / "shared.csv").read_bytes() == (tmp_path / "alone.csv").read_bytes()

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
