import warnings

import numpy as np
import pytest

from gsync import (AxisBox, CoordinateProjection, CustomStateMap, Esn, InputRange,
                   LinearDelay, PowerSine, StateMap, Trajectory, cos_range, lipschitz_bounds,
                   psi_iterate_gs, run_recursion, shift_matrix, sin_range)
from gsync.errors import DimensionMismatch, DomainViolation, NonFiniteError
from gsync.statemaps import _CHUNK

from conftest import FIXED_POINTS, IV_ALPHA, IV_K, IV_LAMBDA, affine_half


def fd_jac_state(F, x, z, h=1e-7):
    cols = []
    for j in range(F.state_dim):
        e = np.zeros(F.state_dim)
        e[j] = h
        cols.append((F.eval(x + e, z) - F.eval(x - e, z)) / (2 * h))
    return np.stack(cols, axis=1)


def fd_jac_input(F, x, z, h=1e-7):
    cols = []
    for j in range(F.input_dim):
        e = np.zeros(F.input_dim)
        e[j] = h
        cols.append((F.eval(x, z + e) - F.eval(x, z - e)) / (2 * h))
    return np.stack(cols, axis=1)


def small_esn(scale=0.3, squashing="tanh", n=3):
    rng = np.random.default_rng(11)
    A = rng.normal(size=(n, n))
    A *= scale / np.linalg.svd(A, compute_uv=False)[0]
    C = rng.normal(size=(n, 1)) * 0.2
    zeta = rng.normal(size=n) * 0.1
    return Esn(A, C, zeta=zeta, squashing=squashing)


class Halving(StateMap):
    """A map that defines only ``apply``: F(x, z) = x / 2 + z_1."""

    def __init__(self):
        super().__init__(state_dim=2, input_dim=1)

    def apply(self, x, u):
        return 0.5 * x + u[..., :1]


class TestEvaluationContract:
    @pytest.mark.parametrize("batch", [None, 5])
    def test_eval_is_apply_after_input_terms(self, batch):
        F = Halving()
        rng = np.random.default_rng(21)
        x = rng.uniform(-1.0, 1.0, size=(2,) if batch is None else (batch, 2))
        z = rng.uniform(-1.0, 1.0, size=(1,) if batch is None else (batch, 1))
        assert np.array_equal(F.input_terms(z), z)
        assert np.array_equal(F.eval(x, z), F.apply(x, F.input_terms(z)))
        assert np.array_equal(F(x, z), F.eval(x, z))

    def test_default_rule_accepts_non_finite_states(self):
        F = Halving()
        assert F.nonfinite_error is None
        out = F.eval([np.nan, np.inf], [0.5])
        assert np.isnan(out[0]) and out[1] == np.inf

    def test_rule_set_on_the_class_is_checked_by_eval(self):
        class Strict(Halving):
            nonfinite_error = "halving is non-finite"

        F = Strict()
        assert np.array_equal(F.eval([1.0, 2.0], [0.5]), [1.0, 1.5])
        with pytest.raises(NonFiniteError, match="^halving is non-finite$"):
            F.eval([1.0, np.inf], [0.5])

    def test_a_map_without_apply_cannot_evaluate(self):
        F = StateMap(state_dim=2, input_dim=1)
        with pytest.raises(NotImplementedError):
            F.eval(np.zeros(2), [0.0])
        with pytest.raises(NotImplementedError):
            F.apply(np.zeros(2), np.zeros(1))

    def test_built_in_rules(self):
        assert PowerSine.nonfinite_error == "power-sine evaluation is non-finite"
        assert CustomStateMap.nonfinite_error == "custom state map returned non-finite values"
        assert Esn.nonfinite_error is None and LinearDelay.nonfinite_error is None
        # eval is written once, on the base class
        for cls in (Esn, LinearDelay, PowerSine, CustomStateMap):
            assert "eval" not in vars(cls) and "apply" in vars(cls)

    def test_custom_apply_is_the_function_unchecked(self):
        F = CustomStateMap(lambda x, z: np.where(x > 10.0, np.nan, 0.5 * x + z),
                           state_dim=2, input_dim=1)
        out = F.apply(np.array([20.0, 1.0]), np.array([0.5]))
        assert np.isnan(out[0]) and out[1] == 1.0
        with pytest.raises(NonFiniteError, match="^custom state map returned non-finite values$"):
            F.eval([20.0, 1.0], [0.5])


class TestTrigRanges:
    @pytest.mark.parametrize("a,b", [(-2.0, 2.0), (0.0, 0.5), (1.0, 9.0),
                                     (-1.8, 1.95), (3.0, 3.2), (-7.0, -6.0)])
    def test_against_dense_sampling(self, a, b):
        xs = np.linspace(a, b, 20001)
        for fn, rng_fn in ((np.sin, sin_range), (np.cos, cos_range)):
            lo, hi = rng_fn(a, b)
            vals = fn(xs)
            assert lo <= vals.min() + 1e-9 and lo >= vals.min() - 1e-7
            assert hi >= vals.max() - 1e-9 and hi <= vals.max() + 1e-7


    @pytest.mark.parametrize("a,b", [(np.nan, 1.0), (0.0, np.inf), (-np.inf, np.inf)])
    def test_non_finite_ends_rejected(self, a, b):
        for rng_fn in (sin_range, cos_range):
            with pytest.raises(ValueError, match="interval ends must be finite"):
                rng_fn(a, b)


class TestPowerSine:
    def test_overflowing_input_angles_take_a_full_period(self):
        # k * z overflows to -inf and inf: the closed forms use |sin| <= 1
        F = PowerSine(0.9, 0.009, 1e308)
        box = AxisBox([0.9] * 3, [1.1] * 3)
        bounds = F.analytic_lipschitz(box, InputRange.of([-2.0], [3.0]))
        assert bounds["l_fz"] == 0.009 * 1e308 * np.sqrt(2.0)
        # k = 10 spans more than a period on [-2, 3]: the same full ranges
        wide = PowerSine(0.9, 0.009, 10.0).interval_image(box.lo, box.hi, [-2.0], [3.0])
        for a, b in zip(F.interval_image(box.lo, box.hi, [-2.0], [3.0]), wide):
            assert np.array_equal(a, b)

    def test_second_derivative_bound_overflows_to_inf(self):
        F = PowerSine(0.5, 0.009, 0.1)
        bounds = F.analytic_lipschitz(AxisBox([1e-250] * 3, [1.0] * 3),
                                      InputRange.of([-1.0], [1.0]))
        assert bounds["l_fxx"] == np.inf and np.isfinite(bounds["l_fx"])

    @pytest.mark.parametrize("lo, hi", [([-0.1] * 3, [0.1] * 3),
                                        ([0.0, 0.9, 0.9], [0.2, 1.1, 1.1]),
                                        ([0.9, 0.9, -1.1], [1.1, 1.1, -0.0])])
    def test_box_reaching_a_coordinate_plane_has_infinite_bounds(self, lo, hi):
        bounds = PowerSine(0.9, 0.009, 0.1).analytic_lipschitz(
            AxisBox(lo, hi), InputRange.of([-1.0], [1.0]))
        assert bounds["l_fx"] == bounds["l_fxx"] == np.inf
        assert np.isfinite(bounds["l_fz"]) and bounds["l_fxz"] == 0.0

    def test_fixed_points_autonomous(self):
        F = PowerSine(0.9, 0.0, 0.1)
        for p in FIXED_POINTS:
            assert np.allclose(F.eval(p, [3.7]), p, atol=1e-15)

    def test_eval_known_value(self, power_sine):
        out = power_sine.eval([1.0, 1.0, 1.0], [0.0])
        assert np.allclose(out, [1.0, 1.009, 1.0], atol=1e-15)

    def test_jac_state_closed_form(self):
        F = PowerSine(0.9, 0.0, 0.1)
        J = F.jac_state(np.array([1.0, 1.0, 1.0]), [0.0])
        assert np.allclose(J, 0.9 * np.eye(3), atol=1e-15)

    def test_domain_violation_at_zero(self, power_sine):
        with pytest.raises(DomainViolation):
            power_sine.jac_state(np.array([0.0, 1.0, 1.0]), [0.0])
        with pytest.raises(DomainViolation):
            power_sine.second_partials(np.array([1.0, 0.0, 1.0]), [0.0])

    def test_second_partials_closed_form(self, power_sine):
        x = np.array([0.9, 1.0, 1.1])
        nxx, nxz = power_sine.second_partials(x, [0.5])
        expected = 0.9 * 0.1 * 0.9 ** (-1.1)
        assert nxx == pytest.approx(expected, rel=1e-12)
        assert nxz == 0.0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            PowerSine(1.0, 0.0, 0.1)
        with pytest.raises(ValueError):
            PowerSine(0.5, -1.0, 0.1)

    @pytest.mark.parametrize("alpha, lam, k", [
        (np.nan, 0.009, 0.1), (0.9, np.nan, 0.1), (0.9, 0.009, np.nan),
        (0.9, np.inf, 0.1), (0.9, 0.009, np.inf), (0.9, 0.009, -np.inf),
    ])
    def test_non_finite_parameters_rejected(self, alpha, lam, k):
        with pytest.raises(ValueError):
            PowerSine(alpha, lam, k)

    def test_interval_image_encloses_samples(self, power_sine):
        lo = np.array([0.9, 0.9, 0.9])
        hi = np.array([1.1, 1.1, 1.1])
        img_lo, img_hi = power_sine.interval_image(lo, hi, -20.0, 20.0)
        rng = np.random.default_rng(5)
        X = rng.uniform(lo, hi, size=(500, 3))
        Z = rng.uniform(-20.0, 20.0, size=(500, 1))
        vals = power_sine.eval(X, Z)
        assert np.all(vals >= img_lo - 1e-12) and np.all(vals <= img_hi + 1e-12)
        # the interval is attained up to sampling resolution
        assert np.all(vals.min(axis=0) <= img_lo + 5e-3)
        assert np.all(vals.max(axis=0) >= img_hi - 5e-3)

    def test_negative_box_symmetry(self, power_sine):
        # odd extension: the signed power part flips sign with the box
        lo, hi = power_sine.interval_image([-1.1] * 3, [-0.9] * 3, -20.0, 20.0)
        plo, phi = power_sine.interval_image([0.9] * 3, [1.1] * 3, -20.0, 20.0)
        lam_lo = plo - np.array([0.9 ** 0.9] * 3)
        assert np.allclose(lo, -np.array([1.1 ** 0.9] * 3) + lam_lo, atol=1e-12)
        assert np.all(lo < hi)


class TestLinearDelay:
    def test_eval_shift_by_hand(self):
        F = LinearDelay(q=3)
        x = np.arange(1.0, 8.0)
        out = F.eval(x, [9.0])
        assert np.allclose(out, [9.0, 1, 2, 3, 4, 5, 6], atol=0.0)

    def test_jacobians_exact(self):
        F = LinearDelay(q=2)
        assert np.array_equal(F.jac_state(np.zeros(5), [0.0]), shift_matrix(5))
        ji = F.jac_input(np.zeros(5), [0.0])
        assert ji.shape == (5, 1)
        assert ji[0, 0] == 1.0 and np.all(ji[1:] == 0.0)
        assert F.second_partials(np.zeros(5), [0.0]) == (0.0, 0.0)

    def test_shift_matrix_singular_values(self):
        # oracle: enumerate singular values of the hand-built shift matrix
        s = np.linalg.svd(shift_matrix(7), compute_uv=False)
        assert s[0] == pytest.approx(1.0, abs=1e-14)


def explicit_delay_esn(q):
    n = 2 * q + 1
    return Esn(shift_matrix(n), np.eye(n, 1), squashing="identity")


def delay_by_hand(x, z):
    """Oracle: the delay-line step (z, x_1, ..., x_{n-1}) of one state, by concatenation."""
    return np.concatenate([[z], x[:-1]])


# entries a delay line must copy bit for bit: signed zeros, infinities and a nan of each sign
SPECIAL = [-0.0, 0.0, np.inf, -np.inf, np.nan, -np.nan, 2.5, -1.25]


class TestLinearDelayIsAnEsn:
    @pytest.mark.parametrize("q", [1, 2, 3, 10])
    def test_derivatives_bounds_and_image_are_the_esns(self, q):
        F, E = LinearDelay(q), explicit_delay_esn(q)
        assert isinstance(F, Esn)
        assert F.sigma_max_A == F.sigma_max_C == 1.0
        assert E.sigma_max_A == E.sigma_max_C == 1.0
        X, Z = grid_points(F, 30)
        for x, z in ((X, Z), (X[0], Z), (X, Z[0]), (X[0], Z[0])):
            for name in ("jac_state", "jac_input"):
                assert np.array_equal(getattr(F, name)(x, z), getattr(E, name)(x, z))
            for a, b in zip(F.second_partials(x, z), E.second_partials(x, z)):
                assert np.array_equal(a, b)
        for name in ("jac_state_norms", "jac_input_norms"):
            assert np.array_equal(getattr(F, name)(X, Z), getattr(E, name)(X, Z))
        for a, b in zip(F.second_partial_norms(X, Z), E.second_partial_norms(X, Z)):
            assert np.array_equal(a, b)
        n = F.state_dim
        region, inputs = AxisBox([-1.0] * n, [1.5] * n), InputRange.of([-0.5], [1.0])
        assert F.analytic_lipschitz(region, inputs) == E.analytic_lipschitz(region, inputs) \
            == {"l_fx": 1.0, "l_fz": 1.0, "l_fxx": 0.0, "l_fxz": 0.0}
        rng = np.random.default_rng(q)
        lo = rng.uniform(-2.0, 0.0, size=n)
        hi = lo + rng.uniform(0.0, 2.0, size=n)
        img, ref = F.interval_image(lo, hi, -0.5, 1.0), E.interval_image(lo, hi, -0.5, 1.0)
        for a, b, by_hand in zip(img, ref, (delay_by_hand(lo, -0.5), delay_by_hand(hi, 1.0))):
            assert np.array_equal(a, b) and np.array_equal(a, by_hand)

    def test_eval_copies_special_entries(self):
        F = LinearDelay(3)
        x = np.array(SPECIAL[:7])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no 0 * inf, no inf - inf
            for z in SPECIAL:
                assert F.eval(x, [z]).tobytes() == delay_by_hand(x, z).tobytes()
                assert F(x, z).tobytes() == delay_by_hand(x, z).tobytes()
            X = np.array([np.roll(SPECIAL, k)[:7] for k in range(len(SPECIAL))])
            Z = np.array(SPECIAL)[:, None]
            ref = np.stack([delay_by_hand(x, z) for x, z in zip(X, Z[:, 0])])
            assert F.eval(X, Z).tobytes() == ref.tobytes()

    @pytest.mark.parametrize("batch", [False, True])
    def test_recursion_copies_special_entries(self, batch):
        F = LinearDelay(2)
        z = np.array(SPECIAL * 2)
        x0 = np.array([np.roll(SPECIAL, k)[:5] for k in range(3)]) if batch \
            else np.array(SPECIAL[3:8])
        states = run_recursion(F, z, x0)
        x, ref = x0, [x0]
        for zt in z:
            x = np.stack([delay_by_hand(r, zt) for r in x]) if batch else delay_by_hand(x, zt)
            ref.append(x)
        assert states.tobytes() == np.stack(ref).tobytes()

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf - inf changes
    def test_psi_copies_special_entries(self):
        # a projection copies the -0.0 coordinates of the points; the start holds the rest
        F = LinearDelay(2)
        points = np.column_stack([[0.5, -0.0, 0.25, -0.0, 0.0, -0.0, 1.0, -0.0], np.zeros(8)])
        traj = Trajectory(points=points)
        f0 = np.array([-0.0, np.inf, -np.inf, np.nan, -np.nan])
        gs = psi_iterate_gs(F, None, CoordinateProjection([0], 2), traj, f0, tol=0.0,
                            max_iters=3)
        z = points[:, 0]
        f = np.tile(f0, (len(z), 1))
        for _ in range(3):  # Jacobi sweeps, the left end's predecessor held at f0
            f = np.stack([delay_by_hand(f0, z[0])]
                         + [delay_by_hand(f[t - 1], z[t]) for t in range(1, len(z))])
        assert gs.values.tobytes() == f.tobytes()
        assert gs.method["n_iters"] == 3 and not gs.method["converged"]


class TestEsn:
    @pytest.mark.parametrize("A, C, zeta", [
        ([[np.nan, 0.0], [0.0, 0.1]], [[0.1], [0.1]], None),
        ([[0.3, 0.0], [0.0, 0.1]], [[np.inf], [0.1]], None),
        ([[0.3, 0.0], [0.0, 0.1]], [[0.1], [0.1]], [np.nan, 0.0]),
        ([[0.3, 0.0], [0.0, 0.1]], [[0.1], [0.1]], [0.0, -np.inf]),
    ])
    def test_rejects_non_finite_parameters(self, A, C, zeta):
        with pytest.raises(ValueError, match="must be finite"):
            Esn(A, C, zeta=zeta)

    def test_huge_weights_give_infinite_bounds(self):
        F = Esn([[1e308, 0.0], [0.0, 0.1]], [[0.1], [0.1]])
        bounds = F.analytic_lipschitz(AxisBox([-1.0] * 2, [1.0] * 2), InputRange.of([0.0], [1.0]))
        assert bounds["l_fxx"] == np.inf and bounds["l_fx"] == 1e308
        assert F.second_partials(np.zeros(2), [0.5])[0] == np.inf

    def test_zero_network_is_zero(self):
        F = Esn(np.zeros((4, 4)), np.zeros((4, 1)), squashing="tanh")
        assert np.allclose(F.eval(np.ones(4), [2.0]), 0.0, atol=0.0)

    @pytest.mark.parametrize("batch", [None, 7])
    def test_eval_is_apply_of_input_terms(self, batch):
        F = small_esn(n=16)
        rng = np.random.default_rng(4)
        x = rng.uniform(-1.0, 1.0, size=(16,) if batch is None else (batch, 16))
        z = rng.uniform(-2.0, 2.0, size=(1,) if batch is None else (batch, 1))
        assert np.array_equal(F.input_terms(z), z @ F.C.T + F.zeta)
        assert np.array_equal(F.eval(x, z), F.apply(x, F.input_terms(z)))

    def test_jacobians_match_fd_100_points(self):
        rng = np.random.default_rng(2)
        for F in (small_esn(0.3, "tanh"), small_esn(0.5, "logistic")):
            X = rng.uniform(-1.0, 1.0, size=(100, F.state_dim))
            Z = rng.uniform(-2.0, 2.0, size=(100, F.input_dim))
            for x, z in zip(X, Z):
                J = F.jac_state(x, z)
                rel = np.linalg.norm(J - fd_jac_state(F, x, z)) / max(1.0, np.linalg.norm(J))
                assert rel <= 1e-6
                Ji = F.jac_input(x, z)
                rel = np.linalg.norm(Ji - fd_jac_input(F, x, z)) / max(1.0, np.linalg.norm(Ji))
                assert rel <= 1e-6

    def test_affine_esn_second_partials_vanish(self):
        F = Esn(0.5 * np.eye(2), np.array([[1.0], [0.0]]), squashing="identity")
        assert F.second_partials(np.zeros(2), [0.0]) == (0.0, 0.0)

    def test_interval_image_encloses_samples(self):
        F = small_esn(0.3)
        lo, hi = -np.ones(3), np.ones(3)
        img_lo, img_hi = F.interval_image(lo, hi, [-2.0], [2.0])
        rng = np.random.default_rng(9)
        X = rng.uniform(lo, hi, size=(400, 3))
        Z = rng.uniform(-2, 2, size=(400, 1))
        vals = F.eval(X, Z)
        assert np.all(vals >= img_lo - 1e-12) and np.all(vals <= img_hi + 1e-12)

    def test_dimension_mismatch(self):
        F = small_esn()
        with pytest.raises(DimensionMismatch):
            F.eval(np.ones(2), [0.0])
        with pytest.raises(DimensionMismatch):
            F.eval(np.ones(3), np.ones(2))


class TestPowerSineJacFD:
    def test_jacobians_match_fd_100_points(self, power_sine):
        rng = np.random.default_rng(3)
        X = rng.uniform(0.9, 1.1, size=(100, 3))
        Z = rng.uniform(-20, 20, size=(100, 1))
        for x, z in zip(X, Z):
            J = power_sine.jac_state(x, z)
            rel = np.linalg.norm(J - fd_jac_state(power_sine, x, z)) / max(1.0, np.linalg.norm(J))
            assert rel <= 1e-6
            Ji = power_sine.jac_input(x, z)
            rel = np.linalg.norm(Ji - fd_jac_input(power_sine, x, z)) / max(1.0, np.linalg.norm(Ji))
            assert rel <= 1e-6


class TestLipschitzBounds:
    def test_power_sine_box_closed_form(self, power_sine):
        region = AxisBox([0.9] * 3, [1.1] * 3, label="V1")
        rng = InputRange.of([-20.0], [20.0])
        b = lipschitz_bounds(power_sine, region, rng, resolution=20, n_inputs=100)
        expected = 0.9 * 0.9 ** (-0.1)  # attained at the box corner 0.9
        assert b.analytic is not None
        assert b.l_fx == pytest.approx(expected, abs=1e-12)
        assert b.method == "analytic+grid"
        # grid supremum is a lower bound that the corner grid point attains
        assert b.grid["l_fx"] == pytest.approx(expected, abs=1e-9)
        # input derivative bound lam*k*sqrt(2) (sin(2kz) attains 1 on the range)
        assert b.l_fz == pytest.approx(IV_LAMBDA * IV_K * np.sqrt(2.0), rel=1e-12)
        assert b.l_fxz == 0.0

    def test_linear_delay_exactness(self):
        F = LinearDelay(q=3)
        region = AxisBox([-1.0] * 7, [1.0] * 7)
        b = lipschitz_bounds(F, region, InputRange.of([-2.0], [2.0]),
                             resolution=3, n_inputs=10)
        assert b.l_fx == 1.0 and b.l_fz == 1.0
        assert b.l_fxx == 0.0 and b.l_fxz == 0.0
        assert abs(b.grid["l_fx"] - b.analytic["l_fx"]) <= 1e-12
        assert abs(b.grid["l_fz"] - b.analytic["l_fz"]) <= 1e-12

    def test_affine_esn_exactness(self):
        F = Esn(0.5 * np.eye(2), np.array([[0.3], [0.1]]), squashing="identity")
        region = AxisBox([-1.0, -1.0], [1.0, 1.0])
        b = lipschitz_bounds(F, region, InputRange.of([-1.0], [1.0]),
                             resolution=5, n_inputs=7)
        assert abs(b.grid["l_fx"] - b.analytic["l_fx"]) <= 1e-12
        assert b.l_fx == pytest.approx(0.5, abs=1e-12)

    def test_esn_chain_rule_bound(self):
        F = small_esn(0.3, "tanh")
        region = AxisBox([-1.0] * 3, [1.0] * 3)
        b = lipschitz_bounds(F, region, InputRange.of([-2.0], [2.0]))
        assert b.analytic["l_fx"] == pytest.approx(0.3, rel=1e-12)
        assert b.grid["l_fx"] <= 0.3 + 1e-12
        assert b.l_fx == pytest.approx(0.3, rel=1e-12)

    def test_grid_sup_50_within_1e3(self, power_sine):
        region = AxisBox([0.9] * 3, [1.1] * 3)
        b = lipschitz_bounds(power_sine, region, InputRange.of([-20.0], [20.0]),
                             resolution=50, n_inputs=200)
        assert abs(b.grid["l_fx"] - 0.9 * 0.9 ** (-0.1)) <= 1e-3

    def test_contraction_realized_on_samples(self, power_sine):
        # sampled two-point contraction never exceeds the certified constant
        region = AxisBox([0.9] * 3, [1.1] * 3)
        b = lipschitz_bounds(power_sine, region, InputRange.of([-20.0], [20.0]))
        rng = np.random.default_rng(12)
        x1 = rng.uniform(0.9, 1.1, size=(1000, 3))
        x2 = rng.uniform(0.9, 1.1, size=(1000, 3))
        z = rng.uniform(-20, 20, size=(1000, 1))
        lhs = np.linalg.norm(power_sine.eval(x1, z) - power_sine.eval(x2, z), axis=-1)
        rhs = (b.l_fx + 1e-9) * np.linalg.norm(x1 - x2, axis=-1)
        assert np.all(lhs <= rhs)

    def test_contraction_realized_esn(self):
        F = small_esn(0.3)
        region = AxisBox([-1.0] * 3, [1.0] * 3)
        b = lipschitz_bounds(F, region, InputRange.of([-2.0], [2.0]))
        rng = np.random.default_rng(13)
        x1 = rng.uniform(-1, 1, size=(1000, 3))
        x2 = rng.uniform(-1, 1, size=(1000, 3))
        z = rng.uniform(-2, 2, size=(1000, 1))
        lhs = np.linalg.norm(F.eval(x1, z) - F.eval(x2, z), axis=-1)
        rhs = (b.l_fx + 1e-9) * np.linalg.norm(x1 - x2, axis=-1)
        assert np.all(lhs <= rhs)


def central_columns(f, x, h):
    # (f(x + h e_j) - f(x - h e_j)) / (2h), written out column by column
    cols = []
    for j in range(np.shape(x)[-1]):
        e = np.zeros(np.shape(x)[-1])
        e[j] = h
        cols.append((f(x + e) - f(x - e)) / (2.0 * h))
    return cols


class TestCustomStateMap:
    @staticmethod
    def coupled_map():
        def f(x, z):
            return 0.5 * np.tanh(x) + 0.2 * np.sin(x[..., ::-1] * z[..., :1]) + 0.1 * z[..., 1:] ** 2

        return CustomStateMap(f, state_dim=3, input_dim=2, fd_step=1e-6)

    def test_fd_derivatives_bit_identical_to_formulas(self):
        F = self.coupled_map()
        x, z = np.array([0.3, -0.7, 1.1]), np.array([0.4, -0.9])
        h = F.fd_step
        jx = np.stack(central_columns(lambda y: F.eval(y, z), x, h), axis=-1)
        jz = np.stack(central_columns(lambda y: F.eval(x, y), z, h), axis=-1)
        assert np.array_equal(F.jac_state(x, z), jx)
        assert np.array_equal(F.jac_input(x, z), jz)

        def jac_x(y, w):
            return np.stack(central_columns(lambda u: F.eval(u, w), y, h), axis=-1)

        hh = np.sqrt(h)
        nxx = 0.0
        for D in central_columns(lambda y: jac_x(y, z), x, hh):
            nxx = max(nxx, float(np.linalg.svd(D, compute_uv=False)[0]))
        nxz = 0.0
        for D in central_columns(lambda w: jac_x(x, w), z, hh):
            nxz = max(nxz, float(np.linalg.svd(D, compute_uv=False)[0]))
        assert np.array_equal(F.second_partials(x, z), (nxx, nxz))

    def test_fd_jac_state_on_a_batch(self):
        F = self.coupled_map()
        X = np.random.default_rng(2).uniform(-1, 1, size=(4, 3))
        z = np.array([0.4, -0.9])
        batch = F.jac_state(X, z)
        assert batch.shape == (4, 3, 3)
        for x, J in zip(X, batch):
            assert np.array_equal(J, F.jac_state(x, z))

    def test_fd_jacobians(self):
        def f(x, z):
            return 0.5 * np.tanh(x) + np.sin(z)

        F = CustomStateMap(f, state_dim=1, input_dim=1)
        x, z = np.array([0.3]), np.array([0.7])
        assert F.jac_state(x, z)[0, 0] == pytest.approx(0.5 * (1 - np.tanh(0.3) ** 2), rel=1e-6)
        assert F.jac_input(x, z)[0, 0] == pytest.approx(np.cos(0.7), rel=1e-6)

    def test_constant_map(self):
        w = np.array([2.0, -1.0])
        F = CustomStateMap(lambda x, z: np.broadcast_to(w, x.shape[:-1] + (2,)).copy(),
                           state_dim=2, input_dim=1)
        assert np.allclose(F.eval(np.zeros(2), [5.0]), w)
        nxx, nxz = F.second_partials(np.zeros(2), [0.0])
        assert nxx <= 1e-6 and nxz <= 1e-6


def fd_custom_map():
    return TestCustomStateMap.coupled_map()


# name -> (map, the derivatives that take a batch, rtol of a batch against its
# rows).  A CustomStateMap's second_partials takes one point, and
# affine_half's Jacobian callables return one matrix whatever the batch.  An
# Esn's (n, N) @ A^T may round differently from a lone row's x @ A^T, so its
# derivatives agree with the rows to a few eps, not bit for bit.
BATCH_CASES = {
    "esn-tanh": (lambda: small_esn(0.4, "tanh"), "all", 1e-14),
    "esn-logistic": (lambda: small_esn(0.4, "logistic"), "all", 1e-14),
    "esn-identity": (lambda: small_esn(0.4, "identity"), "all", 1e-14),
    "linear-delay": (lambda: LinearDelay(q=2), "all", 0.0),
    "power-sine": (lambda: PowerSine(IV_ALPHA, IV_LAMBDA, IV_K), "all", 0.0),
    "affine-half": (lambda: affine_half(3), "none", 0.0),
    "custom-fd": (fd_custom_map, "jacobians", 0.0),
}


def assert_rows(batch, rows, rtol):
    if rtol == 0.0:
        assert np.array_equal(batch, rows)
    else:
        np.testing.assert_allclose(batch, rows, rtol=rtol, atol=0.0)


def grid_points(F, n, seed=8):
    """n rows of states (off the coordinate planes) and inputs."""
    rng = np.random.default_rng(seed)
    X = rng.choice([-1.0, 1.0], size=(n, F.state_dim)) * rng.uniform(0.5, 1.5, size=(n, F.state_dim))
    return X, rng.uniform(-2.0, 2.0, size=(n, F.input_dim))


@pytest.mark.parametrize("name", list(BATCH_CASES))
def test_batch_norms_match_pointwise(name):
    make, batched, rtol = BATCH_CASES[name]
    F = make()
    X, Z = grid_points(F, 40)
    rows = list(zip(X, Z))
    pairs = np.array([F.second_partials(x, z) for x, z in rows], dtype=float)
    if batched != "none":
        for jac in (F.jac_state, F.jac_input):
            assert_rows(jac(X, Z), np.stack([jac(x, z) for x, z in rows]), rtol)
    if batched == "all":
        assert_rows(np.stack(F.second_partials(X, Z), axis=-1), pairs, rtol)
    for norms, jac in ((F.jac_state_norms, F.jac_state), (F.jac_input_norms, F.jac_input)):
        ref = [np.linalg.svd(jac(x, z), compute_uv=False)[0] for x, z in rows]
        np.testing.assert_allclose(norms(X, Z), ref, rtol=1e-12, atol=0.0)
    assert_rows(np.stack(F.second_partial_norms(X, Z), axis=-1), pairs, rtol)


def test_batched_derivatives_broadcast_like_eval():
    # one state against a batch of inputs, and a batch of states against one input
    for make, _, rtol in [BATCH_CASES[k] for k in ("esn-tanh", "linear-delay", "power-sine")]:
        F = make()
        X, Z = grid_points(F, 5)
        for x, z in ((X[0], Z), (X, Z[0])):
            n = F.state_dim
            assert F.jac_state(x, z).shape == (5, n, n)
            assert F.jac_input(x, z).shape == (5, n, F.input_dim)
            assert all(p.shape == (5,) for p in F.second_partials(x, z))
            rows = [(x, z[i]) if x.ndim == 1 else (x[i], z) for i in range(5)]
            for jac in (F.jac_state, F.jac_input):
                assert_rows(jac(x, z), np.stack([jac(*row) for row in rows]), rtol)


@pytest.mark.parametrize("squashing", ["tanh", "logistic", "identity"])
def test_esn_grid_norms_pinned_to_formulas(squashing):
    # svd(sigma'(pre)[:, None] * M), _CHUNK rows at a time, across a chunk boundary
    F = small_esn(0.4, squashing)
    X, Z = grid_points(F, _CHUNK + 5)
    norms = {"A": [], "C": []}
    for i in range(0, len(X), _CHUNK):
        d = F.squashing.deriv(X[i:i + _CHUNK] @ F.A.T + (Z[i:i + _CHUNK] @ F.C.T + F.zeta))
        for key, M in (("A", F.A), ("C", F.C)):
            norms[key].append(np.linalg.svd(d[:, :, None] * M, compute_uv=False)[:, 0])
    assert np.array_equal(F.jac_state_norms(X, Z), np.concatenate(norms["A"]))
    assert np.array_equal(F.jac_input_norms(X, Z), np.concatenate(norms["C"]))
    m2 = np.max(np.abs(F.squashing.deriv2(X @ F.A.T + (Z @ F.C.T + F.zeta))), axis=-1)
    nxx, nxz = F.second_partial_norms(X, Z)
    assert np.array_equal(nxx, m2 * F.sigma_max_A ** 2)
    assert np.array_equal(nxz, m2 * F.sigma_max_A * F.sigma_max_C)


def test_linear_delay_grid_norms_exact():
    F = LinearDelay(q=3)
    X, Z = grid_points(F, 60)
    assert np.array_equal(F.jac_state_norms(X, Z), np.ones(60))
    assert np.array_equal(F.jac_input_norms(X, Z), np.ones(60))
    nxx, nxz = F.second_partial_norms(X, Z)
    assert np.array_equal(nxx, np.zeros(60)) and np.array_equal(nxz, np.zeros(60))


def test_power_sine_grid_norms_pinned_to_formulas(power_sine):
    a, lam, k = IV_ALPHA, IV_LAMBDA, IV_K
    X, Z = grid_points(power_sine, 60)
    m = np.min(np.abs(X), axis=-1)
    assert np.array_equal(power_sine.jac_state_norms(X, Z), a * m ** (a - 1.0))
    assert np.array_equal(power_sine.jac_input_norms(X, Z),
                          lam * k * np.sqrt(1.0 + np.sin(2.0 * k * Z[:, 0]) ** 2))
    nxx, nxz = power_sine.second_partial_norms(X, Z)
    assert np.array_equal(nxx, a * (1.0 - a) * m ** (a - 2.0))
    assert np.array_equal(nxz, np.zeros(60))
