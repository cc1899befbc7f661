import numpy as np
import pytest

from gsync import (AxisBox, CoordinateProjection, CustomObservation,
                   CustomStateMap, Esn, InputRange, LinearDelay, PowerSine,
                   WeightingSequence, derivative_profile, drive_gs,
                   esp_convergence, holder_exponent, input_forgetting,
                   psi_iterate_gs, weighted_distance)
from gsync.errors import InsufficientPairs, LengthMismatch

from conftest import LORENZ_M0, esn_reservoir

IV_LFX = 0.9 * 0.9 ** (-0.1)


def smooth_torus_obs():
    # sin(2 pi m1): continuously differentiable on the quotient torus, unlike
    # the raw coordinate projection which jumps at the wrap
    return CustomObservation(
        lambda m: np.sin(2.0 * np.pi * m[..., :1]), obs_dim=1, phase_dim=2,
        jacobian=lambda m: np.array([[2.0 * np.pi * np.cos(2.0 * np.pi * m[0]), 0.0]]))


def loop_esp_convergence(F, inputs, x0a, x0b):
    # step-by-step reference: two lone states, one norm per step
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    xa = np.asarray(x0a, dtype=float).copy()
    xb = np.asarray(x0b, dtype=float).copy()
    out = np.empty(len(inputs) + 1)
    out[0] = np.linalg.norm(xa - xb)
    for t, z in enumerate(inputs):
        xa = F.eval(xa, z)
        xb = F.eval(xb, z)
        out[t + 1] = np.linalg.norm(xa - xb)
    return out


def loop_input_forgetting(F, region, input_range, suffix_len, trials, prefix_len, g):
    # step-by-step reference, drawing each step's inputs as it goes
    xa = region.sample(trials, g)
    xb = region.sample(trials, g)
    d = input_range.dim
    for _ in range(prefix_len):
        xa = F.eval(xa, g.uniform(input_range.lo, input_range.hi, size=(trials, d)))
        xb = F.eval(xb, g.uniform(input_range.lo, input_range.hi, size=(trials, d)))
    for _ in range(suffix_len):
        z = g.uniform(input_range.lo, input_range.hi, size=(trials, d))
        xa = F.eval(xa, z)
        xb = F.eval(xb, z)
    return float(np.max(np.linalg.norm(xa - xb, axis=-1)))


@pytest.fixture(scope="module")
def torus_delay_gs(torus):
    obs = smooth_torus_obs()
    traj = torus.trajectory([0.13, 0.41], 4000)
    return psi_iterate_gs(LinearDelay(q=3), torus, obs, traj,
                          f0_const=np.zeros(7), tol=1e-13, max_iters=30,
                          record_from=6)


@pytest.fixture(scope="module")
def iv_gs(power_sine, lorenz, lorenz_obs, lorenz_traj, eight_boxes):
    return drive_gs(power_sine, lorenz, lorenz_obs, LORENZ_M0, [1.0] * 3,
                    washout_steps=2000, record_steps=2000,
                    region=eight_boxes[0], trajectory=lorenz_traj)


class TestWeightingSequence:
    def test_geometric_weights(self):
        w = WeightingSequence.geometric(0.5)
        assert np.allclose(w.weights(4), [1.0, 0.5, 0.25, 0.125])

    def test_custom_validation(self):
        WeightingSequence(weights=[1.0, 0.9, 0.5])
        with pytest.raises(ValueError):
            WeightingSequence(weights=[0.9, 0.5])  # w0 must be 1
        with pytest.raises(ValueError):
            WeightingSequence(weights=[1.0, 1.0, 0.5])  # strictly decreasing
        with pytest.raises(ValueError):
            WeightingSequence(weights=[1.0, 0.5], ratio=0.5)


class TestWeightedDistance:
    def test_identical_windows(self):
        w = WeightingSequence.geometric(0.7)
        a = np.random.default_rng(0).normal(size=(10, 2))
        assert weighted_distance(a, a, w) == 0.0

    @pytest.mark.parametrize("lag", [0, 3, 7])
    def test_single_entry_difference(self, lag):
        w = WeightingSequence.geometric(0.6)
        a = np.zeros((10, 1))
        b = np.zeros((10, 1))
        b[lag, 0] = 0.25
        assert weighted_distance(a, b, w) == pytest.approx(0.25 * 0.6 ** lag, rel=1e-14)

    def test_lag_zero_is_unweighted(self):
        w = WeightingSequence.geometric(0.3)
        a = np.zeros((5, 3))
        b = a.copy()
        b[0] = [3.0, 4.0, 0.0]
        assert weighted_distance(a, b, w) == pytest.approx(5.0, rel=1e-14)

    def test_length_mismatch(self):
        w = WeightingSequence.geometric(0.5)
        with pytest.raises(LengthMismatch):
            weighted_distance(np.zeros((3, 1)), np.zeros((4, 1)), w)

    def test_pseudo_metric_on_random_triples(self):
        w = WeightingSequence.geometric(0.8)
        rng = np.random.default_rng(17)
        for _ in range(200):
            a, b, c = rng.normal(size=(3, 6, 2))
            dab = weighted_distance(a, b, w)
            dba = weighted_distance(b, a, w)
            assert dab == dba
            assert dab <= weighted_distance(a, c, w) + weighted_distance(c, b, w) + 1e-12
        a = rng.normal(size=(6, 2))
        assert weighted_distance(a, a.copy(), w) == 0.0


class TestEspConvergence:
    def test_equal_starts_all_zero(self, power_sine, lorenz_z):
        d = esp_convergence(power_sine, lorenz_z[1:50], np.ones(3), np.ones(3))
        assert np.all(d == 0.0)

    def test_section_iv_geometric_envelope(self, power_sine, lorenz_z):
        d = esp_convergence(power_sine, lorenz_z[1:501],
                            np.array([1.0, 1.0, 1.0]), np.array([1.1, 1.1, 1.1]))
        t = np.arange(301)
        assert np.all(d[:301] <= d[0] * 0.90953 ** t + 1e-14)
        assert d[300] < 1e-12
        # per-step ratios below the certified constant (float noise floor guard)
        mask = d[:-1] > 1e-12
        ratios = d[1:][mask] / d[:-1][mask]
        assert np.max(ratios) <= IV_LFX + 1e-6

    def test_scalar_input_sequence(self):
        # a 1-D sequence of length T is T scalar inputs, not one T-vector input
        F = PowerSine(0.9, 0.009, 0.1)
        x, y = np.array([1.0, 1.0, 1.0]), np.array([1.1, 0.9, 1.05])
        d = esp_convergence(F, np.zeros(5), x, y)
        assert d.shape == (6,)
        assert np.array_equal(d, esp_convergence(F, np.zeros((5, 1)), x, y))

    def test_single_scalar_input(self):
        # a 0-d input is one step of one scalar input
        F = PowerSine(0.9, 0.009, 0.1)
        x, y = np.array([1.0, 1.0, 1.0]), np.array([1.1, 0.9, 1.05])
        d = esp_convergence(F, 0.5, x, y)
        assert d.shape == (2,)
        assert np.array_equal(d, esp_convergence(F, [[0.5]], x, y))
        assert d[1] == np.linalg.norm(F.eval(x, [0.5]) - F.eval(y, [0.5]))

    def test_esn_contraction_rate(self):
        rng = np.random.default_rng(23)
        A = rng.normal(size=(4, 4))
        A *= 0.3 / np.linalg.svd(A, compute_uv=False)[0]
        F = Esn(A, rng.normal(size=(4, 1)), squashing="tanh")
        inputs = rng.uniform(-1, 1, size=(60, 1))
        d = esp_convergence(F, inputs, np.zeros(4), 0.5 * np.ones(4))
        t = np.arange(61)
        assert np.all(d <= d[0] * 0.3 ** t + 1e-13)


class TestInputForgetting:
    def test_zero_suffix_bounded_by_diameter(self, power_sine, eight_boxes):
        box = eight_boxes[0]
        worst = input_forgetting(power_sine, box, InputRange.of([-20.0], [20.0]),
                                 suffix_len=0, trials=50, rng=0)
        assert worst <= box.diameter()

    @pytest.mark.parametrize("k", [1, 5, 20, 100, 200])
    def test_section_iv_geometric_bound(self, power_sine, eight_boxes, k):
        box = eight_boxes[0]
        worst = input_forgetting(power_sine, box, InputRange.of([-20.0], [20.0]),
                                 suffix_len=k, trials=100, rng=0)
        assert worst <= IV_LFX ** k * box.diameter() + 1e-12

    def test_esn_geometric_bound(self):
        rng = np.random.default_rng(29)
        A = rng.normal(size=(3, 3))
        A *= 0.3 / np.linalg.svd(A, compute_uv=False)[0]
        F = Esn(A, rng.normal(size=(3, 1)) * 0.3, squashing="tanh")
        box = AxisBox([-1.0] * 3, [1.0] * 3)
        worst = input_forgetting(F, box, InputRange.of([-1.0], [1.0]),
                                 suffix_len=20, trials=100, rng=1)
        assert worst <= 0.3 ** 20 * box.diameter() + 1e-12


class TestDerivativeProfile:
    def test_constant_map_zero_slopes(self, torus):
        w = np.array([0.7, -0.1])
        F = CustomStateMap(lambda x, z: np.broadcast_to(w, x.shape[:-1] + (2,)).copy(),
                           state_dim=2, input_dim=1)
        traj = torus.trajectory([0.13, 0.41], 1500)
        gs = drive_gs(F, torus, CoordinateProjection([0], 2), [0.13, 0.41],
                      w, washout_steps=10, record_steps=1400, trajectory=traj)
        prof = derivative_profile(gs, pair_budget=2000, rng=0)
        assert np.all(prof.slopes == 0.0)

    def test_torus_delay_slopes_bounded_by_differential(self, torus, torus_delay_gs):
        # closed form: f_j(m) = sin(2 pi (m1 - j theta1)), so the operator norm
        # of Df is at most 2 pi sqrt(7) everywhere
        prof = derivative_profile(torus_delay_gs, pair_budget=4000, rng=0)
        bound = 2.0 * np.pi * np.sqrt(7.0)
        assert np.all(prof.slopes <= bound * 1.02)

    def test_torus_delay_finest_bin_matches_directional_derivative(self, torus, torus_delay_gs):
        prof = derivative_profile(torus_delay_gs, pair_budget=4000, rng=0)
        theta1 = torus.angles[0]
        finest = prof.dm <= prof.bin_edges[1]
        pairs = prof.pairs[finest]
        pts = torus_delay_gs.points
        mids = 0.5 * (pts[pairs[:, 0]] + pts[pairs[:, 1]])
        units = (pts[pairs[:, 0]] - pts[pairs[:, 1]])
        units /= np.linalg.norm(units, axis=1, keepdims=True)
        lags = np.arange(7)
        # ||Df(mid) . u|| = 2 pi |u_1| sqrt(sum_j cos^2(2 pi (m1 - j theta1)))
        cosines = np.cos(2.0 * np.pi * (mids[:, :1] - lags * theta1))
        predicted = 2.0 * np.pi * np.abs(units[:, 0]) * np.linalg.norm(cosines, axis=1)
        observed = prof.slopes[finest]
        solid = predicted > 0.05 * predicted.max()
        ratios = observed[solid] / predicted[solid]
        assert 0.9 <= np.median(ratios) <= 1.1

    def test_lorenz_gs_slopes_bounded_across_bins(self, iv_gs):
        prof = derivative_profile(iv_gs, pair_budget=4000, rng=0)
        occupied = prof.bin_counts > 0
        assert np.all(prof.bin_max_slope[occupied] <= 1.0)
        finest = np.flatnonzero(occupied)[0]
        coarsest = np.flatnonzero(occupied)[-1]
        assert prof.bin_max_slope[finest] <= 3.0 * prof.bin_max_slope[coarsest]

    def test_insufficient_pairs(self, torus, power_sine):
        traj = torus.trajectory([0.1, 0.2], 30)
        F = LinearDelay(q=1)
        gs = psi_iterate_gs(F, torus, CoordinateProjection([0], 2), traj,
                            f0_const=np.zeros(3), tol=0.0, max_iters=3)
        with pytest.raises(InsufficientPairs):
            derivative_profile(gs, pair_budget=100, rng=0)


class TestHolderExponent:
    def test_torus_delay_near_unit_exponent(self, torus_delay_gs):
        fit = holder_exponent(torus_delay_gs, pair_budget=4000, rng=0)
        assert 0.9 <= fit.gamma <= 1.1
        assert fit.r_squared >= 0.8
        assert not fit.degenerate

    def test_constant_map_degenerate(self, torus):
        w = np.array([0.7, -0.1])
        F = CustomStateMap(lambda x, z: np.broadcast_to(w, x.shape[:-1] + (2,)).copy(),
                           state_dim=2, input_dim=1)
        traj = torus.trajectory([0.13, 0.41], 1500)
        gs = drive_gs(F, torus, CoordinateProjection([0], 2), [0.13, 0.41],
                      w, washout_steps=10, record_steps=1400, trajectory=traj)
        fit = holder_exponent(gs, pair_budget=2000, rng=0)
        assert fit.degenerate
        assert fit.gamma == float("inf")

    def test_lorenz_gs_exponent_consistent_with_smoothness(self, iv_gs):
        # the spread of slope directions on the attractor keeps the fit loose,
        # so only the exponent itself is asserted here
        fit = holder_exponent(iv_gs, pair_budget=4000, rng=0)
        assert fit.gamma >= 0.9


class TestStepLoopEquivalence:
    """esp_convergence and input_forgetting give the bits of their step loops."""

    @pytest.mark.parametrize("which", ["power_sine", "esn16"])
    def test_esp_convergence(self, which, power_sine, lorenz_z):
        F = power_sine if which == "power_sine" else esn_reservoir()
        rng = np.random.default_rng(11)
        x0a, x0b = rng.uniform(0.9, 1.1, size=(2, F.state_dim))
        z = lorenz_z[1:401]
        assert np.array_equal(esp_convergence(F, z, x0a, x0b),
                              loop_esp_convergence(F, z, x0a, x0b))

    @pytest.mark.parametrize("which", ["power_sine", "esn16"])
    def test_input_forgetting_values_and_generator_state(self, which, power_sine):
        F = power_sine if which == "power_sine" else esn_reservoir()
        region = AxisBox(np.full(F.state_dim, 0.9), np.full(F.state_dim, 1.1))
        input_range = InputRange.of([-15.0], [15.0])
        g_new = np.random.default_rng(5)
        g_ref = np.random.default_rng(5)
        # one Generator shared across suffix lengths, as the CLI does
        for k in (0, 1, 5, 40):
            got = input_forgetting(F, region, input_range, k, trials=30,
                                   prefix_len=7, rng=g_new)
            want = loop_input_forgetting(F, region, input_range, k, 30, 7, g_ref)
            assert got == want
            assert g_new.bit_generator.state == g_ref.bit_generator.state
