import numpy as np
import pytest

from gsync import (AxisBox, CatMap, CoordinateProjection, CustomObservation,
                   CustomStateMap, Esn, InputRange, LinearDelay, PowerSine,
                   WeightingSequence, derivative_profile, diagnostics, drive_gs,
                   esp_convergence, holder_exponent, input_forgetting,
                   psi_iterate_gs, run_recursion, weighted_distance)
from gsync.diagnostics import (_FORGET_CHUNK, _final_state, _median_spacing, _near_pairs,
                               _pairs_within)
from gsync.errors import DimensionMismatch, InsufficientPairs, LengthMismatch, NonFiniteError

from conftest import LORENZ_M0, esn_reservoir, traced_peak

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


class TestForgettingInChunks:
    """input_forgetting's recursions, run a chunk at a time."""

    @pytest.mark.parametrize("which", ["power_sine", "esn16"])
    @pytest.mark.parametrize("k", [0, 1, _FORGET_CHUNK - 1, _FORGET_CHUNK, _FORGET_CHUNK + 1,
                                   2 * _FORGET_CHUNK, 2 * _FORGET_CHUNK + 1, 200])
    def test_final_state_is_the_recursions_last_row(self, which, k, power_sine):
        F = power_sine if which == "power_sine" else esn_reservoir()
        rng = np.random.default_rng(k)
        x0 = rng.uniform(0.9, 1.1, size=(30, F.state_dim))
        z = rng.uniform(-15.0, 15.0, size=(k, 30, 1))
        got = _final_state(F, z, x0)
        assert got.tobytes() == run_recursion(F, z, x0)[-1].tobytes()
        assert got.flags.owndata  # no chunk's states outlive it

    @pytest.mark.parametrize("at", [5, _FORGET_CHUNK + 3, 3 * _FORGET_CHUNK])
    def test_non_finite_step_in_any_chunk_raises_the_recursions_error(self, at, power_sine):
        z = np.full((4 * _FORGET_CHUNK, 2, 1), 0.5)
        z[at, 1] = np.nan  # sin(nan): a nan state from step at + 1 on
        x0 = np.ones((2, 3))
        with pytest.raises(NonFiniteError) as want:
            run_recursion(power_sine, z, x0)
        with pytest.raises(NonFiniteError) as got:
            _final_state(power_sine, z, x0)
        assert str(got.value) == str(want.value) == "power-sine evaluation is non-finite"

    def test_no_input_still_checks_the_inputs(self, power_sine):
        with pytest.raises(DimensionMismatch, match="input has trailing dimension 2"):
            _final_state(power_sine, np.empty((0, 4, 2)), np.ones((4, 3)))

    def test_peak_does_not_grow_with_the_horizon_beyond_the_inputs(self):
        # 64 units, 100 trials: a state history would take 51 kB per step;
        # the peak may grow only by the inputs drawn for the longer suffix
        F = esn_reservoir(64)
        region = AxisBox(np.full(64, -1.0), np.full(64, 1.0))
        input_range = InputRange.of([-1.0], [1.0])
        short, long = (traced_peak(lambda: input_forgetting(F, region, input_range, k,
                                                            trials=100, rng=0))[0]
                       for k in (100, 600))
        assert long - short <= 500 * 100 * 8 + 16 * 1024


def kd_near_pairs(points, radius_factor, min_time_sep, pair_budget, rng, lexicographic=False):
    """The KD-tree near-pair search (scipy's cKDTree), as the probes ran it
    before the grid search; ``lexicographic`` sorts its pairs before the
    filters and the subsample."""
    from scipy.spatial import cKDTree
    tree = cKDTree(points)
    med = float(np.median(tree.query(points, k=2)[0][:, 1]))
    if med == 0.0:
        raise InsufficientPairs("degenerate sample: repeated phase points")
    radius = med * radius_factor
    pairs = tree.query_pairs(r=radius, output_type="ndarray")
    if len(pairs) == 0:
        raise InsufficientPairs("no near pairs within the search radius")
    if lexicographic:
        pairs = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
    pairs = pairs[np.abs(pairs[:, 0] - pairs[:, 1]) >= min_time_sep]
    if len(pairs) == 0:
        raise InsufficientPairs("all near pairs are temporal neighbors")
    dm = np.linalg.norm(points[pairs[:, 0]] - points[pairs[:, 1]], axis=-1)
    pos = dm > 0.0
    pairs, dm = pairs[pos], dm[pos]
    if len(pairs) > pair_budget:
        shells = np.clip(np.floor(np.log10(dm / dm.min()) * 4.0).astype(int), 0, 64)
        keep = []
        per_shell = max(pair_budget // (shells.max() + 1), 50)
        for s in np.unique(shells):
            idx = np.flatnonzero(shells == s)
            if len(idx) > per_shell:
                idx = rng.choice(idx, per_shell, replace=False)
            keep.append(idx)
        sel = np.concatenate(keep)
        pairs, dm = pairs[sel], dm[sel]
    return pairs, dm, radius


def near_pairs_outcome(search, points, radius_factor, min_time_sep, pair_budget=None, seed=0):
    """A search's pairs and distances in lexicographic order and its radius,
    or its InsufficientPairs text."""
    budget = len(points) ** 2 if pair_budget is None else pair_budget
    try:
        pairs, dm, radius = search(points, radius_factor, min_time_sep, budget,
                                   np.random.default_rng(seed))
    except InsufficientPairs as exc:
        return str(exc)
    order = np.lexsort((pairs[:, 1], pairs[:, 0]))
    return pairs[order].tolist(), dm[order].tolist(), radius


def brute_near_pairs(points, radius_factor, min_time_sep, pair_budget, rng):
    """The probes' near pairs from every pair's ``np.linalg.norm`` distance,
    with their filters and no subsample (the budget must hold every pair)."""
    n = len(points)
    i, j = np.triu_indices(n, 1)
    d = np.linalg.norm(points[i] - points[j], axis=-1)
    nearest = np.full(n, np.inf)
    np.minimum.at(nearest, i, d)
    np.minimum.at(nearest, j, d)
    med = float(np.median(nearest))
    if med == 0.0:
        raise InsufficientPairs("degenerate sample: repeated phase points")
    radius = med * radius_factor
    near = d <= radius
    if not near.any():
        raise InsufficientPairs("no near pairs within the search radius")
    near &= j - i >= min_time_sep
    if not near.any():
        raise InsufficientPairs("all near pairs are temporal neighbors")
    near &= d > 0.0
    assert np.count_nonzero(near) <= pair_budget
    return np.stack([i[near], j[near]], axis=1), d[near], radius


def wide_samples():
    """Samples with 8 or more coordinates, where distances take numpy's
    pairwise sum; the KD tree's median differs from it on some of them."""
    g = np.random.default_rng(20)
    return {f"{dim}d": g.normal(size=(400, dim)) for dim in (8, 9, 12)}


def shell_counts(dm):
    return np.bincount(np.clip(np.floor(np.log10(dm / dm.min()) * 4.0).astype(int), 0, 64))


def edge_samples():
    g = np.random.default_rng(19)
    t = np.linspace(0.0, 1.0, 300)
    few_repeats = g.normal(size=(300, 3))
    few_repeats[200:230] = few_repeats[:30]  # repeats far apart in time
    many_repeats = g.normal(size=(300, 3))
    many_repeats[g.permutation(300)[:180]] = [0.5, -0.25, 2.0]
    return {
        "1d": g.normal(size=(400, 1)),
        "5d": g.normal(size=(400, 5)),
        "repeats": few_repeats,
        "mostly_repeats": many_repeats,
        "line_in_3d": np.column_stack([t ** 2, np.zeros_like(t), np.full_like(t, 3.0)]),
        "cluster_and_outlier": np.vstack([1e-9 * g.normal(size=(300, 3)), [[1e6, -1e6, 5e5]]]),
        "two_points": np.array([[0.0, 0.0], [3.0, 4.0]]),
    }


class TestNearPairs:
    """The grid search against scipy's cKDTree, the search it replaced."""

    @pytest.fixture(scope="class")
    def samples(self, iv_gs, torus_delay_gs):
        cat = CatMap().trajectory([0.1234, 0.5678], 3000).points
        return {"section_iv": iv_gs.points, "torus": torus_delay_gs.points, "cat": cat}

    @pytest.mark.parametrize("name", ["section_iv", "torus", "cat"])
    def test_same_median_and_pairs_as_kd_tree(self, samples, name):
        spatial = pytest.importorskip("scipy.spatial")
        points = samples[name]
        med = float(np.median(spatial.cKDTree(points).query(points, k=2)[0][:, 1]))
        assert _median_spacing(points) == med
        for factor in (10.0, 3.0):
            for sep in (0, 10):
                assert (near_pairs_outcome(_near_pairs, points, factor, sep)
                        == near_pairs_outcome(kd_near_pairs, points, factor, sep))

    @pytest.mark.parametrize("name", list(edge_samples()))
    def test_edge_cases_as_kd_tree(self, name):
        spatial = pytest.importorskip("scipy.spatial")
        points = edge_samples()[name]
        med = float(np.median(spatial.cKDTree(points).query(points, k=2)[0][:, 1]))
        assert _median_spacing(points) == med
        for factor in (10.0, 3.0, 0.5):
            for sep in (0, 1, 10):
                assert (near_pairs_outcome(_near_pairs, points, factor, sep)
                        == near_pairs_outcome(kd_near_pairs, points, factor, sep))

    @pytest.mark.parametrize("name", list(wide_samples()))
    def test_wide_samples_as_brute_force(self, name):
        points = wide_samples()[name]
        # at radius factor 1 the radius is the median spacing
        assert _median_spacing(points) == brute_near_pairs(points, 1.0, 0, len(points) ** 2,
                                                           None)[2]
        for factor in (10.0, 3.0, 0.5):
            for sep in (0, 10):
                assert (near_pairs_outcome(_near_pairs, points, factor, sep)
                        == near_pairs_outcome(brute_near_pairs, points, factor, sep))

    @pytest.mark.parametrize("name", ["5d", "cluster_and_outlier"])
    def test_any_batch_size_gives_the_same_pairs(self, name, monkeypatch):
        points = edge_samples()[name]
        want = near_pairs_outcome(_near_pairs, points, 10.0, 0)
        monkeypatch.setattr(diagnostics, "_BATCH", 50)
        assert near_pairs_outcome(_near_pairs, points, 10.0, 0) == want
        assert _median_spacing(points) == _median_spacing(points[::-1])

    def test_subsample_takes_at_most_32_bytes_per_pair_found(self):
        # the cat map's phase points, as the cat_reservoir benchmark records
        # them: about 200 000 pairs within ten median spacings
        points = CatMap().trajectory([0.1, 0.3], 6000).points
        radius = 10.0 * _median_spacing(points)
        found = sum(len(sq) for *_, sq in _pairs_within(points, radius))
        peak, _ = traced_peak(lambda: _near_pairs(points, 10.0, 10, 4000,
                                                  np.random.default_rng(0)))
        assert found > 100_000 and peak <= 32 * found

    def test_repeated_points_drop_their_zero_distance_pairs(self):
        points = edge_samples()["repeats"]
        pairs, dm, _ = _near_pairs(points, 10.0, 10, 10 ** 6, None)
        assert np.all(dm > 0.0)
        assert not np.any(np.all(pairs == [[0, 200]], axis=1))
        with pytest.raises(InsufficientPairs, match="^degenerate sample"):
            _near_pairs(edge_samples()["mostly_repeats"], 10.0, 10, 10 ** 6, None)
        # two of three points coincide: the median spacing is 0
        assert _median_spacing(np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])) == 0.0

    @pytest.mark.parametrize("name", ["section_iv", "torus", "cat"])
    def test_pairs_in_lexicographic_order(self, samples, name):
        pairs, dm, _ = _near_pairs(samples[name], 10.0, 10, 10 ** 8, None)
        key = pairs[:, 0] * len(samples[name]) + pairs[:, 1]
        assert np.all(pairs[:, 0] < pairs[:, 1]) and np.all(np.diff(key) > 0)
        assert np.array_equal(
            dm, np.linalg.norm(samples[name][pairs[:, 0]] - samples[name][pairs[:, 1]], axis=-1))

    @pytest.mark.parametrize("name", ["section_iv", "torus", "cat"])
    @pytest.mark.parametrize("budget", [4000, 500])
    def test_subsample_depends_only_on_pair_set_and_seed(self, samples, name, budget):
        # the KD-tree's pairs, sorted, then its filters and subsample rule
        pytest.importorskip("scipy.spatial")
        got = _near_pairs(samples[name], 10.0, 10, budget, np.random.default_rng(4))
        want = kd_near_pairs(samples[name], 10.0, 10, budget, np.random.default_rng(4),
                             lexicographic=True)
        for a, b in zip(got, want, strict=True):
            assert np.array_equal(a, b)

    def test_profile_and_fit_without_subsample_equal_kd_path(self, iv_gs, monkeypatch):
        pytest.importorskip("scipy.spatial")
        budget = len(iv_gs.points) ** 2
        prof = derivative_profile(iv_gs, pair_budget=budget, rng=0)
        fit = holder_exponent(iv_gs, pair_budget=budget, rng=0)
        monkeypatch.setattr(diagnostics, "_near_pairs", kd_near_pairs)
        kd_prof = derivative_profile(iv_gs, pair_budget=budget, rng=0)
        kd_fit = holder_exponent(iv_gs, pair_budget=budget, rng=0)
        for field in ("bin_edges", "bin_counts", "bin_max_slope"):
            assert np.array_equal(getattr(prof, field), getattr(kd_prof, field))

        def rows(p):
            table = np.column_stack([p.pairs, p.dm, p.df, p.slopes])
            return table[np.lexsort((p.pairs[:, 1], p.pairs[:, 0]))]
        assert np.array_equal(rows(prof), rows(kd_prof))
        assert fit.gamma == pytest.approx(kd_fit.gamma, abs=1e-12)
        assert (fit.n_pairs, fit.window) == (kd_fit.n_pairs, kd_fit.window)

    @pytest.mark.parametrize("which", ["iv_gs", "torus_delay_gs"])
    def test_cli_budget_keeps_shell_counts_and_exponent(self, which, request, monkeypatch):
        # the subsample keeps other pairs than the KD-tree's order did, the
        # same number from each shell, and the exponent moves little
        pytest.importorskip("scipy.spatial")
        gs = request.getfixturevalue(which)
        prof = derivative_profile(gs, pair_budget=4000, rng=0)
        fit = holder_exponent(gs, pair_budget=4000, rng=0)
        monkeypatch.setattr(diagnostics, "_near_pairs", kd_near_pairs)
        kd_prof = derivative_profile(gs, pair_budget=4000, rng=0)
        kd_fit = holder_exponent(gs, pair_budget=4000, rng=0)
        assert np.array_equal(shell_counts(prof.dm), shell_counts(kd_prof.dm))
        assert abs(fit.gamma - kd_fit.gamma) <= 0.05
