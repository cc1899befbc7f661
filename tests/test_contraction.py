import warnings

import numpy as np
import pytest

from gsync import (AxisBox, Ball, CatMap, CoordinateProjection, CustomObservation,
                   CustomStateMap, Esn, InputRange, LinearDelay, OrbitConstants, PowerSine,
                   RegionIntersection, absorbing_set, certify, check_invariance, contraction,
                   lipschitz_bounds)
from gsync.contraction import ContractionCertificate
from gsync.errors import NonFiniteError, NotAContraction
from gsync.statemaps import LipschitzBounds

from conftest import IV_LAMBDA, affine_half, esn_reservoir

GOLDEN_CAT_NORM = (3.0 + np.sqrt(5.0)) / 2.0


def esn_on_cat(scale):
    A = scale * np.eye(2)
    C = np.array([[0.1], [0.1]])
    return Esn(A, C, squashing="tanh")


class TestRegionValidation:
    @pytest.mark.parametrize("lo, hi", [
        ([0.9, 0.9, 0.9], [1.1, 1.1, np.inf]),
        ([-np.inf, 0.9], [1.1, 1.1]),
        ([np.nan, 0.9], [1.1, 1.1]),
    ])
    def test_box_rejects_non_finite_bounds(self, lo, hi):
        with pytest.raises(ValueError, match="box bounds must be finite"):
            AxisBox(lo, hi)

    @pytest.mark.parametrize("center, radius", [
        ([0.0, np.nan], 1.0), ([np.inf, 0.0], 1.0),
        ([0.0, 0.0], np.inf), ([0.0, 0.0], np.nan),
    ])
    def test_ball_rejects_non_finite_center_or_radius(self, center, radius):
        with pytest.raises(ValueError):
            Ball(center, radius)

    @pytest.mark.parametrize("center, radius", [([1e308, 0.0], 0.2), ([1e308, 0.0], 1e308)])
    def test_ball_rejects_radius_lost_or_overflowing(self, center, radius):
        with pytest.raises(ValueError, match="must be finite and distinct"):
            Ball(center, radius)

    def test_ball_overflow_rejected_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="must be finite and distinct"):
                Ball([1e308, 0.0], 1e308)


def old_ball_grid(ball, resolution, rng):
    # the construction that always built the bounding box's grid
    c, r = ball.center(), ball.radius
    pts = AxisBox(c - r, c + r).grid(resolution, rng=rng)
    inside = pts[ball.contains(pts)]
    if len(inside) < max(resolution, 8):
        inside = np.vstack([inside, ball.sample(max(resolution, 8), rng)])
    return np.vstack([inside, c[None, :]])


class TestBallGrid:
    @pytest.mark.parametrize("dim", [1, 2, 3, 8, 16])
    @pytest.mark.parametrize("resolution", [2, 3, 4, 5])
    @pytest.mark.parametrize("seeded", [True, False])
    def test_grid_matches_full_construction(self, dim, resolution, seeded):
        centers = np.random.default_rng(dim).normal(size=(2, dim)) * [[1.0], [1e6]]
        for center, radius in [(np.zeros(dim), 1.0), (centers[0], 0.3), (centers[1], 1e-3)]:
            ball = Ball(center, radius)
            if seeded:
                got, want = ball.grid(resolution, rng=11), old_ball_grid(ball, resolution, 11)
            else:
                rng_new, rng_old = np.random.default_rng(11), np.random.default_rng(11)
                got = ball.grid(resolution, rng=rng_new)
                want = old_ball_grid(ball, resolution, rng_old)
                # nothing extra is drawn: both generators end in the same state
                assert rng_new.random() == rng_old.random()
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("resolution", [2, 3])
    def test_grid_points_on_the_sphere_are_kept(self, resolution):
        # the nearest grid point lies exactly on the boundary: borderline, so
        # the grid is built and that point kept
        ball = Ball([0.0], 1.0)
        got = ball.grid(resolution, rng=0)
        assert np.array_equal(got, old_ball_grid(ball, resolution, 0))
        assert got[0, 0] == -1.0

    @pytest.mark.parametrize("resolution", [1, 0])
    def test_grid_rejects_resolution_below_two(self, resolution):
        with pytest.raises(ValueError, match="resolution must be >= 2"):
            Ball(np.zeros(16), 1.0).grid(resolution)

    def test_high_dimensional_ball_skips_the_vertex_grid(self, monkeypatch):
        def vertices(*args, **kwargs):
            raise AssertionError("the 2^16 box vertices were built")

        monkeypatch.setattr(AxisBox, "grid", vertices)
        got = Ball(np.zeros(16), 1.0).grid(2, rng=4)
        assert got.shape == (9, 16) and np.array_equal(got[-1], np.zeros(16))


class TestCheckInvariance:
    def test_eight_boxes_exact_interval(self, power_sine, eight_boxes):
        # oracle: the conservative componentwise image [0.9^0.9 - lam, 1.1^0.9 + lam]
        lam = IV_LAMBDA
        img = (0.9 ** 0.9 - lam, 1.1 ** 0.9 + lam)
        assert img[0] >= 0.9 and img[1] <= 1.1
        oracle_margin = min(img[0] - 0.9, 1.1 - img[1])
        rng = InputRange.of([-20.0], [20.0])
        for box in eight_boxes:
            res = check_invariance(power_sine, box, rng)
            assert res.method == "interval"
            assert res.ok
            assert res.margin >= oracle_margin - 1e-12
            assert res.margin >= 4e-4

    def test_fixed_point_ball_lambda_zero(self):
        from gsync import PowerSine
        F = PowerSine(0.9, 0.0, 0.1)
        ball = Ball([1.0, 1.0, 1.0], 1e-6)
        res = check_invariance(F, ball, InputRange.of([-20.0], [20.0]),
                               resolution=4, n_inputs=5)
        assert res.ok and res.margin >= 0.0

    def test_linear_delay_escapes_small_ball(self):
        F = LinearDelay(q=1)
        res = check_invariance(F, Ball(np.zeros(3), 1.0), InputRange.of([-2.0], [2.0]),
                               resolution=4, n_inputs=9)
        assert not res.ok
        assert res.margin < 0.0

    def test_interval_beats_sampling_verdicts(self, power_sine, eight_boxes):
        # refining the sampled check never overturns the exact interval verdict
        rng = InputRange.of([-20.0], [20.0])
        box = eight_boxes[0]
        exact = check_invariance(power_sine, box, rng)
        for resolution in (5, 11, 21):
            X = box.grid(resolution)
            Z = rng.samples(50)
            images = power_sine.eval(np.repeat(X, len(Z), axis=0),
                                     np.tile(Z, (len(X), 1)))
            margin = float(np.min(box.boundary_margin(images)))
            assert (margin >= 0.0) == exact.ok
            assert margin >= exact.margin - 1e-12


class TestAbsorbingSet:
    def test_affine_geometric_series(self):
        F = affine_half()
        domain = AxisBox([-10.0], [10.0], label="D")
        got = absorbing_set(F, domain, InputRange.of([-1.0], [1.0]), v=[0.0],
                            safety=1.05)
        # r = sup|F(0,z)| = 1 and c = 1/2, so the radius is safety * 1 / (1 - 1/2)
        assert isinstance(got, Ball)
        assert got.radius == pytest.approx(2.0 * 1.05, rel=1e-12)
        res = check_invariance(F, got, InputRange.of([-1.0], [1.0]),
                               resolution=30, n_inputs=30)
        assert res.ok

    def test_constant_map_degenerate_radius(self):
        w = np.array([0.3, -0.2])
        F = CustomStateMap(lambda x, z: np.broadcast_to(w, x.shape[:-1] + (2,)).copy(),
                           state_dim=2, input_dim=1,
                           jac_state=lambda x, z: np.zeros((2, 2)),
                           jac_input=lambda x, z: np.zeros((2, 1)))
        domain = AxisBox([-1.0, -1.0], [1.0, 1.0])
        got = absorbing_set(F, domain, InputRange.of([-1.0], [1.0]), v=w,
                            contraction=0.0)
        assert isinstance(got, Ball)
        assert got.radius <= 1e-9
        assert got.contains(w)

    def test_power_sine_absorbs_into_box(self, power_sine, eight_boxes):
        box = eight_boxes[0]
        rng = InputRange.of([-20.0], [20.0])
        got = absorbing_set(power_sine, box, rng, v=[1.0, 1.0, 1.0], safety=1.05)
        # the ball radius exceeds the box margin, so the intersection is returned
        assert isinstance(got, RegionIntersection)
        res = check_invariance(power_sine, got, rng, resolution=12, n_inputs=60)
        assert res.ok
        # everything inside the absorbing set is inside the original box
        pts = got.sample(200, rng=1)
        assert np.all(box.contains(pts, tol=1e-12))

    def test_not_a_contraction(self):
        F = LinearDelay(q=1)
        with pytest.raises(NotAContraction):
            absorbing_set(F, AxisBox([-1.0] * 3, [1.0] * 3),
                          InputRange.of([-1.0], [1.0]), v=np.zeros(3))


@pytest.fixture(scope="module")
def cat_samples():
    return CatMap().trajectory([0.1234, 0.5678], 400).points


class TestCertify:
    def test_non_finite_observation_raises_non_finite_error(self, cat_samples):
        obs = CustomObservation(lambda m: np.where(m[..., 0] > 0.5, np.nan, m[..., 0]),
                                obs_dim=1, phase_dim=2)
        with pytest.raises(NonFiniteError, match="observation produced non-finite values"):
            certify(esn_on_cat(0.3), AxisBox([-1.0] * 2, [1.0] * 2),
                    OrbitConstants.of(CatMap(), obs, cat_samples))

    def test_esn_03_on_cat(self, cat_samples):
        cert = certify(esn_on_cat(0.3), AxisBox([-1.0] * 2, [1.0] * 2, label="B"),
                       OrbitConstants.of(CatMap(), CoordinateProjection([0], 2), cat_samples))
        assert cert.esp_ok and cert.diff_ok
        assert cert.bounds.l_fx == pytest.approx(0.3, rel=1e-12)
        assert abs(cert.tangent_inv_norm - GOLDEN_CAT_NORM) <= 1e-9
        # existence witnesses are consistent when the condition holds
        lower = cert.bounds.l_fz * cert.domega_norm / (1 - cert.bounds.l_fx * cert.tangent_inv_norm)
        assert cert.r_const > lower
        assert 0.0 < cert.c0 < 1.0
        assert cert.delta0 > 0.0

    def test_esn_05_on_cat(self, cat_samples):
        cert = certify(esn_on_cat(0.5), AxisBox([-1.0] * 2, [1.0] * 2, label="B"),
                       OrbitConstants.of(CatMap(), CoordinateProjection([0], 2), cat_samples))
        assert cert.esp_ok
        assert not cert.diff_ok
        assert 0.5 > 1.0 / cert.tangent_inv_norm

    def test_linear_delay_boundary_case(self, torus):
        traj = torus.trajectory([0.3, 0.4], 300)
        cert = certify(LinearDelay(q=3), AxisBox([-1.0] * 7, [1.0] * 7, label="D"),
                       OrbitConstants.of(torus, CoordinateProjection([0], 2), traj.points))
        assert cert.bounds.l_fx == 1.0
        assert not cert.esp_ok
        assert not cert.diff_ok

    def test_diff_implies_esp(self, cat_samples, torus):
        configs = [
            (esn_on_cat(0.3), CatMap(), cat_samples),
            (esn_on_cat(0.5), CatMap(), cat_samples),
            (esn_on_cat(0.99), CatMap(), cat_samples),
            (LinearDelay(q=1), torus, torus.trajectory([0.1, 0.9], 100).points),
        ]
        for F, sys, samples in configs:
            n = F.state_dim
            cert = certify(F, AxisBox([-1.0] * n, [1.0] * n),
                           OrbitConstants.of(sys, CoordinateProjection([0], 2), samples))
            assert cert.diff_ok <= cert.esp_ok  # implication as booleans

    def test_certified_contraction_observed(self, cat_samples):
        F = esn_on_cat(0.3)
        cert = certify(F, AxisBox([-1.0] * 2, [1.0] * 2),
                       OrbitConstants.of(CatMap(), CoordinateProjection([0], 2), cat_samples))
        assert cert.esp_ok
        rng = np.random.default_rng(21)
        x1 = rng.uniform(-1, 1, size=(1000, 2))
        x2 = rng.uniform(-1, 1, size=(1000, 2))
        for _ in range(3):  # iterate a few steps with shared inputs
            z = rng.uniform(-1, 1, size=(1000, 1))
            f1, f2 = F.eval(x1, z), F.eval(x2, z)
            d_before = np.linalg.norm(x1 - x2, axis=-1)
            d_after = np.linalg.norm(f1 - f2, axis=-1)
            mask = d_before > 1e-14
            assert np.all(d_after[mask] <= (cert.bounds.l_fx + 1e-6) * d_before[mask])
            x1, x2 = f1, f2

    def test_section_iv_certificates(self, power_sine, eight_boxes, lorenz, lorenz_obs, lorenz_traj):
        cert = certify(power_sine, eight_boxes[0],
                       OrbitConstants.of(lorenz, lorenz_obs, lorenz_traj.points[2000:],
                                         max_tangent_samples=200))
        assert cert.esp_ok
        assert cert.invariance_ok and cert.invariance_method == "interval"
        assert cert.bounds.l_fx == pytest.approx(0.9 * 0.9 ** (-0.1), abs=1e-9)
        # the measured inverse tangent norm exceeds 1/l_fx on the attractor,
        # so the differentiability inequality is not established numerically
        assert cert.tangent_inv_norm > 1.0

    def test_report_and_csv_text_pinned(self):
        # .12g in the report, .17g in the CSV, str for everything else
        bounds = LipschitzBounds(l_fx=0.1 + 0.2, l_fz=1.0 / 3.0, l_fxx=2.5e-7, l_fxz=0.0,
                                 method="analytic+grid", analytic=None, grid=None)
        nan = float("nan")
        cert = ContractionCertificate(
            region_label="V1", bounds=bounds, tangent_norm=2.618033988749895,
            tangent_inv_norm=1e20 / 3.0, domega_norm=1.0, invariance_ok=False,
            invariance_margin=-1e-3 / 7.0, invariance_method="sampled", esp_ok=True,
            diff_ok=False, r_const=nan, delta0=nan, c0=nan, sampled=True,
            n_tangent_samples=7)
        assert cert.report_text() == (
            "region: V1\nmethod: analytic+grid\nl_fx: 0.3\nl_fz: 0.333333333333\n"
            "l_fxx: 2.5e-07\nl_fxz: 0\ntangent_norm: 2.61803398875\n"
            "tangent_inv_norm: 3.33333333333e+19\ndomega_norm: 1\ninvariance_ok: False\n"
            "invariance_margin: -0.000142857142857\ninvariance_method: sampled\n"
            "esp_ok: True\ndiff_ok: False\nr_const: nan\ndelta0: nan\nc0: nan\n"
            "sampled: True\nn_tangent_samples: 7")
        assert cert.csv_header() == (
            "region,l_fx,l_fz,l_fxx,l_fxz,tangent_inv_norm,domega_norm,invariance_ok,"
            "invariance_margin,esp_ok,diff_ok,r_const,delta0,c0,sampled")
        assert cert.csv_row() == (
            "V1,0.30000000000000004,0.33333333333333331,2.4999999999999999e-07,0,"
            "3.3333333333333332e+19,1,False,-0.00014285714285714287,True,False,"
            "nan,nan,nan,True")

    def test_report_and_csv_row(self, cat_samples):
        cert = certify(esn_on_cat(0.3), AxisBox([-1.0] * 2, [1.0] * 2, label="B"),
                       OrbitConstants.of(CatMap(), CoordinateProjection([0], 2), cat_samples))
        text = cert.report_text()
        assert "esp_ok: True" in text and "l_fx:" in text
        row = cert.csv_row()
        assert row.startswith("B,")
        assert len(row.split(",")) == len(cert.csv_header().split(","))


def _bits(cert):
    """A certificate's fields with every float as its exact hex text."""
    def exact(v):
        return float(v).hex() if isinstance(v, float) else v

    b = cert.bounds
    return ([(k, exact(v)) for k, v in cert._fields().items()],
            [None if d is None else sorted((k, exact(v)) for k, v in d.items())
             for d in (b.analytic, b.grid)])


class TestOrbitConstants:
    def test_tangent_samples_evenly_spaced(self, monkeypatch):
        # column 0 of sample i is i / n, so each row the norms see names its index
        n = 401
        samples = np.column_stack([np.arange(n) / n, np.full(n, 0.25)])
        seen = []
        original = contraction.tangent_norm_bounds
        monkeypatch.setattr(contraction, "tangent_norm_bounds",
                            lambda sys, taken: seen.append(taken) or original(sys, taken))
        for most in (2, 7, 100, 400, 401, 1000):
            orbit = OrbitConstants.of(CatMap(), CoordinateProjection([0], 2), samples,
                                      max_tangent_samples=most)
            assert orbit.n_tangent_samples == min(n, most) == len(seen[-1])
            idx = np.rint(seen[-1][:, 0] * n).astype(int)
            # from the first sample to the last, gaps that differ by at most one
            assert idx[0] == 0 and idx[-1] == n - 1
            assert np.ptp(np.diff(idx)) <= 1

    def test_exact_only_for_closed_form_tangents_and_observation(self, cat_samples, lorenz,
                                                                 lorenz_obs, lorenz_traj):
        custom = CustomObservation(lambda m: m[..., :1], obs_dim=1, phase_dim=2)
        assert OrbitConstants.of(CatMap(), CoordinateProjection([0], 2), cat_samples).exact
        assert not OrbitConstants.of(lorenz, lorenz_obs, lorenz_traj.points[:20]).exact
        assert not OrbitConstants.of(CatMap(), custom, cat_samples).exact

    def test_one_value_for_many_regions_gives_the_same_certificates(self, power_sine,
                                                                   eight_boxes, torus):
        # boxes take the closed forms, the ball the sampled grid
        samples = torus.trajectory([0.3, 0.4], 300).points
        obs = CoordinateProjection([0], 2)
        regions = [*eight_boxes, Ball([1.0, 1.0, 1.0], 0.1, label="ball")]
        shared = OrbitConstants.of(torus, obs, samples)
        for region in regions:
            fresh = certify(power_sine, region, OrbitConstants.of(torus, obs, samples),
                            resolution=6, n_inputs=30, rng=5)
            once = certify(power_sine, region, shared, resolution=6, n_inputs=30, rng=5)
            assert _bits(once) == _bits(fresh), region.label

    def test_non_finite_observation_raises_before_any_tangent_norm(self, cat_samples,
                                                                   monkeypatch):
        def tangent_norm_bounds(*args):
            raise AssertionError("tangent norms taken on a non-finite observation")

        monkeypatch.setattr(contraction, "tangent_norm_bounds", tangent_norm_bounds)
        obs = CustomObservation(lambda m: np.where(m[..., 0] > 0.5, np.nan, m[..., 0]),
                                obs_dim=1, phase_dim=2)
        with pytest.raises(NonFiniteError, match="observation produced non-finite values"):
            OrbitConstants.of(CatMap(), obs, cat_samples)


HEADLINE = ("l_fx", "l_fz", "l_fxx", "l_fxz")
GRID_NORMS = ("jac_state_norms", "jac_input_norms", "second_partial_norms")


@pytest.fixture(scope="module")
def closed_form_cases(power_sine, eight_boxes, lorenz, lorenz_obs, lorenz_traj, torus,
                      cat_samples):
    """(name, F, region, sys, obs, samples, resolution) for maps with closed forms:
    the Section IV box, the eight torus boxes, and a 16-unit reservoir on a box
    and a ball (resolution 2, so the box grid is its 2^16 vertices)."""
    torus_samples = torus.trajectory([0.3, 0.4], 500).points
    torus_obs = CoordinateProjection([0], 2)
    reservoir = esn_reservoir()
    cases = [("section_iv", power_sine, eight_boxes[0], lorenz, lorenz_obs,
              lorenz_traj.points[2000:2200], 20)]
    cases += [(f"torus_{box.label}", power_sine, box, torus, torus_obs, torus_samples, 20)
              for box in eight_boxes]
    cases += [("reservoir_box", reservoir, AxisBox([-1.0] * 16, [1.0] * 16, label="box"),
               CatMap(), CoordinateProjection([0], 2), cat_samples, 2),
              ("reservoir_ball", reservoir, Ball(np.zeros(16), 1.0, label="ball"),
               CatMap(), CoordinateProjection([0], 2), cat_samples, 2)]
    return cases


def _input_range(obs, samples):
    return InputRange.from_observations(obs(np.asarray(samples)))


class TestCertifyClosedForms:
    def test_no_grid_evaluated(self, monkeypatch, closed_form_cases, torus):
        def grid_norms(*args, **kwargs):
            raise AssertionError("certify evaluated a grid norm")

        cases = [c[1:] for c in closed_form_cases]
        cases.append((LinearDelay(q=2), AxisBox([-1.0] * 5, [1.0] * 5), torus,
                      CoordinateProjection([0], 2), torus.trajectory([0.1, 0.9], 200).points, 20))
        for F, region, sys, obs, samples, resolution in cases:
            for name in GRID_NORMS:
                monkeypatch.setattr(type(F), name, grid_norms)
            cert = certify(F, region, OrbitConstants.of(sys, obs, samples),
                           resolution=resolution)
            analytic = F.analytic_lipschitz(region, _input_range(obs, samples))
            assert cert.bounds.method == "analytic"
            assert cert.bounds.grid is None
            assert cert.bounds.analytic == analytic
            assert [getattr(cert.bounds, k) for k in HEADLINE] == [analytic[k] for k in HEADLINE]

    def test_constants_equal_lipschitz_bounds(self, closed_form_cases):
        # the grid is a sampled lower bound: skipping it keeps every headline bit
        for name, F, region, sys, obs, samples, resolution in closed_form_cases:
            cert = certify(F, region, OrbitConstants.of(sys, obs, samples),
                           resolution=resolution)
            full = lipschitz_bounds(F, region, _input_range(obs, samples), resolution=resolution)
            assert full.method == "analytic+grid", name
            for k in HEADLINE:
                assert getattr(cert.bounds, k) == getattr(full, k), (name, k)

    def test_custom_map_keeps_grid(self, torus):
        F = affine_half()
        region = AxisBox([-10.0], [10.0])
        obs = CoordinateProjection([0], 2)
        samples = torus.trajectory([0.3, 0.4], 200).points
        cert = certify(F, region, OrbitConstants.of(torus, obs, samples))
        full = lipschitz_bounds(F, region, _input_range(obs, samples))
        assert cert.bounds.method == full.method == "grid"
        assert cert.bounds.analytic is None
        assert cert.bounds.grid == full.grid
        for k in HEADLINE:
            assert getattr(cert.bounds, k) == getattr(full, k)


class TestSampledFlag:
    @staticmethod
    def _cert(obs, torus):
        return certify(PowerSine(0.9, 0.009, 0.1), AxisBox([0.9] * 3, [1.1] * 3),
                       OrbitConstants.of(torus, obs, torus.trajectory([0.3, 0.4], 500).points))

    def test_closed_forms_everywhere_are_not_sampled(self, torus):
        cert = self._cert(CoordinateProjection([0], 2), torus)
        assert (cert.bounds.method, cert.invariance_method) == ("analytic", "interval")
        assert cert.domega_norm == 1.0
        assert not cert.sampled

    def test_sampled_observation_norm_is_sampled(self, torus):
        # sup ||D omega|| = 2 pi, but the maximum over 501 samples falls short
        # of it, and r_const rests on that maximum
        obs = CustomObservation(lambda m: np.sin(2.0 * np.pi * m[..., :1]), 1, 2)
        cert = self._cert(obs, torus)
        assert (cert.bounds.method, cert.invariance_method) == ("analytic", "interval")
        assert cert.domega_norm < 2.0 * np.pi
        assert cert.diff_ok
        assert cert.sampled


class TestDiffNeedsSecondDerivatives:
    # l_fxx and l_fxz presume second derivatives, so a C^1 map gets esp only
    @staticmethod
    def _cert(F, torus):
        return certify(F, AxisBox([-10.0], [10.0]),
                       OrbitConstants.of(torus, CoordinateProjection([0], 2),
                                         torus.trajectory([0.3, 0.4], 200).points))

    def test_c1_map_gets_esp_not_diff(self, torus):
        cert = self._cert(affine_half(derivative_order=1), torus)
        assert cert.bounds.l_fx == pytest.approx(0.5)
        assert cert.esp_ok
        assert not cert.diff_ok
        assert np.isnan(cert.r_const) and np.isnan(cert.c0)

    def test_affine_half_keeps_diff(self, torus):
        cert = self._cert(affine_half(), torus)
        assert cert.esp_ok and cert.diff_ok
        assert 0.0 < cert.c0 < 1.0
