"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the summary lines
and measured runtimes.
"""

import os
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from gsync import (AxisBox, CatMap, CoordinateProjection, CustomObservation,
                   Esn, InputRange, LinearDelay, OrbitConstants, certify, check_invariance,
                   compare_gs, delay_window, derivative_profile, drive_gs,
                   esp_convergence, holder_exponent, input_forgetting,
                   lipschitz_bounds, multistability_sweep, psi_iterate_gs)
from gsync.cli import main as cli_main

from conftest import LORENZ_M0

IV_LFX = 0.9 * 0.9 ** (-0.1)


@contextmanager
def criterion(n, desc, limit=None):
    t0 = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"\ncriterion {n:2d} FAIL  {desc}")
        raise
    elapsed = time.perf_counter() - t0
    print(f"\ncriterion {n:2d} PASS  {desc}  [{elapsed:.2f}s]")
    if limit is not None:
        assert elapsed < limit, f"runtime {elapsed:.2f}s exceeds {limit}s"


def test_criterion_01_invariance_certification(power_sine, eight_boxes, lorenz_z):
    with criterion(1, "8-box invariance with exact interval bounds", limit=1.0):
        u_range = InputRange.from_observations(lorenz_z)
        # oracle: conservative componentwise image over the full trig range
        oracle = (0.9 ** 0.9 - 0.009, 1.1 ** 0.9 + 0.009)
        assert oracle[0] >= 0.9 and oracle[1] <= 1.1
        for box in eight_boxes:
            res = check_invariance(power_sine, box, u_range)
            assert res.method == "interval"
            assert res.ok
            assert res.margin >= 4e-4


def test_criterion_02_contraction_constant(power_sine, eight_boxes, lorenz_z):
    with criterion(2, "analytic and grid contraction constants", limit=1.0):
        expected = 0.9 * 0.9 ** (-0.1)
        u_range = InputRange.from_observations(lorenz_z)
        for box in eight_boxes:
            b = lipschitz_bounds(power_sine, box, u_range, resolution=50,
                                 n_inputs=200)
            assert abs(b.analytic["l_fx"] - expected) <= 1e-6
            assert abs(b.grid["l_fx"] - expected) <= 1e-3


def test_criterion_03_esp_washout(power_sine, lorenz, lorenz_obs, eight_boxes):
    with criterion(3, "washout independence and per-step contraction", limit=5.0):
        traj = lorenz.trajectory(LORENZ_M0, 4000)  # timed: includes integration
        a = drive_gs(power_sine, lorenz, lorenz_obs, LORENZ_M0, [1.0, 1.0, 1.0],
                     2000, 2000, region=eight_boxes[0], trajectory=traj)
        b = drive_gs(power_sine, lorenz, lorenz_obs, LORENZ_M0, [1.1, 0.9, 1.05],
                     2000, 2000, region=eight_boxes[0], trajectory=traj)
        assert compare_gs(a, b) <= 1e-12
        z = lorenz_obs(traj.points)
        d = esp_convergence(power_sine, z[1:501],
                            np.array([1.0, 1.0, 1.0]), np.array([1.1, 0.9, 1.05]))
        mask = d[:-1] > 1e-12  # float difference noise floor
        assert np.max(d[1:][mask] / d[:-1][mask]) <= 0.9096


def test_criterion_04_two_method_agreement(power_sine, lorenz, lorenz_obs,
                                           lorenz_traj, eight_boxes):
    with criterion(4, "drive/psi agreement and fixed-point iteration count", limit=30.0):
        dgs = drive_gs(power_sine, lorenz, lorenz_obs, LORENZ_M0, [1.0] * 3,
                       2000, 2000, region=eight_boxes[0], trajectory=lorenz_traj)
        pgs = psi_iterate_gs(power_sine, lorenz, lorenz_obs, lorenz_traj,
                             f0_const=np.ones(3), tol=1e-12, max_iters=500,
                             record_from=2000, region=eight_boxes[0], l_fx=IV_LFX)
        assert pgs.method["converged"]
        assert compare_gs(dgs, pgs) <= 1e-10
        n = pgs.method["n_iters"]
        d1 = pgs.method["first_change"]
        predicted = np.log(1e-12 * (1 - IV_LFX) / d1) / np.log(IV_LFX)
        assert predicted / 2 <= n <= predicted * 2


def test_criterion_05_multistability_echo_index(power_sine, lorenz, lorenz_obs,
                                                lorenz_traj, eight_boxes):
    with criterion(5, "8-region sweep: 8 synchronizations, separation >= 1.6", limit=60.0):
        result = multistability_sweep(power_sine, eight_boxes, lorenz, lorenz_obs,
                                      LORENZ_M0, 2000, 2000, trajectory=lorenz_traj)
        assert not result.failures
        assert len(result.synchronizations) == 8
        assert result.echo_index == 8
        assert min(result.separations.values()) >= 1.6
        # the two branches driven from the paired boxes stay in their boxes
        for gs, box in zip(result.synchronizations[:2], eight_boxes[:2]):
            assert np.all(box.contains(gs.values))


def test_criterion_06_takens_oracle(torus):
    with criterion(6, "delay-line fixed point equals the delay vector in 7 sweeps",
                   limit=1.0):
        obs = CoordinateProjection([0], phase_dim=2)
        traj = torus.trajectory([0.13, 0.41], 300)
        F = LinearDelay(q=3)
        theta1 = torus.angles[0]
        expected = np.stack([(traj.points[6:, 0] - j * theta1) % 1.0
                             for j in range(7)], axis=1)

        seven = psi_iterate_gs(F, torus, obs, traj, f0_const=np.full(7, 0.5),
                               tol=0.0, max_iters=7, record_from=6)
        err = np.max(np.abs((seven.values - expected + 0.5) % 1.0 - 0.5))
        assert err <= 1e-12
        six = psi_iterate_gs(F, torus, obs, traj, f0_const=np.full(7, 0.5),
                             tol=0.0, max_iters=6, record_from=6)
        err6 = np.max(np.abs((six.values - expected + 0.5) % 1.0 - 0.5))
        assert err6 > 1e-12
        # cross-check against the inverse-stepping delay window at a few points
        for idx in (0, 100, 250):
            win = delay_window(torus, obs, seven.points[idx], 7)[:, 0]
            assert np.max(np.abs((seven.values[idx] - win + 0.5) % 1.0 - 0.5)) <= 1e-12


def test_criterion_07_certificate_logic_cat_map():
    with criterion(7, "tangent norms and verdicts on the hyperbolic torus map",
                   limit=1.0):
        cat = CatMap()
        samples = cat.trajectory([0.1234, 0.5678], 400).points
        obs = CoordinateProjection([0], phase_dim=2)
        region = AxisBox([-1.0, -1.0], [1.0, 1.0], label="B")
        golden = (3.0 + np.sqrt(5.0)) / 2.0

        def esn(scale):
            return Esn(scale * np.eye(2), np.array([[0.1], [0.1]]), squashing="tanh")

        orbit = OrbitConstants.of(cat, obs, samples)
        c03 = certify(esn(0.3), region, orbit)
        assert c03.esp_ok and c03.diff_ok
        assert abs(c03.tangent_inv_norm - golden) <= 1e-9
        c05 = certify(esn(0.5), region, orbit)
        assert c05.esp_ok and not c05.diff_ok
        assert abs(c05.tangent_inv_norm - golden) <= 1e-9


def test_criterion_08_input_forgetting(power_sine, eight_boxes, lorenz_z):
    with criterion(8, "200-step shared-suffix forgetting bound", limit=5.0):
        box = eight_boxes[0]
        u_range = InputRange.from_observations(lorenz_z)
        worst = input_forgetting(power_sine, box, u_range, suffix_len=200,
                                 trials=100, rng=0)
        assert worst <= 0.90953 ** 200 * box.diameter() + 1e-12


def test_criterion_09_regularity(torus, power_sine, lorenz, lorenz_obs,
                                 lorenz_traj, eight_boxes):
    with criterion(9, "scaling exponent on the delay line, bounded slopes on the"
                      " driven map"):
        obs = CustomObservation(
            lambda m: np.sin(2.0 * np.pi * m[..., :1]), obs_dim=1, phase_dim=2,
            jacobian=lambda m: np.array([[2.0 * np.pi * np.cos(2.0 * np.pi * m[0]), 0.0]]))
        ttraj = torus.trajectory([0.13, 0.41], 4000)
        tgs = psi_iterate_gs(LinearDelay(q=3), torus, obs, ttraj,
                             f0_const=np.zeros(7), tol=1e-13, max_iters=30,
                             record_from=6)
        fit = holder_exponent(tgs, pair_budget=4000, rng=0)
        assert fit.gamma >= 0.9
        assert fit.r_squared >= 0.8

        lgs = drive_gs(power_sine, lorenz, lorenz_obs, LORENZ_M0, [1.0] * 3,
                       2000, 2000, region=eight_boxes[0], trajectory=lorenz_traj)
        prof = derivative_profile(lgs, pair_budget=4000, rng=0)
        occupied = np.flatnonzero(prof.bin_counts > 0)
        assert np.all(prof.bin_max_slope[occupied] <= 1.0)
        assert prof.bin_max_slope[occupied[0]] <= 3.0 * prof.bin_max_slope[occupied[-1]]
        print("  slope table (bin upper edge, max slope):",
              [(f"{prof.bin_edges[b+1]:.3f}", f"{prof.bin_max_slope[b]:.4f}")
               for b in occupied])


def test_criterion_10_reproduction(tmp_path):
    with criterion(10, "figure data reproduction via the batch front end"):
        out = str(tmp_path / "repro")
        for fig in ("fig1", "fig2", "fig3", "fig4"):
            assert cli_main(["reproduce", "--figure", fig, "--out", out]) == 0
            assert os.path.exists(os.path.join(out, f"{fig}.csv"))

        lines = [l for l in Path(out, "fig2.csv").read_text().splitlines()
                 if l and not l.startswith("#")]
        rows = [l.split(",") for l in lines[1:]]
        assert len(rows) == 2000
        ts = np.array([float(r[0]) for r in rows])
        assert ts[0] > 20.0 and ts[-1] <= 40.0 + 1e-12
        assert np.allclose(np.diff(ts), 0.01, atol=1e-9)

        lines = [l for l in Path(out, "fig4.csv").read_text().splitlines()
                 if l and not l.startswith("#")]
        header = lines[0].split(",")
        rows = [l.split(",") for l in lines[1:]]
        b_col = header.index("branch")
        f_cols = [header.index(c) for c in ("f1", "f2", "f3")]
        vals = {1: [], 2: []}
        for r in rows:
            vals[int(r[b_col])].append([float(r[c]) for c in f_cols])
        v1 = np.array(vals[1])
        v2 = np.array(vals[2])
        assert len(v1) == 2000 and len(v2) == 2000
        assert np.all(v1 >= 0.9 - 1e-12) and np.all(v1 <= 1.1 + 1e-12)
        assert np.all(v2[:, 0] >= -1.1 - 1e-12) and np.all(v2[:, 0] <= -0.9 + 1e-12)
        assert np.all(v2[:, 1:] >= 0.9 - 1e-12) and np.all(v2[:, 1:] <= 1.1 + 1e-12)
