import tracemalloc

import numpy as np
import pytest

from gsync import (CoordinateProjection, CustomStateMap, Esn, LinearDelay, PowerSine,
                   TorusRotation, AxisBox, lorenz_system, observe_trajectory)

LORENZ_M0 = np.array([0.0, 1.0, 1.05])


def traced_peak(run):
    """The tracemalloc peak, in bytes, of ``run()``, and what it returned."""
    tracemalloc.start()
    try:
        result = run()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def gs_columns(gs, time_scale=None) -> set:
    """The columns ``write_gs_csv`` writes for gs, each as (last, rows,
    float64 bytes): the bytes and the separator fix a column's text."""
    res = gs.residuals if gs.residuals is not None else np.full(len(gs), np.nan)
    times = gs.times * time_scale if time_scale is not None else gs.times
    matrix = np.column_stack([times, gs.points, gs.values, res]).astype(float)
    return {(j == matrix.shape[1] - 1, len(matrix), matrix[:, j].tobytes())
            for j in range(matrix.shape[1])}


IV_ALPHA, IV_LAMBDA, IV_K = 0.9, 0.009, 0.1

# the eight stable fixed points of the autonomous power map
FIXED_POINTS = [np.array(p) for p in
                [(1, 1, 1), (-1, 1, 1), (1, -1, 1), (1, 1, -1),
                 (-1, -1, 1), (-1, 1, -1), (1, -1, -1), (-1, -1, -1)]]


def esn_reservoir(units=16, seed=7):
    """A tanh reservoir with spectral norm 0.35, as in the cat-map benchmark."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(units, units))
    A *= 0.35 / np.linalg.norm(A, 2)
    return Esn(A, 0.1 * rng.normal(size=(units, 1)), zeta=0.05 * rng.normal(size=units))


def formula(F):
    """F from (x, u) into a fresh array, as each built-in map computed it
    before its in-place kernel; any other map's own ``apply``."""
    if isinstance(F, PowerSine):
        return lambda x, u: np.sign(x) * np.abs(x) ** F.alpha + u
    if isinstance(F, LinearDelay):
        def shift(x, u):
            out = np.empty(np.broadcast_shapes(x.shape[:-1], u.shape[:-1]) + x.shape[-1:])
            out[..., :1] = u[..., :1]
            out[..., 1:] = x[..., :-1]
            return out
        return shift
    if isinstance(F, Esn):
        squash = {"tanh": np.tanh, "logistic": lambda y: 1.0 / (1.0 + np.exp(-y)),
                  "identity": lambda y: y}[F.squashing.name]
        return lambda x, u: squash(x @ F.A.T + u)
    return F.apply


def record_steps(F, monkeypatch, record):
    """Patch F so that every step of each kernel it prepares (``F._kernel``),
    the entry point the recursions and psi sweeps call, first calls
    ``record(x)`` on the step's state."""
    prepare = F._kernel

    def recording_kernel(shape):
        step = prepare(shape)

        def recording_step(x, u, out):
            record(x)
            return step(x, u, out)

        return recording_step

    monkeypatch.setattr(F, "_kernel", recording_kernel)


def affine_half(dim=1, derivative_order=2):
    """F(x, z) = x / 2 + z with per-point Jacobian callables (one matrix
    whatever the batch)."""
    return CustomStateMap(lambda x, z: 0.5 * x + z, state_dim=dim, input_dim=dim,
                          jac_state=lambda x, z: 0.5 * np.eye(dim),
                          jac_input=lambda x, z: np.eye(dim),
                          derivative_order=derivative_order)


@pytest.fixture(scope="session")
def lorenz():
    return lorenz_system()


@pytest.fixture(scope="session")
def lorenz_obs():
    return CoordinateProjection([0], phase_dim=3)


@pytest.fixture(scope="session")
def lorenz_traj(lorenz):
    return lorenz.trajectory(LORENZ_M0, 4000)


@pytest.fixture(scope="session")
def lorenz_z(lorenz_obs, lorenz_traj):
    return observe_trajectory(lorenz_obs, lorenz_traj)


@pytest.fixture(scope="session")
def power_sine():
    return PowerSine(IV_ALPHA, IV_LAMBDA, IV_K)


@pytest.fixture(scope="session")
def eight_boxes():
    return [AxisBox(p - 0.1, p + 0.1, label=f"V{i+1}")
            for i, p in enumerate(FIXED_POINTS)]


@pytest.fixture(scope="session")
def torus():
    # rationally independent angles, orbits equidistribute on the 2-torus
    return TorusRotation([np.sqrt(2.0) - 1.0, np.sqrt(10.0) - 3.0])
