"""Seeded workload inputs for the gsync benchmark.

Each workload is a run configuration (plus matrix files for the reservoir)
generated from the workload seed, the list of operations run on it, and the
constants its outputs are validated against.  gsync only ever sees the files
written by ``build``.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

NAMES = ("lorenz_iv", "torus_eight_box", "cat_reservoir")
SIZES = ("full", "tiny")

# Power-sine map of the paper's Section IV and its state-contraction constant
# on the boxes at distance 0.9 from the coordinate planes: alpha * 0.9^(alpha-1).
ALPHA, LAMBDA, K = 0.9, 0.009, 0.1
POWER_SINE_LFX = ALPHA * 0.9 ** (ALPHA - 1.0)
CAT_TANGENT_INV_NORM = (3.0 + math.sqrt(5.0)) / 2.0
RESERVOIR_NORM = 0.35

# (n_steps, washout, record): n_steps sets the certify trajectory, and with it
# the number of tangent samples; washout + record set synchronize, diagnose
# and the sweep.  Full sizes keep one pass at a few seconds on a 2-core
# machine while each workload keeps the layer it was chosen for dominant.
_STEPS = {
    ("lorenz_iv", "full"): (100, 500, 2000),
    ("lorenz_iv", "tiny"): (20, 400, 800),
    ("torus_eight_box", "full"): (1000, 1000, 4000),
    ("torus_eight_box", "tiny"): (200, 400, 1000),
    ("cat_reservoir", "full"): (1000, 1000, 6000),
    ("cat_reservoir", "tiny"): (200, 100, 2000),
}
# reservoir units and grid resolution: resolution**units grid points stay
# under gsync's 250 000-point cap, so the grid is the full vertex set
_RESERVOIR = {"full": (16, 2), "tiny": (6, 2)}


@dataclass(frozen=True)
class Workload:
    """Generated inputs and expected constants of one workload instance."""

    name: str
    seed: int
    config_path: str
    region_labels: tuple
    figures: tuple          # reproduce --figure values run in each pass
    echo_index: int         # expected sweep echo index
    l_fx: float             # expected certified state-contraction constant
    l_fx_tol: float
    tangent_inv_norm: float | None  # expected sup ||T phi^-1||, when exact


def _f(x) -> str:
    return repr(float(x))


def _vec(v) -> str:
    return " ".join(_f(c) for c in v)


def _power_sine_keys() -> list[str]:
    return ["statemap.kind = power_sine", f"statemap.alpha = {ALPHA}",
            f"statemap.lambda = {LAMBDA}", f"statemap.k = {K}"]


def _box(n: int, center, half: float, label: str) -> list[str]:
    c = np.asarray(center, dtype=float)
    return [f"region.{n}.kind = box", f"region.{n}.lo = {_vec(c - half)}",
            f"region.{n}.hi = {_vec(c + half)}", f"region.{n}.label = {label}"]


def _lorenz_iv(rng, size, files):
    n_steps, washout, record = _STEPS["lorenz_iv", size]
    initial = np.array([0.0, 1.0, 1.05]) + rng.uniform(-0.01, 0.01, 3)
    lines = ["system.kind = lorenz", "system.h = 0.01", "system.substeps = 8",
             f"system.initial = {_vec(initial)}", f"system.n_steps = {n_steps}",
             "observation.kind = projection", "observation.indices = 0",
             *_power_sine_keys(),
             *_box(1, [1.0, 1.0, 1.0], 0.1, "V1"),
             *_box(2, [-1.0, 1.0, 1.0], 0.1, "V2"),
             f"run.washout = {washout}", f"run.record = {record}"]
    return lines, dict(region_labels=("V1", "V2"),
                       figures=("fig1", "fig2", "fig3", "fig4"), echo_index=2,
                       l_fx=POWER_SINE_LFX, l_fx_tol=1e-6, tangent_inv_norm=None)


def _torus_eight_box(rng, size, files):
    n_steps, washout, record = _STEPS["torus_eight_box", size]
    angles = [math.sqrt(2.0) - 1.0, math.sqrt(10.0) - 3.0]
    lines = ["system.kind = torus_rotation", f"system.angles = {_vec(angles)}",
             f"system.initial = {_vec(rng.uniform(0.0, 1.0, 2))}",
             f"system.n_steps = {n_steps}",
             "observation.kind = projection", "observation.indices = 0",
             *_power_sine_keys()]
    labels = []
    signs = [(a, b, c) for a in (1, -1) for b in (1, -1) for c in (1, -1)]
    for n, s in enumerate(signs, start=1):
        label = "B" + "".join("p" if c > 0 else "m" for c in s)
        lines += _box(n, s, 0.1, label)
        labels.append(label)
    lines += [f"run.washout = {washout}", f"run.record = {record}"]
    return lines, dict(region_labels=tuple(labels), figures=("fig3",), echo_index=8,
                       l_fx=POWER_SINE_LFX, l_fx_tol=1e-6, tangent_inv_norm=None)


def _cat_reservoir(rng, size, files):
    n_steps, washout, record = _STEPS["cat_reservoir", size]
    units, resolution = _RESERVOIR[size]
    A = rng.normal(size=(units, units))
    A *= RESERVOIR_NORM / np.linalg.norm(A, 2)
    C = 0.1 * rng.normal(size=(units, 1))
    zeta = 0.05 * rng.normal(size=units)
    files["A.csv"] = A
    files["C.csv"] = C
    lines = ["system.kind = cat_map", f"system.initial = {_vec(rng.uniform(0.0, 1.0, 2))}",
             f"system.n_steps = {n_steps}",
             "observation.kind = projection", "observation.indices = 0",
             "statemap.kind = esn", "statemap.A = csv:A.csv", "statemap.C = csv:C.csv",
             f"statemap.zeta = {_vec(zeta)}", "statemap.squashing = tanh",
             *_box(1, np.zeros(units), 1.0, "box"),
             "region.2.kind = ball", f"region.2.center = {_vec(np.zeros(units))}",
             "region.2.radius = 1", "region.2.label = ball",
             f"run.washout = {washout}", f"run.record = {record}",
             f"run.grid_resolution = {resolution}"]
    return lines, dict(region_labels=("box", "ball"), figures=("fig3",), echo_index=1,
                       l_fx=None, l_fx_tol=1e-9, tangent_inv_norm=CAT_TANGENT_INV_NORM)


_WORKLOADS = {"lorenz_iv": _lorenz_iv, "torus_eight_box": _torus_eight_box,
             "cat_reservoir": _cat_reservoir}


def build(name: str, seed: int, inputs_dir: str, size: str = "full") -> Workload:
    """Write the workload's config (and matrices) under inputs_dir from the seed."""
    if name not in _WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}; choose from {SIZES}")
    rng = np.random.default_rng([seed, NAMES.index(name)])
    files: dict[str, np.ndarray] = {}
    lines, expect = _WORKLOADS[name](rng, size, files)
    lines.append(f"run.seed = {seed}")

    os.makedirs(inputs_dir, exist_ok=True)
    for fname, matrix in files.items():
        np.savetxt(os.path.join(inputs_dir, fname), matrix, delimiter=",", fmt="%.17g")
    config_path = os.path.join(inputs_dir, "run.cfg")
    with open(config_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    if expect["l_fx"] is None:
        # read the matrix back as gsync will, so the check sees the same bits
        A = np.loadtxt(os.path.join(inputs_dir, "A.csv"), delimiter=",", ndmin=2)
        expect["l_fx"] = float(np.linalg.svd(A, compute_uv=False)[0])
    return Workload(name=name, seed=seed, config_path=config_path, **expect)
