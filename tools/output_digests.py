"""SHA-256 of every file the gsync CLI writes on a fixed set of inputs.

Usage: python3 tools/output_digests.py OUT_DIR

Runs ``simulate``, ``certify``, ``synchronize --method both`` and
``diagnose`` on the built-in Section IV config, on ``TAKENS`` (a depth-7
delay line driven by a linear observation of a torus rotation, on a box and
a ball) and on the seed-1 config of each benchmark workload
(``perfbench/workloads.py``), plus ``reproduce`` fig1..fig4, each into its
own directory under OUT_DIR.  Prints one
``sha256  relative/path`` line per output file, one ``sha256
<config>/sweep`` line per config for ``multistability_sweep`` run as the
benchmark runs it (its labels, failures, separations, echo index and the
bytes of every synchronization's values), one ``sha256
<config>/lipschitz`` line per config for ``lipschitz_bounds`` on each of
its regions (headline, method, closed forms and grid suprema), and one
``sha256  <config>/psi`` line per config for ``psi_iterate_gs`` on each of
its regions as ``synchronize`` runs it (sweep count, convergence flag,
first, final and a-priori change and the bytes of the change history, none
of which the psi CSVs hold), sorted by path.  ``certify`` evaluates no grid when a closed form exists, so the
lipschitz lines are what see a change to the grid derivative norms.  Run
it on two checkouts and ``diff`` the listings to check that a change keeps
the CLI output, the sweep, the grid suprema and the psi convergence records
byte-identical.  The package is imported from this checkout's ``src``.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import workloads  # noqa: E402
import numpy as np  # noqa: E402

from gsync import lipschitz_bounds, multistability_sweep, psi_iterate_gs  # noqa: E402
from gsync.cli import main as gsync_main, section_iv_config  # noqa: E402
from gsync.config import parse_config  # noqa: E402
from gsync.dynsys import observe_trajectory  # noqa: E402
from gsync.errors import GsyncError  # noqa: E402
from gsync.regions import InputRange  # noqa: E402

TAKENS = """
system.kind = torus_rotation
system.angles = 0.41421356237309503 0.16227766016837952
system.initial = 0.1 0.7
system.n_steps = 1500
observation.kind = linear
observation.matrix = 1 -0.5
statemap.kind = linear_delay
statemap.q = 3
region.1.kind = box
region.1.lo = -1 -1 -1 -1 -1 -1 -1
region.1.hi = 1.5 1.5 1.5 1.5 1.5 1.5 1.5
region.1.label = D
region.2.kind = ball
region.2.center = 0.25 0.25 0.25 0.25 0.25 0.25 0.25
region.2.radius = 3
region.2.label = B
run.washout = 500
run.record = 1000
run.method = both
run.seed = 3
"""
COMMANDS = (["simulate"], ["certify"], ["synchronize", "--method", "both"], ["diagnose"])
FIGURES = ("fig1", "fig2", "fig3", "fig4")


def sweep_digest(config_path: str) -> str:
    """SHA-256 of ``multistability_sweep`` on a config's regions."""
    cfg = parse_config(config_path)
    result = multistability_sweep(cfg.statemap, cfg.regions, cfg.system, cfg.observation,
                                  cfg.initial, washout_steps=cfg.washout,
                                  record_steps=cfg.record)
    h = hashlib.sha256(repr((result.labels, sorted(result.failures.items()),
                             sorted(result.separations.items()),
                             result.echo_index)).encode())
    for gs in result.synchronizations:
        h.update(gs.values.tobytes())
    return h.hexdigest()


def lipschitz_digest(config_path: str) -> str:
    """SHA-256 of ``lipschitz_bounds`` on each of a config's regions, with the
    config's grid resolution, input samples and seed, over the input range
    that ``certify`` uses (the hull of the observed trajectory)."""
    cfg = parse_config(config_path)
    traj = cfg.system.trajectory(cfg.initial, cfg.n_steps)
    input_range = InputRange.from_observations(observe_trajectory(cfg.observation, traj))

    def exact(values):  # float.hex is exact and blind to float vs np.float64
        return None if values is None else [(k, float(v).hex()) for k, v in sorted(values.items())]

    h = hashlib.sha256()
    for region in cfg.regions:
        b = lipschitz_bounds(cfg.statemap, region, input_range, resolution=cfg.grid_resolution,
                             n_inputs=cfg.input_samples, rng=cfg.seed)
        headline = {k: getattr(b, k) for k in ("l_fx", "l_fz", "l_fxx", "l_fxz")}
        h.update(repr((region.label, b.method, exact(headline), exact(b.analytic),
                       exact(b.grid))).encode())
    return h.hexdigest()


def psi_digest(config_path: str) -> str:
    """SHA-256 of the ``method`` record of ``psi_iterate_gs`` on each of a
    config's regions, with the trajectory, record start, tolerance, sweep
    cap and closed-form l_fx that ``synchronize`` passes (a package error is
    hashed by its type and text)."""
    cfg = parse_config(config_path)
    traj = cfg.system.trajectory(cfg.initial, max(cfg.n_steps, cfg.washout + cfg.record))
    input_range = InputRange.from_observations(observe_trajectory(cfg.observation, traj))
    record_from = cfg.psi_record_from if cfg.psi_record_from is not None else cfg.washout
    h = hashlib.sha256()
    for region in cfg.regions:
        analytic = cfg.statemap.analytic_lipschitz(region, input_range)
        l_fx = analytic["l_fx"] if analytic and analytic["l_fx"] < 1.0 else None
        try:
            m = psi_iterate_gs(cfg.statemap, cfg.system, cfg.observation, traj,
                               region.center(), tol=cfg.tol, max_iters=cfg.max_iters,
                               record_from=record_from, region=region, l_fx=l_fx).method
        except GsyncError as exc:
            record = f"{type(exc).__name__}: {exc}"
        else:
            record = (m["n_iters"], m["converged"],
                      *(float(m[k]).hex() for k in ("first_change", "final_change",
                                                    "apriori_bound")))
            h.update(np.asarray(m["change_history"], dtype=float).tobytes())
        h.update(repr((region.label, record)).encode())
    return h.hexdigest()


def run_all(out_dir: str, inputs_dir: str) -> tuple[list[tuple[str, str]], list[str]]:
    """Run every command, sweep, grid and psi iteration; return the sweep,
    lipschitz and psi digests as (label/sweep, digest), (label/lipschitz,
    digest) and (label/psi, digest) pairs and a message for each non-zero
    exit code."""
    configs = {"section_iv": os.path.join(inputs_dir, "section_iv.cfg"),
               "takens": os.path.join(inputs_dir, "takens.cfg")}
    with open(configs["section_iv"], "w") as fh:
        fh.write(section_iv_config().resolved_text())
    with open(configs["takens"], "w") as fh:
        fh.write(TAKENS)
    for name in workloads.NAMES:
        configs[name] = workloads.build(name, 1, os.path.join(inputs_dir, name)).config_path

    runs = [[*cmd, "--config", path, "--out", os.path.join(out_dir, label, cmd[0])]
            for label, path in configs.items() for cmd in COMMANDS]
    runs += [["reproduce", "--figure", fig, "--out", os.path.join(out_dir, "reproduce", fig)]
             for fig in FIGURES]
    failures = []
    for argv in runs:
        with contextlib.redirect_stdout(sys.stderr):
            code = gsync_main(argv)
        if code != 0:
            failures.append(f"exit {code}: gsync {' '.join(argv)}")
    extra = [(f"{label}/sweep", sweep_digest(path)) for label, path in configs.items()]
    extra += [(f"{label}/lipschitz", lipschitz_digest(path)) for label, path in configs.items()]
    extra += [(f"{label}/psi", psi_digest(path)) for label, path in configs.items()]
    return extra, failures


def digests(out_dir: str, extra=()) -> list[str]:
    lines = list(extra)
    for base, _, files in os.walk(out_dir):
        for fname in files:
            path = os.path.join(base, fname)
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            lines.append((os.path.relpath(path, out_dir), digest))
    return [f"{digest}  {rel}" for rel, digest in sorted(lines)]


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    out_dir = args[0]
    if os.path.isdir(out_dir) and os.listdir(out_dir):
        print(f"{out_dir} is not empty", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as inputs_dir:
        extra, failures = run_all(out_dir, inputs_dir)
    print("\n".join(digests(out_dir, extra)))
    for msg in failures:
        print(msg, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
