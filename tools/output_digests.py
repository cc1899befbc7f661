"""SHA-256 of every file the gsync CLI writes on a fixed set of inputs.

Usage: python3 tools/output_digests.py OUT_DIR > tools/output_digests.txt

Runs ``simulate``, ``certify``, ``synchronize`` (``--method both`` into
``synchronize``, ``psi`` and ``drive`` into ``synchronize_psi`` and
``synchronize_drive``) and ``diagnose`` on the built-in Section IV config, on ``TAKENS`` (a depth-7
delay line driven by a linear observation of a torus rotation, on a box and
a ball) and on the seed-1 config of each benchmark workload
(``perfbench/workloads.py``), plus ``reproduce`` fig1..fig4, each into its
own directory under OUT_DIR.  Prints, sorted by path:

- one ``sha256  relative/path`` line per output file;
- one ``sha256  <config>/sweep`` line per config for
  ``multistability_sweep`` run as the benchmark runs it (its labels,
  failures, separations, echo index and the bytes of every
  synchronization's values);
- one ``sha256  <config>/lipschitz`` line per config for
  ``lipschitz_bounds`` on each of its regions (headline, method, closed
  forms and grid suprema);
- one ``sha256  <config>/psi`` line per config for ``psi_iterate_gs`` on
  each of its regions as ``synchronize`` runs it (sweep count, convergence
  flag, first, final and a-priori change and the bytes of the change
  history, none of which the psi CSVs hold);
- one ``sha256  <config>/grid`` line per config for the points of
  ``region.grid`` at the config's resolution and seed on each of its
  regions, and for the tangent norms of ``certify``'s certificate on the
  ``OrbitConstants`` of the ``certify`` command's orbit;
- one ``sha256  <config>/recur`` line per config for the states of
  ``run_recursion`` on the config's map at every state shape the
  recursions step: region 0's center as a lone (N,) state and the
  distinct centers as the drive steps them (a lone one as (N,), two or
  more stacked as (B', N)), both under the observed inputs, and
  ``run.forgetting_trials`` points of region 0 as (trials, N) under
  (T, trials, d) inputs drawn from the input range, as
  ``input_forgetting`` runs them;
- one ``sha256  <config>/pairs`` line per config for the near pairs of
  the regularity probes on the synchronization ``diagnose`` drives, at
  radius factors 10 and 3 with nothing subsampled (the pairs and their
  distances in lexicographic order and the radius, or the
  ``InsufficientPairs`` text), which no search order changes;
- one ``sha256  <config>/rows`` line per config for the bytes of each
  region's ``boundary_margin`` and of the row norms (``gs._row_norms``)
  on the values that the sweep records in it, followed by rows that hold
  nan of both signs, zeros of both signs and infinities;
- one ``sha256  <config>/forgetting`` line per config for the bytes of
  ``input_forgetting`` at each of the config's horizons on each of its
  regions, from one generator seeded with the config's seed.

Every orbit and input range comes from ``cli._orbit`` and psi's ``l_fx``
from ``cli._closed_form_l_fx``, so the records follow the CLI's rules.

``certify`` evaluates no grid when a closed form exists, so the lipschitz
lines are what see a change to the grid derivative norms.  Run it on two
checkouts and ``diff`` the listings to check that a change keeps the CLI
output, the sweep, the grid suprema, the psi convergence records, the
region grids, the tangent norms, the recursion states, the near pairs,
the row reductions and the forgetting probe byte-identical.  The
package is imported from this checkout's ``src``.

The listing starts with a ``# machine:`` line, the numpy version with the
SIMD extensions it found and the BLAS name and version: the digests are one
machine's bits, since ``np.dot``, the SVDs, the transcendental functions
and the RK4 floats depend on numpy, its SIMD kernels and BLAS.
``tools/output_digests.txt`` is the listing of this checkout; a tier-1 test
(``tests/test_api.py``) runs the tool and names every path whose digest
differs from it, or skips on a machine with another record.  A change that
moves output on purpose regenerates the file, and its diff lists the moved
outputs.
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

from gsync import (OrbitConstants, certify, drive_gs,  # noqa: E402
                   input_forgetting, lipschitz_bounds, multistability_sweep,
                   psi_iterate_gs, run_recursion)
from gsync.cli import (_closed_form_l_fx, _orbit, main as gsync_main,  # noqa: E402
                       section_iv_config)
from gsync.config import RunConfig, parse_config  # noqa: E402
from gsync.diagnostics import _near_pairs  # noqa: E402
from gsync.errors import GsyncError, InsufficientPairs  # noqa: E402
from gsync.gs import _row_norms  # noqa: E402

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
COMMANDS = {"simulate": ["simulate"], "certify": ["certify"],
            "synchronize": ["synchronize", "--method", "both"],
            "synchronize_psi": ["synchronize", "--method", "psi"],
            "synchronize_drive": ["synchronize", "--method", "drive"],
            "diagnose": ["diagnose"]}  # output directory -> arguments
FIGURES = ("fig1", "fig2", "fig3", "fig4")


def sweep_digest(cfg: RunConfig) -> str:
    """SHA-256 of ``multistability_sweep`` on a config's regions."""
    result = multistability_sweep(cfg.statemap, cfg.regions, cfg.system, cfg.observation,
                                  cfg.initial, washout_steps=cfg.washout,
                                  record_steps=cfg.record)
    h = hashlib.sha256(repr((result.labels, sorted(result.failures.items()),
                             sorted(result.separations.items()),
                             result.echo_index)).encode())
    for gs in result.synchronizations:
        h.update(gs.values.tobytes())
    return h.hexdigest()


def lipschitz_digest(cfg: RunConfig) -> str:
    """SHA-256 of ``lipschitz_bounds`` on each of a config's regions, with the
    config's grid resolution, input samples and seed, over the input range
    that ``certify`` uses (the hull of the observed trajectory)."""
    _, _, input_range = _orbit(cfg, cfg.n_steps)

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


def grid_digest(cfg: RunConfig) -> str:
    """SHA-256 of the points of ``region.grid`` on each of a config's regions,
    with the config's grid resolution and seed (the grid that a sampled
    ``check_invariance`` evaluates), and of the tangent norms of the
    certificate that ``certify`` gives the first region from the
    ``OrbitConstants`` of the ``certify`` command's orbit."""
    h = hashlib.sha256()
    for region in cfg.regions:
        h.update(region.grid(cfg.grid_resolution, rng=cfg.seed).tobytes())
    traj, _, input_range = _orbit(cfg, cfg.n_steps)
    orbit = OrbitConstants.of(cfg.system, cfg.observation, traj.points, input_range=input_range)
    cert = certify(cfg.statemap, cfg.regions[0], orbit, resolution=cfg.grid_resolution,
                   n_inputs=cfg.input_samples, rng=cfg.seed)
    h.update(repr([float(b).hex() for b in (cert.tangent_norm, cert.tangent_inv_norm)]).encode())
    return h.hexdigest()


def psi_digest(cfg: RunConfig) -> str:
    """SHA-256 of the ``method`` record of ``psi_iterate_gs`` on each of a
    config's regions, with the trajectory, record start, tolerance, sweep
    cap and closed-form l_fx that ``synchronize`` passes (a package error is
    hashed by its type and text), all through one ``shared`` map primed with
    every region's start, as ``synchronize`` shares its runs."""
    traj, _, input_range = _orbit(cfg, cfg.span)
    shared = dict.fromkeys(region.center().tobytes() for region in cfg.regions)
    h = hashlib.sha256()
    for region in cfg.regions:
        try:
            m = psi_iterate_gs(cfg.statemap, cfg.system, cfg.observation, traj,
                               region.center(), tol=cfg.tol, max_iters=cfg.max_iters,
                               record_from=cfg.psi_from, region=region,
                               l_fx=_closed_form_l_fx(cfg, region, input_range),
                               shared=shared).method
        except GsyncError as exc:
            record = f"{type(exc).__name__}: {exc}"
        else:
            record = (m["n_iters"], m["converged"],
                      *(float(m[k]).hex() for k in ("first_change", "final_change",
                                                    "apriori_bound")))
            h.update(np.asarray(m["change_history"], dtype=float).tobytes())
        h.update(repr((region.label, record)).encode())
    return h.hexdigest()


def recur_digest(cfg: RunConfig) -> str:
    """SHA-256 of ``run_recursion``'s states on a config's map at each state
    shape: region 0's center alone (N,) and the distinct centers (by their
    bytes) as the drive of every region steps them, a lone one as (N,) and
    two or more stacked as (B', N), under the observed inputs of
    ``synchronize``'s orbit, then
    ``run.forgetting_trials`` points of region 0 (trials, N) under 200 steps
    of (T, trials, d) inputs drawn uniformly from the orbit's input range,
    both from the config's seed (a package error is hashed by its type and
    text)."""
    _, z, input_range = _orbit(cfg, cfg.span)
    rng = np.random.default_rng(cfg.seed)
    trials = cfg.forgetting_trials
    centers = list({region.center().tobytes(): region.center() for region in cfg.regions}.values())
    runs = [(z[1:], centers[0]), (z[1:], centers[0] if len(centers) == 1 else np.stack(centers)),
            (rng.uniform(input_range.lo, input_range.hi, size=(200, trials, input_range.dim)),
             cfg.regions[0].sample(trials, rng))]
    h = hashlib.sha256()
    for inputs, x0 in runs:
        try:
            states = run_recursion(cfg.statemap, inputs, x0)
        except GsyncError as exc:
            h.update(repr(f"{type(exc).__name__}: {exc}").encode())
        else:
            h.update(repr(states.shape).encode())
            h.update(states.tobytes())
    return h.hexdigest()


def pairs_digest(cfg: RunConfig) -> str:
    """SHA-256 of ``_near_pairs`` at radius factors 10 and 3 on the points of
    the synchronization that ``diagnose`` drives (region 0), with the
    probes' temporal separation of 10 and a budget of every pair: the pairs
    sorted lexicographically with their distances, and the radius (an
    ``InsufficientPairs`` is hashed by its text)."""
    region = cfg.regions[0]
    gs = drive_gs(cfg.statemap, cfg.system, cfg.observation, cfg.initial, region.center(),
                  washout_steps=cfg.washout, record_steps=cfg.record, region=region,
                  trajectory=_orbit(cfg, cfg.span)[0])
    h = hashlib.sha256()
    for factor in (10.0, 3.0):
        try:
            pairs, dm, radius = _near_pairs(gs.points, factor, 10, len(gs.points) ** 2,
                                            np.random.default_rng(0))
        except InsufficientPairs as exc:
            h.update(repr(str(exc)).encode())
        else:
            order = np.lexsort((pairs[:, 1], pairs[:, 0]))
            h.update(pairs[order].astype(np.int64).tobytes())
            h.update(dm[order].tobytes())
            h.update(float(radius).hex().encode())
    return h.hexdigest()


# rows whose reductions show which of equal values or of several nans a
# reduction returns, and whether it rounds, overflows or propagates as numpy's
ROW_PATTERNS = ([-0.0], [0.0], [np.nan, -np.nan], [-np.nan, np.nan], [np.inf, -np.inf, -0.0],
                [1.0, -np.nan, np.inf], [1e308, 5e-324, -0.0])


def rows_digest(cfg: RunConfig) -> str:
    """SHA-256 of the bytes of ``boundary_margin`` and of the row norms on
    each of a config's regions (boxes and balls alike, whose margin takes
    ``_row_norms`` too): on the values that ``multistability_sweep``
    records in it (run as in ``sweep_digest``; none where it fails) and on
    one row per ``ROW_PATTERNS`` entry, repeated to the state dimension.
    ``_row_norms`` is ``np.linalg.norm(d, axis=-1)`` bit for bit: with that
    norm in its place, the record reads the same."""
    result = multistability_sweep(cfg.statemap, cfg.regions, cfg.system, cfg.observation,
                                  cfg.initial, washout_steps=cfg.washout,
                                  record_steps=cfg.record)
    recorded = dict(zip(result.labels, result.synchronizations))
    n = cfg.statemap.state_dim
    special = np.array([np.resize(pattern, n) for pattern in ROW_PATTERNS])
    h = hashlib.sha256()
    for region in cfg.regions:
        gs = recorded.get(region.label)
        x = special if gs is None else np.vstack([gs.values, special])
        with np.errstate(over="ignore", invalid="ignore"):
            h.update(region.boundary_margin(x).tobytes())
            h.update(_row_norms(x.copy()).tobytes())
    return h.hexdigest()


def forgetting_digest(cfg: RunConfig) -> str:
    """SHA-256 of the bytes of ``input_forgetting`` at each
    ``run.forgetting_k`` on each of a config's regions, with
    ``run.forgetting_trials`` trials over the input range of ``diagnose``'s
    orbit, all from one generator seeded with the config's seed (a package
    error is hashed by its type and text)."""
    _, _, input_range = _orbit(cfg, cfg.span)
    rng = np.random.default_rng(cfg.seed)
    h = hashlib.sha256()
    for region in cfg.regions:
        for k in cfg.forgetting_k:
            try:
                worst = input_forgetting(cfg.statemap, region, input_range, k,
                                         trials=cfg.forgetting_trials, rng=rng)
            except GsyncError as exc:
                h.update(repr(f"{type(exc).__name__}: {exc}").encode())
            else:
                h.update(np.float64(worst).tobytes())
    return h.hexdigest()


RECORDS = {"sweep": sweep_digest, "lipschitz": lipschitz_digest, "psi": psi_digest,
           "grid": grid_digest, "recur": recur_digest, "pairs": pairs_digest,
           "rows": rows_digest, "forgetting": forgetting_digest}


def run_all(out_dir: str, inputs_dir: str) -> tuple[list[tuple[str, str]], list[str]]:
    """Run every command, and every ``RECORDS`` function on each config
    parsed once; return the records as (label/<record>, digest) pairs and a
    message for each non-zero exit code."""
    configs = {"section_iv": os.path.join(inputs_dir, "section_iv.cfg"),
               "takens": os.path.join(inputs_dir, "takens.cfg")}
    with open(configs["section_iv"], "w") as fh:
        fh.write(section_iv_config().resolved_text())
    with open(configs["takens"], "w") as fh:
        fh.write(TAKENS)
    for name in workloads.NAMES:
        configs[name] = workloads.build(name, 1, os.path.join(inputs_dir, name)).config_path

    runs = [[*cmd, "--config", path, "--out", os.path.join(out_dir, label, name)]
            for label, path in configs.items() for name, cmd in COMMANDS.items()]
    runs += [["reproduce", "--figure", fig, "--out", os.path.join(out_dir, "reproduce", fig)]
             for fig in FIGURES]
    failures = []
    for argv in runs:
        with contextlib.redirect_stdout(sys.stderr):
            code = gsync_main(argv)
        if code != 0:
            failures.append(f"exit {code}: gsync {' '.join(argv)}")
    extra = []
    for label, path in configs.items():
        cfg = parse_config(path)
        extra += [(f"{label}/{name}", record(cfg)) for name, record in RECORDS.items()]
    return extra, failures


def machine_record() -> str:
    """numpy's version and the SIMD extensions it found on this CPU (its
    float64 sin, cos and power kernels are chosen by them), and its BLAS
    name and version, read as the benchmark's machine record reads them."""
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
        simd = " ".join(config["SIMD Extensions"]["found"])
    except (TypeError, KeyError):
        blas_version = simd = "unknown"
    return f"numpy {np.__version__} (simd {simd}), blas {blas_version}"


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
    print("\n".join([f"# machine: {machine_record()}", *digests(out_dir, extra)]))
    for msg in failures:
        print(msg, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
