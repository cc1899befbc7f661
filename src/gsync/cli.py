"""Batch command-line front end.

Subcommands: simulate | certify | synchronize | diagnose | reproduce.
All output is CSV with '#'-prefixed metadata lines; every run writes a
resolved configuration copy that reproduces it.  Exit codes: 0 success (or
required condition holds), 2 configuration error, 3 numerical failure,
4 required condition fails.
"""

from __future__ import annotations

import argparse
import os
import sys as _sys

import numpy as np

from . import __version__
from .config import RunConfig, parse_config, parse_config_text
from .contraction import OrbitConstants, certify
from .diagnostics import (derivative_profile, esp_convergence, holder_exponent,
                          input_forgetting)
from .dynsys import observe_trajectory
from .errors import ConfigError, GsyncError, InsufficientPairs, NotConverged
from .gs import (_drive_regions, _field, _psi_in_region, _unwrap, _write_csv, compare_gs,
                 drive_gs, psi_iterate_gs, write_gs_csv)
from .regions import InputRange
from .statemaps import _pow

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_CONDITION = 4

_SECTION_IV = """
system.kind = lorenz
system.h = 0.01
system.substeps = 8
system.initial = 0 1 1.05
system.n_steps = 4000
observation.kind = projection
observation.indices = 0
statemap.kind = power_sine
statemap.alpha = 0.9
statemap.lambda = 0.009
statemap.k = 0.1
region.1.kind = box
region.1.lo = 0.9 0.9 0.9
region.1.hi = 1.1 1.1 1.1
region.1.label = V1
region.2.kind = box
region.2.lo = -1.1 0.9 0.9
region.2.hi = -0.9 1.1 1.1
region.2.label = V2
run.washout = 2000
run.record = 2000
run.method = drive
"""


def _write(cfg: RunConfig, args, name: str, meta: dict, header: list[str], rows) -> str:
    """Write the command's CSV ``name`` into the output directory: the
    metadata block tool, command, seed and then ``meta``, the header and the
    rows; returns the path."""
    path = os.path.join(args.out, name)
    _write_csv(path, {"tool": f"gsync {__version__}", "command": args.command,
                      "seed": cfg.seed, **meta}, header, rows)
    return path


def _phase_names(cfg: RunConfig) -> list[str]:
    if getattr(cfg.system, "name", "") == "lorenz":
        return ["u", "v", "w"]
    return [f"m{i+1}" for i in range(cfg.system.phase_dim)]


def _orbit(cfg: RunConfig, n_steps: int):
    """The command's one orbit: the trajectory of ``n_steps`` steps from
    ``system.initial``, its observations and the hull of those."""
    traj = cfg.system.trajectory(cfg.initial, n_steps)
    z = observe_trajectory(cfg.observation, traj)
    return traj, z, InputRange.from_observations(z)


def _closed_form_l_fx(cfg: RunConfig, region, input_range: InputRange) -> float:
    """The state map's closed-form ``l_fx`` on region x input range, else nan."""
    analytic = cfg.statemap.analytic_lipschitz(region, input_range)
    return analytic["l_fx"] if analytic else float("nan")


def cmd_simulate(cfg: RunConfig, args) -> int:
    traj, z, _ = _orbit(cfg, cfg.n_steps)
    h = cfg.time_scale
    obs_names = ["obs"] if z.shape[1] == 1 else [f"obs{i+1}" for i in range(z.shape[1])]
    path = _write(cfg, args, "trajectory.csv", {"rows": len(traj)},
                  ["t"] + _phase_names(cfg) + obs_names,
                  np.column_stack([traj.times * h if h is not None else traj.times,
                                   traj.points, z]))
    print(f"simulate: wrote {len(traj)} rows to {path}")
    return EXIT_OK


def _drives(cfg: RunConfig, traj) -> list:
    """``drive_gs`` of every region in one stacked recursion: per region, in
    order, its synchronization or the error to raise at its turn."""
    return _drive_regions(cfg.statemap, cfg.system, cfg.observation, cfg.initial,
                          [region.center() for region in cfg.regions], cfg.regions,
                          washout_steps=cfg.washout, record_steps=cfg.record,
                          trajectory=traj)


def cmd_certify(cfg: RunConfig, args) -> int:
    traj, _, input_range = _orbit(cfg, cfg.n_steps)
    orbit = OrbitConstants.of(cfg.system, cfg.observation, traj.points, input_range=input_range)
    certs = [certify(cfg.statemap, region, orbit, resolution=cfg.grid_resolution,
                     n_inputs=cfg.input_samples, rng=cfg.seed) for region in cfg.regions]
    with open(os.path.join(args.out, "certificates.txt"), "w") as fh:
        for cert in certs:
            fh.write(cert.report_text() + "\n\n")
    # the header and each row are one already joined CSV line
    _write(cfg, args, "certificates.csv", {"require": args.require or "none"},
           [certs[0].csv_header()], ([cert.csv_row()] for cert in certs))

    for cert in certs:
        print(f"certify[{cert.region_label}]: esp_ok={cert.esp_ok} "
              f"diff_ok={cert.diff_ok} l_fx={cert.bounds.l_fx:.6g} "
              f"margin={cert.invariance_margin:.3g}")
    if args.require is not None and not all(c.condition_holds(args.require) for c in certs):
        print(f"certify: required condition {args.require!r} FAILS", file=_sys.stderr)
        return EXIT_CONDITION
    return EXIT_OK


def cmd_synchronize(cfg: RunConfig, args) -> int:
    method = args.method or cfg.method
    traj, _, input_range = _orbit(cfg, cfg.span)

    drives = _drives(cfg, traj) if method in ("drive", "both") else None
    # one psi run per start state's bytes (-0.0 is not 0.0), kept to its last region
    runs, last = {}, {region.center().tobytes(): i for i, region in enumerate(cfg.regions)}
    agreements = []
    shared = {}  # the text of every column and file body the files have in common
    for i, region in enumerate(cfg.regions):
        produced = {}
        if drives is not None:
            produced["drive"] = _unwrap(drives[i])
        if method in ("psi", "both"):
            key, l_fx = region.center().tobytes(), _closed_form_l_fx(cfg, region, input_range)
            gs = _psi_in_region(runs.pop(key), region, l_fx) if key in runs else psi_iterate_gs(
                cfg.statemap, cfg.system, cfg.observation, traj, region.center(), tol=cfg.tol,
                max_iters=cfg.max_iters, record_from=cfg.psi_from, region=region, l_fx=l_fx)
            if i < last[key]:
                runs[key] = gs
            if not gs.method["converged"]:
                raise NotConverged(
                    f"psi iteration on region {region.label!r} stopped after "
                    f"{cfg.max_iters} sweeps at change {gs.method['final_change']:.3e} "
                    f"> tol {cfg.tol:.3e}")
            produced["psi"] = gs
        for name, gs in produced.items():
            path = os.path.join(args.out, f"gs_{region.label}_{name}.csv")
            write_gs_csv(gs, path, metadata={"tool": f"gsync {__version__}", "seed": cfg.seed},
                         time_scale=cfg.time_scale, shared=shared)
            print(f"synchronize[{region.label}/{name}]: wrote {len(gs)} rows to {path}")
        if method == "both":
            sup = compare_gs(produced["drive"], produced["psi"])
            agreements.append([region.label, sup])
            print(f"synchronize[{region.label}]: drive/psi sup distance {sup:.3e}")
        if drives is not None:
            drives[i] = None  # written: its columns' text lives on in shared

    if agreements:
        _write(cfg, args, "agreement.csv", {"method": "both"},
               ["region", "sup_distance"], agreements)
    return EXIT_OK


def cmd_diagnose(cfg: RunConfig, args) -> int:
    region = cfg.regions[0]
    traj, z, input_range = _orbit(cfg, cfg.span)
    rng = np.random.default_rng(cfg.seed)
    l_fx = _closed_form_l_fx(cfg, region, input_range)

    # state convergence from two region points under the observed inputs
    x0a, x0b = region.sample(2, rng)
    n_esp = min(500, len(z) - 1)
    dists = esp_convergence(cfg.statemap, z[1:n_esp + 1], x0a, x0b)
    _write(cfg, args, "esp.csv", {"l_fx": l_fx},
           ["t", "distance"], np.column_stack([np.arange(len(dists)), dists]))

    rows = []
    for k in cfg.forgetting_k:
        worst = input_forgetting(cfg.statemap, region, input_range, k,
                                 trials=cfg.forgetting_trials, rng=rng)
        bound = _pow(l_fx, k) * region.diameter() + 1e-12 if np.isfinite(l_fx) else float("nan")
        rows.append([k, worst, bound])
        print(f"diagnose: forgetting k={k} max={worst:.3e} bound={bound:.3e}")
    _write(cfg, args, "forgetting.csv", {"trials": cfg.forgetting_trials},
           ["k", "max_distance", "bound"], rows)

    gs = drive_gs(cfg.statemap, cfg.system, cfg.observation, cfg.initial, region.center(),
                  washout_steps=cfg.washout, record_steps=cfg.record, region=region,
                  trajectory=traj)
    try:
        prof = derivative_profile(gs, pair_budget=cfg.pair_budget, rng=cfg.seed)
        # pair indices are below 2**53: %.17g prints them as the integers they are
        _write(cfg, args, "slopes.csv",
               {"bin_edges": " ".join(map(_field, prof.bin_edges)),
                "bin_counts": " ".join(map(str, prof.bin_counts)),
                "bin_max_slope": " ".join(map(_field, prof.bin_max_slope))},
               ["i", "j", "dm", "df", "slope"],
               np.column_stack([prof.pairs, prof.dm, prof.df, prof.slopes]))
        fit = holder_exponent(gs, pair_budget=cfg.pair_budget, rng=cfg.seed)
        _write(cfg, args, "holder.csv", {},
               ["gamma", "r_squared", "n_pairs", "window_lo", "window_hi", "dropped_zero_pairs"],
               [[fit.gamma, fit.r_squared, fit.n_pairs, *fit.window, fit.dropped_zero_pairs]])
        print(f"diagnose: holder gamma={fit.gamma:.4f} r2={fit.r_squared:.4f}")
    except InsufficientPairs as exc:
        print(f"diagnose: regularity probes skipped ({exc})", file=_sys.stderr)
    return EXIT_OK


def section_iv_config() -> RunConfig:
    """The built-in Lorenz demonstration configuration."""
    return parse_config_text(_SECTION_IV)


def cmd_reproduce(cfg: RunConfig, args) -> int:
    figure, h = args.figure, cfg.time_scale
    # rows with time in (20, 40]: step indices 2001..4000
    sel = np.arange(cfg.washout + 1, cfg.n_steps + 1)
    if figure != "fig3":
        traj, z, _ = _orbit(cfg, cfg.n_steps)

    if figure == "fig1":
        meta, header = {"rows": len(sel)}, ["t", "u", "v", "w"]
        table = np.column_stack([sel * h, traj.points[sel]])
    elif figure == "fig2":
        meta, header = {"rows": len(sel)}, ["t", "obs"]
        table = np.column_stack([sel * h, z[sel, 0]])
    elif figure == "fig3":
        # autonomous one-step displacement at the x3 = 1 cross-section
        grid = np.linspace(-1.5, 1.5, 41)
        # scalar ** per grid value: array ** may round differently
        d = np.array([cfg.statemap._signed_power(x) - x for x in grid])
        i, j = np.divmod(np.arange(len(grid) ** 2), len(grid))  # row-major (x1, x2) pairs
        meta = {"cross_section": "x3 = 1", "lambda": "0",
                "stable_fixed_points": "(1, 1); (-1, 1); (1, -1); (-1, -1)"}
        header, table = ["x1", "x2", "dx1", "dx2"], np.column_stack([grid[i], grid[j], d[i], d[j]])
    else:
        blocks = []
        for branch, drive in enumerate(_drives(cfg, traj), start=1):
            gs = _unwrap(drive)
            # drop t = washout to keep t in (20, 40]; %.17g prints the
            # branch number as the integer it is
            blocks.append(np.column_stack([gs.times[1:] * h, np.full(len(gs) - 1, branch),
                                           gs.values[1:]]))
        meta = {"branches": " ".join(r.label for r in cfg.regions)}
        header, table = ["t", "branch", "f1", "f2", "f3"], np.concatenate(blocks)
    path = _write(cfg, args, f"{figure}.csv", {"figure": figure, **meta}, header, table)
    print(f"reproduce: wrote {path}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gsync",
        description="Construct, certify, and diagnose generalized synchronizations.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, text, config=True, needs_regions=False):
        p = sub.add_parser(name, help=text)
        if config:
            p.add_argument("--config", required=True, help="run configuration file")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override run.seed")
        # needs_regions: the command reads a statemap.* and a region.N.* section
        p.set_defaults(run=run, needs_regions=needs_regions)
        return p

    command("simulate", cmd_simulate, "integrate and write the trajectory")
    p = command("certify", cmd_certify, "invariance + contraction certificates",
                needs_regions=True)
    p.add_argument("--require", choices=("esp", "diff"),
                   help="exit 0 iff this condition holds on every region")
    p = command("synchronize", cmd_synchronize, "construct sampled synchronizations",
                needs_regions=True)
    p.add_argument("--method", choices=("drive", "psi", "both"), help="override run.method")
    command("diagnose", cmd_diagnose, "convergence/forgetting/regularity probes",
            needs_regions=True)
    p = command("reproduce", cmd_reproduce, "emit the built-in demonstration figure data",
                config=False)
    p.add_argument("--figure", required=True, choices=("fig1", "fig2", "fig3", "fig4"))
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = section_iv_config() if args.command == "reproduce" else parse_config(args.config)
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError("--seed must be >= 0")
            cfg.seed = args.seed
            cfg.resolved["run.seed"] = str(args.seed)
        if args.needs_regions and cfg.statemap is None:
            raise ConfigError("this command requires a statemap.* section")
        if args.needs_regions and not cfg.regions:
            raise ConfigError("this command requires at least one region.N.* section")
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "resolved_config.cfg"), "w") as fh:
            fh.write(cfg.resolved_text())
        return args.run(cfg, args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=_sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        # a size key (run.record, run.forgetting_k, ...) asks for more than fits
        print(f"configuration error: the run does not fit in memory (MemoryError: {exc})",
              file=_sys.stderr)
        return EXIT_CONFIG
    except GsyncError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=_sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        # parse_config turns its own read errors into ConfigError, so this is
        # the output directory or a file written into it
        path = exc.filename if exc.filename is not None else args.out
        print(f"configuration error: cannot write output {path!r}: "
              f"{type(exc).__name__}: {exc}", file=_sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
