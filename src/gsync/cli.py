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
from .config import RunConfig, _fmt, parse_config, parse_config_text
from .contraction import certify
from .diagnostics import (derivative_profile, esp_convergence, holder_exponent,
                          input_forgetting)
from .dynsys import observe_trajectory
from .errors import ConfigError, GsyncError, InsufficientPairs, NotConverged
from .gs import (_drive_regions, _unwrap, _write_csv, compare_gs, drive_gs,
                 psi_iterate_gs, write_gs_csv)
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


def _meta(cfg: RunConfig, command: str, extra: dict | None = None) -> dict:
    meta = {"tool": f"gsync {__version__}", "command": command, "seed": cfg.seed}
    if extra:
        meta.update(extra)
    return meta


def _prepare_out(cfg: RunConfig, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "resolved_config.cfg"), "w") as fh:
        fh.write(cfg.resolved_text())


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


def cmd_simulate(cfg: RunConfig, out_dir: str) -> int:
    _prepare_out(cfg, out_dir)
    traj, z, _ = _orbit(cfg, cfg.n_steps)
    h = cfg.time_scale
    names = _phase_names(cfg)
    obs_names = ["obs"] if z.shape[1] == 1 else [f"obs{i+1}" for i in range(z.shape[1])]
    path = os.path.join(out_dir, "trajectory.csv")
    _write_csv(path, _meta(cfg, "simulate", {"rows": len(traj)}),
               ["t"] + names + obs_names,
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


def _require_statemap(cfg: RunConfig):
    if cfg.statemap is None:
        raise ConfigError("this command requires a statemap.* section")
    if not cfg.regions:
        raise ConfigError("this command requires at least one region.N.* section")


def cmd_certify(cfg: RunConfig, out_dir: str, require: str | None) -> int:
    _require_statemap(cfg)
    _prepare_out(cfg, out_dir)
    traj, _, _ = _orbit(cfg, cfg.n_steps)
    certs = []
    for region in cfg.regions:
        cert = certify(cfg.statemap, region, cfg.system, cfg.observation,
                       traj.points, resolution=cfg.grid_resolution,
                       n_inputs=cfg.input_samples, rng=cfg.seed)
        certs.append(cert)

    report_path = os.path.join(out_dir, "certificates.txt")
    with open(report_path, "w") as fh:
        for cert in certs:
            fh.write(cert.report_text() + "\n\n")
    # the header and each row are one already joined CSV line
    _write_csv(os.path.join(out_dir, "certificates.csv"),
               _meta(cfg, "certify", {"require": require or "none"}),
               [certs[0].csv_header()], ([cert.csv_row()] for cert in certs))

    for cert in certs:
        print(f"certify[{cert.region_label}]: esp_ok={cert.esp_ok} "
              f"diff_ok={cert.diff_ok} l_fx={cert.bounds.l_fx:.6g} "
              f"margin={cert.invariance_margin:.3g}")
    if require is not None and not all(c.condition_holds(require) for c in certs):
        print(f"certify: required condition {require!r} FAILS", file=_sys.stderr)
        return EXIT_CONDITION
    return EXIT_OK


def cmd_synchronize(cfg: RunConfig, out_dir: str, method: str | None) -> int:
    _require_statemap(cfg)
    method = method or cfg.method
    _prepare_out(cfg, out_dir)
    traj, _, input_range = _orbit(cfg, cfg.span)

    drives = _drives(cfg, traj) if method in ("drive", "both") else None
    agreements = []
    for i, region in enumerate(cfg.regions):
        produced = {}
        if drives is not None:
            produced["drive"] = _unwrap(drives[i])
        if method in ("psi", "both"):
            analytic = cfg.statemap.analytic_lipschitz(region, input_range)
            gs = psi_iterate_gs(cfg.statemap, cfg.system, cfg.observation, traj,
                                region.center(), tol=cfg.tol, max_iters=cfg.max_iters,
                                record_from=cfg.psi_from, region=region,
                                l_fx=analytic["l_fx"] if analytic else None)
            if not gs.method["converged"]:
                raise NotConverged(
                    f"psi iteration on region {region.label!r} stopped after "
                    f"{cfg.max_iters} sweeps at change {gs.method['final_change']:.3e} "
                    f"> tol {cfg.tol:.3e}")
            produced["psi"] = gs
        for name, gs in produced.items():
            path = os.path.join(out_dir, f"gs_{region.label}_{name}.csv")
            write_gs_csv(gs, path, metadata={"tool": f"gsync {__version__}", "seed": cfg.seed},
                         time_scale=cfg.time_scale)
            print(f"synchronize[{region.label}/{name}]: wrote {len(gs)} rows to {path}")
        if method == "both":
            sup = compare_gs(produced["drive"], produced["psi"])
            agreements.append((region.label, sup))
            print(f"synchronize[{region.label}]: drive/psi sup distance {sup:.3e}")

    if agreements:
        path = os.path.join(out_dir, "agreement.csv")
        _write_csv(path, _meta(cfg, "synchronize", {"method": "both"}),
                   ["region", "sup_distance"],
                   ([label, _fmt(sup)] for label, sup in agreements))
    return EXIT_OK


def cmd_diagnose(cfg: RunConfig, out_dir: str) -> int:
    _require_statemap(cfg)
    _prepare_out(cfg, out_dir)
    region = cfg.regions[0]
    traj, z, input_range = _orbit(cfg, cfg.span)
    rng = np.random.default_rng(cfg.seed)
    analytic = cfg.statemap.analytic_lipschitz(region, input_range)
    l_fx = analytic["l_fx"] if analytic else float("nan")

    # state convergence from two region points under the observed inputs
    x0a, x0b = region.sample(2, rng)
    n_esp = min(500, len(z) - 1)
    dists = esp_convergence(cfg.statemap, z[1:n_esp + 1], x0a, x0b)
    _write_csv(os.path.join(out_dir, "esp.csv"),
               _meta(cfg, "diagnose", {"l_fx": _fmt(l_fx)}),
               ["t", "distance"], np.column_stack([np.arange(len(dists)), dists]))

    rows = []
    for k in cfg.forgetting_k:
        worst = input_forgetting(cfg.statemap, region, input_range, k,
                                 trials=cfg.forgetting_trials, rng=rng)
        bound = _pow(l_fx, k) * region.diameter() + 1e-12 if np.isfinite(l_fx) else float("nan")
        rows.append([str(k), _fmt(worst), _fmt(bound)])
        print(f"diagnose: forgetting k={k} max={worst:.3e} bound={bound:.3e}")
    _write_csv(os.path.join(out_dir, "forgetting.csv"),
               _meta(cfg, "diagnose", {"trials": cfg.forgetting_trials}),
               ["k", "max_distance", "bound"], rows)

    gs = drive_gs(cfg.statemap, cfg.system, cfg.observation, cfg.initial, region.center(),
                  washout_steps=cfg.washout, record_steps=cfg.record, region=region,
                  trajectory=traj)
    try:
        prof = derivative_profile(gs, pair_budget=cfg.pair_budget, rng=cfg.seed)
        bins_meta = {
            "bin_edges": " ".join(_fmt(e) for e in prof.bin_edges),
            "bin_counts": " ".join(str(c) for c in prof.bin_counts),
            "bin_max_slope": " ".join(_fmt(s) for s in prof.bin_max_slope),
        }
        # pair indices are below 2**53: %.17g prints them as the integers they are
        _write_csv(os.path.join(out_dir, "slopes.csv"),
                   _meta(cfg, "diagnose", bins_meta),
                   ["i", "j", "dm", "df", "slope"],
                   np.column_stack([prof.pairs, prof.dm, prof.df, prof.slopes]))
        fit = holder_exponent(gs, pair_budget=cfg.pair_budget, rng=cfg.seed)
        _write_csv(os.path.join(out_dir, "holder.csv"),
                   _meta(cfg, "diagnose"),
                   ["gamma", "r_squared", "n_pairs", "window_lo", "window_hi",
                    "dropped_zero_pairs"],
                   [[_fmt(fit.gamma), _fmt(fit.r_squared), str(fit.n_pairs),
                     _fmt(fit.window[0]), _fmt(fit.window[1]),
                     str(fit.dropped_zero_pairs)]])
        print(f"diagnose: holder gamma={fit.gamma:.4f} r2={fit.r_squared:.4f}")
    except InsufficientPairs as exc:
        print(f"diagnose: regularity probes skipped ({exc})", file=_sys.stderr)
    return EXIT_OK


def section_iv_config() -> RunConfig:
    """The built-in Lorenz demonstration configuration."""
    return parse_config_text(_SECTION_IV)


def cmd_reproduce(cfg: RunConfig, figure: str, out_dir: str) -> int:
    _prepare_out(cfg, out_dir)
    h = cfg.time_scale
    # rows with time in (20, 40]: step indices 2001..4000
    sel = np.arange(cfg.washout + 1, cfg.n_steps + 1)
    path = os.path.join(out_dir, f"{figure}.csv")
    if figure in ("fig1", "fig2", "fig4"):
        traj, z, _ = _orbit(cfg, cfg.n_steps)

    if figure == "fig1":
        _write_csv(path, _meta(cfg, "reproduce", {"figure": "fig1", "rows": len(sel)}),
                   ["t", "u", "v", "w"], np.column_stack([sel * h, traj.points[sel]]))
    elif figure == "fig2":
        _write_csv(path, _meta(cfg, "reproduce", {"figure": "fig2", "rows": len(sel)}),
                   ["t", "obs"], np.column_stack([sel * h, z[sel, 0]]))
    elif figure == "fig3":
        # autonomous one-step displacement at the x3 = 1 cross-section
        alpha = cfg.statemap.alpha
        grid = np.linspace(-1.5, 1.5, 41)
        fixed = ["(1, 1)", "(-1, 1)", "(1, -1)", "(-1, -1)"]
        rows = []
        for x1 in grid:
            for x2 in grid:
                # scalar ** per point: array ** may round differently
                d1 = np.sign(x1) * abs(x1) ** alpha - x1
                d2 = np.sign(x2) * abs(x2) ** alpha - x2
                rows.append([x1, x2, d1, d2])
        _write_csv(path, _meta(cfg, "reproduce",
                               {"figure": "fig3", "cross_section": "x3 = 1",
                                "lambda": "0",
                                "stable_fixed_points": "; ".join(fixed)}),
                   ["x1", "x2", "dx1", "dx2"], np.array(rows))
    elif figure == "fig4":
        blocks = []
        for branch, drive in enumerate(_drives(cfg, traj), start=1):
            gs = _unwrap(drive)
            # drop t = washout to keep t in (20, 40]; %.17g prints the
            # branch number as the integer it is
            blocks.append(np.column_stack([gs.times[1:] * h, np.full(len(gs) - 1, branch),
                                           gs.values[1:]]))
        _write_csv(path, _meta(cfg, "reproduce",
                               {"figure": "fig4",
                                "branches": " ".join(r.label for r in cfg.regions)}),
                   ["t", "branch", "f1", "f2", "f3"], np.concatenate(blocks))
    else:
        raise ConfigError(f"unknown figure {figure!r}; choose fig1..fig4")
    print(f"reproduce: wrote {path}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gsync",
        description="Construct, certify, and diagnose generalized synchronizations.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="run configuration file")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override run.seed")

    common(sub.add_parser("simulate", help="integrate and write the trajectory"))
    p = sub.add_parser("certify", help="invariance + contraction certificates")
    common(p)
    p.add_argument("--require", choices=("esp", "diff"),
                   help="exit 0 iff this condition holds on every region")
    p = sub.add_parser("synchronize", help="construct sampled synchronizations")
    common(p)
    p.add_argument("--method", choices=("drive", "psi", "both"),
                   help="override run.method")
    common(sub.add_parser("diagnose", help="convergence/forgetting/regularity probes"))
    p = sub.add_parser("reproduce", help="emit the built-in demonstration figure data")
    p.add_argument("--figure", required=True, choices=("fig1", "fig2", "fig3", "fig4"))
    p.add_argument("--out", default="out")
    p.add_argument("--seed", type=int, default=None)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        reproduce = args.command == "reproduce"
        cfg = section_iv_config() if reproduce else parse_config(args.config)
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError("--seed must be >= 0")
            cfg.seed = args.seed
            cfg.resolved["run.seed"] = str(args.seed)
        if reproduce:
            return cmd_reproduce(cfg, args.figure, args.out)
        if args.command == "simulate":
            return cmd_simulate(cfg, args.out)
        if args.command == "certify":
            return cmd_certify(cfg, args.out, args.require)
        if args.command == "synchronize":
            return cmd_synchronize(cfg, args.out, args.method)
        if args.command == "diagnose":
            return cmd_diagnose(cfg, args.out)
        raise ConfigError(f"unknown command {args.command!r}")
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
