"""Run one gsync workload in this process and write the measurements as JSON.

Started by run.py, one process per run, so that peak RSS and import time
belong to the workload alone.  A run is set-up (import, input generation,
config parse), then timed passes for --seconds.  A pass runs every operation
of the workload once through the public CLI (``gsync.cli.main``) and the
public ``gsync.multistability_sweep``, and validates each operation's output
outside the timed region.  With --trace 1, traced and untraced passes
alternate and the result holds the per-layer metrics instead of the
end-to-end ones.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Callable

# Modules that import numpy (gsync, checks, workloads, reference, tracer) are
# imported inside functions, so that the set-up timer in main() covers them.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COMMAND_METRICS = ("certify", "synchronize", "diagnose", "reproduce", "sweep")
MIN_PASSES = 3          # fewest timed passes per run (of each kind with --trace 1)
HARD_LIMIT_S = 150.0    # no pass starts after this much wall time

# per-layer metrics, in the order BENCHMARK.json lists them
PER_LAYER = [
    ("dynsys.trajectory.calls", "count"), ("dynsys.trajectory.steps", "count"),
    ("dynsys.trajectory.self_s", "s"),
    ("dynsys.tangent_norm_bounds.calls", "count"),
    ("dynsys.tangent_norm_bounds.samples", "count"),
    ("dynsys.tangent_norm_bounds.self_s", "s"),
    ("statemaps.lipschitz_bounds.calls", "count"),
    ("statemaps.lipschitz_bounds.grid_points", "count"),
    ("statemaps.lipschitz_bounds.self_s", "s"),
    ("statemaps.eval.calls", "count"), ("statemaps.eval.rows", "count"),
    ("statemaps.eval.rows_per_call", "rows/call"),
    ("contraction.certify.self_s", "s"),
    ("contraction.check_invariance.self_s", "s"),
    ("contraction.check_invariance.sampled_share", "ratio"),
    ("gs.drive_gs.calls", "count"), ("gs.drive_gs.steps", "count"),
    ("gs.drive_gs.self_s", "s"),
    ("gs.psi_iterate_gs.calls", "count"), ("gs.psi_iterate_gs.sweeps", "count"),
    ("gs.psi_iterate_gs.sweeps_over_apriori", "ratio"),
    ("gs.psi_iterate_gs.self_s", "s"),
    ("gs.multistability_sweep.self_s", "s"),
    ("gs.write_gs_csv.rows", "count"), ("gs.write_gs_csv.bytes", "B"),
    ("gs.write_gs_csv.self_s", "s"),
    ("cli.output_bytes", "B"), ("cli.self_s", "s"),
    ("diagnostics.esp_convergence.self_s", "s"),
    ("diagnostics.input_forgetting.self_s", "s"),
    ("diagnostics.derivative_profile.self_s", "s"),
    ("diagnostics.holder_exponent.self_s", "s"),
    ("diagnostics.near_pairs", "count"),
    ("config.parse_config.self_s", "s"),
    ("trace.overhead_s", "s"),
]
LAYERS = ("dynsys", "statemaps", "contraction", "gs", "diagnostics", "config", "cli")
# the layer with the largest traced self time, as the workload was designed
EXPECTED_DOMINANT = {"lorenz_iv": "dynsys", "torus_eight_box": "gs",
                     "cat_reservoir": "statemaps"}


@dataclass(frozen=True)
class Op:
    """One operation of a pass."""

    metric: str                      # end-to-end metric its wall time adds to
    name: str                        # its output directory within the pass
    run: Callable                    # out_dir -> result
    check: Callable                  # (out_dir, result) -> problems
    digest: Callable                 # (out_dir, result) -> {name: sha256}
    span: str | None                 # root span opened around it when tracing


def make_ops(w, cfg, gsync, checks) -> list[Op]:
    """The workload's operations, in the order one pass runs them."""

    def cli(argv):
        def run(out):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                rc = gsync.cli.main(argv + ["--out", out])
            return rc, buf.getvalue()
        return run

    def cli_check(check):
        def run(out, result):
            rc, text = result
            return [f"exit code {rc}"] if rc != 0 else check(out, text)
        return run

    def files(out, _):
        return checks.file_hashes(out)

    conf = ["--config", w.config_path]
    ops = [
        Op("certify", "certify", cli(["certify", *conf]),
           cli_check(lambda out, _: checks.check_certify(out, w)), files, "cli.certify"),
        Op("synchronize", "synchronize", cli(["synchronize", *conf, "--method", "both"]),
           cli_check(lambda out, _: checks.check_synchronize(out, w)), files, "cli.synchronize"),
        Op("diagnose", "diagnose", cli(["diagnose", *conf]),
           cli_check(checks.check_diagnose), files, "cli.diagnose"),
    ]
    for fig in w.figures:
        ops.append(Op("reproduce", f"reproduce_{fig}",
                      cli(["reproduce", "--figure", fig, "--seed", str(w.seed)]),
                      cli_check(lambda out, _, f=fig: checks.check_figure(out, f)),
                      files, "cli.reproduce"))

    def sweep(out):
        # looked up at call time, so that the tracer's wrapper is the one called
        return gsync.multistability_sweep(cfg.statemap, cfg.regions, cfg.system,
                                          cfg.observation, cfg.initial,
                                          washout_steps=cfg.washout,
                                          record_steps=cfg.record)

    ops.append(Op("sweep", "sweep", sweep, lambda out, r: checks.check_sweep(r, w),
                  lambda out, r: checks.sweep_digest(r), None))
    return ops


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, n))
               for d, _, names in os.walk(path) for n in names)


@dataclass
class PassResult:
    times: dict     # metric -> wall time, rescaled by the reference kernel
    raw: dict       # metric -> wall time as measured
    speed: float    # REFERENCE_S / median kernel time over the pass
    results: list   # (op name, problems)


def run_pass(ops, pass_dir, digests, tracer=None) -> PassResult:
    """Run every op once, timing it while the reference kernel samples the machine.

    ``digests`` maps op name to the output digest of the first clean pass;
    later passes must reproduce it byte for byte.  Validation runs outside
    the timed regions.
    """
    import checks
    import reference
    res = PassResult({m: 0.0 for m in COMMAND_METRICS}, {m: 0.0 for m in COMMAND_METRICS},
                     0.0, [])
    with reference.Sampler() as sampler:
        for op in ops:
            out = os.path.join(pass_dir, op.name)
            problems, result = [], None
            before = sampler.mark()
            t = time.perf_counter()
            try:
                if tracer is not None and op.span is not None:
                    result = tracer.call(op.span, op.run, out)
                else:
                    result = op.run(out)
            except Exception as exc:  # the operation failed; record it and go on
                problems.append(f"raised {type(exc).__name__}: {exc}")
            except SystemExit as exc:
                problems.append(f"exited with {exc.code}")
            wall = time.perf_counter() - t
            after = sampler.mark()
            res.raw[op.metric] += wall
            res.times[op.metric] += sampler.scale(wall, before, after)
            if not problems:
                try:
                    problems += op.check(out, result)
                    digest = op.digest(out, result)
                except (OSError, ValueError, KeyError, IndexError) as exc:
                    problems.append(f"output unreadable: {type(exc).__name__}: {exc}")
            if not problems:
                if op.name in digests:
                    problems += checks.compare_hashes(digests[op.name], digest)
                else:
                    digests[op.name] = digest
            if tracer is not None and op.span is not None and os.path.isdir(out):
                tracer.add("cli.output_bytes", _dir_bytes(out))
            res.results.append((op.name, problems))
    res.speed = reference.REFERENCE_S / statistics.median(sampler.samples)
    shutil.rmtree(pass_dir, ignore_errors=True)
    return res


def _median(values):
    return statistics.median(values) if values else None


def layer_metrics(tracer, speed: dict, pass_counts: dict, overhead: float):
    """Per-layer metrics (median over traced passes), unmeasured names, layer self times.

    ``speed`` maps each traced pass to the factor that rescales its times to
    the reference machine speed.
    """
    per_pass, layer_self = [], []
    for k, factor in speed.items():
        spans = [s for s in tracer.spans if s.trace == k]
        selfs = tracer.self_times(spans)
        by_name: dict[str, float] = {}
        for s in spans:
            by_name[s.name] = by_name.get(s.name, 0.0) + factor * selfs[s.sid]
        c = pass_counts[k]

        def ratio(num, den):
            return c[num] / c[den] if c.get(den) else None

        vals = {name: by_name.get(name[:-len(".self_s")]) for name, _ in PER_LAYER
                if name.endswith(".self_s")}
        vals.update({name: c.get(name) for name, unit in PER_LAYER if unit in ("count", "B")})
        vals.update({
            "statemaps.lipschitz_bounds.grid_points": c.get("statemaps.lipschitz_bounds.grid.rows"),
            "statemaps.eval.rows_per_call": ratio("statemaps.eval.rows", "statemaps.eval.calls"),
            "contraction.check_invariance.sampled_share":
                ratio("contraction.check_invariance.sampled", "contraction.check_invariance.calls"),
            "gs.psi_iterate_gs.sweeps_over_apriori":
                ratio("gs.psi_iterate_gs.sweeps_with_apriori", "gs.psi_iterate_gs.apriori_sweeps"),
            "cli.self_s": sum(v for n, v in by_name.items() if n.startswith("cli.")) or None,
            "trace.overhead_s": overhead,
        })
        per_pass.append(vals)
        layer_self.append({layer: sum(v for n, v in by_name.items()
                                      if n.startswith(layer + ".")) for layer in LAYERS})

    metrics, not_measured = {}, []
    for name, unit in PER_LAYER:
        values = [v[name] for v in per_pass if v.get(name) is not None]
        if len(values) < len(per_pass) or not values:
            not_measured.append(name)
            values = [0]
        metrics[name] = {"value": _median(values), "unit": unit}
    layers = {layer: _median([ls[layer] for ls in layer_self]) for layer in LAYERS}
    return metrics, not_measured, layers


def trace_consistency(tracer) -> list[str]:
    """Commands whose spans' self times do not add up to the command's wall time."""
    selfs = tracer.self_times(tracer.spans)
    subtree = {s.sid: selfs[s.sid] for s in tracer.spans}
    for s in reversed(tracer.spans):        # children come after their parents
        if s.parent is not None:
            subtree[s.parent] += subtree[s.sid]
    bad = []
    for s in tracer.spans:
        wall = s.end - s.start
        if s.parent is None and abs(subtree[s.sid] - wall) > 1e-9 + 1e-9 * wall:
            bad.append(f"{s.name} (pass {s.trace}): self times add to "
                       f"{subtree[s.sid]:.9f} s, wall {wall:.9f} s")
    return bad


def _openblas_threads():
    """Threads the loaded OpenBLAS will use, read from the library itself."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln and ".so" in ln}
        for path in sorted(libs):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    return int(fn())
    except OSError:
        pass
    return None


def machine_record(np, scipy) -> dict:
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    return {"nproc": nproc, "python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas_version,
            "blas_thread_cap": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")) or None,
            "blas_threads_in_use": _openblas_threads()}


def main(argv=None) -> int:
    t0 = time.perf_counter()
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", default="full")
    p.add_argument("--work", required=True, help="directory for inputs and outputs")
    p.add_argument("--result", required=True, help="JSON file to write")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    # set-up: import, input generation and config parse; the reference
    # kernel samples the machine from the moment numpy is there
    import numpy as np
    import reference
    with reference.Sampler() as sampler:
        import scipy
        import gsync
        import gsync.cli
        import gsync.config
        import checks
        import workloads
        src = os.path.join(ROOT, "src")
        if os.path.commonpath([os.path.abspath(gsync.__file__), src]) != src:
            print(f"gsync imported from {gsync.__file__}, not from {src}", file=sys.stderr)
            return 2
        w = workloads.build(args.workload, args.seed, os.path.join(args.work, "inputs"),
                            args.size)
        cfg = gsync.config.parse_config(w.config_path)
        setup_raw = time.perf_counter() - t0
        sampler.mark()
    result = {"setup_s": setup_raw * reference.REFERENCE_S / statistics.median(sampler.samples),
              "setup_raw_s": setup_raw}
    if args.setup_only:
        with open(args.result, "w") as fh:
            json.dump(result, fh)
        return 0

    machine = machine_record(np, scipy)
    if not machine["blas_thread_cap"] or machine["blas_thread_cap"] > machine["nproc"]:
        print(f"BLAS thread cap {machine['blas_thread_cap']} is not in 1..nproc",
              file=sys.stderr)
        return 2

    from tracer import Tracer
    ops = make_ops(w, cfg, gsync, checks)
    out_root = os.path.join(args.work, "out")
    shutil.rmtree(out_root, ignore_errors=True)
    tracer = Tracer() if args.trace else None
    digests: dict = {}
    attempted, failed, problems = 0, 0, []
    passes, pass_counts = [], {}

    def one_pass(k: int, traced: bool):
        nonlocal attempted, failed
        if traced:
            tracer.begin(k)
            tracer.install()
        t = time.perf_counter()
        try:
            res = run_pass(ops, os.path.join(out_root, f"p{k}"), digests,
                           tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            pass_counts[k] = dict(tracer.counts)
        attempted += len(res.results)
        failed += sum(1 for _, msgs in res.results if msgs)
        problems.extend(f"pass {k} {name}: {msg}" for name, msgs in res.results for msg in msgs)
        return {"pass": k, "traced": traced, "wall": time.perf_counter() - t,
                "times": res.times, "raw": res.raw,
                "speed": res.speed}

    # The first pass is timed like the rest: a CLI user pays first-call costs
    # in every process, and the median over the passes discounts them.
    start = time.perf_counter()
    need = 2 * MIN_PASSES if args.trace else MIN_PASSES
    k = 1
    while True:
        passes.append(one_pass(k, bool(args.trace) and k % 2 == 0))
        k += 1
        now = time.perf_counter()
        typical = statistics.median(q["wall"] for q in passes)
        if now - start + typical > args.seconds and len(passes) >= need:
            break                               # the next pass would overrun --seconds
        if now - t0 + passes[-1]["wall"] > HARD_LIMIT_S:
            break

    untraced = [q for q in passes if not q["traced"]]
    result.update({"attempted": attempted, "failed": failed, "problems": problems,
                   "machine": machine, "passes": len(passes), "pass_log": passes,
                   "measured_s": time.perf_counter() - start})
    if args.trace:
        overhead = (_median([sum(q["times"].values()) for q in passes if q["traced"]])
                    - _median([sum(q["times"].values()) for q in untraced]))
        speed = {q["pass"]: q["speed"] for q in passes if q["traced"]}
        metrics, not_measured, layers = layer_metrics(tracer, speed, pass_counts, overhead)
        result.update({"metrics": metrics, "not_measured": not_measured,
                       "missing": tracer.missing, "layer_self_s": layers,
                       "dominant": max(layers, key=lambda layer: layers[layer] or 0.0),
                       "expected_dominant": EXPECTED_DOMINANT.get(args.workload),
                       "inconsistent": trace_consistency(tracer)})
        with open(os.path.join(args.work, "trace.json"), "w") as fh:
            json.dump({"spans": tracer.to_json(), "counts": pass_counts}, fh)
    else:
        metrics = {"workload_s": {"value": _median([sum(q["times"].values()) for q in untraced]),
                                  "unit": "s"}}
        for m in COMMAND_METRICS:
            metrics[f"{m}_s"] = {"value": _median([q["times"][m] for q in untraced]),
                                 "unit": "s"}
        metrics["peak_rss_mb"] = {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"}
        result["metrics"] = metrics
        result["raw"] = {f"{m}_s": _median([q["raw"][m] for q in untraced])
                         for m in COMMAND_METRICS}
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
