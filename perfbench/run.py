"""gsync benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload lorenz_iv --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout and imports gsync from its ``src``
directory.  With --trace 0 the last stdout line holds the end-to-end metrics
(per-command wall time, set-up time, peak RSS); with --trace 1 it holds the
per-layer metrics of a traced run.  Inputs, outputs, the machine record and
the span dump go to ``.perfbench_work/`` in the checkout.  See
perfbench/README.md for the workloads and what each metric should predict.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("lorenz_iv", "torus_eight_box", "cat_reservoir")
SETUP_PROBES = 6        # extra processes that only set up; with the run's own, 7 samples
WORKER_TIMEOUT_S = 170
# one BLAS thread: gsync's batched small-matrix SVDs ran 1.8x slower with two
# threads on a 2-core machine, and one thread is the plain single-core baseline
BLAS_THREADS = "1"


def _worker(args, work: str, tag: str, extra: list[str]) -> dict:
    result = os.path.join(work, f"{tag}.json")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--work", work, "--result", result, *extra]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, timeout=WORKER_TIMEOUT_S,
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0 or not os.path.exists(result):
        raise RuntimeError(f"worker {tag} exited with {proc.returncode}:\n{proc.stdout[-4000:]}")
    with open(result) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="gsync benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measured time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny inputs, for the benchmark's own tests")
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "gsync", "cli.py")):
        print(f"perfbench: no gsync sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    work = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-s{args.seed}-t{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)

    try:
        setups = [] if args.trace else [_worker(args, work, f"setup{i}", ["--setup-only"])
                                         for i in range(SETUP_PROBES)]
        res = _worker(args, work, "run", [])
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    metrics = res["metrics"]
    if not args.trace:
        setups.append(res)
        metrics["setup_s"] = {"value": statistics.median(s["setup_s"] for s in setups),
                              "unit": "s"}
        res["raw"]["setup_s"] = statistics.median(s["setup_raw_s"] for s in setups)
    with open(os.path.join(work, "machine.json"), "w") as fh:
        json.dump(res["machine"], fh, indent=1)

    print(f"perfbench: workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={res['passes']} measured={res['measured_s']:.1f}s")
    print("machine: " + json.dumps(res["machine"]))
    raw = res.get("raw", {})
    for name, m in metrics.items():
        as_measured = f"   (wall as measured {raw[name]:.6g} s)" if name in raw else ""
        print(f"  {name:45s} {m['value']:.6g} {m['unit']}{as_measured}")
    share = res["failed"] / res["attempted"]
    print(f"failed_op_share: {res['failed']}/{res['attempted']} = {share:.6g}")
    for problem in res["problems"][:20]:
        print(f"  FAILED {problem}")
    correct = res["failed"] == 0
    if args.trace:
        for name in res["missing"]:
            print(f"trace: wrapped name {name} does not exist; its metrics read 0")
        if res["not_measured"]:
            print("trace: never fired on this workload, reported as 0: "
                  + ", ".join(res["not_measured"]))
        total = sum(res["layer_self_s"].values())
        print("trace: self time by layer: " + ", ".join(
            f"{k} {v:.3f}s ({v / total:.0%})" for k, v in res["layer_self_s"].items()))
        verdict = "as designed" if res["dominant"] == res["expected_dominant"] else "MISMATCH"
        print(f"trace: dominant layer {res['dominant']}, designed for "
              f"{res['expected_dominant']}: {verdict}")
        for line in res["inconsistent"]:
            print(f"trace: INCONSISTENT {line}")
        correct = correct and not res["inconsistent"]
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
