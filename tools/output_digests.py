"""SHA-256 of every file the gsync CLI writes on a fixed set of inputs.

Usage: python3 tools/output_digests.py OUT_DIR

Runs ``simulate``, ``certify``, ``synchronize --method both`` and
``diagnose`` on the built-in Section IV config and on the seed-1 config of
each benchmark workload (``perfbench/workloads.py``), plus ``reproduce``
fig1..fig4, each into its own directory under OUT_DIR.  Prints one
``sha256  relative/path`` line per output file, sorted by path.  Run it on
two checkouts and ``diff`` the listings to check that a change keeps the
CLI output byte-identical.  The package is imported from this checkout's
``src``.
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
from gsync.cli import main as gsync_main, section_iv_config  # noqa: E402

COMMANDS = (["simulate"], ["certify"], ["synchronize", "--method", "both"], ["diagnose"])
FIGURES = ("fig1", "fig2", "fig3", "fig4")


def run_all(out_dir: str, inputs_dir: str) -> list[str]:
    """Run every command; return a message for each non-zero exit code."""
    configs = {"section_iv": os.path.join(inputs_dir, "section_iv.cfg")}
    with open(configs["section_iv"], "w") as fh:
        fh.write(section_iv_config().resolved_text())
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
    return failures


def digests(out_dir: str) -> list[str]:
    lines = []
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
        failures = run_all(out_dir, inputs_dir)
    print("\n".join(digests(out_dir)))
    for msg in failures:
        print(msg, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
