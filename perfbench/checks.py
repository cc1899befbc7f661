"""Per-operation output validation, with the acceptance suite's tolerances.

Every check returns a list of problems; an operation with any problem counts
as failed.  ``file_hashes`` and ``compare_hashes`` enforce the byte-for-byte
reproducibility promise: the same config and seed give identical files.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np

AGREEMENT_TOL = 1e-10
BOX_TOL = 1e-12
MIN_SEPARATION = 1.6
# Section IV boxes of the built-in reproduce config: fig4 branch -> (lo, hi)
FIG4_BOXES = {1: ([0.9, 0.9, 0.9], [1.1, 1.1, 1.1]),
              2: ([-1.1, 0.9, 0.9], [-0.9, 1.1, 1.1])}
FIGURE_ROWS = {"fig1": 2000, "fig2": 2000, "fig3": 41 * 41, "fig4": 4000}


def read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    """Header and data rows of a gsync CSV, skipping '#' metadata lines."""
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip() and not ln.startswith("#")]
    if not lines:
        return [], []
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def _column(header, rows, name) -> list[str]:
    i = header.index(name)
    return [r[i] for r in rows]


def check_certify(out: str, w) -> list[str]:
    header, rows = read_csv(os.path.join(out, "certificates.csv"))
    problems = []
    labels = _column(header, rows, "region")
    if tuple(labels) != w.region_labels:
        problems.append(f"certificates for {labels}, expected {list(w.region_labels)}")
    for row in rows:
        rec = dict(zip(header, row))
        where = f"certify[{rec['region']}]"
        if rec["esp_ok"] != "True":
            problems.append(f"{where}: esp_ok is {rec['esp_ok']}")
        if rec["invariance_ok"] != "True":
            problems.append(f"{where}: invariance_ok is {rec['invariance_ok']}")
        if not abs(float(rec["l_fx"]) - w.l_fx) <= w.l_fx_tol:
            problems.append(f"{where}: l_fx {rec['l_fx']} is not within "
                            f"{w.l_fx_tol:g} of {w.l_fx!r}")
        if w.tangent_inv_norm is not None and \
                not abs(float(rec["tangent_inv_norm"]) - w.tangent_inv_norm) <= 1e-9:
            problems.append(f"{where}: tangent_inv_norm {rec['tangent_inv_norm']} is not "
                            f"within 1e-9 of {w.tangent_inv_norm!r}")
    return problems


def check_synchronize(out: str, w) -> list[str]:
    problems = []
    for label in w.region_labels:
        for method in ("drive", "psi"):
            if not os.path.exists(os.path.join(out, f"gs_{label}_{method}.csv")):
                problems.append(f"synchronize: gs_{label}_{method}.csv missing")
    header, rows = read_csv(os.path.join(out, "agreement.csv"))
    if tuple(_column(header, rows, "region")) != w.region_labels:
        problems.append("synchronize: agreement.csv does not list every region")
    for label, sup in zip(_column(header, rows, "region"),
                          _column(header, rows, "sup_distance")):
        if not float(sup) <= AGREEMENT_TOL:
            problems.append(f"synchronize[{label}]: drive/psi sup distance {sup} "
                            f"> {AGREEMENT_TOL:g}")
    return problems


def check_diagnose(out: str, printed: str) -> list[str]:
    """Diagnose outputs and the forgetting bound.

    The regularity probes (slopes.csv, holder.csv) may be skipped, as gsync
    documents, when the sampled points give too few near pairs; the skip must
    then be printed.  On the cat map's scattered orbit it always is, and on
    a few Lorenz seeds too.
    """
    problems = [f"diagnose: {name} missing" for name in ("esp.csv", "forgetting.csv")
                if not os.path.exists(os.path.join(out, name))]
    if "regularity probes skipped" not in printed:
        problems += [f"diagnose: {name} missing and no skip printed"
                     for name in ("slopes.csv", "holder.csv")
                     if not os.path.exists(os.path.join(out, name))]
    if not problems:
        header, rows = read_csv(os.path.join(out, "forgetting.csv"))
        for k, worst, bound in zip(_column(header, rows, "k"),
                                   _column(header, rows, "max_distance"),
                                   _column(header, rows, "bound")):
            if not float(worst) <= float(bound):
                problems.append(f"diagnose: forgetting k={k} distance {worst} "
                                f"exceeds its bound {bound}")
    return problems


def check_figure(out: str, figure: str) -> list[str]:
    header, rows = read_csv(os.path.join(out, f"{figure}.csv"))
    problems = []
    if len(rows) != FIGURE_ROWS[figure]:
        problems.append(f"{figure}: {len(rows)} rows, expected {FIGURE_ROWS[figure]}")
    if figure == "fig2" and rows:
        t = np.array(_column(header, rows, "t"), dtype=float)
        if not (t.min() > 20.0 and t.max() <= 40.0 + 1e-12):
            problems.append(f"fig2: t spans [{t.min()}, {t.max()}], not (20, 40]")
    if figure == "fig4" and rows:
        branch = np.array(_column(header, rows, "branch"), dtype=int)
        f = np.array([_column(header, rows, c) for c in ("f1", "f2", "f3")], dtype=float).T
        for b, (lo, hi) in FIG4_BOXES.items():
            vals = f[branch == b]
            if len(vals) == 0 or np.any(vals < np.array(lo) - BOX_TOL) \
                    or np.any(vals > np.array(hi) + BOX_TOL):
                problems.append(f"fig4: branch {b} leaves its box")
    return problems


def check_sweep(result, w) -> list[str]:
    problems = []
    if result.failures:
        problems.append(f"sweep: failures {result.failures}")
    if tuple(result.labels) != w.region_labels:
        problems.append(f"sweep: synchronizations for {result.labels}")
    if result.echo_index != w.echo_index:
        problems.append(f"sweep: echo_index {result.echo_index}, expected {w.echo_index}")
    if w.echo_index > 1 and result.separations:
        sep = min(result.separations.values())
        if not sep >= MIN_SEPARATION:
            problems.append(f"sweep: minimum separation {sep} < {MIN_SEPARATION}")
    return problems


def sweep_digest(result) -> dict[str, str]:
    """Hashes of the sweep's synchronization values, one per region."""
    return {label: hashlib.sha256(gs.values.tobytes()).hexdigest()
            for label, gs in zip(result.labels, result.synchronizations)}


def file_hashes(out: str) -> dict[str, str]:
    """SHA-256 of every file under out, keyed by relative path."""
    hashes = {}
    for dirpath, _, names in os.walk(out):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                hashes[os.path.relpath(path, out)] = hashlib.sha256(fh.read()).hexdigest()
    return hashes


def compare_hashes(reference: dict, current: dict) -> list[str]:
    """Problems where the current outputs differ from the reference pass."""
    problems = [f"{name}: missing (present in the first pass)"
                for name in sorted(set(reference) - set(current))]
    problems += [f"{name}: not written in the first pass"
                 for name in sorted(set(current) - set(reference))]
    problems += [f"{name}: differs from the first pass byte for byte"
                 for name in sorted(set(reference) & set(current))
                 if reference[name] != current[name]]
    return problems
