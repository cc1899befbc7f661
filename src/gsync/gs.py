"""Construction and comparison of sampled generalized synchronizations.

A generalized synchronization maps phase-space points of the driving system
to the states of the driven system.  Two constructions are provided:

* ``drive_gs``       -- run the driven recursion along a trajectory and
                        discard a washout transient (uses observations only);
* ``psi_iterate_gs`` -- fixed-point iteration of the synchronization
                        operator f -> F(f o phi^-1, omega) restricted to the
                        trajectory's sample points (phi^-1 is the stored
                        predecessor).

Both return a ``SampledGS`` holding the recorded points, values, per-row
residuals with their statistics, and provenance.  ``multistability_sweep``
and the CLI drive all their regions at once through the kernel behind
``drive_gs``: one stacked recursion for every start state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dynsys import DiscreteSystem, ObservationMap, Trajectory, _observe, observe_trajectory
from .errors import DisjointRanges, GsyncError, RegionEscape
from .regions import InvariantRegion
from .statemaps import StateMap


@dataclass
class SampledGS:
    """A synchronization represented by its values on trajectory points."""

    times: np.ndarray    # (n,) integer step indices
    points: np.ndarray   # (n, phase_dim) sampled phase points
    values: np.ndarray   # (n, state_dim) synchronization values
    method: dict         # provenance: construction name and parameters
    region_label: str = ""
    residual_max: float = float("nan")
    residual_mean: float = float("nan")
    residuals: np.ndarray | None = None  # (n,) one-step residual per row, nan on row 0

    def __len__(self) -> int:
        return len(self.times)


def run_recursion(F: StateMap, z, x0) -> np.ndarray:
    """States of the driven recursion x_t = F(x_{t-1}, z[t-1]), t = 1..len(z).

    Returns shape (len(z) + 1,) + x0.shape with row 0 = x0; a 1-D z is a
    sequence of scalar inputs and a 0-d z one scalar input.  x0 is checked
    once, ``F.input_terms`` (which checks z) is called once on all of z, and
    then ``F.apply`` once per step on an array of exactly x0's shape, so a
    state (N,) and a batch of states (B, N) each evaluate as they would
    alone.  F's non-finite rule then judges the finished states.
    """
    states = _recur(F, z, x0)
    F._check_finite(states[1:])
    return states


def _recur(F: StateMap, z, x0) -> np.ndarray:
    """The loop of ``run_recursion``, without the non-finite rule."""
    z = np.asarray(z, dtype=float)
    if z.ndim < 2:
        z = z.reshape(-1, 1)
    x = F._check_state(x0)
    u = F.input_terms(z)
    states = np.empty((len(z) + 1,) + x.shape)
    states[0] = x
    for t in range(len(z)):
        x = F.apply(x, u[t])
        states[t + 1] = x
    return states


def _max_row_norm(d: np.ndarray) -> float:
    """``np.max(np.linalg.norm(d, axis=-1))`` of a matrix d (n, N), bit for bit.

    Below 8 columns numpy adds the squared columns of a many-row matrix left
    to right, with the same add kernel as here (so even a nan keeps its
    sign); sqrt is monotone, so the root of the largest sum is the largest
    root.  From 8 columns numpy sums pairwise, and a lone row takes its
    scalar reduction, whose nan sign can differ: both keep ``np.linalg.norm``.
    """
    if d.shape[1] >= 8 or len(d) < 2:
        return float(np.max(np.linalg.norm(d, axis=-1)))
    sq = d * d
    total = sq[:, 0].copy()
    for j in range(1, d.shape[1]):
        total += sq[:, j]
    return float(np.sqrt(np.max(total)))


def _field(value) -> str:
    """CSV text of one value: a float as %.17g, anything else as str."""
    return f"{value:.17g}" if isinstance(value, float) else str(value)


def _write_csv(path, meta: dict, header: list[str], rows) -> None:
    """CSV with one '# key: value' line per metadata entry, then the header
    and the rows: sequences of fields, or a float matrix.  Every field and
    metadata value is written by one rule, a float as %.17g and anything else
    as str; a matrix goes through ``_csvtext.matrix_text``, byte for byte the
    text of f"{x:.17g}"."""
    with open(path, "w") as fh:
        for k, v in meta.items():
            fh.write(f"# {k}: {_field(v)}\n")
        fh.write(",".join(header) + "\n")
        if isinstance(rows, np.ndarray):
            # imported here so that importing gsync, which every CLI process
            # does, leaves the formatter unloaded until a matrix is written
            from ._csvtext import matrix_text
            fh.writelines(matrix_text(rows))
        else:
            for row in rows:
                fh.write(",".join(map(_field, row)) + "\n")


def _residuals(values: np.ndarray, z: np.ndarray, F: StateMap) -> np.ndarray:
    """Recursion defects ||f_t - F(f_{t-1}, z_t)|| over the recorded window."""
    pred = F.eval(values[:-1], z[1:])
    return np.linalg.norm(values[1:] - pred, axis=-1)


def _sampled(F: StateMap, z: np.ndarray, times: np.ndarray, points: np.ndarray,
             values: np.ndarray, method: dict, region: InvariantRegion | None) -> SampledGS:
    """A SampledGS of recorded values after their region check, with the
    residuals against the recorded inputs z (one row per value).  ``points``
    is stored as given, not copied."""
    _check_region(values, times, region)
    res = _residuals(values, z, F)
    return SampledGS(
        times=times, points=points, values=values, method=method,
        region_label=region.label if region is not None else "",
        residual_max=float(np.max(res)), residual_mean=float(np.mean(res)),
        residuals=np.concatenate([[np.nan], res]))


def recursion_residual(gs: SampledGS, F: StateMap, obs: ObservationMap) -> tuple[float, float]:
    """Max and mean violation of the one-step identity on the stored data."""
    if len(gs) < 2:
        raise ValueError("need at least two recorded points")
    r = _residuals(gs.values, _observe(obs, gs.points), F)
    return float(np.max(r)), float(np.mean(r))


def _check_region(values: np.ndarray, times: np.ndarray, region: InvariantRegion | None):
    if region is None:
        return
    inside = region.contains(values, tol=1e-12)
    if not np.all(inside):
        first = int(np.argmin(inside))
        raise RegionEscape(
            f"recorded state left region {region.label!r} first at step index "
            f"{int(times[first])}", index=int(times[first]))


def drive_gs(F: StateMap, sys: DiscreteSystem, obs: ObservationMap, m0, x0,
             washout_steps: int = 2000, record_steps: int = 2000,
             region: InvariantRegion | None = None,
             trajectory: Trajectory | None = None) -> SampledGS:
    """Drive the state recursion along a trajectory and record after washout.

    The recorded values approximate the synchronization at the recorded
    points with an error bounded by c^washout times the region diameter,
    where c is the state-contraction constant.  A precomputed trajectory
    (from the same m0, at least washout+record steps) may be supplied to
    avoid re-integration.
    """
    result, = _drive_regions(F, sys, obs, m0, [x0], [region], washout_steps,
                             record_steps, trajectory)
    return _unwrap(result)


def _unwrap(result):
    """A SampledGS from ``_drive_regions``, or raise the error in its place."""
    if isinstance(result, GsyncError):
        raise result
    return result


def _drive_regions(F: StateMap, sys: DiscreteSystem, obs: ObservationMap, m0,
                   starts, regions, washout_steps: int, record_steps: int,
                   trajectory: Trajectory | None) -> list:
    """``drive_gs`` from each start state x0 in ``starts`` within the region
    paired with it (None: unchecked), on one shared input sequence.

    Returns one entry per start, in order: its SampledGS, or the package
    error that ``drive_gs`` from that start alone would raise.  The starts
    that lie in their regions are driven together as one (B, N) batch by a
    single recursion (a lone one as its own (N,) state), and F's non-finite
    rule judges each row.  A package error of that loop itself (say from
    ``input_terms``) is every driven start's error, as it is each lone one's.
    """
    if washout_steps < 0:
        raise ValueError("washout_steps must be >= 0")
    if record_steps < 1:
        raise ValueError("record_steps must be >= 1")
    total = washout_steps + record_steps
    if trajectory is None:
        trajectory = sys.trajectory(m0, total)
    elif len(trajectory) < total + 1:
        raise ValueError("supplied trajectory is shorter than washout + record")
    try:
        z = observe_trajectory(obs, trajectory)[:total + 1]
    except GsyncError as exc:
        return [exc] * len(starts)

    xs = [np.asarray(x0, dtype=float) for x0 in starts]
    out, live = [None] * len(xs), []
    for i, (x, region) in enumerate(zip(xs, regions)):
        try:
            if region is not None and not region.contains(x, tol=1e-12):
                raise RegionEscape(f"initial state lies outside region {region.label!r}",
                                   index=None)
            F._check_state(x)
        except GsyncError as exc:
            out[i] = exc
            continue
        live.append(i)
    if not live:
        return out
    # a lone start keeps its own shape: (N,) steps are cheaper than (1, N) steps
    x0 = xs[live[0]] if len(live) == 1 else np.stack([xs[i] for i in live])
    try:
        states = _recur(F, z[1:], x0).reshape(total + 1, len(live), -1)
    except GsyncError as exc:
        for i in live:
            out[i] = exc
        return out

    times = trajectory.t0 + np.arange(washout_steps, total + 1)
    points = trajectory.points[washout_steps:total + 1].copy()  # shared by every region
    for row, i in enumerate(live):
        method = {"name": "drive", "washout_steps": washout_steps, "x0": xs[i].tolist()}
        try:
            F._check_finite(states[1:, row])
            out[i] = _sampled(F, z[washout_steps:], times, points,
                              states[washout_steps:, row].copy(), method, regions[i])
        except GsyncError as exc:
            out[i] = exc
    return out


def psi_iterate_gs(F: StateMap, sys: DiscreteSystem, obs: ObservationMap,
                   trajectory: Trajectory, f0_const, tol: float = 1e-12,
                   max_iters: int = 500, record_from: int = 0,
                   region: InvariantRegion | None = None,
                   l_fx: float | None = None) -> SampledGS:
    """Fixed-point iteration of f -> F(f o phi^-1, omega) on trajectory points.

    The function is stored only at the trajectory's points, where the
    inverse map is the stored predecessor.  No inverse step is taken (``sys``
    is not consulted): the value at the left endpoint's missing predecessor
    is held at the constant f0 throughout, which injects a boundary error
    that decays geometrically with the point index; ``record_from`` drops
    that contaminated left margin from the returned sample set.

    Sweeps are simultaneous (Jacobi) updates from the previous iterate and
    stop when the sup-norm change falls to ``tol``.  If ``l_fx`` is given,
    the a-priori fixed-point error bound l_fx^n/(1-l_fx)*||f1-f0|| is
    reported alongside the final sup-change.
    """
    if len(trajectory) < 2:
        raise ValueError("trajectory must have at least two points")
    if not 0 <= record_from < len(trajectory) - 1:
        raise ValueError("record_from must leave at least two recorded points")
    z = observe_trajectory(obs, trajectory)
    f0 = np.asarray(f0_const, dtype=float)
    if region is not None and not region.contains(f0, tol=1e-12):
        raise RegionEscape(f"f0 lies outside region {region.label!r}", index=None)

    n = len(trajectory)
    f = np.broadcast_to(f0, (n, F.state_dim)).copy()
    boundary = F.eval(f0, z[0])  # constant: frozen predecessor value
    u = F.input_terms(z[1:])
    change_history = []
    for _ in range(max_iters):
        f_new = np.empty_like(f)
        f_new[0] = boundary
        f_new[1:] = F.apply(f[:-1], u)
        change = _max_row_norm(f_new - f)
        # a finite change needs finite rows in f and f_new alike
        if not math.isfinite(change):
            F._check_finite(f_new[1:])
        change_history.append(change)
        f = f_new
        if change <= tol:
            break
    n_iters = len(change_history)
    first_change, change = (change_history[0], change_history[-1]) if n_iters else (math.nan,) * 2
    converged = change <= tol  # the last sweep broke the loop (a nan change never does)

    apriori = float("nan")
    if l_fx is not None and 0.0 < l_fx < 1.0:
        apriori = l_fx ** n_iters / (1.0 - l_fx) * first_change

    times = trajectory.t0 + np.arange(record_from, n)
    return _sampled(F, z[record_from:], times, trajectory.points[record_from:].copy(),
                    f[record_from:].copy(),
                    {"name": "psi", "n_iters": n_iters, "f0": f0.tolist(),
                     "tol": tol, "converged": converged,
                     "final_change": change, "first_change": first_change,
                     "change_history": change_history,
                     "apriori_bound": apriori, "record_from": record_from},
                    region)


def compare_gs(a: SampledGS, b: SampledGS) -> float:
    """Sup distance between two sampled synchronizations on shared indices."""
    t_lo = max(a.times[0], b.times[0])
    t_hi = min(a.times[-1], b.times[-1])
    if t_lo > t_hi:
        raise DisjointRanges("the recorded time ranges do not overlap")
    ia = slice(int(t_lo - a.times[0]), int(t_hi - a.times[0]) + 1)
    ib = slice(int(t_lo - b.times[0]), int(t_hi - b.times[0]) + 1)
    if not np.allclose(a.points[ia], b.points[ib], atol=1e-9, rtol=0.0):
        raise ValueError("the two synchronizations sample different base trajectories")
    return float(np.max(np.linalg.norm(a.values[ia] - b.values[ib], axis=-1)))


@dataclass
class SweepResult:
    """Outcome of a multi-region synchronization sweep over regions with
    distinct labels."""

    synchronizations: list      # SampledGS per successful region
    labels: list                # region labels, aligned with synchronizations
    separations: dict           # (label_i, label_j) -> min distance over shared times
    echo_index: int             # connected components of the within-tol graph
    failures: dict = field(default_factory=dict)  # label -> error message


def multistability_sweep(F: StateMap, regions, sys: DiscreteSystem,
                         obs: ObservationMap, m0, washout_steps: int = 2000,
                         record_steps: int = 2000, distinct_tol: float = 1e-6,
                         trajectory: Trajectory | None = None) -> SweepResult:
    """One drive-constructed synchronization per region, plus separations.

    All regions are driven from their centers in one stacked recursion.
    Regions where the drive fails with a package error (for instance a
    region escape, or a non-finite row under F's non-finite rule) are
    reported in ``failures`` and the others are kept; any other exception
    propagates.  Region labels must be distinct: ``separations`` and
    ``failures`` are keyed by them.  The echo index is a lower bound: the
    number of connected components of the recorded synchronizations, two
    of them joined when their minimum separation is at most
    ``distinct_tol``.
    """
    regions = list(regions)
    seen = set()
    for region in regions:
        if region.label in seen:
            raise ValueError(f"region label {region.label!r} repeats")
        seen.add(region.label)
    results = _drive_regions(F, sys, obs, m0, [region.center() for region in regions],
                             regions, washout_steps, record_steps, trajectory)
    gss, labels = [], []
    failures = {}
    for region, result in zip(regions, results):
        if isinstance(result, GsyncError):  # the other regions are still reported
            failures[region.label] = f"{type(result).__name__}: {result}"
            continue
        gss.append(result)
        labels.append(region.label)

    # each pair's minimum separation, and the connected components of the
    # graph of pairs within distinct_tol: a merge relabels every member of
    # the merged cluster
    separations = {}
    cluster = list(range(len(gss)))
    for i in range(len(gss)):
        for j in range(i + 1, len(gss)):
            d = float(np.min(np.linalg.norm(gss[i].values - gss[j].values, axis=-1)))
            separations[(labels[i], labels[j])] = d
            if d <= distinct_tol:
                old, new = max(cluster[i], cluster[j]), min(cluster[i], cluster[j])
                cluster = [new if c == old else c for c in cluster]
    echo_index = len(set(cluster))
    return SweepResult(synchronizations=gss, labels=labels,
                       separations=separations, echo_index=echo_index,
                       failures=failures)


def write_gs_csv(gs: SampledGS, path, F: StateMap | None = None,
                 obs: ObservationMap | None = None,
                 metadata: dict | None = None,
                 time_scale: float | None = None) -> None:
    """Serialize a sampled synchronization to CSV with '#'-prefixed metadata.

    Columns: t, the phase coordinates m1..mk, the value coordinates f1..fN,
    and the one-step recursion residual (nan on the first recorded row).  The
    residuals are those stored in ``gs``; only a SampledGS without them has
    them recomputed from F and obs (nan throughout when those are not
    supplied).  ``time_scale`` converts step indices to continuous time in
    the t column.
    """
    meta = {"method": gs.method.get("name", "?"), "region": gs.region_label,
            "residual_max": gs.residual_max, "residual_mean": gs.residual_mean}
    if metadata:
        meta.update(metadata)
    pd = gs.points.shape[1]
    nd = gs.values.shape[1]
    header = ["t"] + [f"m{i+1}" for i in range(pd)] + [f"f{i+1}" for i in range(nd)] + ["residual"]
    res = gs.residuals
    if res is None:
        res = np.full(len(gs), np.nan)
        if F is not None and obs is not None and len(gs) >= 2:
            res[1:] = _residuals(gs.values, _observe(obs, gs.points), F)
    times = gs.times * time_scale if time_scale is not None else gs.times
    _write_csv(path, meta, header, np.column_stack([times, gs.points, gs.values, res]))
