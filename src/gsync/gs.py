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
``drive_gs``: one recursion with one row per distinct start state, whose
sample every region that starts there shares.  The CLI's psi calls share
their runs through one map (``psi_iterate_gs(..., shared=)``), and on an
elementwise map they sweep each distinct coordinate column once.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace
from functools import partial, reduce
from operator import iadd

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
    then F's kernel, prepared once for x0's shape (``F._kernel``), once per
    step on an array of exactly that shape, writing into the next row.  A
    row of a batch (B, N) is not always the bits of that state stepped
    alone as (N,): an elementwise map's are, but ``Esn``'s product goes to
    BLAS's matrix-vector kernel for (N,) and its matrix-matrix kernel for
    (B, N), which may round differently.  F's non-finite rule then judges
    the finished states.
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
    step = F._kernel(x.shape)
    for prev, u_t, out in zip(states, u, states[1:]):
        step(prev, u_t, out)
    return states


# numpy's norm of a many-row x adds the squared columns left to right below
# this many columns and sums each row by its own add.reduce from it
_PAIRWISE_COLUMNS = 8


def _add_columns(columns, out=None) -> np.ndarray:
    """The columns added left to right, in place: how
    ``np.linalg.norm(x, axis=-1)`` adds the squared columns of a many-row x
    below ``_PAIRWISE_COLUMNS``, with the same add kernel (so even a nan keeps its
    sign).  The sum goes into ``out`` if given, else into the first column:
    the columns are the caller's scratch."""
    columns = iter(columns)
    total = next(columns)
    if out is not None:
        np.copyto(out, total)
        total = out
    return reduce(iadd, columns, total)


def _row_sums_of_squares(d: np.ndarray, sums: np.ndarray) -> np.ndarray:
    """The row sums of d * d of a matrix d (n, N), added as
    ``np.linalg.norm(d, axis=-1)`` adds them, into ``sums`` (n,), with no
    array allocated: d is squared in place (it is the caller's scratch).

    Below ``_PAIRWISE_COLUMNS`` numpy adds the columns left to right, as
    ``_add_columns`` does; from there it sums each row pairwise, which its
    own ``add.reduce`` does into ``sums``.
    """
    return _squares_summed(np.multiply(d, d, out=d), range(d.shape[1]), sums)


def _squares_summed(sq: np.ndarray, cols, sums: np.ndarray) -> np.ndarray:
    """The row sums of the columns ``cols`` (indices, in order) of a squared
    matrix sq (n, K) into ``sums`` (n,), added as ``_row_sums_of_squares``
    adds the squares of the matrix those columns make: left to right on
    views below ``_PAIRWISE_COLUMNS``, by numpy's ``add.reduce`` over
    ``_own_columns`` from there."""
    if 0 < len(cols) < _PAIRWISE_COLUMNS:
        return _add_columns((sq[:, c] for c in cols), out=sums)
    return np.add.reduce(_own_columns(sq, cols), axis=-1, out=sums)


def _row_norms(d: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(d, axis=-1)`` of a matrix d (n, N), with d as
    scratch: the row norm of every hot path.  numpy's norm calls its sum
    once per row; ``_row_sums_of_squares`` adds whole columns, with numpy's
    bits but for the sign of a lone row's nan, which '%.17g' does not print."""
    sums = _row_sums_of_squares(d, np.empty(len(d)))
    return np.sqrt(sums, out=sums)


def _max_row_norm(sq: np.ndarray, cols, sums: np.ndarray) -> float:
    """``np.max(np.linalg.norm(d[:, cols], axis=-1))`` from sq = d * d (n,
    K), with the (n,) array ``sums`` as scratch: sqrt is monotone, so the
    root of the largest row sum (``_squares_summed``) is the largest root.
    No array is allocated below ``_PAIRWISE_COLUMNS`` columns or when
    ``cols`` is every column in order.  numpy's bits but for the sign of a
    lone row's nan, as in ``_row_norms``."""
    return float(np.sqrt(np.max(_squares_summed(sq, cols, sums))))


def _field(value) -> str:
    """Text of one value, the rule behind every CSV field and metadata value
    and every float of the resolved config: a float as %.17g, else str."""
    return f"{value:.17g}" if isinstance(value, float) else str(value)


def _write_csv(path, meta: dict, header: list[str], rows) -> None:
    """CSV with one '# key: value' line per metadata entry, then the header
    and the rows: sequences of fields, or a float matrix.  Every field and
    metadata value is written by one rule, a float as %.17g and anything else
    as str; a matrix goes through ``_csvtext.csv_text``, byte for byte the
    text of f"{x:.17g}".  Lines end in '\\n' on every platform."""
    if isinstance(rows, np.ndarray):
        # imported here so that importing gsync, which every CLI process
        # does, leaves the formatter unloaded until a matrix is written
        from ._csvtext import csv_text
        text = csv_text(list(np.asarray(rows, dtype=np.float64).T))
    else:
        text = ((",".join(map(_field, row)) + "\n").encode() for row in rows)
    _write_text(path, meta, header, text)


def _write_text(path, meta: dict, header: list[str], text) -> int:
    """``_write_csv`` with the rows already rendered: ``text`` is an
    iterable of blocks of whole CSV lines in bytes.  Returns the rows' offset."""
    head = "".join(f"# {k}: {_field(v)}\n" for k, v in meta.items()) + ",".join(header) + "\n"
    with open(path, "wb") as fh:
        offset = fh.write(head.encode())
        fh.writelines(text)
    return offset


def _residuals(values: np.ndarray, z: np.ndarray, F: StateMap) -> np.ndarray:
    """Recursion defects ||f_t - F(f_{t-1}, z_t)|| over the recorded window.

    The differences are taken in the prediction's own array when F returns
    a fresh writable one of their shape, as every built-in map does; a
    custom map's function may return a view of its arguments or a read-only
    array, and then they go into a new one."""
    pred = F.eval(values[:-1], z[1:])
    own = pred.base is None and pred.flags.writeable and pred.shape == values[1:].shape
    return _row_norms(np.subtract(values[1:], pred, out=pred if own else None))


def _sampled(F: StateMap, z: np.ndarray, times: np.ndarray, points: np.ndarray,
             values: np.ndarray, method: dict) -> SampledGS:
    """An unlabelled SampledGS of recorded values, with the residuals
    against the recorded inputs z (one row per value).  ``points`` and
    ``values`` are stored as given, not copied."""
    res = _residuals(values, z, F)
    return SampledGS(
        times=times, points=points, values=values, method=method,
        residual_max=float(np.max(res)), residual_mean=float(np.mean(res)),
        residuals=np.concatenate([[np.nan], res]))


def recursion_residual(gs: SampledGS, F: StateMap, obs: ObservationMap) -> tuple[float, float]:
    """Max and mean violation of the one-step identity on the stored data."""
    if len(gs) < 2:
        raise ValueError("need at least two recorded points")
    r = _residuals(gs.values, _observe(obs, gs.points), F)
    return float(np.max(r)), float(np.mean(r))


def _label(region: InvariantRegion | None) -> str:
    return region.label if region is not None else ""


def _check_start(x, region: InvariantRegion | None, name: str = "f0"):
    if region is not None and not region.contains(x, tol=1e-12):
        raise RegionEscape(f"{name} lies outside region {region.label!r}", index=None)


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
    that lie in their regions are keyed by their bytes (-0.0 is not 0.0),
    and each distinct one is one row of a single recursion: a lone row
    steps as its own (N,) state, two or more as a (B', N) batch.  Each row
    gets one non-finite judgement, one recorded copy and one sample (one
    residual pass), shared by every region that starts there, values array
    included; each region still gets its own start and value checks and its
    own label.  A package error of the loop itself (say from
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
    out, groups = [None] * len(xs), {}  # a distinct start's bytes -> the starts with them
    for i, (x, region) in enumerate(zip(xs, regions)):
        try:
            _check_start(x, region, "initial state")
            F._check_state(x)
        except GsyncError as exc:
            out[i] = exc
            continue
        groups.setdefault(x.tobytes(), []).append(i)
    if not groups:
        return out
    groups = list(groups.values())
    # a lone row keeps its own shape: (N,) steps are cheaper than (1, N) steps
    x0 = xs[groups[0][0]] if len(groups) == 1 else np.stack([xs[g[0]] for g in groups])
    try:
        states = _recur(F, z[1:], x0).reshape(total + 1, len(groups), -1)
    except GsyncError as exc:  # every start not failed yet was driven
        return [exc if result is None else result for result in out]

    times = trajectory.t0 + np.arange(washout_steps, total + 1)
    points = trajectory.points[washout_steps:total + 1].copy()  # shared by every region
    recorded = []
    for row, group in enumerate(groups):
        try:
            F._check_finite(states[1:, row])
            recorded.append((group, states[washout_steps:, row].copy()))
        except GsyncError as exc:
            for i in group:
                out[i] = exc
    del states  # the samples below need only the recorded rows
    for group, values in recorded:
        inside = []
        for i in group:  # each region's own check, before the shared residuals
            try:
                _check_region(values, times, regions[i])
                inside.append(i)
            except GsyncError as exc:
                out[i] = exc
        if not inside:
            continue
        method = {"name": "drive", "washout_steps": washout_steps, "x0": xs[inside[0]].tolist()}
        try:
            run = _sampled(F, z[washout_steps:], times, points, values, method)
        except GsyncError as exc:
            for i in inside:
                out[i] = exc
            continue
        for i in inside:
            out[i] = replace(run, method=dict(method), region_label=_label(regions[i]))
    return out


def psi_iterate_gs(F: StateMap, sys: DiscreteSystem, obs: ObservationMap,
                   trajectory: Trajectory, f0_const, tol: float = 1e-12,
                   max_iters: int = 500, record_from: int = 0,
                   region: InvariantRegion | None = None,
                   l_fx: float | None = None, *, shared: dict | None = None) -> SampledGS:
    """Fixed-point iteration of f -> F(f o phi^-1, omega) on trajectory points.

    The function is stored only at the trajectory's points, where the
    inverse map is the stored predecessor.  No inverse step is taken (``sys``
    is not consulted): the value at the left endpoint's missing predecessor
    is held at the constant f0 throughout, which injects a boundary error
    that decays geometrically with the point index; ``record_from`` drops
    that contaminated left margin from the returned sample set.

    Sweeps are simultaneous (Jacobi) updates from the previous iterate,
    written by F's kernel (``F._kernel``, prepared once) into the other of
    two preallocated iterates, and stop when the sup-norm change falls to
    ``tol``.  The change is taken in the outgoing iterate, which the next
    sweep overwrites anyway.  If ``l_fx`` is given, the a-priori fixed-point
    error bound l_fx^n/(1-l_fx)*||f1-f0|| is reported alongside the final
    sup-change.  The recorded values are a view of the final iterate: the
    other iterate, the input terms and the kernel go before the residuals
    are taken, so at most three arrays of the iterate's size are live then.

    ``shared`` lets the psi calls of one command share their sweeps.  It
    maps the bytes of an (N,) start state to None, a start still to run, or
    to the arguments and the run it was made with: the run before any
    region rule, an unlabelled SampledGS or the package error that a lone
    call from there raises.  A call whose start has no run yet runs it,
    together with every start still waiting in the map when F is
    elementwise (``StateMap.elementwise``), and keeps each run there; a
    call whose start has one takes it, and raises ValueError if it was made
    with another F, obs, trajectory, tol, max_iters or record_from.  Bytes,
    not values, pick the run: -0.0 is not 0.0.  Every call applies its own
    region rule, and its result is that of a lone call (``shared`` None)
    bit for bit.  The caller owns the map and may delete a start's entry
    once no call will ask for it again.
    """
    if len(trajectory) < 2:
        raise ValueError("trajectory must have at least two points")
    if not 0 <= record_from < len(trajectory) - 1:
        raise ValueError("record_from must leave at least two recorded points")
    f0 = np.asarray(f0_const, dtype=float)
    _check_start(f0, region)
    if shared is None or f0.shape != (F.state_dim,):
        run, = _psi_runs(F, obs, trajectory, [f0], tol, max_iters, record_from)
    else:
        key, args = f0.tobytes(), (F, obs, trajectory, tol, max_iters, record_from)
        if shared.get(key) is None:
            waiting = [k for k, run in shared.items() if run is None and k != key]
            keys = [key] + waiting if F.elementwise else [key]
            starts = [f0] + [np.frombuffer(k) for k in keys[1:]]
            runs = _psi_runs(F, obs, trajectory, starts, tol, max_iters, record_from)
            shared.update((k, (args, run)) for k, run in zip(keys, runs))
        made, run = shared[key]
        if any(a is not b for a, b in zip(made[:3], args)) or made[3:] != args[3:]:
            raise ValueError("shared holds a psi run made with other arguments")
    return _psi_in_region(_unwrap(run), region, l_fx)


def _psi_runs(F: StateMap, obs: ObservationMap, trajectory: Trajectory, starts, tol: float,
              max_iters: int, record_from: int) -> list:
    """psi from each start in ``starts`` in one set of sweeps: per start, in
    order, its unlabelled SampledGS or the package error that its lone
    ``psi_iterate_gs`` raises.  The iterate (n, K) holds the starts'
    distinct columns, a coordinate i and the bytes of a start's value
    there: a lone start's state is its N columns in order, and two or more
    (an elementwise F, (N,) starts) give each column its coordinate's input
    terms.  A start reads its own N columns and takes their
    ``_max_row_norm`` from the change squared once.  It stops at its own
    first sweep within tol, or at max_iters, with its values copied out
    there, or fails alone under F's non-finite rule.  Once a start is out,
    the loop sweeps only the columns that a running start reads, and it
    ends when every start has stopped.
    """
    try:
        z = observe_trajectory(obs, trajectory)
    except GsyncError as exc:
        return [exc] * len(starts)
    out, live = [None] * len(starts), []
    for s, f0 in enumerate(starts):
        try:
            live.append((s, F.eval(f0, z[0])))  # constant: frozen predecessor value
        except GsyncError as exc:
            out[s] = exc
    if not live:
        return out
    # (coordinate, start value bytes) -> (column, coordinate, start value, boundary value)
    columns = {}
    running = [(s, [columns.setdefault((i, x.tobytes()), (len(columns), i, x, b))[0]
                    for i, (x, b) in enumerate(zip(np.reshape(starts[s], F.state_dim),
                                                   np.reshape(bound, F.state_dim)))], [])
               for s, bound in live]
    _, coords, row, boundary = map(np.array, zip(*columns.values()))
    try:
        u = F.input_terms(z[1:])  # before the iterates exist: its temporaries never sit beside them
    except GsyncError as exc:
        for s, _ in live:
            out[s] = exc
        return out
    if len(columns) > F.state_dim:  # two or more starts
        u = u.take(coords, axis=1)

    n = len(trajectory)
    f = np.broadcast_to(row, (n, len(columns))).copy()
    f_new, sums = np.empty_like(f), np.empty(n)
    step = F._kernel(f[:-1].shape)
    stopped = []  # (start index, recorded values, change history)
    for _ in range(max_iters):
        f_new[0] = boundary
        step(f[:-1], u, f_new[1:])
        # the change in the outgoing iterate, squared once for every start
        np.subtract(f_new, f, out=f)
        np.multiply(f, f, out=f)
        still = []
        for s, cols, history in running:
            change = _max_row_norm(f, cols, sums)
            # a finite change needs finite rows in f and f_new alike
            if not math.isfinite(change):
                try:
                    F._check_finite(_own_columns(f_new[1:], cols))
                except GsyncError as exc:
                    out[s] = exc
                    continue
            history.append(change)
            if change <= tol:
                stopped.append((s, _own_columns(f_new[record_from:], cols), history))
            else:
                still.append((s, cols, history))
        f, f_new = f_new, f
        if len(still) < len(running):  # a start is out: keep only the columns still read
            kept = sorted({c for _, cols, _ in still for c in cols})
            if still and len(kept) < f.shape[1]:
                new = {c: j for j, c in enumerate(kept)}
                still = [(s, [new[c] for c in cols], history) for s, cols, history in still]
                f, u, boundary = f.take(kept, axis=1), u.take(kept, axis=1), boundary[kept]
                f_new, step = np.empty_like(f), F._kernel(f[:-1].shape)
        running = still
        if not running:
            break
    stopped += [(s, _own_columns(f[record_from:], cols), history)
                for s, cols, history in running]
    del f, f_new, u, step, sums

    times = trajectory.t0 + np.arange(record_from, n)
    points = trajectory.points[record_from:].copy()  # shared by every start
    for s, values, history in stopped:
        n_iters = len(history)
        first_change, change = (history[0], history[-1]) if n_iters else (math.nan,) * 2
        method = {"name": "psi", "n_iters": n_iters, "f0": starts[s].tolist(), "tol": tol,
                  # the last sweep stopped the start (a nan change never does)
                  "converged": change <= tol, "final_change": change,
                  "first_change": first_change, "change_history": history,
                  "apriori_bound": math.nan, "record_from": record_from}
        try:
            out[s] = _sampled(F, z[record_from:], times, points, values, method)
        except GsyncError as exc:
            out[s] = exc
    return out


def _own_columns(a: np.ndarray, cols) -> np.ndarray:
    """The columns ``cols`` of a matrix a, in order: a itself when they are
    all of it in order (a lone start's state is the whole psi iterate),
    else a C-contiguous copy."""
    return a if list(cols) == list(range(a.shape[1])) else a.take(cols, axis=1)


def _psi_in_region(run: SampledGS, region, l_fx) -> SampledGS:
    """The psi ``run`` as ``region``'s: its f0 and value checks (None: none),
    label and a-priori bound from ``l_fx``, the one region rule of every psi result."""
    _check_start(np.asarray(run.method["f0"]), region)
    _check_region(run.values, run.times, region)
    apriori = (l_fx ** run.method["n_iters"] / (1.0 - l_fx) * run.method["first_change"]
               if l_fx is not None and 0.0 < l_fx < 1.0 else math.nan)
    return replace(run, method={**run.method, "apriori_bound": apriori},
                   region_label=_label(region))


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
    return float(np.max(_row_norms(a.values[ia] - b.values[ib])))


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

    All regions are driven from their centers in one recursion, one row per
    distinct center: regions that share a center share its synchronization's
    values, each with its own region check and label.  Regions where the
    drive fails with a package error (for instance a region escape, or a
    non-finite row under F's non-finite rule) are reported in ``failures`` and the others are kept; any other exception
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
            d = float(np.min(_row_norms(gss[i].values - gss[j].values)))
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
                 time_scale: float | None = None, *, shared: dict | None = None) -> None:
    """Serialize a sampled synchronization to CSV with '#'-prefixed metadata.

    Columns: t, the phase coordinates m1..mk, the value coordinates f1..fN,
    and the one-step recursion residual (nan on the first recorded row).  The
    residuals are those stored in ``gs``; only a SampledGS without them has
    them recomputed from F and obs (nan throughout when those are not
    supplied).  ``time_scale`` converts step indices to continuous time in
    the t column.

    ``shared`` lets the files of one command render each column that they
    have in common once.  It maps a column's key (its separator, its row
    count and a 16-byte sha256 prefix of its float64 bytes) to its rendered
    fields, and a file's tuple of keys to where its rows went (real path,
    offset).  A file copies its rows from there, or else its rows are joined
    from the map and the columns new to it, which ``_csvtext.csv_text``
    renders in the same pass from views of ``gs`` and then keeps.  Bytes,
    not values, pick the text: -0.0 == 0.0 and nan != nan.  The caller owns
    the map, so nothing outlives the command that made it.
    """
    from ._csvtext import csv_text  # loaded by the first write, as in _write_csv
    meta = {"method": gs.method.get("name", "?"), "region": gs.region_label,
            "residual_max": gs.residual_max, "residual_mean": gs.residual_mean}
    if metadata:
        meta.update(metadata)
    pd, nd = gs.points.shape[1], gs.values.shape[1]
    header = ["t"] + [f"m{i+1}" for i in range(pd)] + [f"f{i+1}" for i in range(nd)] + ["residual"]
    res = gs.residuals
    if res is None:
        res = np.full(len(gs), np.nan)
        if F is not None and obs is not None and len(gs) >= 2:
            res[1:] = _residuals(gs.values, _observe(obs, gs.points), F)
    times = gs.times * time_scale if time_scale is not None else gs.times
    columns = [np.asarray(column, dtype=np.float64)
               for column in (times, *gs.points.T, *gs.values.T, res)]
    if shared is None:
        _write_text(path, meta, header, csv_text(columns))
        return
    import hashlib  # here: only a shared write takes digests
    seps = "," * (len(header) - 1) + "\n"
    keys = tuple((sep, len(gs), hashlib.sha256(np.ascontiguousarray(column)).digest()[:16])
                 for sep, column in zip(seps, columns))
    target = os.path.realpath(path)  # never read while it is written
    for key in [k for k, at in shared.items() if isinstance(at, tuple) and at[0] == target]:
        del shared[key]
    if keys in shared:  # another file holds these rows: copy them
        with open(shared[keys][0], "rb") as rows:
            rows.seek(shared[keys][1])
            text = iter(partial(rows.read, 1 << 16), b"")
            shared[keys] = (target, _write_text(path, meta, header, text))
        return
    shared[keys] = (target, _write_text(path, meta, header, csv_text(columns, keys, shared)))
