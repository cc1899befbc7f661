"""Empirical probes: state convergence, input forgetting, and regularity.

The regularity probes (secant-slope profiles and a scaling-exponent fit)
operate on near pairs of sampled phase points, excluding temporal
neighbors so that the statistics reflect the synchronization map rather
than the smoothness of the flow itself.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientPairs, LengthMismatch
from .gs import (_PAIRWISE_COLUMNS, SampledGS, _add_columns, _row_norms,
                 _row_sums_of_squares, run_recursion)
from .regions import InputRange, InvariantRegion, _rng
from .statemaps import StateMap


class WeightingSequence:
    """Strictly decreasing weights w_0 = 1 > w_1 > ... > 0 for past lags."""

    def __init__(self, weights=None, ratio: float | None = None):
        if (weights is None) == (ratio is None):
            raise ValueError("provide exactly one of weights or ratio")
        if ratio is not None:
            if not 0.0 < ratio < 1.0:
                raise ValueError("ratio must lie in (0, 1)")
            self.ratio = float(ratio)
            self._weights = None
        else:
            w = np.asarray(weights, dtype=float)
            if w.ndim != 1 or len(w) < 1:
                raise ValueError("weights must be a non-empty vector")
            if w[0] != 1.0:
                raise ValueError("the lag-0 weight must equal 1")
            if np.any(np.diff(w) >= 0.0) or np.any(w <= 0.0):
                raise ValueError("weights must be strictly decreasing and positive")
            self.ratio = None
            self._weights = w

    @classmethod
    def geometric(cls, ratio: float) -> "WeightingSequence":
        return cls(ratio=ratio)

    def weights(self, length: int) -> np.ndarray:
        if self._weights is None:
            return self.ratio ** np.arange(length)
        if length > len(self._weights):
            raise ValueError(f"custom sequence has only {len(self._weights)} weights")
        return self._weights[:length].copy()


def weighted_distance(window_a, window_b, w: WeightingSequence) -> float:
    """Weighted sup distance of two finite windows, index 0 = most recent."""
    a = np.atleast_2d(np.asarray(window_a, dtype=float))
    b = np.atleast_2d(np.asarray(window_b, dtype=float))
    if a.shape != b.shape:
        raise LengthMismatch(f"window shapes differ: {a.shape} vs {b.shape}")
    wts = w.weights(len(a))
    return float(np.max(_row_norms(a - b) * wts))


def esp_convergence(F: StateMap, inputs, x0a, x0b) -> np.ndarray:
    """Distances between two driven states fed the same input sequence.

    Returns d_t for t = 0..len(inputs), where a 1-D ``inputs`` is a
    sequence of scalar inputs; under a certified contraction the ratio
    d_{t+1}/d_t stays below the contraction constant until the distances
    hit the floating-point floor.
    """
    # two lone recursions and per-vector norms: stacking the states or the
    # norms would round differently
    xa = run_recursion(F, inputs, x0a)
    xb = run_recursion(F, inputs, x0b)
    return np.array([np.linalg.norm(a - b) for a, b in zip(xa, xb)])


def input_forgetting(F: StateMap, region: InvariantRegion, input_range: InputRange,
                     suffix_len: int, trials: int = 100, prefix_len: int = 20,
                     rng=None) -> float:
    """Max final-state distance over random pairs sharing an input suffix.

    Each trial starts two states at random region points, feeds them
    independent random inputs for ``prefix_len`` steps and then a common
    random suffix of length ``suffix_len``.  Under a contraction with
    constant c the result is bounded by c^suffix_len times the region
    diameter.
    """
    if suffix_len < 0:
        raise ValueError("suffix_len must be >= 0")
    g = _rng(rng)
    xa = region.sample(trials, g)
    xb = region.sample(trials, g)
    d = input_range.dim
    # drawn in the order of a step-by-step loop: per prefix step the inputs
    # of xa, then of xb; then one shared input per suffix step
    prefix = g.uniform(input_range.lo, input_range.hi, size=(prefix_len, 2, trials, d))
    suffix = g.uniform(input_range.lo, input_range.hi, size=(suffix_len, trials, d))
    xa = _final_state(F, suffix, _final_state(F, prefix[:, 0], xa))
    xb = _final_state(F, suffix, _final_state(F, prefix[:, 1], xb))
    return float(np.max(_row_norms(xa - xb)))


# input_forgetting's recursions take this many steps per run_recursion call:
# their states then hold (33, trials, N) numbers whatever the horizon, and
# each call's set-up (input terms, kernel, checks) is paid once per chunk
_FORGET_CHUNK = 32


def _final_state(F: StateMap, z: np.ndarray, x0) -> np.ndarray:
    """``run_recursion(F, z, x0)[-1]``, bit for bit and with the same
    errors, from ``run_recursion`` on ``_FORGET_CHUNK`` inputs at a time,
    each chunk started from a copy of the last state of the one before: no
    state history outlives its chunk, and F's non-finite rule judges every
    chunk.  An empty z still makes one call, which checks x0 and z."""
    x = x0
    for t in range(0, max(len(z), 1), _FORGET_CHUNK):
        x = run_recursion(F, z[t:t + _FORGET_CHUNK], x)[-1].copy()
    return x


# The near-pair search puts points into cubic cells on at most the first
# _CELL_AXES coordinates, at most _AXIS_CELLS cells per axis so that a cell
# key with a one-cell border fits in int64.  A cell's side exceeds the search
# radius by _MARGIN, far above the rounding of the cell coordinates, so every
# pair within the radius lies in the same or adjacent cells.  Candidate pairs
# are tested about _BATCH at a time: that bounds the memory the search takes,
# and batch arrays of about 128 KB ran faster than larger ones.
_CELL_AXES = 3
_AXIS_CELLS = 2 ** 20
_MARGIN = 1e-6
_BATCH = 2 ** 14


def _squared_distances(points, cols, a, b) -> np.ndarray:
    """Squared distances between rows ``a`` and ``b`` (index arrays or slices)
    of ``points``, whose columns are ``cols``, summed as
    ``np.linalg.norm(points[a] - points[b], axis=-1)`` sums them, so that
    the square root has the bits of the norm: gathered column by column
    below ``_PAIRWISE_COLUMNS``, by ``_row_sums_of_squares`` from there."""
    if len(cols) >= _PAIRWISE_COLUMNS:
        diff = points[a] - points[b]
        return _row_sums_of_squares(diff, np.empty(len(diff)))
    return _add_columns(np.multiply(d, d, out=d) for d in (col[a] - col[b] for col in cols))


def _pairs_within(points: np.ndarray, radius: float):
    """Every pair of points whose squared distance is at most ``radius**2``,
    once each, in batches ``(i, j, squared distance)`` with unordered indices.

    A grid (cell-list) search: the points are sorted by cell, and each
    point is tested against runs of the sorted points that cover half of its
    neighbour cells, so that each pair of adjacent cells is visited once.
    """
    n = len(points)
    head = points[:, :_CELL_AXES]
    lo = head.min(axis=0)
    extent = head.max(axis=0) - lo
    side = max(radius * (1.0 + _MARGIN), float(extent.max()) / _AXIS_CELLS)
    if side == 0.0:  # a zero radius on points equal on the cell axes
        side = 1.0
    cell = np.floor((head - lo) / side).astype(np.int64) + 1
    strides = np.cumprod(np.r_[1, cell.max(axis=0)[:-1] + 2])
    key = cell @ strides
    order = np.argsort(key, kind="stable")
    key = key[order]
    points = points[order]
    cols = list(points.T.copy())
    bound = radius * radius

    # runs of candidates in the cell order: each point meets the later points
    # of its cell and of the next cell along axis 0, and the three cells along
    # axis 0 of each neighbour row at a positive key step (whose last nonzero
    # offset is +1); together they visit every pair of adjacent cells once
    rows = [step for offset in itertools.product((-1, 0, 1), repeat=len(strides) - 1)
            if (step := int(np.dot(offset, strides[1:]))) > 0]
    first = np.stack([np.arange(1, n + 1)]
                     + [np.searchsorted(key, key + (row - 1)) for row in rows], axis=1)
    end = np.stack([np.searchsorted(key, key + (row + 1), side="right")
                    for row in [0, *rows]], axis=1)
    count = (end - first).ravel()
    first = first.ravel()
    owner = np.repeat(np.arange(n), len(rows) + 1)
    ends = np.cumsum(count)
    cuts = [0, *np.searchsorted(ends, range(_BATCH, ends[-1], _BATCH), side="right"),
            len(count)]
    for r0, r1 in zip(cuts[:-1], cuts[1:]):
        m = count[r0:r1]
        if not m.any():
            continue
        before = ends[r0:r1] - m
        a = np.repeat(owner[r0:r1], m)
        b = np.arange(before[0], ends[r1 - 1]) + np.repeat(first[r0:r1] - before, m)
        sq = _squared_distances(points, cols, a, b)
        near = sq <= bound
        if not near.all():
            a, b, sq = a[near], b[near], sq[near]
        if len(sq):
            yield order[a], order[b], sq


def _median_spacing(points: np.ndarray) -> float:
    """``np.median`` of each point's distance to its nearest other point.

    Searches pairs within a radius, doubled until at least ``n//2 + 1``
    points find their nearest neighbour within it: those distances are
    exact and the others exceed them, so the middle order statistics are
    exact.  The radius starts at the smaller of the side of a cell holding
    one point on average and the distance within which half the points
    have a temporal neighbour (tight on a sampled flow).
    """
    n = len(points)
    if n < 2:
        return float("inf")
    cols = list(points.T)
    step = _squared_distances(points, cols, slice(1, None), slice(None, -1))
    to_neighbour = np.minimum(np.r_[step, np.inf], np.r_[np.inf, step])
    half = np.partition(to_neighbour, n // 2)[n // 2]
    if half == 0.0:  # more than half the points repeat a temporal neighbour
        return 0.0
    radius = np.sqrt(half) * (1.0 + _MARGIN)
    extent = np.ptp(points[:, :_CELL_AXES], axis=0)
    extent = extent[extent > 0.0]
    if len(extent):
        radius = min(radius, float(np.prod(extent / n ** (1.0 / len(extent))))
                     ** (1.0 / len(extent)))
    while True:
        nearest = np.full(n, np.inf)
        for i, j, sq in _pairs_within(points, radius):
            np.minimum.at(nearest, i, sq)
            np.minimum.at(nearest, j, sq)
        if np.count_nonzero(nearest < np.inf) > n // 2:
            return float(np.median(np.sqrt(nearest)))
        radius *= 2.0


def _near_pairs(points: np.ndarray, radius_factor: float, min_time_sep: int,
                pair_budget: int, rng) -> tuple[np.ndarray, np.ndarray, float]:
    """Index pairs within a radius, temporally separated, subsampled per scale.

    The radius is ``radius_factor`` times the median distance from each
    point to its nearest other point; it is returned with the pairs and
    their distances.  The pairs come in lexicographic ``(i, j)`` order,
    ``i < j``.  Subsampling is stratified over logarithmic distance shells
    so that the fine scales keep representation when the budget truncates;
    which pairs it keeps depends only on the pair set and ``rng``.
    """
    med = _median_spacing(points)
    if med == 0.0:
        raise InsufficientPairs("degenerate sample: repeated phase points")
    radius = med * radius_factor
    n = len(points)
    keys, sqs = [], []
    found = separated = 0
    for i, j, sq in _pairs_within(points, radius):
        first, second = np.minimum(i, j), np.maximum(i, j)
        found += len(sq)
        keep = second - first >= min_time_sep
        separated += np.count_nonzero(keep)
        keep &= sq > 0.0
        if not keep.all():
            first, second, sq = first[keep], second[keep], sq[keep]
        keys.append(first * n + second)
        sqs.append(sq)
    if found == 0:
        raise InsufficientPairs("no near pairs within the search radius")
    if separated == 0:
        raise InsufficientPairs("all near pairs are temporal neighbors")
    # each pass below writes into the array it reads, and each list goes
    # once it is joined, so the pairs take at most three numbers each at once
    key = np.concatenate(keys)
    del keys
    if len(key) > pair_budget:
        shell = np.concatenate(sqs)
        del sqs
        # the shell of each distance dm: floor(4 log10(dm / min dm)) in [0, 64]
        np.sqrt(shell, out=shell)
        np.divide(shell, shell.min(), out=shell)
        np.log10(shell, out=shell)
        np.multiply(shell, 4.0, out=shell)
        np.floor(shell, out=shell)
        np.clip(shell, 0, 64, out=shell)
        shell_key = shell.astype(np.int64)
        del shell
        counts = np.bincount(shell_key)
        per_shell = max(pair_budget // len(counts), 50)
        # sorted shell by shell, each shell in lexicographic order (the shell
        # keys stay below 65 n**2, in int64 for any sample that fits in memory)
        shell_key *= n * n
        shell_key += key
        del key
        shell_key.sort()
        key = np.concatenate([rng.choice(part, per_shell, replace=False)
                              if len(part) > per_shell else part
                              for part in np.split(shell_key, np.cumsum(counts)[:-1])]) % (n * n)
    else:
        key.sort()
    first, second = np.divmod(key, n)
    dm = np.sqrt(_squared_distances(points, list(points.T), first, second))
    pairs = np.stack([first, second], axis=1)
    return pairs, dm, radius


@dataclass(frozen=True)
class DerivativeProfile:
    """Secant slopes of a sampled synchronization, binned by pair distance."""

    pairs: np.ndarray         # (k, 2) recorded-sample index pairs
    dm: np.ndarray            # pair distances in phase space
    df: np.ndarray            # corresponding value distances
    slopes: np.ndarray        # df / dm
    bin_edges: np.ndarray     # geometric bin edges over dm
    bin_counts: np.ndarray
    bin_max_slope: np.ndarray


def derivative_profile(gs: SampledGS, pair_budget: int = 4000,
                       min_time_sep: int = 10, n_bins: int = 5,
                       radius_factor: float = 10.0, min_bin_count: int = 50,
                       rng=None) -> DerivativeProfile:
    """Secant-slope profile ||f(m')-f(m)|| / ||m'-m|| over spatial near pairs.

    Pairs are drawn within radius_factor times the median nearest-neighbor
    spacing and at least ``min_time_sep`` steps apart in time.  Bounded
    max slopes across the shrinking distance bins indicate Lipschitz (and
    plausibly differentiable) behavior at the sampled scales.
    """
    g = _rng(rng)
    pairs, dm, _ = _near_pairs(gs.points, radius_factor, min_time_sep, pair_budget, g)
    df = _row_norms(gs.values[pairs[:, 0]] - gs.values[pairs[:, 1]])
    slopes = df / dm

    edges = np.geomspace(dm.min(), dm.max() * (1 + 1e-12), n_bins + 1)
    which = np.clip(np.digitize(dm, edges) - 1, 0, n_bins - 1)
    counts = np.bincount(which, minlength=n_bins)
    maxs = np.zeros(n_bins)
    for b in range(n_bins):
        if counts[b]:
            maxs[b] = float(np.max(slopes[which == b]))
    occupied = np.flatnonzero(counts > 0)
    if counts[occupied[0]] < min_bin_count:
        raise InsufficientPairs(
            f"finest occupied bin holds {counts[occupied[0]]} pairs (< {min_bin_count})")
    return DerivativeProfile(pairs=pairs, dm=dm, df=df, slopes=slopes,
                             bin_edges=edges, bin_counts=counts,
                             bin_max_slope=maxs)


@dataclass(frozen=True)
class HolderFit:
    """Log-log scaling fit of value distances against point distances."""

    gamma: float
    r_squared: float
    n_pairs: int
    window: tuple[float, float]
    degenerate: bool = False
    dropped_zero_pairs: int = 0


def holder_exponent(gs: SampledGS, pair_budget: int = 4000,
                    min_time_sep: int = 10, window_decades: float = 1.0,
                    window_upper_factor: float = 3.0, rng=None) -> HolderFit:
    """Scaling exponent of ||df|| against ||dm|| over a decade of pair scales.

    The fit window spans ``window_decades`` decades ending at
    ``window_upper_factor`` times the median nearest-neighbor spacing
    (quasi-uniform samplings have essentially no pairs below that spacing).
    An exponent near one with a solid fit indicates Lipschitz scaling;
    identically zero value differences yield the +inf sentinel.
    """
    g = _rng(rng)
    pairs, dm, upper = _near_pairs(gs.points, window_upper_factor, min_time_sep,
                                   pair_budget, g)
    lower = upper / 10.0 ** window_decades
    df = _row_norms(gs.values[pairs[:, 0]] - gs.values[pairs[:, 1]])

    in_window = (dm >= lower) & (dm <= upper)
    dm, df = dm[in_window], df[in_window]
    if len(dm) < 10:
        raise InsufficientPairs(f"only {len(dm)} pairs fall in the fit window")
    nonzero = df > 0.0
    dropped = int(np.sum(~nonzero))
    if not np.any(nonzero):
        return HolderFit(gamma=float("inf"), r_squared=float("nan"),
                         n_pairs=0, window=(lower, upper), degenerate=True,
                         dropped_zero_pairs=dropped)
    x = np.log(dm[nonzero])
    y = np.log(df[nonzero])
    A = np.stack([x, np.ones_like(x)], axis=1)
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid ** 2)) / ss_tot if ss_tot > 0 else 0.0
    return HolderFit(gamma=float(coef[0]), r_squared=r2, n_pairs=int(nonzero.sum()),
                     window=(lower, upper), degenerate=False,
                     dropped_zero_pairs=dropped)
