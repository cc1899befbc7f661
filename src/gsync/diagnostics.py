"""Empirical probes: state convergence, input forgetting, and regularity.

The regularity probes (secant-slope profiles and a scaling-exponent fit)
operate on near pairs of sampled phase points, excluding temporal
neighbors so that the statistics reflect the synchronization map rather
than the smoothness of the flow itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientPairs, LengthMismatch
from .gs import SampledGS, run_recursion
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
    return float(np.max(np.linalg.norm(a - b, axis=-1) * wts))


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
    xa = run_recursion(F, suffix, run_recursion(F, prefix[:, 0], xa)[-1])[-1]
    xb = run_recursion(F, suffix, run_recursion(F, prefix[:, 1], xb)[-1])[-1]
    return float(np.max(np.linalg.norm(xa - xb, axis=-1)))


def _near_pairs(points: np.ndarray, radius_factor: float, min_time_sep: int,
                pair_budget: int, rng) -> tuple[np.ndarray, np.ndarray, float]:
    """Index pairs within a radius, temporally separated, subsampled per scale.

    The radius is ``radius_factor`` times the median distance from each
    point to its nearest other point; it is returned with the pairs and
    their distances.  Subsampling is stratified over logarithmic distance
    shells so that the fine scales keep representation when the budget
    truncates.
    """
    from scipy.spatial import cKDTree  # only the regularity probes need scipy
    tree = cKDTree(points)
    med = float(np.median(tree.query(points, k=2)[0][:, 1]))
    if med == 0.0:
        raise InsufficientPairs("degenerate sample: repeated phase points")
    radius = med * radius_factor
    pairs = tree.query_pairs(r=radius, output_type="ndarray")
    if len(pairs) == 0:
        raise InsufficientPairs("no near pairs within the search radius")
    pairs = pairs[np.abs(pairs[:, 0] - pairs[:, 1]) >= min_time_sep]
    if len(pairs) == 0:
        raise InsufficientPairs("all near pairs are temporal neighbors")
    dm = np.linalg.norm(points[pairs[:, 0]] - points[pairs[:, 1]], axis=-1)
    pos = dm > 0.0
    pairs, dm = pairs[pos], dm[pos]
    if len(pairs) > pair_budget:
        shells = np.clip(np.floor(np.log10(dm / dm.min()) * 4.0).astype(int), 0, 64)
        keep = []
        per_shell = max(pair_budget // (shells.max() + 1), 50)
        for s in np.unique(shells):
            idx = np.flatnonzero(shells == s)
            if len(idx) > per_shell:
                idx = rng.choice(idx, per_shell, replace=False)
            keep.append(idx)
        sel = np.concatenate(keep)
        pairs, dm = pairs[sel], dm[sel]
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
    df = np.linalg.norm(gs.values[pairs[:, 0]] - gs.values[pairs[:, 1]], axis=-1)
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
    df = np.linalg.norm(gs.values[pairs[:, 0]] - gs.values[pairs[:, 1]], axis=-1)

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
