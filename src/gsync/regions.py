"""Closed state-space regions (boxes, balls) and observed input ranges."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch


def _rng(rng) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(0 if rng is None else rng)


class InvariantRegion:
    """Base class for closed convex candidate regions V in state space."""

    def __init__(self, dim: int, label: str = ""):
        self.dim = int(dim)
        self.label = label

    def contains(self, x, tol: float = 0.0):
        return self.boundary_margin(x) >= -tol

    def boundary_margin(self, x):
        """Distance from x to the boundary, negative outside the region."""
        raise NotImplementedError

    def center(self) -> np.ndarray:
        raise NotImplementedError

    def diameter(self) -> float:
        raise NotImplementedError

    def grid(self, resolution: int, max_points: int = 250_000, rng=None) -> np.ndarray:
        raise NotImplementedError

    def sample(self, n: int, rng=None) -> np.ndarray:
        raise NotImplementedError


class AxisBox(InvariantRegion):
    """Axis-aligned box [lo_1, hi_1] x ... x [lo_n, hi_n]."""

    def __init__(self, lo, hi, label: str = ""):
        lo = np.atleast_1d(np.asarray(lo, dtype=float))
        hi = np.atleast_1d(np.asarray(hi, dtype=float))
        if lo.shape != hi.shape:
            raise DimensionMismatch("lo and hi must have the same shape")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ValueError("box bounds must be finite")
        if not np.all(lo < hi):
            raise ValueError("box requires lo < hi componentwise")
        super().__init__(dim=lo.size, label=label)
        self.lo = lo
        self.hi = hi

    def boundary_margin(self, x):
        """The smallest distance of each point to a face, negative outside.

        Points (n, dim) take their minimum column by column: numpy's row
        minimum calls its loop once per row.  A batch with a zero minimum
        keeps numpy's row minimum, whose zero sign prints (as -0); a nan's
        sign may differ from numpy's, as '%.17g' prints none.
        """
        x = np.asarray(x, dtype=float)
        if x.ndim == 2 and x.shape[1] == self.dim > 0:
            out = None
            for col, lo, hi in zip(x.T, self.lo.tolist(), self.hi.tolist()):
                m = np.minimum(col - lo, hi - col)
                out = m if out is None else np.minimum(out, m, out=out)
            if out.all():
                return out
        return np.minimum(x - self.lo, self.hi - x).min(axis=-1)

    def center(self) -> np.ndarray:
        return 0.5 * (self.lo + self.hi)

    def diameter(self) -> float:
        return float(np.linalg.norm(self.hi - self.lo))

    def grid(self, resolution: int, max_points: int = 250_000, rng=None) -> np.ndarray:
        if resolution < 2:
            raise ValueError("resolution must be >= 2")
        if resolution ** self.dim <= max_points:
            mesh = np.meshgrid(*self._axes(resolution), indexing="ij")
            return np.stack([g.ravel() for g in mesh], axis=1)
        return self.sample(max_points, rng)

    def _axes(self, resolution: int) -> list[np.ndarray]:
        """The grid coordinates along each axis."""
        return [np.linspace(self.lo[j], self.hi[j], resolution) for j in range(self.dim)]

    def sample(self, n: int, rng=None) -> np.ndarray:
        g = _rng(rng)
        return g.uniform(self.lo, self.hi, size=(n, self.dim))

    def __repr__(self):
        return f"AxisBox(lo={self.lo.tolist()}, hi={self.hi.tolist()}, label={self.label!r})"


class Ball(InvariantRegion):
    """Closed Euclidean ball of given center and radius."""

    def __init__(self, center, radius: float, label: str = ""):
        center = np.atleast_1d(np.asarray(center, dtype=float))
        if not 0.0 < radius < np.inf:
            raise ValueError("radius must be positive and finite")
        with np.errstate(over="ignore"):  # an overflow is rejected just below
            lo, hi = center - radius, center + radius
        if not np.all(np.isfinite(lo) & np.isfinite(hi) & (lo < hi)):
            raise ValueError("ball center - radius and center + radius must be finite and distinct")
        super().__init__(dim=center.size, label=label)
        self._center = center
        self.radius = float(radius)

    def boundary_margin(self, x):
        """The radius less each point's distance to the center: points (n,
        dim) take the row norms of ``gs._row_norms``, numpy's bit for bit."""
        from .gs import _row_norms  # gs imports this module
        d = np.asarray(x, dtype=float) - self._center
        return self.radius - (_row_norms(d) if d.ndim == 2 else np.linalg.norm(d, axis=-1))

    def center(self) -> np.ndarray:
        return self._center.copy()

    def diameter(self) -> float:
        return 2.0 * self.radius

    def grid(self, resolution: int, max_points: int = 250_000, rng=None) -> np.ndarray:
        """The points of the bounding box's grid inside the ball, topped up
        with ``max(resolution, 8)`` samples when fewer lie inside, then the
        center."""
        box = AxisBox(self._center - self.radius, self._center + self.radius)
        if self._misses(box, resolution, max_points):
            inside = np.empty((0, self.dim))
        else:
            pts = box.grid(resolution, max_points=max_points, rng=rng)
            inside = pts[self.contains(pts)]
        if len(inside) < max(resolution, 8):
            inside = np.vstack([inside, self.sample(max(resolution, 8), rng)])
        return np.vstack([inside, self._center[None, :]])

    def _misses(self, box: AxisBox, resolution: int, max_points: int) -> bool:
        """Whether the box's grid is a full grid (not samples, no error) and
        no point of it lies in the ball: even the one nearest the center,
        whose offset along each axis is the smallest offset of that axis's
        coordinates, is outside by more than the rounding of the norm's
        summation order (an overflowing norm is borderline too)."""
        if resolution < 2 or resolution ** self.dim > max_points:
            return False
        gaps = [np.min(np.abs(axis - c)) for axis, c in zip(box._axes(resolution), self._center)]
        return bool(self.radius * (1.0 + 1e-9) < np.linalg.norm(gaps) < np.inf)

    def sample(self, n: int, rng=None) -> np.ndarray:
        g = _rng(rng)
        v = g.normal(size=(n, self.dim))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        r = self.radius * g.uniform(0.0, 1.0, size=(n, 1)) ** (1.0 / self.dim)
        return self._center + v * r

    def __repr__(self):
        return f"Ball(center={self._center.tolist()}, radius={self.radius}, label={self.label!r})"


class RegionIntersection(InvariantRegion):
    """Intersection of two convex regions (used for absorbing sets)."""

    def __init__(self, a: InvariantRegion, b: InvariantRegion, label: str = "",
                 center_hint=None):
        if a.dim != b.dim:
            raise DimensionMismatch("regions have different dimensions")
        super().__init__(dim=a.dim, label=label)
        self.a = a
        self.b = b
        self._center_hint = None if center_hint is None else np.asarray(center_hint, dtype=float)

    def boundary_margin(self, x):
        return np.minimum(self.a.boundary_margin(x), self.b.boundary_margin(x))

    def center(self) -> np.ndarray:
        if self._center_hint is not None:
            return self._center_hint.copy()
        for c in (self.a.center(), self.b.center()):
            if self.contains(c):
                return c
        return 0.5 * (self.a.center() + self.b.center())

    def diameter(self) -> float:
        return min(self.a.diameter(), self.b.diameter())

    def grid(self, resolution: int, max_points: int = 250_000, rng=None) -> np.ndarray:
        pts = np.vstack([self.a.grid(resolution, max_points=max_points, rng=rng),
                         self.b.grid(resolution, max_points=max_points, rng=rng)])
        inside = pts[self.contains(pts)]
        if len(inside) == 0:
            raise ValueError("intersection region appears empty")
        return inside

    def sample(self, n: int, rng=None) -> np.ndarray:
        g = _rng(rng)
        out = []
        attempts = 0
        while sum(len(o) for o in out) < n and attempts < 64:
            cand = self.a.sample(n, g)
            out.append(cand[self.b.contains(cand)])
            attempts += 1
        if not out or sum(len(o) for o in out) == 0:
            raise ValueError("could not sample the intersection region")
        return np.vstack(out)[:n]


@dataclass(frozen=True)
class InputRange:
    """Componentwise hull [lo, hi] of observed input values."""

    lo: np.ndarray
    hi: np.ndarray

    @classmethod
    def from_observations(cls, z) -> "InputRange":
        z = np.atleast_2d(np.asarray(z, dtype=float))
        return cls(lo=z.min(axis=0), hi=z.max(axis=0))

    @classmethod
    def of(cls, lo, hi) -> "InputRange":
        lo = np.atleast_1d(np.asarray(lo, dtype=float))
        hi = np.atleast_1d(np.asarray(hi, dtype=float))
        if lo.shape != hi.shape or np.any(lo > hi):
            raise ValueError("need lo <= hi componentwise")
        return cls(lo=lo, hi=hi)

    @property
    def dim(self) -> int:
        return self.lo.size

    def samples(self, n: int, rng=None) -> np.ndarray:
        """n sample inputs: a uniform grid for scalar inputs, random otherwise."""
        if n < 1:
            raise ValueError("n must be >= 1")
        if self.dim == 1:
            return np.linspace(self.lo[0], self.hi[0], n).reshape(n, 1)
        return _rng(rng).uniform(self.lo, self.hi, size=(n, self.dim))

    def contains(self, z, tol: float = 0.0):
        z = np.asarray(z, dtype=float)
        return np.all((z >= self.lo - tol) & (z <= self.hi + tol), axis=-1)
