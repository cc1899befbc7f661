"""Invariant-region checks, absorbing sets, and contraction certificates.

A certificate gathers the numerically estimated constants that decide
whether a driven state map has a unique, continuously settling response
(state-contraction constant below one) and whether the synchronization it
defines can be certified continuously differentiable (contraction constant
also below the reciprocal of the driving system's inverse tangent norm).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .dynsys import DiscreteSystem, ObservationMap, _observe, tangent_norm_bounds
from .errors import NotAContraction
from .gs import _field
from .regions import AxisBox, Ball, InputRange, InvariantRegion, RegionIntersection
from .statemaps import LipschitzBounds, StateMap, _cyclic_pair, lipschitz_bounds

_PRODUCT_CAP = 400_000
# the most samples ``OrbitConstants.of`` takes the tangent norms over by default
MAX_TANGENT_SAMPLES = 1000
# the certificate CSV columns, a fixed subset of the report's fields
_CSV_FIELDS = ("region", "l_fx", "l_fz", "l_fxx", "l_fxz", "tangent_inv_norm", "domega_norm",
               "invariance_ok", "invariance_margin", "esp_ok", "diff_ok", "r_const",
               "delta0", "c0", "sampled")


@dataclass(frozen=True)
class InvarianceCheck:
    """Outcome of an invariance test F(V x inputs) subset V."""

    ok: bool
    margin: float
    method: str  # "interval" (exact componentwise image) or "sampled"

    def __bool__(self) -> bool:
        return self.ok


def check_invariance(F: StateMap, region: InvariantRegion, input_range: InputRange,
                     resolution: int = 20, n_inputs: int = 200, rng=None) -> InvarianceCheck:
    """Check F(region x input_range) subset region and report the margin.

    For axis boxes and maps with exact componentwise interval images
    (diagonal or monotone built-ins) the verdict is exact; otherwise the
    image is sampled on a grid and the margin is the worst boundary
    distance over the samples (negative if any image escapes).
    """
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    if isinstance(region, AxisBox):
        img = F.interval_image(region.lo, region.hi, input_range.lo, input_range.hi)
        if img is not None:
            img_lo, img_hi = img
            margin = float(np.min(np.minimum(img_lo - region.lo, region.hi - img_hi)))
            return InvarianceCheck(ok=margin >= 0.0, margin=margin, method="interval")

    X = region.grid(resolution, rng=rng)
    Z = input_range.samples(n_inputs, rng=rng)
    if len(X) * len(Z) <= _PRODUCT_CAP:
        XX = np.repeat(X, len(Z), axis=0)
        ZZ = np.tile(Z, (len(X), 1))
    else:
        XX, ZZ = _cyclic_pair(X, Z)
    images = F.eval(XX, ZZ)
    margin = float(np.min(region.boundary_margin(images)))
    return InvarianceCheck(ok=margin >= 0.0, margin=margin, method="sampled")


def absorbing_set(F: StateMap, domain: InvariantRegion, input_range: InputRange,
                  v, safety: float = 1.05, n_inputs: int = 400, rng=None,
                  contraction: float | None = None,
                  degenerate_radius: float = 1e-9) -> InvariantRegion:
    """Compact forward-invariant set inside ``domain`` around the anchor v.

    With contraction constant c < 1 on the domain and r the largest
    displacement of the anchor over the input range, any ball of radius
    above r / (1 - c) intersected with the domain maps into itself; the
    returned region uses ``safety`` times that radius.
    """
    if safety <= 1.0:
        raise ValueError("safety must exceed 1")
    v = np.asarray(v, dtype=float)
    if not domain.contains(v):
        raise ValueError("anchor point must lie in the domain region")
    if contraction is None:
        bounds = lipschitz_bounds(F, domain, input_range, rng=rng)
        contraction = bounds.l_fx
    if contraction >= 1.0:
        raise NotAContraction(f"state contraction constant {contraction:.6g} is not below one")

    Z = input_range.samples(n_inputs, rng=rng)
    disp = F.eval(np.broadcast_to(v, (len(Z), v.size)), Z) - v
    r = float(np.max(np.linalg.norm(disp, axis=-1)))
    radius = safety * r / (1.0 - contraction) if r > 0.0 else degenerate_radius
    ball = Ball(v, radius, label=f"absorbing({domain.label})")
    # for boxes and balls the boundary margin is the Euclidean distance to
    # the boundary, so the ball fits inside the domain iff margin >= radius
    if float(domain.boundary_margin(v)) >= radius:
        return ball
    return RegionIntersection(domain, ball, label=ball.label, center_hint=v)


@dataclass(frozen=True)
class ContractionCertificate:
    """Constants and verdicts for a state map driven through a region.

    ``esp_ok`` records l_fx < 1 (unique driven response, input forgetting);
    ``diff_ok`` records l_fx < min(1, 1/tangent_inv_norm) for a map with
    second derivatives (``derivative_order >= 2``), the condition under
    which the synchronization is certified continuously differentiable.
    When ``diff_ok`` holds, r_const, delta0 and c0 witness the contraction
    of the synchronization operator on the bounded-slope function class:
    r_const exceeds its lower bound by 5%, delta0 is half its admissible
    bound, and c0 is the resulting contraction factor.
    """

    region_label: str
    bounds: LipschitzBounds
    tangent_norm: float
    tangent_inv_norm: float
    domega_norm: float
    invariance_ok: bool
    invariance_margin: float
    invariance_method: str
    esp_ok: bool
    diff_ok: bool
    r_const: float
    delta0: float
    c0: float
    sampled: bool
    n_tangent_samples: int

    def condition_holds(self, requirement: str) -> bool:
        if requirement == "esp":
            return self.esp_ok
        if requirement == "diff":
            return self.diff_ok
        raise ValueError("requirement must be 'esp' or 'diff'")

    def _fields(self) -> dict:
        """The report's fields in order, name -> value: the region, the
        bounds' method and constants, then every later dataclass field."""
        b = self.bounds
        return {"region": self.region_label, "method": b.method,
                **{k: getattr(b, k) for k in ("l_fx", "l_fz", "l_fxx", "l_fxz")},
                **{f.name: getattr(self, f.name) for f in fields(self)[2:]}}

    def report_text(self) -> str:
        return "\n".join(f"{k}: {v:.12g}" if isinstance(v, float) else f"{k}: {v}"
                         for k, v in self._fields().items())

    @staticmethod
    def csv_header() -> str:
        return ",".join(_CSV_FIELDS)

    def csv_row(self) -> str:
        values = self._fields()
        return ",".join(_field(values[k]) for k in _CSV_FIELDS)


@dataclass(frozen=True)
class OrbitConstants:
    """The constants of a certificate that belong to the driving system and
    not to the region: the input range (the hull of the samples'
    observations), the suprema of ||T phi||, ||T phi^-1|| and ||D omega||,
    the number of samples those were taken over, and whether the norms are
    closed forms (``sys.exact_tangent`` and ``obs.exact_norm``)."""

    input_range: InputRange
    tangent_norm: float
    tangent_inv_norm: float
    domega_norm: float
    n_tangent_samples: int
    exact: bool

    @classmethod
    def of(cls, sys: DiscreteSystem, obs: ObservationMap, samples,
           max_tangent_samples: int = MAX_TANGENT_SAMPLES,
           input_range: InputRange | None = None) -> OrbitConstants:
        """The constants on the samples: the norms over at most
        ``max_tangent_samples`` evenly spaced ones.  ``input_range``, if
        given, is the hull of their observations as the caller took it."""
        samples = np.atleast_2d(np.asarray(samples, dtype=float))
        if input_range is None:
            input_range = InputRange.from_observations(_observe(obs, samples, finite=True))
        if len(samples) > max_tangent_samples:
            samples = samples[np.linspace(0, len(samples) - 1, max_tangent_samples).astype(int)]
        tnorm, tinv = tangent_norm_bounds(sys, samples)
        return cls(input_range, tnorm, tinv, obs.norm_bound(samples), len(samples),
                   sys.exact_tangent and obs.exact_norm)


def certify(F: StateMap, region: InvariantRegion, orbit: OrbitConstants, *,
            resolution: int = 20, n_inputs: int = 200, rng=None) -> ContractionCertificate:
    """Assemble the full certificate for F restricted to region, driven
    through the orbit that ``orbit`` (``OrbitConstants.of``) was taken on.

    Failed conditions are reported as flags rather than errors.  The input
    range is the componentwise hull of the observations of the orbit's
    samples; the tangent norms and ||D omega|| are suprema over (a
    subsample of) the same points, so all verdicts carry a sampled caveat
    unless every constant came from a closed form: the derivative bounds of
    F, an interval invariance image and ``orbit.exact``.

    When F has closed-form derivative bounds on region x input range, they
    are the constants (method "analytic") and no grid is evaluated: a grid
    supremum is a sampled lower bound and cannot raise an upper bound.
    Otherwise the constants are ``lipschitz_bounds``' grid suprema (method
    "grid").  ``diff_ok`` also needs ``F.derivative_order >= 2``, since the
    constants l_fxx and l_fxz presume second derivatives.
    """
    input_range, tinv, domega = orbit.input_range, orbit.tangent_inv_norm, orbit.domega_norm

    analytic = F.analytic_lipschitz(region, input_range)
    if analytic is None:
        bounds = lipschitz_bounds(F, region, input_range, resolution=resolution,
                                  n_inputs=n_inputs, rng=rng)
    else:
        bounds = LipschitzBounds(method="analytic", analytic=analytic, grid=None, **analytic)

    inv = check_invariance(F, region, input_range, resolution=resolution,
                           n_inputs=n_inputs, rng=rng)

    l_fx = bounds.l_fx
    esp_ok = l_fx < 1.0
    diff_ok = F.derivative_order >= 2 and (l_fx < min(1.0, 1.0 / tinv) if tinv > 0 else esp_ok)

    r_const = float("nan")
    delta0 = float("nan")
    c0 = float("nan")
    if diff_ok:
        r_lower = bounds.l_fz * domega / (1.0 - l_fx * tinv)
        r_const = 1.05 * r_lower if r_lower > 0.0 else 1.0
        denom = bounds.l_fxx * tinv * r_const + bounds.l_fxz * domega
        delta0 = 0.5 * (1.0 - l_fx) / denom if denom > 0.0 else 1.0
        c0 = max(l_fx * tinv, l_fx + delta0 * denom)

    sampled = not (bounds.analytic is not None and inv.method == "interval" and orbit.exact)
    return ContractionCertificate(
        region_label=region.label,
        bounds=bounds,
        tangent_norm=orbit.tangent_norm,
        tangent_inv_norm=tinv,
        domega_norm=domega,
        invariance_ok=inv.ok,
        invariance_margin=inv.margin,
        invariance_method=inv.method,
        esp_ok=esp_ok,
        diff_ok=diff_ok,
        r_const=r_const,
        delta0=delta0,
        c0=c0,
        sampled=sampled,
        n_tangent_samples=orbit.n_tangent_samples,
    )
