"""State maps F: R^N x R^d -> R^N with derivatives and Lipschitz estimation.

Built-in families:

* ``Esn``         -- sigma(A x + C z + zeta) with a componentwise squashing
* ``LinearDelay`` -- the delay line: the identity ``Esn`` with A = the lower
                     shift and C = e1, evaluated by copying
* ``PowerSine``   -- componentwise signed power plus a trigonometric input term

Every ``eval`` is ``input_terms`` (the input-only part of F), then ``apply``
(the state part), then the map's one non-finite rule ``nonfinite_error``,
by which the recursions also judge their finished states.  All built-ins
evaluate F and its derivatives on batches (leading axes of x and z
broadcast), with closed-form derivative bounds where they exist;
``CustomStateMap`` uses finite differences and takes its grid norms row by row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dynsys import _central_difference, _smax
from .errors import DimensionMismatch, DomainViolation, NonFiniteError
from .regions import AxisBox, InputRange, InvariantRegion

_CHUNK = 8192


def sin_range(a: float, b: float) -> tuple[float, float]:
    """Exact range of sin over the interval [a, b] (radians)."""
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"interval ends must be finite, got [{a}, {b}]")
    if b < a:
        raise ValueError("need a <= b")
    if b - a >= 2.0 * math.pi:
        return -1.0, 1.0
    two_pi = 2.0 * math.pi
    hi = 1.0 if math.floor((b - math.pi / 2.0) / two_pi) >= math.ceil((a - math.pi / 2.0) / two_pi) \
        else max(math.sin(a), math.sin(b))
    lo = -1.0 if math.floor((b + math.pi / 2.0) / two_pi) >= math.ceil((a + math.pi / 2.0) / two_pi) \
        else min(math.sin(a), math.sin(b))
    return lo, hi


def cos_range(a: float, b: float) -> tuple[float, float]:
    """Exact range of cos over the interval [a, b] (radians)."""
    return sin_range(a + math.pi / 2.0, b + math.pi / 2.0)


def _pow(x: float, y: float) -> float:
    """x ** y on Python floats, inf where that overflows or 0 has a negative
    power (not OverflowError or ZeroDivisionError)."""
    try:
        return x ** y
    except (OverflowError, ZeroDivisionError):
        return math.inf


def _abs_sin_sup(a: float, b: float) -> float:
    lo, hi = sin_range(a, b)
    return max(abs(lo), abs(hi))


@dataclass(frozen=True)
class Squashing:
    """A squashing function with its first two derivatives and their suprema.
    ``func(y, out=y)`` squashes y in place and returns it."""

    name: str
    func: callable
    deriv: callable
    deriv2: callable
    max_deriv: float
    max_deriv2: float


def _logistic(y, out=None):
    """1 / (1 + exp(-y)), into the array ``out`` if given."""
    if out is None:
        return 1.0 / (1.0 + np.exp(-y))
    np.negative(y, out=out)
    np.exp(out, out=out)
    out += 1.0
    return np.divide(1.0, out, out=out)


SQUASHINGS = {
    "tanh": Squashing("tanh", np.tanh,
                      lambda y: 1.0 - np.tanh(y) ** 2,
                      lambda y: -2.0 * np.tanh(y) * (1.0 - np.tanh(y) ** 2),
                      1.0, 4.0 / (3.0 * math.sqrt(3.0))),
    "logistic": Squashing("logistic", _logistic,
                          lambda y: _logistic(y) * (1.0 - _logistic(y)),
                          lambda y: _logistic(y) * (1.0 - _logistic(y)) * (1.0 - 2.0 * _logistic(y)),
                          0.25, math.sqrt(3.0) / 18.0),
    "identity": Squashing("identity", lambda y, out=None: y,
                          lambda y: np.ones_like(y),
                          lambda y: np.zeros_like(y),
                          1.0, 0.0),
}


class StateMap:
    """Base class for driven state maps.

    A subclass defines ``apply`` or ``_kernel`` and may override
    ``input_terms`` and ``nonfinite_error``, the text of the
    ``NonFiniteError`` raised on a non-finite state (None, the default,
    accepts such states).  The recursions step F through ``_kernel(shape)``,
    prepared once per run for states of one shape: ``step(x, u, out)``
    writes F into the caller's array, which is C-contiguous, has the batch
    shape of (x, u) and N columns and never aliases x or u.  Each method
    defaults to the other: the default step copies ``apply``'s result into
    ``out``, so a map that defines only a two-argument ``apply`` works
    unchanged, and the default ``apply`` fills a fresh array through the
    kernel, so a built-in map states its formula once, in ``_kernel``.
    ``eval``, ``jac_state``, ``jac_input`` and ``second_partials``
    take x (..., N) and z (..., d) with leading batch axes that broadcast.
    The ``*_norms`` methods, one norm per row of X, Z, are
    ``lipschitz_bounds``' grid.

    ``elementwise`` is a capability flag: True says that the state part is
    one scalar function applied to each coordinate, so that column i of
    ``input_terms`` (which then has N columns) and of x alone give column i
    of F.  The kernel may then step any number of columns, one coordinate's
    input terms each: the drive steps, and psi sweeps, the distinct columns
    of many start states in one iterate (``gs._column_plan``).

    ``_positive_kernel(shape)``, None by default, may be defined by a map
    whose state part is odd and elementwise, with input terms that add to
    it and that ``input_terms`` returns as a fresh array (the recursions
    scale it in place): a kernel equal to ``_kernel`` bit for bit on states
    finite and > 0.  The recursions step x as y = sign(x) x through it.
    """

    derivative_order = 0
    nonfinite_error: str | None = None
    elementwise = False
    _positive_kernel = None

    def __init__(self, state_dim: int, input_dim: int):
        self.state_dim = int(state_dim)
        self.input_dim = int(input_dim)

    def _check(self, x, z) -> tuple[np.ndarray, np.ndarray]:
        return self._check_state(x), self._check_input(z)

    def _check_state(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.state_dim:
            raise DimensionMismatch(f"state has trailing dimension {x.shape[-1]}, expected {self.state_dim}")
        return x

    def _check_input(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        if z.ndim == 0:
            z = z[None]
        if z.shape[-1] != self.input_dim:
            raise DimensionMismatch(f"input has trailing dimension {z.shape[-1]}, expected {self.input_dim}")
        return z

    def _check_finite(self, values) -> None:
        """Raise ``NonFiniteError(nonfinite_error)``, if set, on a non-finite value."""
        if self.nonfinite_error is not None and not np.isfinite(values).all():
            raise NonFiniteError(self.nonfinite_error)

    def eval(self, x, z) -> np.ndarray:
        """F(x, z): ``apply`` after ``input_terms``, then the non-finite rule."""
        out = self.apply(self._check_state(x), self.input_terms(z))
        self._check_finite(out)
        return out

    def input_terms(self, z) -> np.ndarray:
        """The input-only part of F for inputs z (..., input_dim), computed
        once for a whole input sequence.  Row t of the result feeds
        ``apply`` at step t.  By default this is the validated z itself, so
        ``apply`` does all the work."""
        return self._check_input(z)

    def apply(self, x, u) -> np.ndarray:
        """F(x, z) from u, the entry of ``input_terms`` for z; no checks.  By
        default F written by a prepared ``_kernel`` into a new array."""
        out = np.empty(np.broadcast_shapes(x.shape[:-1], u.shape[:-1]) + (self.state_dim,))
        return self._kernel(x.shape)(x, u, out)

    def _kernel(self, shape):
        """``step(x, u, out)``, F written into ``out`` for states x of
        ``shape``, with the map's constants and any scratch array bound
        once: the recursions prepare one per run and call it at every step.
        Each call of ``_kernel`` gets its own scratch.  By default a copy of
        ``apply``'s result, so a map that defines ``apply`` gets one; a map
        must define at least one of the two."""
        if type(self).apply is StateMap.apply:
            raise NotImplementedError("a state map defines apply or _kernel")
        apply = self.apply

        def step(x, u, out):
            out[...] = apply(x, u)
            return out

        return step

    def __call__(self, x, z) -> np.ndarray:
        return self.eval(x, z)

    def _batched(self, x: np.ndarray, z: np.ndarray, M: np.ndarray, core: int = 2) -> np.ndarray:
        """M, whose last ``core`` axes belong to one point, copied out to the
        batch shape of (x, z)."""
        batch = np.broadcast_shapes(x.shape[:-1], z.shape[:-1], M.shape[:M.ndim - core])
        return np.broadcast_to(M, batch + M.shape[M.ndim - core:]).copy()

    def jac_state(self, x, z) -> np.ndarray:
        """D_x F at (x, z), shape (..., N, N)."""
        raise NotImplementedError

    def jac_input(self, x, z) -> np.ndarray:
        """D_z F at (x, z), shape (..., N, d)."""
        raise NotImplementedError

    def second_partials(self, x, z) -> tuple[np.ndarray, np.ndarray]:
        """Operator norms of the state-state and state-input second
        derivatives, one pair of arrays of the batch shape of (x, z)."""
        raise NotImplementedError

    def _largest_singular_values(self, jac, X, Z) -> np.ndarray:
        """Largest singular value of jac at each row of X, Z, ``_CHUNK`` rows at a time."""
        X, Z = np.atleast_2d(X), np.atleast_2d(Z)
        out = np.empty(len(X))
        for i in range(0, len(X), _CHUNK):
            out[i:i + _CHUNK] = _smax(jac(X[i:i + _CHUNK], Z[i:i + _CHUNK]))
        return out

    def jac_state_norms(self, X, Z) -> np.ndarray:
        return self._largest_singular_values(self.jac_state, X, Z)

    def jac_input_norms(self, X, Z) -> np.ndarray:
        return self._largest_singular_values(self.jac_input, X, Z)

    def second_partial_norms(self, X, Z) -> tuple[np.ndarray, np.ndarray]:
        return self.second_partials(np.atleast_2d(X), np.atleast_2d(Z))

    def analytic_lipschitz(self, region: InvariantRegion, input_range: InputRange):
        """Closed-form derivative suprema over region x input_range, or None."""
        return None

    def interval_image(self, lo, hi, z_lo, z_hi):
        """Exact componentwise image interval of an axis box, or None."""
        return None


class Esn(StateMap):
    """Recurrent state map sigma(A x + C z + zeta)."""

    derivative_order = 2

    def __init__(self, A, C, zeta=None, squashing: str = "tanh"):
        A = np.atleast_2d(np.asarray(A, dtype=float))
        C = np.asarray(C, dtype=float)
        if C.ndim == 1:
            C = C[:, None]
        if A.shape[0] != A.shape[1]:
            raise DimensionMismatch("A must be square")
        if C.shape[0] != A.shape[0]:
            raise DimensionMismatch("C must have as many rows as A")
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(C))):
            raise ValueError("A and C must be finite")
        super().__init__(state_dim=A.shape[0], input_dim=C.shape[1])
        if squashing not in SQUASHINGS:
            raise ValueError(f"unknown squashing {squashing!r}; choose from {sorted(SQUASHINGS)}")
        self.A = A
        self.C = C
        self.zeta = np.zeros(self.state_dim) if zeta is None else np.asarray(zeta, dtype=float)
        if self.zeta.shape != (self.state_dim,):
            raise DimensionMismatch("zeta must be an N-vector")
        if not np.all(np.isfinite(self.zeta)):
            raise ValueError("zeta must be finite")
        self.squashing = SQUASHINGS[squashing]

    @cached_property
    def sigma_max_A(self) -> float:
        return float(_smax(self.A))

    @cached_property
    def sigma_max_C(self) -> float:
        return float(_smax(self.C))

    def input_terms(self, z) -> np.ndarray:
        """z C^T + zeta for every row of z, in one batch."""
        u = self._check_input(z) @ self.C.T
        u += self.zeta
        return u

    def _kernel(self, shape):
        At, squash = self.A.T, self.squashing.func
        # on 1-D and 2-D states np.dot is matmul's BLAS call with less
        # dispatch; on higher ranks the two sum differently
        product = np.dot if len(shape) <= 2 else np.matmul

        def step(x, u, out):
            if x.shape == out.shape:
                product(x, At, out)
            else:  # x's batch broadcasts against u's, which an out array cannot take
                out[...] = x @ At
            np.add(out, u, out)
            return squash(out, out)

        return step

    def _pre(self, x, z) -> np.ndarray:
        return self._check_state(x) @ self.A.T + self.input_terms(z)

    def jac_state(self, x, z) -> np.ndarray:
        d = self.squashing.deriv(self._pre(x, z))
        return d[..., :, None] * self.A

    def jac_input(self, x, z) -> np.ndarray:
        d = self.squashing.deriv(self._pre(x, z))
        return d[..., :, None] * self.C

    def second_partials(self, x, z) -> tuple[np.ndarray, np.ndarray]:
        """Upper bounds max|sigma''| * smax(A)^2 and max|sigma''| * smax(A) smax(C)."""
        m2 = np.max(np.abs(self.squashing.deriv2(self._pre(x, z))), axis=-1)
        return m2 * _pow(self.sigma_max_A, 2), m2 * self.sigma_max_A * self.sigma_max_C

    def analytic_lipschitz(self, region, input_range):
        ls = self.squashing.max_deriv
        m2 = self.squashing.max_deriv2
        return {
            "l_fx": ls * self.sigma_max_A,
            "l_fz": ls * self.sigma_max_C,
            "l_fxx": m2 * _pow(self.sigma_max_A, 2),
            "l_fxz": m2 * self.sigma_max_A * self.sigma_max_C,
        }

    def interval_image(self, lo, hi, z_lo, z_hi):
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        z_lo = np.atleast_1d(np.asarray(z_lo, dtype=float))
        z_hi = np.atleast_1d(np.asarray(z_hi, dtype=float))
        pre_lo = self.zeta + np.minimum(self.A * lo, self.A * hi).sum(axis=1) \
            + np.minimum(self.C * z_lo, self.C * z_hi).sum(axis=1)
        pre_hi = self.zeta + np.maximum(self.A * lo, self.A * hi).sum(axis=1) \
            + np.maximum(self.C * z_lo, self.C * z_hi).sum(axis=1)
        # all supported squashings are monotone increasing
        return self.squashing.func(pre_lo), self.squashing.func(pre_hi)


def shift_matrix(n: int) -> np.ndarray:
    """The n x n lower shift: ones on the first subdiagonal."""
    return np.eye(n, k=-1)


class LinearDelay(Esn):
    """Delay line of depth 2q+1, F(x, z) = (z, x_1, ..., x_{2q}): the identity
    ``Esn`` with A the lower shift, C = e1 and zeta = -0.0.  Inputs and states
    are copied, not multiplied, so -0.0, inf and nan pass through unchanged."""

    sigma_max_A = 1.0  # the shift's singular values are 1 and 0
    sigma_max_C = 1.0

    def __init__(self, q: int):
        if q < 1:
            raise ValueError("q must be >= 1")
        n = 2 * q + 1
        super().__init__(shift_matrix(n), np.eye(n, 1), zeta=np.full(n, -0.0),
                         squashing="identity")
        self.q = int(q)

    def input_terms(self, z) -> np.ndarray:
        """C z + zeta = (z, -0.0, ..., -0.0), with z copied into place."""
        z = self._check_input(z)
        return np.concatenate([z, np.full(z.shape[:-1] + (self.state_dim - 1,), -0.0)], axis=-1)

    def _kernel(self, shape):
        def step(x, u, out):
            out[..., :1] = u[..., :1]
            out[..., 1:] = x[..., :-1]
            return out

        return step


class PowerSine(StateMap):
    """F(x, z) = (s(x_1), s(x_2), s(x_3)) + lam * (sin(kz), cos(kz), sin^2(kz)).

    The power s(x) = sign(x) |x|^alpha is the odd extension of x^alpha, so the
    map is defined on all sign-definite boxes; for lam = 0 it has the eight
    stable fixed points (+-1, +-1, +-1).  Derivatives blow up at coordinates
    equal to zero, which the derivatives at a point reject; the grid norms
    of a row with a zero coordinate and the closed-form bounds of a box that
    reaches a coordinate plane are inf, since the supremum there is unbounded.
    """

    derivative_order = 2
    nonfinite_error = "power-sine evaluation is non-finite"
    elementwise = True

    def __init__(self, alpha: float, lam: float, k: float):
        if not 0.0 < alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if not (0.0 <= lam < math.inf and 0.0 <= k < math.inf):
            raise ValueError("lam and k must be finite and non-negative")
        super().__init__(state_dim=3, input_dim=1)
        self.alpha = float(alpha)
        self.lam = float(lam)
        self.k = float(k)

    def _signed_power(self, x: np.ndarray) -> np.ndarray:
        return np.sign(x) * np.abs(x) ** self.alpha

    def input_terms(self, z) -> np.ndarray:
        """lam * (sin kz, cos kz, sin^2 kz) for every row of z, in one batch."""
        kz = self.k * self._check_input(z)[..., 0]
        s = np.sin(kz)
        # s * s, not s ** 2: numpy squares a batch but calls pow on a lone value
        return self.lam * np.stack([s, np.cos(kz), s * s], axis=-1)

    def _kernel(self, shape):
        alpha, sign = self.alpha, np.empty(shape)

        def step(x, u, out):
            # the operations of _signed_power(x) + u, each written into out;
            # not copysign, which turns x = -0.0 into -0.0 where np.sign gives +0.0
            np.abs(x, out)
            out **= alpha  # the scalar-power dispatch of |x| ** alpha
            np.multiply(np.sign(x, sign), out, out)
            np.add(out, u, out)
            return out

        return step

    def _positive_kernel(self, shape):
        """``_kernel`` on states y > 0, where |y| = y and sign(y) = 1:
        ``np.power(y, alpha, out)`` is ``out **= alpha`` bit for bit."""
        alpha = self.alpha

        def step(y, v, out):
            return np.add(np.power(y, alpha, out), v, out)

        return step

    def _check_away_from_zero(self, x: np.ndarray):
        if np.any(np.abs(x) == 0.0):
            raise DomainViolation("derivative of |x|^alpha is undefined at a zero coordinate")

    def jac_state(self, x, z) -> np.ndarray:
        x, z = self._check(x, z)
        self._check_away_from_zero(x)
        d = self.alpha * np.abs(x) ** (self.alpha - 1.0)
        return self._batched(x, z, d[..., :, None] * np.eye(3))

    def jac_input(self, x, z) -> np.ndarray:
        x, z = self._check(x, z)
        kz = self.k * z[..., 0]
        col = self.lam * self.k * np.stack([np.cos(kz), -np.sin(kz), np.sin(2.0 * kz)], axis=-1)
        return self._batched(x, z, col[..., :, None])

    def second_partials(self, x, z) -> tuple[np.ndarray, np.ndarray]:
        x, z = self._check(x, z)
        self._check_away_from_zero(x)
        m = self._batched(x, z, np.min(np.abs(x), axis=-1), core=0)
        nxx = self.alpha * (1.0 - self.alpha) * m ** (self.alpha - 2.0)
        return nxx, np.zeros_like(nxx)

    def _nearest_power(self, X, power: float) -> np.ndarray:
        """Each row's smallest |x_i| to a negative power, inf at a zero."""
        with np.errstate(divide="ignore"):
            return np.min(np.abs(np.atleast_2d(X)), axis=-1) ** power

    def jac_state_norms(self, X, Z) -> np.ndarray:
        return self.alpha * self._nearest_power(X, self.alpha - 1.0)

    def second_partial_norms(self, X, Z) -> tuple[np.ndarray, np.ndarray]:
        nxx = self.alpha * (1.0 - self.alpha) * self._nearest_power(X, self.alpha - 2.0)
        return nxx, np.zeros_like(nxx)

    def jac_input_norms(self, X, Z) -> np.ndarray:
        Z = np.atleast_2d(Z)
        kz = self.k * Z[:, 0]
        return self.lam * self.k * np.sqrt(1.0 + np.sin(2.0 * kz) ** 2)

    def _angles(self, z_lo, z_hi, scale: float = 1.0) -> tuple[float, float]:
        """The interval scale * k * [z_lo, z_hi] of the first input, or one
        full period (where sin and cos take all their values) if it overflows."""
        a = scale * self.k * float(np.atleast_1d(z_lo)[0])
        b = scale * self.k * float(np.atleast_1d(z_hi)[0])
        if not (math.isfinite(a) and math.isfinite(b)):
            return 0.0, 2.0 * math.pi
        return min(a, b), max(a, b)

    def analytic_lipschitz(self, region, input_range):
        if not isinstance(region, AxisBox):
            return None
        # the smallest |x_i| on the box: 0 on an axis that reaches a coordinate
        # plane, where the derivative is unbounded and l_fx = l_fxx = inf
        reaches = (region.lo <= 0.0) & (region.hi >= 0.0)
        nearest = np.minimum(np.abs(region.lo), np.abs(region.hi))
        m = float(np.min(np.where(reaches, 0.0, nearest)))
        s2 = _abs_sin_sup(*self._angles(input_range.lo, input_range.hi, 2.0)) ** 2
        return {
            "l_fx": self.alpha * _pow(m, self.alpha - 1.0),
            "l_fz": self.lam * self.k * math.sqrt(1.0 + s2),
            "l_fxx": self.alpha * (1.0 - self.alpha) * _pow(m, self.alpha - 2.0),
            "l_fxz": 0.0,
        }

    def interval_image(self, lo, hi, z_lo, z_hi):
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        a, b = self._angles(z_lo, z_hi)
        s_lo, s_hi = sin_range(a, b)
        c_lo, c_hi = cos_range(a, b)
        sq_lo = 0.0 if s_lo <= 0.0 <= s_hi else min(s_lo ** 2, s_hi ** 2)
        sq_hi = max(s_lo ** 2, s_hi ** 2)
        g_lo = np.array([s_lo, c_lo, sq_lo])
        g_hi = np.array([s_hi, c_hi, sq_hi])
        return (self._signed_power(lo) + self.lam * g_lo,
                self._signed_power(hi) + self.lam * g_hi)


class CustomStateMap(StateMap):
    """Wrap an arbitrary state function; derivatives by central differences.

    Its derivatives may be per-point callables (one matrix whatever the
    batch) and ``second_partials`` takes one point, so its grid norms go row
    by row."""

    nonfinite_error = "custom state map returned non-finite values"

    def __init__(self, func, state_dim: int, input_dim: int,
                 jac_state=None, jac_input=None, fd_step: float = 1e-6,
                 derivative_order: int = 1):
        super().__init__(state_dim=state_dim, input_dim=input_dim)
        self._func = func
        self._jac_state = jac_state
        self._jac_input = jac_input
        self.fd_step = float(fd_step)
        self.derivative_order = derivative_order

    def apply(self, x, u) -> np.ndarray:
        """The wrapped function at (x, u); no checks."""
        return np.asarray(self._func(x, u), dtype=float)

    def jac_state(self, x, z) -> np.ndarray:
        x, z = self._check(x, z)
        if self._jac_state is not None:
            return np.asarray(self._jac_state(x, z), dtype=float)
        return _central_difference(lambda y: self.eval(y, z), x, self.fd_step)

    def jac_input(self, x, z) -> np.ndarray:
        x, z = self._check(x, z)
        if self._jac_input is not None:
            return np.asarray(self._jac_input(x, z), dtype=float)
        return _central_difference(lambda y: self.eval(x, y), z, self.fd_step)

    def second_partials(self, x, z) -> tuple[float, float]:
        """Directional finite-difference estimates of the bilinear norms."""
        x, z = self._check(x, z)
        h = math.sqrt(self.fd_step)

        def sup_norm(D):  # D[..., j] differentiates jac_state along e_j
            return float(max(0.0, *_smax(np.moveaxis(D, -1, 0))))
        return (sup_norm(_central_difference(lambda y: self.jac_state(y, z), x, h)),
                sup_norm(_central_difference(lambda y: self.jac_state(x, y), z, h)))

    def _largest_singular_values(self, jac, X, Z) -> np.ndarray:
        return np.array([_smax(jac(x, z)) for x, z in zip(np.atleast_2d(X), np.atleast_2d(Z))])

    def second_partial_norms(self, X, Z) -> tuple[np.ndarray, np.ndarray]:
        rows = zip(np.atleast_2d(X), np.atleast_2d(Z))
        pairs = np.array([self.second_partials(x, z) for x, z in rows])
        return pairs[:, 0], pairs[:, 1]


@dataclass(frozen=True)
class LipschitzBounds:
    """Derivative suprema of a state map over a region and an input range.

    ``analytic`` holds closed-form bounds (true upper bounds) when the map
    provides them; ``grid`` holds sampled suprema (lower bounds of the true
    values).  ``method`` says where the headline fields come from:
    "analytic+grid" takes the larger of the two (``lipschitz_bounds`` with a
    closed form), "grid" the grid alone (no closed form), and "analytic" the
    closed forms alone with ``grid`` None (``certify``, which evaluates no
    grid when a closed form exists).
    """

    l_fx: float
    l_fz: float
    l_fxx: float
    l_fxz: float
    method: str
    analytic: dict | None
    grid: dict | None


def _cyclic_pair(X: np.ndarray, Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    n = max(len(X), len(Z))
    idx = np.arange(n)
    return X[idx % len(X)], Z[idx % len(Z)]


def lipschitz_bounds(F: StateMap, region: InvariantRegion, input_range: InputRange,
                     *, resolution: int = 20, n_inputs: int = 200, rng=None,
                     max_grid_points: int = 250_000) -> LipschitzBounds:
    """Estimate the four derivative suprema of F over region x input_range.

    Grid estimation pairs a state grid with cycled input samples, so each
    evaluation point lies in the product set and the result is a sampled
    lower bound; closed forms are exact and take precedence when available.
    """
    analytic = F.analytic_lipschitz(region, input_range)

    X = region.grid(resolution, max_points=max_grid_points, rng=rng)
    Z = input_range.samples(n_inputs, rng=rng)
    Xp, Zp = _cyclic_pair(X, Z)
    gx = float(np.max(F.jac_state_norms(Xp, Zp)))
    gz = float(np.max(F.jac_input_norms(Xp, Zp)))
    nxx, nxz = F.second_partial_norms(Xp, Zp)
    grid = {"l_fx": gx, "l_fz": gz, "l_fxx": float(np.max(nxx)), "l_fxz": float(np.max(nxz))}

    if analytic is None:
        return LipschitzBounds(method="grid", analytic=None, grid=grid, **grid)
    return LipschitzBounds(method="analytic+grid", analytic=analytic, grid=grid,
                           **{k: max(analytic[k], grid[k]) for k in grid})
