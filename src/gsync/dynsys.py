"""Invertible discrete-time dynamical systems and their observations.

Provides analytic maps (torus rotations, the cat map) and fixed-step
Runge-Kutta flow maps of autonomous vector fields, together with
trajectories, delay windows, equivariance checks, and sampled bounds on
tangent-map norms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import DimensionMismatch, NonFiniteError, RoundTripFailure


def _as_point(m, dim) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.shape != (dim,):
        raise DimensionMismatch(f"expected a point of dimension {dim}, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise NonFiniteError(f"non-finite point {m}")
    return m


def _smax(M: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix in the stack M (..., p, q)."""
    return np.linalg.svd(M, compute_uv=False)[..., 0]


def _all_finite(a) -> bool:
    return bool(np.isfinite(a).all())


def _central_difference(f, x: np.ndarray, h: float) -> np.ndarray:
    """Central differences (f(x + h e_j) - f(x - h e_j)) / (2h) along each unit
    vector e_j of x's last axis, stacked along a new last axis."""
    n = x.shape[-1]
    cols = []
    for j in range(n):
        e = np.zeros(n)
        e[j] = h
        cols.append((f(x + e) - f(x - e)) / (2.0 * h))
    return np.stack(cols, axis=-1)


@dataclass(frozen=True)
class Trajectory:
    """Consecutive iterates of a system, points[k] = phi^(t0+k)(points[0])."""

    points: np.ndarray  # (n, phase_dim)
    t0: int = 0

    def __len__(self) -> int:
        return len(self.points)

    @property
    def times(self) -> np.ndarray:
        return self.t0 + np.arange(len(self.points))


class DiscreteSystem:
    """Base class: an invertible map phi on R^phase_dim (possibly torus-reduced).

    Subclasses implement ``step``; analytic systems also override
    ``inverse_step`` and the tangent maps.  The default ``jacobian`` uses
    central finite differences with step ``fd_step`` and the default
    ``inverse_jacobian`` uses the identity T_m(phi^-1) = (T_{phi^-1(m)} phi)^-1.
    ``_tangent_maps`` stacks both over a batch of samples; subclasses may
    override it with a batched evaluation of the same maps.
    ``exact_tangent`` marks systems whose tangent maps are closed forms.
    """

    exact_tangent = False

    def __init__(self, phase_dim: int, fd_step: float = 1e-6):
        self.phase_dim = int(phase_dim)
        self.fd_step = float(fd_step)

    def step(self, m) -> np.ndarray:
        raise NotImplementedError

    def inverse_step(self, m) -> np.ndarray:
        raise NotImplementedError

    def jacobian(self, m) -> np.ndarray:
        """Tangent map T_m(phi), by central finite differences."""
        J = _central_difference(self.step, _as_point(m, self.phase_dim), self.fd_step)
        if not np.all(np.isfinite(J)):
            raise NonFiniteError("finite-difference Jacobian is non-finite")
        return J

    def inverse_jacobian(self, m) -> np.ndarray:
        """Tangent map T_m(phi^-1) = (T_{phi^-1(m)} phi)^-1."""
        J = self.jacobian(self.inverse_step(m))
        try:
            return np.linalg.inv(J)
        except np.linalg.LinAlgError as exc:
            raise NonFiniteError("tangent map is singular, so its inverse is unbounded") from exc

    def trajectory(self, m0, n_steps: int, t0: int = 0) -> Trajectory:
        """n_steps forward iterates of m0 (n_steps + 1 points in total)."""
        if n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        m = _as_point(m0, self.phase_dim)
        advance, state = self._stepper(m)

        def images(state):
            for k in range(n_steps):
                try:
                    state = advance(state)
                except NonFiniteError as exc:
                    raise NonFiniteError(f"trajectory failed at step {k + 1}: {exc}") from exc
                yield state

        # every coordinate in order into one array of the exact size
        coords = chain(m, chain.from_iterable(images(state)))
        points = np.fromiter(coords, float, count=(n_steps + 1) * self.phase_dim)
        return Trajectory(points=points.reshape(n_steps + 1, self.phase_dim), t0=t0)

    def _stepper(self, m: np.ndarray):
        """(advance, state) for ``trajectory``: one forward step on a state
        that starts at m and iterates over the point's phase_dim coordinates.
        By default ``step``, whose image must be a point of shape
        (phase_dim,); subclasses override it with a cheaper state than a
        checked point."""
        step, shape = self.step, (self.phase_dim,)

        def advance(m):
            image = step(m)
            if np.shape(image) != shape:  # the last image meets no later check
                raise DimensionMismatch(f"step returned shape {np.shape(image)}, "
                                        f"expected {shape}")
            return image

        return advance, m

    def _tangent_maps(self, samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Stacked T_m(phi) and T_m(phi^-1), each (n, phase_dim, phase_dim),
        over samples (n, phase_dim): ``jacobian`` and ``inverse_jacobian``
        sample by sample, raising at the first non-finite pair."""
        fwd, inv = [], []
        for m in samples:
            fwd.append(self.jacobian(m))
            inv.append(self.inverse_jacobian(m))
            if not (_all_finite(fwd[-1]) and _all_finite(inv[-1])):
                raise NonFiniteError("tangent map evaluation is non-finite")
        return np.array(fwd), np.array(inv)


class _ConstantTangent(DiscreteSystem):
    """A system whose tangent maps are the same at every point: the pair
    (T phi, T phi^-1) that the subclass's ``_tangent_pair()`` returns."""

    exact_tangent = True

    def jacobian(self, m) -> np.ndarray:
        return self._tangent_pair()[0].copy()

    def inverse_jacobian(self, m) -> np.ndarray:
        return self._tangent_pair()[1].copy()

    def _tangent_maps(self, samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        shape = (len(samples), self.phase_dim, self.phase_dim)
        fwd, inv = self._tangent_pair()
        return np.broadcast_to(fwd, shape), np.broadcast_to(inv, shape)


class TorusRotation(_ConstantTangent):
    """Rotation m -> (m + angles) mod 1 on the unit torus."""

    def __init__(self, angles):
        angles = np.atleast_1d(np.asarray(angles, dtype=float))
        if not np.all(np.isfinite(angles)):
            raise ValueError(f"rotation angles must be finite, got {angles.tolist()}")
        super().__init__(phase_dim=angles.size)
        self.angles = angles

    def step(self, m) -> np.ndarray:
        m = _as_point(m, self.phase_dim)
        return (m + self.angles) % 1.0

    def inverse_step(self, m) -> np.ndarray:
        m = _as_point(m, self.phase_dim)
        return (m - self.angles) % 1.0

    def _stepper(self, m: np.ndarray):
        # Python's float % is numpy's remainder: fmod, then the sign fix; a
        # non-finite (or huge) point takes the checked step
        angles = self.angles.tolist()
        step = self.step
        if len(angles) == 2:  # the plane torus, on unpacked floats
            a, b = angles

            def advance(point):
                u, v = point
                if math.isfinite(u + v):
                    return (u + a) % 1.0, (v + b) % 1.0
                return step(np.array(point)).tolist()
        else:
            def advance(point):
                if math.isfinite(sum(point)):
                    return [(c + a) % 1.0 for c, a in zip(point, angles)]
                return step(np.array(point)).tolist()

        return advance, m.tolist()

    def _tangent_pair(self) -> tuple[np.ndarray, np.ndarray]:
        eye = np.eye(self.phase_dim)
        return eye, eye


_CAT_PLAIN = 2.0 ** 1022  # CatMap steps on plain floats below this magnitude


class CatMap(_ConstantTangent):
    """Arnold cat map m -> [[2,1],[1,1]] m mod 1 on the 2-torus."""

    def __init__(self):
        super().__init__(phase_dim=2)
        self.matrix = np.array([[2.0, 1.0], [1.0, 1.0]])
        self.inverse_matrix = np.array([[1.0, -1.0], [-1.0, 2.0]])

    def step(self, m) -> np.ndarray:
        m = _as_point(m, 2)
        return (self.matrix @ m) % 1.0

    def inverse_step(self, m) -> np.ndarray:
        m = _as_point(m, 2)
        return (self.inverse_matrix @ m) % 1.0

    def _stepper(self, m: np.ndarray):
        step = self.step

        def advance(point):
            u, v = point
            # below 2**1022 nothing overflows and 2u is exact, so 2u + v is
            # rounded once, as the matrix product rounds it (fused or not)
            if abs(u) < _CAT_PLAIN and abs(v) < _CAT_PLAIN:
                return (2.0 * u + v) % 1.0, (u + v) % 1.0
            return step(np.array(point)).tolist()  # raises on a non-finite point

        return advance, m.tolist()

    def _tangent_pair(self) -> tuple[np.ndarray, np.ndarray]:
        return self.matrix, self.inverse_matrix


class OdeFlow(DiscreteSystem):
    """Flow map of an autonomous vector field over a fixed time step.

    The step integrates ``field`` with the classical 4th-order Runge-Kutta
    scheme using ``substeps`` equal substeps; the inverse step integrates
    backward with the same scheme and verifies the forward round trip
    against ``roundtrip_tol``.

    A field that declares an RK4 kernel, ``field.rk4(point, hs, substeps)``
    working on Python floats and on equal-shape arrays (as ``lorenz_field``
    does), is integrated by that kernel: on plain floats by ``step``,
    ``inverse_step`` and ``trajectory`` and in one batch by the tangent
    kernel ``_tangent_maps``, with results bit-identical to ``_integrate``.
    The kernel only computes; the divergence rule is stated once, in
    ``_advance``: when the components of its image have a non-finite sum,
    the step is run again by ``_integrate`` from the same point, which
    raises at the substep that diverged or, when only the sum overflowed,
    returns the same bits.  Other fields are integrated on numpy points.
    """

    def __init__(self, field, phase_dim: int, h: float, substeps: int = 1,
                 roundtrip_tol: float = 1e-9, name: str = "ode_flow"):
        super().__init__(phase_dim=phase_dim)
        if not 0.0 < h < math.inf:
            raise ValueError("h must be positive and finite")
        if substeps < 1:
            raise ValueError("substeps must be >= 1")
        self.field = field
        self.h = float(h)
        self.substeps = int(substeps)
        self.roundtrip_tol = float(roundtrip_tol)
        self.name = name
        self._rk4 = getattr(field, "rk4", None)

    def _integrate(self, m: np.ndarray, h: float) -> np.ndarray:
        hs = h / self.substeps
        y = m
        f = self.field
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(self.substeps):
                k1 = f(y)
                k2 = f(y + 0.5 * hs * k1)
                k3 = f(y + 0.5 * hs * k2)
                k4 = f(y + hs * k3)
                y = y + (hs / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                if not np.all(np.isfinite(y)):
                    raise NonFiniteError(f"integration diverged at substep {i + 1} "
                                         f"of {self.substeps}")
        return y

    def _integrate_batch(self, points: np.ndarray, h: float) -> np.ndarray:
        """The RK4 kernel on a batch of points (n, phase_dim), as unchecked rows."""
        with np.errstate(over="ignore", invalid="ignore"):
            images = self._rk4(points.T, h / self.substeps, self.substeps)
        return np.stack(images, axis=-1)

    def _advance(self, h: float):
        """One RK4 kernel step of length h under the class's divergence rule."""
        rk4, hs, substeps, integrate = self._rk4, h / self.substeps, self.substeps, self._integrate

        def advance(point):
            image = rk4(point, hs, substeps)
            # a non-finite component stays so under +, - and *: the sum sees it
            if math.isfinite(sum(image)):
                return image
            return integrate(np.array(point), h).tolist()

        return advance

    def _flow(self, m: np.ndarray, h: float) -> np.ndarray:
        if self._rk4 is None:
            return self._integrate(m, h)
        return np.array(self._advance(h)(m.tolist()))

    def _stepper(self, m: np.ndarray):
        if self._rk4 is None:
            return super()._stepper(m)
        return self._advance(self.h), m.tolist()

    def step(self, m) -> np.ndarray:
        m = _as_point(m, self.phase_dim)
        return self._flow(m, self.h)

    def inverse_step(self, m) -> np.ndarray:
        m = _as_point(m, self.phase_dim)
        prev = self._flow(m, -self.h)
        err = np.linalg.norm(self._flow(prev, self.h) - m)
        scale = max(1.0, float(np.linalg.norm(m)))
        if err > self.roundtrip_tol * scale:
            raise RoundTripFailure(
                f"round-trip error {err:.3e} exceeds tolerance "
                f"{self.roundtrip_tol:.1e} (relative to scale {scale:.3g})")
        return prev

    def _tangent_maps(self, samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The per-sample ``jacobian`` and ``inverse_jacobian`` (checked
        inverse step, central differences at the sample and at its
        predecessor), as two batched integrations of a component form.

        Anything the per-sample path would reject (a divergent integration,
        a round trip within a factor two of its tolerance, a non-finite
        map) is left to that path, which decides and raises its own error.
        """
        per_sample = super()._tangent_maps
        if self._rk4 is None:
            return per_sample(samples)
        d = samples.shape[1]
        h = self.fd_step
        e = h * np.eye(d)
        prev = self._integrate_batch(samples, -self.h)
        m, p = samples[:, None, :], prev[:, None, :]
        starts = np.concatenate([p, m + e, m - e, p + e, p - e], axis=1)
        images = self._integrate_batch(starts.reshape(-1, d), self.h).reshape(starts.shape)
        if not (_all_finite(prev) and _all_finite(images)):
            return per_sample(samples)
        err = np.linalg.norm(images[:, 0] - samples, axis=-1)
        scale = np.maximum(1.0, np.linalg.norm(samples, axis=-1))
        fwd_p, fwd_m, prev_p, prev_m = np.split(images[:, 1:], 4, axis=1)
        # column j of a tangent map holds the difference quotient along e_j
        jac = np.swapaxes((fwd_p - fwd_m) / (2.0 * h), 1, 2)
        jac_prev = np.swapaxes((prev_p - prev_m) / (2.0 * h), 1, 2)
        # these row norms may round differently from the per-sample check,
        # so a round trip near the tolerance is left to that check
        if np.any(err > 0.5 * self.roundtrip_tol * scale) or not _all_finite(jac_prev):
            return per_sample(samples)
        try:
            jac_inv = np.linalg.inv(jac_prev)
        except np.linalg.LinAlgError:
            return per_sample(samples)
        if not (_all_finite(jac) and _all_finite(jac_inv)):
            return per_sample(samples)
        return jac, jac_inv


def lorenz_field(sigma: float = 10.0, rho: float = 28.0, beta: float = 8.0 / 3.0,
                 literal_sign: bool = False):
    """Lorenz vector field on points (3,) or batches (..., 3).

    The first equation is du/dt = sigma*(v - u), which produces the familiar
    butterfly attractor.  ``literal_sign=True`` flips it to sigma*(u - v);
    that variant collapses trajectories instead of generating the attractor
    and is kept only as a documented comparison switch.

    The returned field carries its component form as ``field.components``,
    ``(u, v, w) -> (du, dv, dw)``, and its integrator as ``field.rk4(point,
    hs, substeps)``: ``substeps`` classical Runge-Kutta substeps of length
    ``hs`` from ``point = (u, v, w)``, with the four stages written out.
    Both work on Python floats and on equal-shape arrays and perform the
    operations of ``OdeFlow._integrate`` in its order, so the results are
    bit-identical.  The kernel only computes: it checks nothing, and
    ``OdeFlow`` judges its image.
    """

    if not all(map(math.isfinite, (sigma, rho, beta))):
        raise ValueError(f"Lorenz parameters must be finite, got {sigma}, {rho}, {beta}")
    s = sigma * (-1.0 if literal_sign else 1.0)

    def components(u, v, w):
        return s * (v - u), u * (rho - w) - v, u * v - beta * w

    def rk4(point, hs, substeps):
        u, v, w = point
        half = 0.5 * hs
        sixth = hs / 6.0
        for _ in range(substeps):
            a1, b1, c1 = s * (v - u), u * (rho - w) - v, u * v - beta * w
            p, q, r = u + half * a1, v + half * b1, w + half * c1
            a2, b2, c2 = s * (q - p), p * (rho - r) - q, p * q - beta * r
            p, q, r = u + half * a2, v + half * b2, w + half * c2
            a3, b3, c3 = s * (q - p), p * (rho - r) - q, p * q - beta * r
            p, q, r = u + hs * a3, v + hs * b3, w + hs * c3
            a4, b4, c4 = s * (q - p), p * (rho - r) - q, p * q - beta * r
            u = u + sixth * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
            v = v + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
            w = w + sixth * (c1 + 2.0 * c2 + 2.0 * c3 + c4)
        return u, v, w

    def field(m):
        # transposing puts the coordinate axis first for any batch shape
        return np.array(components(*np.asarray(m, dtype=float).T)).T

    field.components = components
    field.rk4 = rk4
    return field


def lorenz_system(h: float = 0.01, substeps: int = 8, sigma: float = 10.0,
                  rho: float = 28.0, beta: float = 8.0 / 3.0,
                  literal_sign: bool = False) -> OdeFlow:
    """Lorenz flow map with time step h.

    The default of 8 Runge-Kutta substeps keeps the forward/backward round
    trip below 1e-9 everywhere on the attractor.
    """
    return OdeFlow(lorenz_field(sigma, rho, beta, literal_sign), phase_dim=3,
                   h=h, substeps=substeps, name="lorenz")


class CustomSystem(DiscreteSystem):
    """Wrap user-supplied forward/inverse maps (and optional tangent maps)."""

    def __init__(self, forward, inverse, phase_dim: int, jacobian=None,
                 inverse_jacobian=None, fd_step: float = 1e-6):
        super().__init__(phase_dim=phase_dim, fd_step=fd_step)
        self._forward = forward
        self._inverse = inverse
        self._jac = jacobian
        self._inv_jac = inverse_jacobian

    def step(self, m) -> np.ndarray:
        m = _as_point(m, self.phase_dim)
        out = np.asarray(self._forward(m), dtype=float)
        if not np.all(np.isfinite(out)):
            raise NonFiniteError("custom forward map returned non-finite values")
        return out

    def inverse_step(self, m) -> np.ndarray:
        m = _as_point(m, self.phase_dim)
        out = np.asarray(self._inverse(m), dtype=float)
        if out.shape != m.shape:  # as the forward stepper checks each image
            raise DimensionMismatch(f"inverse step returned shape {out.shape}, "
                                    f"expected {m.shape}")
        if not np.all(np.isfinite(out)):
            raise NonFiniteError("custom inverse map returned non-finite values")
        return out

    def jacobian(self, m) -> np.ndarray:
        if self._jac is not None:
            return np.asarray(self._jac(_as_point(m, self.phase_dim)), dtype=float)
        return super().jacobian(m)

    def inverse_jacobian(self, m) -> np.ndarray:
        if self._inv_jac is not None:
            return np.asarray(self._inv_jac(_as_point(m, self.phase_dim)), dtype=float)
        return super().inverse_jacobian(m)


class ObservationMap:
    """Map omega from phase points to R^obs_dim, with a differential.

    ``exact_norm`` marks maps whose ``norm_bound`` is the exact supremum of
    ||D omega|| (a closed form), not a maximum over the samples.
    """

    exact_norm = False

    def __init__(self, obs_dim: int, phase_dim: int):
        self.obs_dim = int(obs_dim)
        self.phase_dim = int(phase_dim)

    def __call__(self, m) -> np.ndarray:
        """Observe one point (dim,) -> (obs_dim,) or a batch (..., dim)."""
        raise NotImplementedError

    def jacobian(self, m) -> np.ndarray:
        """D omega(m), shape (obs_dim, phase_dim); finite differences by default."""
        return _central_difference(self, np.asarray(m, dtype=float), 1e-6)

    def norm_bound(self, samples) -> float:
        """Sampled sup of the operator norm of D omega."""
        samples = np.atleast_2d(np.asarray(samples, dtype=float))
        return max(float(_smax(self.jacobian(m))) for m in samples)


class LinearObservation(ObservationMap):
    """omega(m) = W m for a fixed matrix W."""

    exact_norm = True

    def __init__(self, matrix):
        W = np.atleast_2d(np.asarray(matrix, dtype=float))
        if not np.all(np.isfinite(W)):
            raise ValueError("observation matrix must be finite")
        super().__init__(obs_dim=W.shape[0], phase_dim=W.shape[1])
        self.matrix = W

    def __call__(self, m) -> np.ndarray:
        m = np.asarray(m, dtype=float)
        return m @ self.matrix.T

    def jacobian(self, m) -> np.ndarray:
        return self.matrix.copy()

    def norm_bound(self, samples=None) -> float:
        return float(_smax(self.matrix))


class CoordinateProjection(LinearObservation):
    """omega(m) = (m[i] for i in indices): the linear observation whose rows
    are the unit vectors e_i, evaluated by copying the coordinates (a product
    would turn -0.0 into +0.0, and an unselected inf into nan)."""

    def __init__(self, indices, phase_dim: int):
        raw = np.atleast_1d(np.asarray(indices, dtype=float))
        if not np.all(np.isfinite(raw) & (raw == np.floor(raw))):
            raise ValueError(f"projection indices must be integers, got {raw.tolist()}")
        indices = [int(i) for i in raw]
        if len(set(indices)) != len(indices):
            raise ValueError("projection indices must be distinct")
        if any(i < 0 or i >= phase_dim for i in indices):
            raise ValueError("projection index out of range")
        super().__init__(np.eye(phase_dim)[indices])
        self.indices = indices

    def __call__(self, m) -> np.ndarray:
        m = np.asarray(m, dtype=float)
        return m[..., self.indices]


class CustomObservation(ObservationMap):
    """Wrap a user-supplied observation function (optionally its Jacobian)."""

    def __init__(self, func, obs_dim: int, phase_dim: int, jacobian=None):
        super().__init__(obs_dim=obs_dim, phase_dim=phase_dim)
        self._func = func
        self._jac = jacobian

    def __call__(self, m) -> np.ndarray:
        out = np.asarray(self._func(np.asarray(m, dtype=float)), dtype=float)
        return out

    def jacobian(self, m) -> np.ndarray:
        if self._jac is not None:
            return np.atleast_2d(np.asarray(self._jac(np.asarray(m, dtype=float)), dtype=float))
        return super().jacobian(m)


def _observe(obs: ObservationMap, points: np.ndarray, finite: bool = False) -> np.ndarray:
    """Observations of the points (n, phase_dim) as rows, shape (n, obs_dim);
    with ``finite``, a non-finite observation raises NonFiniteError."""
    z = np.asarray(obs(points), dtype=float)
    if finite and not np.all(np.isfinite(z)):
        raise NonFiniteError("observation produced non-finite values")
    return z[:, None] if z.ndim == 1 else z


def observe_trajectory(obs: ObservationMap, traj: Trajectory) -> np.ndarray:
    """Observation values along a trajectory, shape (len(traj), obs_dim)."""
    return _observe(obs, traj.points, finite=True)


def _orbit(sys: DiscreteSystem, m, back: int, ahead: int) -> np.ndarray:
    """Rows phi^k(m) for k = -back..ahead: inverse steps from m, then
    ``sys.trajectory`` forward from m."""
    past = [_as_point(m, sys.phase_dim)]
    for _ in range(back):
        past.append(sys.inverse_step(past[-1]))
    rows = np.array(past[::-1])
    if ahead < 1:
        return rows
    return np.concatenate([rows, sys.trajectory(past[0], ahead).points[1:]])


def delay_window(sys: DiscreteSystem, obs: ObservationMap, m, length: int) -> np.ndarray:
    """Matrix of past observations, row k = omega(phi^-k(m)), k = 0..length-1."""
    if length < 1:
        raise ValueError("length must be >= 1")
    return _observe(obs, _orbit(sys, m, length - 1, 0)[::-1])


def check_equivariance(sys: DiscreteSystem, obs: ObservationMap, m, t: int,
                       window: int) -> float:
    """Max deviation of the shift/orbit equivariance of the delay map.

    Compares omega(phi^(tau+t)(m)) with omega(phi^tau(phi^t(m))) entrywise
    for tau in [-window, window].  Zero for t = 0; otherwise limited by the
    integration round-trip accuracy.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    back = max(window - t, 0)  # row back + k of orbit_m is phi^k(m)
    orbit_m = _orbit(sys, m, back, max(window + t, 0))
    shifted = orbit_m[back + t - window:back + t + window + 1]
    orbit_mt = _orbit(sys, orbit_m[back + t], window, window)
    return float(np.max(np.abs(_observe(obs, shifted) - _observe(obs, orbit_mt))))


def tangent_norm_bounds(sys: DiscreteSystem, samples) -> tuple[float, float]:
    """Sampled suprema of ||T phi|| and ||T phi^-1|| (largest singular values).

    The maps come from the system's tangent kernel ``_tangent_maps``:
    analytic Jacobians where the system provides them, central finite
    differences for flow maps.  Every sample is first checked as ``step``
    checks a point (dimension, finiteness), also where the closed-form
    tangent maps ignore it.  The returned values are suprema over the given
    samples and grow monotonically with the sample set.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    if samples.size == 0:
        raise ValueError("samples must be non-empty")
    finite = np.isfinite(samples.reshape(len(samples), -1)).all(axis=1)
    if samples.shape[1:] != (sys.phase_dim,) or not finite.all():
        _as_point(samples[np.argmin(finite)], sys.phase_dim)  # raises for this row
    # a stack broadcast along its first axis (a constant tangent map) repeats
    # one matrix: its norm is that matrix's norm
    maps = [J[:1] if J.strides[0] == 0 else J for J in sys._tangent_maps(samples)]
    if not all(_all_finite(J) for J in maps):
        raise NonFiniteError("tangent map evaluation is non-finite")
    sup_fwd, sup_inv = (max(0.0, float(np.max(_smax(J)))) for J in maps)
    return sup_fwd, sup_inv
