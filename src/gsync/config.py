"""Flat key-value run configuration: parsing, validation, and round-trip.

Schema (sectioned keys, '#' comments, matrices inline row-major with ';'
row separators or ``csv:relative/path``):

    system.kind = lorenz | torus_rotation | cat_map
    system.h, system.substeps, system.sigma, system.rho, system.beta,
    system.literal_sign            (lorenz flow map)
    system.angles                  (torus rotation)
    system.initial = 0 1 1.05
    system.n_steps = 4000
    observation.kind = projection | linear
    observation.indices = 0        (projection)
    observation.matrix = 1 0 0     (linear, row-major)
    statemap.kind = power_sine | esn | linear_delay
    statemap.alpha, statemap.lambda, statemap.k        (power_sine)
    statemap.A, statemap.C, statemap.zeta, statemap.squashing   (esn)
    statemap.q                     (linear_delay)
    region.N.kind = box | ball
    region.N.lo, region.N.hi       (box)
    region.N.center, region.N.radius   (ball)
    region.N.label                 (default V<N>; a file-name part without
                                    '/', '\\' or ',', unique across regions)
    run.washout, run.record, run.method, run.tol, run.max_iters,
    run.psi_record_from, run.grid_resolution, run.input_samples,
    run.forgetting_k, run.forgetting_trials, run.pair_budget, run.seed

Every number, in a scalar, a vector or a matrix (inline or CSV), must be
finite: nan or inf is a ``ConfigError`` that names its key.  Integer keys
and lists take integer literals; the run.* size keys and system.n_steps
have lower bounds, checked where they are read, and together an upper one:
no array a command holds may exceed 2**50 numbers (``_check_size``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .dynsys import (CatMap, CoordinateProjection, DiscreteSystem,
                     LinearObservation, ObservationMap, TorusRotation,
                     lorenz_system)
from .errors import ConfigError
from .gs import _field
from .regions import AxisBox, Ball, InvariantRegion
from .statemaps import Esn, LinearDelay, PowerSine, StateMap


def _fmt_vec(v) -> str:
    return " ".join(_field(float(c)) for c in np.atleast_1d(v))


def _fmt_mat(m) -> str:
    m = np.atleast_2d(np.asarray(m, dtype=float))
    return "; ".join(" ".join(map(_field, row)) for row in m)


def _finite(value, key: str, s: str):
    if not np.all(np.isfinite(value)):
        raise ConfigError(f"{key}: expected finite numbers, got {s!r}")
    return value


def _parse_float(s: str, key: str) -> float:
    try:
        return _finite(float(s), key, s)
    except ValueError as exc:
        raise ConfigError(f"{key}: expected a number, got {s!r}") from exc


def _parse_int(s: str, key: str) -> int:
    try:
        return int(s)
    except ValueError as exc:
        raise ConfigError(f"{key}: expected an integer, got {s!r}") from exc


def _tokens(s: str, key: str) -> list[str]:
    tokens = s.replace(",", " ").split()
    if not tokens:
        raise ConfigError(f"{key}: expected at least one number, got {s!r}")
    return tokens


def _parse_vec(s: str, key: str) -> np.ndarray:
    try:
        v = np.array([float(tok) for tok in _tokens(s, key)])
    except ValueError as exc:
        raise ConfigError(f"{key}: cannot parse vector {s!r}") from exc
    return _finite(v, key, s)


def _parse_int_vec(s: str, key: str) -> list[int]:
    try:
        return [int(tok) for tok in _tokens(s, key)]
    except ValueError as exc:
        raise ConfigError(f"{key}: expected integers, got {s!r}") from exc


def _parse_matrix(s: str, key: str, base_dir: str) -> np.ndarray:
    s = s.strip()
    if s.startswith("csv:"):
        path = s[4:].strip()
        if not os.path.isabs(path):
            path = os.path.join(base_dir, path)
        if not os.path.exists(path):
            raise ConfigError(f"{key}: matrix file not found: {path}")
        try:
            m = np.loadtxt(path, delimiter=",", dtype=float, ndmin=2)
        except Exception as exc:
            raise ConfigError(f"{key}: failed to read matrix CSV {path}: {exc}") from exc
    else:
        try:
            rows = [r for r in s.split(";") if r.strip()]
            m = np.atleast_2d(np.array([[float(tok) for tok in r.split()] for r in rows]))
        except ValueError as exc:
            raise ConfigError(f"{key}: cannot parse inline matrix {s!r}") from exc
    return _finite(m, key, s)


def _parse_bool(s: str, key: str) -> bool:
    v = s.strip().lower()
    if v in ("true", "1", "yes", "on"):
        return True
    if v in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"{key}: expected a boolean, got {s!r}")


class _Keys:
    """Typed accessors over the flat key-value dictionary.

    Each accessor parses and checks one key (an integer one against its
    lower bound ``at_least``, if it has one), and records the text of the
    value it returns (its default included) in ``resolved``, in the order
    the keys are read: that order is the resolved configuration's.
    """

    def __init__(self, raw: dict, base_dir: str):
        self.raw = raw
        self.base_dir = base_dir
        self.used = set()
        self.resolved: dict[str, str | None] = {}

    def _read(self, key, default, required, parse, fmt, at_least=None):
        if key in self.raw:
            self.used.add(key)
            value = parse(self.raw[key], key)
            if at_least is not None and np.min(value) < at_least:
                raise ConfigError(f"{key}: expected integers >= {at_least}, "
                                  f"got {self.raw[key]!r}")
        elif required:
            raise ConfigError(f"missing required key {key!r}")
        else:
            value = default
        if value is not None:
            self.resolved[key] = fmt(value)
        return value

    def get(self, key, default=None, required=False) -> str | None:
        return self._read(key, default, required, lambda s, key: s, str)

    def get_float(self, key, default=None, required=False):
        return self._read(key, default, required, _parse_float, _field)

    def get_int(self, key, default=None, required=False, at_least=None):
        return self._read(key, default, required, _parse_int, str, at_least)

    def get_bool(self, key, default=False):
        return self._read(key, default, False, _parse_bool, lambda b: str(b).lower())

    def get_vec(self, key, default=None, required=False):
        return self._read(key, default, required, _parse_vec, _fmt_vec)

    def get_int_vec(self, key, default, at_least=None):
        return self._read(key, default, False, _parse_int_vec,
                          lambda v: " ".join(str(i) for i in v), at_least)

    def get_matrix(self, key, required=False):
        return self._read(key, None, required,
                          lambda s, key: _parse_matrix(s, key, self.base_dir), _fmt_mat)


@dataclass
class RunConfig:
    """A parsed, validated, fully resolved run configuration."""

    system: DiscreteSystem
    observation: ObservationMap
    statemap: StateMap | None
    regions: list[InvariantRegion]
    initial: np.ndarray
    n_steps: int
    washout: int
    record: int
    method: str
    tol: float
    max_iters: int
    psi_record_from: int | None
    grid_resolution: int
    input_samples: int
    forgetting_k: list[int]
    forgetting_trials: int
    pair_budget: int
    seed: int
    resolved: dict = field(default_factory=dict)

    @property
    def time_scale(self) -> float | None:
        return getattr(self.system, "h", None)

    @property
    def span(self) -> int:
        """Steps of the orbit that synchronize and diagnose drive along."""
        return max(self.n_steps, self.washout + self.record)

    @property
    def psi_from(self) -> int:
        """First step that the psi iteration records: after the washout by default."""
        return self.washout if self.psi_record_from is None else self.psi_record_from

    def resolved_text(self) -> str:
        lines = ["# resolved run configuration (reproduces this run)"]
        for k, v in self.resolved.items():
            lines.append(f"{k} = {v}")
        return "\n".join(lines) + "\n"


def parse_config_text(text: str, base_dir: str = ".") -> RunConfig:
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = value
    return _build(raw, base_dir)


def parse_config(path: str) -> RunConfig:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: "
                          f"{type(exc).__name__}: {exc}") from exc
    return parse_config_text(text, base_dir=os.path.dirname(os.path.abspath(path)))


def _build_system(keys: _Keys) -> tuple[DiscreteSystem, np.ndarray]:
    kind = keys.get("system.kind", required=True)
    if kind == "lorenz":
        h = keys.get_float("system.h", 0.01)
        substeps = keys.get_int("system.substeps", 8)
        sigma = keys.get_float("system.sigma", 10.0)
        rho = keys.get_float("system.rho", 28.0)
        beta = keys.get_float("system.beta", 8.0 / 3.0)
        literal = keys.get_bool("system.literal_sign", False)
        try:
            sys_ = lorenz_system(h=h, substeps=substeps, sigma=sigma, rho=rho,
                                 beta=beta, literal_sign=literal)
        except ValueError as exc:
            raise ConfigError(f"system: {exc}") from exc
        initial = keys.get_vec("system.initial", np.array([0.0, 1.0, 1.05]))
    elif kind == "torus_rotation":
        sys_ = TorusRotation(keys.get_vec("system.angles", required=True))
        initial = keys.get_vec("system.initial", np.zeros(sys_.phase_dim))
    elif kind == "cat_map":
        sys_ = CatMap()
        initial = keys.get_vec("system.initial", np.array([0.1, 0.2]))
    else:
        raise ConfigError(f"system.kind: unknown system {kind!r}")
    if initial.shape != (sys_.phase_dim,):
        raise ConfigError(f"system.initial: expected {sys_.phase_dim} coordinates, "
                          f"got {initial.size}")
    return sys_, initial


def _build_observation(keys: _Keys, sys_: DiscreteSystem) -> ObservationMap:
    kind = keys.get("observation.kind", "projection")
    if kind == "projection":
        indices = keys.get_int_vec("observation.indices", [0])
        try:
            return CoordinateProjection(indices, phase_dim=sys_.phase_dim)
        except ValueError as exc:
            raise ConfigError(f"observation.indices: {exc}") from exc
    if kind == "linear":
        W = keys.get_matrix("observation.matrix", required=True)
        if W.shape[1] != sys_.phase_dim:
            raise ConfigError(f"observation.matrix: {W.shape[1]} columns do not match "
                              f"phase dimension {sys_.phase_dim}")
        return LinearObservation(W)
    raise ConfigError(f"observation.kind: unknown observation {kind!r}")


def _build_statemap(keys: _Keys, obs: ObservationMap) -> StateMap | None:
    kind = keys.get("statemap.kind")
    if kind is None:
        return None
    try:
        if kind == "power_sine":
            F = PowerSine(keys.get_float("statemap.alpha", required=True),
                          keys.get_float("statemap.lambda", required=True),
                          keys.get_float("statemap.k", required=True))
        elif kind == "esn":
            A = keys.get_matrix("statemap.A", required=True)
            C = keys.get_matrix("statemap.C", required=True)
            squashing = keys.get("statemap.squashing", "tanh")
            F = Esn(A, C, zeta=keys.get_vec("statemap.zeta"), squashing=squashing)
        elif kind == "linear_delay":
            F = LinearDelay(keys.get_int("statemap.q", required=True))
        else:
            raise ConfigError(f"statemap.kind: unknown state map {kind!r}")
    except ValueError as exc:
        raise ConfigError(f"statemap: {exc}") from exc
    if F.input_dim != obs.obs_dim:
        raise ConfigError(f"statemap input dimension {F.input_dim} does not match "
                          f"observation dimension {obs.obs_dim}")
    return F


def _check_label(label: str, pre: str, seen: dict[str, str]) -> None:
    """A region label names output files (gs_<label>_<method>.csv) and CSV
    fields, so it must be a plain file-name part that no other region uses;
    ``seen`` maps each earlier label to its region's key prefix."""
    if label in ("", ".", "..") or any(c in label for c in "/\\,"):
        raise ConfigError(f"{pre}.label: label {label!r} must be a file-name part "
                          "other than '.' and '..', without '/', '\\' or ','")
    if label in seen:
        raise ConfigError(f"{pre}.label: label {label!r} repeats the label of {seen[label]}")
    seen[label] = pre


def _build_regions(keys: _Keys, F: StateMap | None) -> list[InvariantRegion]:
    indices = set()
    for k in keys.raw:
        if k.startswith("region.") and k.count(".") == 2:
            try:
                indices.add(int(k.split(".")[1]))
            except ValueError as exc:
                raise ConfigError(f"{k}: region index must be an integer") from exc
    regions = []
    labels: dict[str, str] = {}
    for n in sorted(indices):
        pre = f"region.{n}"
        kind = keys.get(f"{pre}.kind", "box")
        try:
            if kind == "box":
                lo = keys.get_vec(f"{pre}.lo", required=True)
                hi = keys.get_vec(f"{pre}.hi", required=True)
                region = AxisBox(lo, hi, label=keys.get(f"{pre}.label", f"V{n}"))
            elif kind == "ball":
                center = keys.get_vec(f"{pre}.center", required=True)
                radius = keys.get_float(f"{pre}.radius", required=True)
                region = Ball(center, radius, label=keys.get(f"{pre}.label", f"V{n}"))
            else:
                raise ConfigError(f"{pre}.kind: unknown region kind {kind!r}")
        except ValueError as exc:
            raise ConfigError(f"{pre}: {exc}") from exc
        _check_label(region.label, pre, labels)
        if F is not None and region.dim != F.state_dim:
            raise ConfigError(f"{pre}: dimension {region.dim} does not match "
                              f"state dimension {F.state_dim}")
        regions.append(region)
    return regions


def _build(raw: dict, base_dir: str) -> RunConfig:
    keys = _Keys(raw, base_dir)
    system, initial = _build_system(keys)
    observation = _build_observation(keys, system)
    statemap = _build_statemap(keys, observation)
    regions = _build_regions(keys, statemap)

    # system.n_steps keeps its place before the run.* keys its default needs
    keys.resolved["system.n_steps"] = None
    washout = keys.get_int("run.washout", 2000, at_least=0)
    record = keys.get_int("run.record", 2000, at_least=1)
    n_steps = keys.get_int("system.n_steps", washout + record, at_least=1)
    method = keys.get("run.method", "drive")
    if method not in ("drive", "psi", "both"):
        raise ConfigError(f"run.method: expected drive|psi|both, got {method!r}")
    tol = keys.get_float("run.tol", 1e-12)
    if tol <= 0.0:
        raise ConfigError("run.tol must be > 0")
    # keyword arguments are evaluated in order: the rest of the resolved order
    cfg = RunConfig(
        system=system, observation=observation, statemap=statemap, regions=regions,
        initial=initial, n_steps=n_steps, washout=washout, record=record, method=method,
        tol=tol, max_iters=keys.get_int("run.max_iters", 500, at_least=1),
        grid_resolution=keys.get_int("run.grid_resolution", 20, at_least=2),
        input_samples=keys.get_int("run.input_samples", 200, at_least=1),
        forgetting_k=keys.get_int_vec("run.forgetting_k", [1, 5, 20, 100, 200], at_least=0),
        forgetting_trials=keys.get_int("run.forgetting_trials", 100, at_least=1),
        pair_budget=keys.get_int("run.pair_budget", 4000, at_least=1),
        seed=keys.get_int("run.seed", 0, at_least=0),
        psi_record_from=keys.get_int("run.psi_record_from", None, at_least=0),
        resolved=keys.resolved)
    if cfg.psi_record_from is not None and cfg.psi_record_from >= cfg.span:
        raise ConfigError(f"run.psi_record_from must lie in [0, {cfg.span})")

    unused = set(raw) - keys.used
    if unused:
        raise ConfigError(f"unknown configuration keys: {sorted(unused)}")
    _check_size(cfg)
    return cfg


# Above this many numbers in one array a config is rejected.  Below it every
# array a command allocates stays far under numpy's limit of 2**63 bytes, so
# a run too large for memory ends in a MemoryError rather than a ValueError.
_SIZE_CAP = 2 ** 50


def _check_size(cfg: RunConfig) -> None:
    """Estimate the largest arrays a command allocates from the resolved
    keys, each with the keys that set its size, and raise a ``ConfigError``
    naming the keys of every estimate above ``_SIZE_CAP``."""
    state = cfg.statemap.state_dim if cfg.statemap is not None else 0
    obs = cfg.observation.obs_dim
    rows = cfg.span + 1
    span_keys = ("system.n_steps" if cfg.n_steps > cfg.washout + cfg.record
                 else "run.washout, run.record")
    sizes = [(rows * (cfg.system.phase_dim + obs), span_keys),  # the orbit and its observations
             (rows * len(cfg.regions) * state, span_keys),  # the stacked drive, the psi iterate
             ((max(cfg.forgetting_k) + 20) * cfg.forgetting_trials * max(obs, state),
              "run.forgetting_k, run.forgetting_trials"),  # input_forgetting, 20 prefix steps
             (cfg.input_samples * obs, "run.input_samples")]
    sizes += [(max(cfg.grid_resolution, 8) * region.dim, "run.grid_resolution")
              for region in cfg.regions if isinstance(region, Ball)]  # Ball.grid's top-up
    over = dict.fromkeys(keys for n, keys in sizes if n > _SIZE_CAP)
    if over:
        largest = max(n for n, _ in sizes)
        raise ConfigError(f"{', '.join(over)}: the run would hold an array of at least "
                          f"2**{largest.bit_length() - 1} numbers, above the cap of 2**50")
