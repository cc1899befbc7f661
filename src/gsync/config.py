"""Flat key-value run configuration: parsing, validation, and round-trip.

Sectioned ``key = value`` lines and '#' comments; matrices are inline,
row-major with ';' row separators, or ``csv:relative/path``.  ``_KEYS``
states every key: its type, its default and, for an integer key, its lower
bound.  ``_KINDS`` states each kind of ``system``, ``observation``,
``statemap`` and ``region.N``: its constructor and the keys it reads.  A
region index is digits without a leading zero; a region label is a
file-name part without '/', '\\' or ',', unique across regions.

Every number, in a scalar, a vector or a matrix (inline or CSV), must be
finite: nan or inf is a ``ConfigError`` that names its key.  Integer keys
and lists take integer literals, each checked where it is read against its
lower bound in ``_KEYS``.  Together the size keys have an upper bound: no
array a command holds may exceed 2**50 numbers, and no command may integrate
more than 2**33 RK4 substeps (``_check_size``).
"""

from __future__ import annotations

import os
import re
from copy import copy
from dataclasses import dataclass, field

import numpy as np

from .contraction import MAX_TANGENT_SAMPLES
from .dynsys import (CatMap, CoordinateProjection, DiscreteSystem,
                     LinearObservation, ObservationMap, TorusRotation,
                     lorenz_system)
from .errors import ConfigError
from .gs import _field
from .regions import AxisBox, Ball, InvariantRegion
from .statemaps import Esn, LinearDelay, PowerSine, StateMap


def _fmt_floats(m) -> str:
    """A vector as one row, a matrix as rows joined by '; '."""
    m = np.atleast_2d(np.asarray(m, dtype=float))
    return "; ".join(" ".join(map(_field, row)) for row in m)


def _finite(value, key: str, s: str):
    if not np.all(np.isfinite(value)):
        raise ConfigError(f"{key}: expected finite numbers, got {s!r}")
    return value


def _tokens(s: str, key: str) -> list[str]:
    tokens = s.replace(",", " ").split()
    if not tokens:
        raise ConfigError(f"{key}: expected at least one number, got {s!r}")
    return tokens


def _parse_matrix(s: str, key: str, base_dir: str) -> np.ndarray:
    if s.startswith("csv:"):
        path = s[4:].strip()
        if not os.path.isabs(path):
            path = os.path.join(base_dir, path)
        if not os.path.exists(path):
            raise ConfigError(f"{key}: matrix file not found: {path}")
        try:
            m = np.loadtxt(path, delimiter=",", dtype=float, ndmin=2, encoding="utf-8")
        except Exception as exc:
            raise ConfigError(f"{key}: failed to read matrix CSV {path}: {exc}") from exc
    else:
        rows = [r for r in s.split(";") if r.strip()]
        m = np.atleast_2d(np.array([[float(tok) for tok in r.split()] for r in rows]))
    return _finite(m, key, s)


def _parse_bool(s: str, key: str) -> bool:
    v = s.lower()
    if v in ("true", "1", "yes", "on"):
        return True
    if v in ("false", "0", "no", "off"):
        return False
    raise ValueError(s)


_REQUIRED = object()  # the default of a key that has none


class _Derived(str):
    """A default derived from other keys, its text saying from what: the
    builder passes its value to ``_Keys.get`` (none: the key stays unresolved)."""


# each type of value: (parse, format, what a ValueError of parse means)
_STR = (lambda s, key: s, str, None)
_BOOL = (_parse_bool, lambda b: str(b).lower(), "expected a boolean, got")
_FLOAT = (lambda s, key: _finite(float(s), key, s), _field, "expected a number, got")
_INT = (lambda s, key: int(s), str, "expected an integer, got")
_VEC = (lambda s, key: _finite(np.array([float(t) for t in _tokens(s, key)]), key, s),
        _fmt_floats, "cannot parse vector")
_INTS = (lambda s, key: [int(t) for t in _tokens(s, key)],
         lambda v: " ".join(map(str, v)), "expected integers, got")
_MATRIX = (_parse_matrix, _fmt_floats, "cannot parse inline matrix")

# every key: its type, its default and the lower bound of an integer key;
# region.N.* stands for the keys of every region index N
_KEYS = {
    "system.kind": (*_STR, _REQUIRED, None),
    "system.h": (*_FLOAT, 0.01, None),
    "system.substeps": (*_INT, 8, 1),
    "system.sigma": (*_FLOAT, 10.0, None),
    "system.rho": (*_FLOAT, 28.0, None),
    "system.beta": (*_FLOAT, 8.0 / 3.0, None),
    "system.literal_sign": (*_BOOL, False, None),
    "system.angles": (*_VEC, _REQUIRED, None),
    "system.initial": (*_VEC, _Derived("per system.kind"), None),
    "system.n_steps": (*_INT, _Derived("run.washout + run.record"), 1),
    "observation.kind": (*_STR, "projection", None),
    "observation.indices": (*_INTS, [0], None),
    "observation.matrix": (*_MATRIX, _REQUIRED, None),
    "statemap.kind": (*_STR, None, None),
    "statemap.alpha": (*_FLOAT, _REQUIRED, None),
    "statemap.lambda": (*_FLOAT, _REQUIRED, None),
    "statemap.k": (*_FLOAT, _REQUIRED, None),
    "statemap.A": (*_MATRIX, _REQUIRED, None),
    "statemap.C": (*_MATRIX, _REQUIRED, None),
    "statemap.squashing": (*_STR, "tanh", None),
    "statemap.zeta": (*_VEC, None, None),
    "statemap.q": (*_INT, _REQUIRED, 1),
    "region.N.kind": (*_STR, "box", None),
    "region.N.lo": (*_VEC, _REQUIRED, None),
    "region.N.hi": (*_VEC, _REQUIRED, None),
    "region.N.center": (*_VEC, _REQUIRED, None),
    "region.N.radius": (*_FLOAT, _REQUIRED, None),
    "region.N.label": (*_STR, _Derived("V<N>"), None),
    "run.washout": (*_INT, 2000, 0),
    "run.record": (*_INT, 2000, 1),
    "run.method": (*_STR, "drive", None),
    "run.tol": (*_FLOAT, 1e-12, None),
    "run.max_iters": (*_INT, 500, 1),
    "run.psi_record_from": (*_INT, _Derived("run.washout"), 0),
    "run.grid_resolution": (*_INT, 20, 2),
    "run.input_samples": (*_INT, 200, 1),
    "run.forgetting_k": (*_INTS, [1, 5, 20, 100, 200], 0),
    "run.forgetting_trials": (*_INT, 100, 1),
    "run.pair_budget": (*_INT, 4000, 1),
    "run.seed": (*_INT, 0, 0),
}


# each kind of each section: its constructor, the keys it takes in resolved
# order and, for a system, system.initial's default (a point or one number)
_KINDS = {
    "system": {
        "lorenz": (lorenz_system, ("h", "substeps", "sigma", "rho", "beta", "literal_sign"),
                   [0.0, 1.0, 1.05]),
        "torus_rotation": (TorusRotation, ("angles",), 0.0),
        "cat_map": (CatMap, (), [0.1, 0.2]),
    },
    "observation": {  # a linear observation's phase dimension is its column count
        "projection": (CoordinateProjection, ("indices",)),
        "linear": (lambda matrix, phase_dim: LinearObservation(matrix), ("matrix",)),
    },
    "statemap": {
        "power_sine": (PowerSine, ("alpha", "lambda", "k")),
        "esn": (lambda A, C, squashing, zeta: Esn(A, C, zeta, squashing),
                ("A", "C", "squashing", "zeta")),
        "linear_delay": (LinearDelay, ("q",)),
    },
    "region": {
        "box": (AxisBox, ("lo", "hi", "label")),
        "ball": (Ball, ("center", "radius", "label")),
    },
}


class _Keys:
    """The flat key-value dictionary, read one key at a time.

    ``get`` parses and checks a key as its ``_KEYS`` row says, and records
    the text of the value it returns (its default included) in ``resolved``,
    in the order the keys are read: that order is the resolved configuration's.
    """

    def __init__(self, raw: dict, base_dir: str):
        self.raw = raw
        self.base_dir = base_dir
        self.used = set()
        self.resolved: dict[str, str | None] = {}

    def get(self, key, derived=None):
        """The value of ``key``; ``derived`` is that of a ``_Derived`` default."""
        parse, fmt, error, default, at_least = (_KEYS.get(key)
                                                or _KEYS["region.N." + key.rsplit(".", 1)[1]])
        if key in self.raw:
            self.used.add(key)
            text = self.raw[key]
            try:
                value = (parse(text, key, self.base_dir) if parse is _parse_matrix
                         else parse(text, key))
            except ValueError as exc:
                raise ConfigError(f"{key}: {error} {text!r}") from exc
            if at_least is not None and np.min(value) < at_least:
                raise ConfigError(f"{key}: expected integers >= {at_least}, got {text!r}")
        elif default is _REQUIRED:
            raise ConfigError(f"missing required key {key!r}")
        else:
            value = derived if isinstance(default, _Derived) else copy(default)
        if value is not None:
            self.resolved[key] = fmt(value)
        return value


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


def _read_kind(keys: _Keys, prefix: str, derived=None, **given):
    """The kind that ``<prefix>.kind`` names and the object that its
    ``_KINDS`` row builds from the kind's keys (``derived`` is the value of a
    ``_Derived`` default) and ``given``, or ``(None, None)`` without a kind."""
    kind = keys.get(f"{prefix}.kind")
    if kind is None:
        return None, None
    kinds = _KINDS[prefix.split(".")[0]]
    if kind not in kinds:
        raise ConfigError(f"{prefix}.kind: unknown kind {kind!r}, expected {' | '.join(kinds)}")
    make, names = kinds[kind][:2]
    values = [keys.get(f"{prefix}.{name}", derived) for name in names]
    try:
        return kind, make(*values, **given)
    except ValueError as exc:
        at = f"{prefix}.{names[0]}" if len(names) == 1 else prefix
        raise ConfigError(f"{at}: {exc}") from exc


def _build_regions(keys: _Keys, F: StateMap | None) -> list[InvariantRegion]:
    indices = set()
    for k in keys.raw:
        if k.startswith("region.") and k.count(".") == 2:
            index = k.split(".")[1]
            if not re.fullmatch("0|[1-9][0-9]*", index):
                raise ConfigError(f"{k}: region index {index!r} must be digits with no leading zero")
            indices.add(int(index))
    regions = []
    labels: dict[str, str] = {}
    for n in sorted(indices):
        pre = f"region.{n}"
        _, region = _read_kind(keys, pre, f"V{n}")
        # a label names output files (gs_<label>_<method>.csv) and CSV fields:
        # a plain file-name part that no other region uses
        label = region.label
        if label in ("", ".", "..") or any(c in label for c in "/\\,"):
            raise ConfigError(f"{pre}.label: label {label!r} must be a file-name part "
                              "other than '.' and '..', without '/', '\\' or ','")
        if label in labels:
            raise ConfigError(f"{pre}.label: label {label!r} repeats the label of {labels[label]}")
        labels[label] = pre
        if F is not None and region.dim != F.state_dim:
            raise ConfigError(f"{pre}: dimension {region.dim} does not match "
                              f"state dimension {F.state_dim}")
        regions.append(region)
    return regions


def _build(raw: dict, base_dir: str) -> RunConfig:
    keys = _Keys(raw, base_dir)
    kind, system = _read_kind(keys, "system")
    initial = keys.get("system.initial", np.full(system.phase_dim, _KINDS["system"][kind][2]))
    if initial.shape != (system.phase_dim,):
        raise ConfigError(f"system.initial: expected {system.phase_dim} coordinates, "
                          f"got {initial.size}")
    _, observation = _read_kind(keys, "observation", phase_dim=system.phase_dim)
    if observation.phase_dim != system.phase_dim:
        raise ConfigError(f"observation.matrix: {observation.phase_dim} columns do not match "
                          f"phase dimension {system.phase_dim}")
    _, statemap = _read_kind(keys, "statemap")
    if statemap is not None and statemap.input_dim != observation.obs_dim:
        raise ConfigError(f"statemap input dimension {statemap.input_dim} does not match "
                          f"observation dimension {observation.obs_dim}")
    regions = _build_regions(keys, statemap)

    # system.n_steps keeps its place before the run.* keys its default needs
    keys.resolved["system.n_steps"] = None
    washout = keys.get("run.washout")
    record = keys.get("run.record")
    n_steps = keys.get("system.n_steps", washout + record)
    method = keys.get("run.method")
    if method not in ("drive", "psi", "both"):
        raise ConfigError(f"run.method: expected drive|psi|both, got {method!r}")
    tol = keys.get("run.tol")
    if tol <= 0.0:
        raise ConfigError("run.tol must be > 0")
    # keyword arguments are evaluated in order: the rest of the resolved order
    cfg = RunConfig(
        system=system, observation=observation, statemap=statemap, regions=regions,
        initial=initial, n_steps=n_steps, washout=washout, record=record, method=method,
        tol=tol, resolved=keys.resolved,
        **{name: keys.get(f"run.{name}") for name in (
            "max_iters", "grid_resolution", "input_samples", "forgetting_k",
            "forgetting_trials", "pair_budget", "seed", "psi_record_from")})
    # within the orbit, and meeting the drive's window: --method both overrides run.method
    last = min(cfg.span - 1, washout + record)
    if cfg.psi_record_from is not None and cfg.psi_record_from > last:
        raise ConfigError(f"run.psi_record_from must lie in [0, {last}]")

    unused = set(raw) - keys.used
    if unused:
        raise ConfigError(f"unknown configuration keys: {sorted(unused)}")
    _check_size(cfg)
    return cfg


# Above this many numbers in one array a config is rejected.  Below it every
# array a command allocates stays far under numpy's limit of 2**63 bytes, so
# a run too large for memory ends in a MemoryError rather than a ValueError.
_SIZE_CAP = 2 ** 50
# Above this many RK4 substeps a config is rejected: at about 1.2 microseconds
# per Lorenz substep, 2**33 of them take nearly three hours.
_SUBSTEP_CAP = 2 ** 33


def _check_size(cfg: RunConfig) -> None:
    """Estimate from the resolved keys the largest arrays a command allocates
    and the RK4 substeps it integrates, and raise a ``ConfigError`` naming the
    keys behind each estimate above ``_SIZE_CAP`` or ``_SUBSTEP_CAP``."""
    state = cfg.statemap.state_dim if cfg.statemap is not None else 0
    obs = cfg.observation.obs_dim
    rows = cfg.span + 1
    span_keys = ("system.n_steps" if cfg.n_steps > cfg.washout + cfg.record
                 else "run.washout, run.record")
    sizes = [(rows * (cfg.system.phase_dim + obs), span_keys),  # the orbit and its observations
             # the stacked drive (an upper bound: one row per distinct
             # region center), the psi iterate
             (rows * len(cfg.regions) * state, span_keys),
             # input_forgetting: its largest array is its inputs, drawn at once
             # for 20 prefix steps and the suffix; its input terms and states
             # take a chunk of steps at a time, so max(obs, state) has room
             ((max(cfg.forgetting_k) + 20) * cfg.forgetting_trials * max(obs, state),
              "run.forgetting_k, run.forgetting_trials"),
             (cfg.input_samples * obs, "run.input_samples")]
    sizes += [(max(cfg.grid_resolution, 8) * region.dim, "run.grid_resolution")
              for region in cfg.regions if isinstance(region, Ball)]  # Ball.grid's top-up
    over = dict.fromkeys(keys for n, keys in sizes if n > _SIZE_CAP)
    if over:
        largest = max(n for n, _ in sizes)
        raise ConfigError(f"{', '.join(over)}: the run would hold an array of at least "
                          f"2**{largest.bit_length() - 1} numbers, above the cap of 2**50")
    # the orbit, and certify's tangent kernel: 14 integrations per sample
    substeps = getattr(cfg.system, "substeps", 0) * (rows + 14 * MAX_TANGENT_SAMPLES)
    if substeps > _SUBSTEP_CAP:
        raise ConfigError(f"system.substeps, {span_keys}: the run would integrate at least "
                          f"2**{substeps.bit_length() - 1} RK4 substeps, above the cap of 2**33")
