"""Span tracing of gsync's layers from outside the package.

The tracer replaces the public names each caller module looks up (for
instance ``gsync.cli.drive_gs`` or ``gsync.contraction.lipschitz_bounds``)
with wrappers that record a span per call, and counts work from call
arguments and return values.  The built-in state maps' ``eval`` gets counts
only: it runs once per recursion step, so a span per call would swamp the
work it measures.  ``uninstall`` puts every original object back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import time
from dataclasses import dataclass

import numpy as np


@dataclass
class Span:
    sid: int
    trace: int        # pass number; spans of one pass share it
    name: str
    start: float
    end: float
    parent: int | None


def _rows(x) -> int:
    shape = getattr(x, "shape", None) or np.shape(x)
    return math.prod(shape[:-1]) if len(shape) > 1 else 1


# work counters: (tracer, bound call arguments, return value) -> None

def _count_trajectory(t, a, result):
    t.add("dynsys.trajectory.steps", len(result) - 1)


def _count_tangent(t, a, result):
    t.add("dynsys.tangent_norm_bounds.samples", len(np.atleast_2d(a["samples"])))


def _count_invariance(t, a, result):
    t.add("contraction.check_invariance.sampled", int(result.method == "sampled"))


def _count_drive(t, a, result):
    t.add("gs.drive_gs.steps", result.method["washout_steps"] + len(result) - 1)


def _count_psi(t, a, result):
    n = result.method["n_iters"]
    t.add("gs.psi_iterate_gs.sweeps", n)
    # a-priori sweep count of the fixed-point bound, as in acceptance criterion 4
    l_fx, tol, first = a["l_fx"], a["tol"], result.method["first_change"]
    if l_fx is not None and 0.0 < l_fx < 1.0 and tol > 0.0 and first > tol:
        predicted = math.log(tol * (1.0 - l_fx) / first) / math.log(l_fx)
        t.add("gs.psi_iterate_gs.apriori_sweeps", predicted)
        t.add("gs.psi_iterate_gs.apriori_calls", 1)
        t.add("gs.psi_iterate_gs.sweeps_with_apriori", n)


def _count_write(t, a, result):
    t.add("gs.write_gs_csv.rows", len(a["gs"]))
    t.add("gs.write_gs_csv.bytes", os.path.getsize(a["path"]))


def _count_profile(t, a, result):
    t.add("diagnostics.near_pairs", len(result.pairs))


def _count_holder(t, a, result):
    t.add("diagnostics.near_pairs", result.n_pairs)


# (owner, attribute, span name, counter); owner "module:Class" for methods
SPAN_TARGETS = [
    ("gsync.cli", "parse_config", "config.parse_config", None),
    ("gsync.cli", "parse_config_text", "config.parse_config", None),
    ("gsync.dynsys:DiscreteSystem", "trajectory", "dynsys.trajectory", _count_trajectory),
    ("gsync.contraction", "tangent_norm_bounds", "dynsys.tangent_norm_bounds", _count_tangent),
    ("gsync.contraction", "lipschitz_bounds", "statemaps.lipschitz_bounds", None),
    ("gsync.cli", "certify", "contraction.certify", None),
    ("gsync.contraction", "check_invariance", "contraction.check_invariance", _count_invariance),
    ("gsync.cli", "drive_gs", "gs.drive_gs", _count_drive),
    ("gsync.gs", "drive_gs", "gs.drive_gs", _count_drive),
    ("gsync.cli", "psi_iterate_gs", "gs.psi_iterate_gs", _count_psi),
    ("gsync", "multistability_sweep", "gs.multistability_sweep", None),
    ("gsync.cli", "write_gs_csv", "gs.write_gs_csv", _count_write),
    ("gsync.cli", "esp_convergence", "diagnostics.esp_convergence", None),
    ("gsync.cli", "input_forgetting", "diagnostics.input_forgetting", None),
    ("gsync.cli", "derivative_profile", "diagnostics.derivative_profile", _count_profile),
    ("gsync.cli", "holder_exponent", "diagnostics.holder_exponent", _count_holder),
]
# (owner, attribute, counter prefix): calls and rows of the first argument
COUNT_TARGETS = [
    ("gsync.statemaps:Esn", "eval", "statemaps.eval"),
    ("gsync.statemaps:LinearDelay", "eval", "statemaps.eval"),
    ("gsync.statemaps:PowerSine", "eval", "statemaps.eval"),
    ("gsync.statemaps:CustomStateMap", "eval", "statemaps.eval"),
    # only lipschitz_bounds calls these: its rows are the grid points evaluated
    ("gsync.statemaps:StateMap", "jac_state_norms", "statemaps.lipschitz_bounds.grid"),
    ("gsync.statemaps:Esn", "jac_state_norms", "statemaps.lipschitz_bounds.grid"),
    ("gsync.statemaps:LinearDelay", "jac_state_norms", "statemaps.lipschitz_bounds.grid"),
    ("gsync.statemaps:PowerSine", "jac_state_norms", "statemaps.lipschitz_bounds.grid"),
]

_ABSENT = object()


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """In-memory spans and work counts, plus the patches that produce them."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self.trace = 0
        self.missing: list[str] = []
        self._stack: list[Span] = []
        self._patches: list[tuple] = []

    # --- recording -------------------------------------------------------

    def begin(self, trace: int) -> None:
        """Start a new pass: later spans carry this id; counts start from zero."""
        self.trace = trace
        self.counts = {}

    def add(self, key: str, value) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def open(self, name: str) -> Span:
        span = Span(len(self.spans), self.trace, name, time.perf_counter(), math.nan,
                    self._stack[-1].sid if self._stack else None)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        if self._stack.pop() is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")

    def call(self, name: str, fn, *args, **kwargs):
        span = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(span)

    # --- patching --------------------------------------------------------

    def _patch(self, owner: str, attr: str, make_wrapper) -> None:
        try:
            obj = _resolve(owner)
        except (ImportError, AttributeError):
            self.missing.append(f"{owner}.{attr}")
            return
        original = getattr(obj, attr, _ABSENT)
        if original is _ABSENT:
            self.missing.append(f"{owner}.{attr}")
            return
        own = obj.__dict__.get(attr, _ABSENT)
        setattr(obj, attr, make_wrapper(original))
        self._patches.append((obj, attr, own))

    def install(self) -> None:
        """Wrap every target; names that do not exist are listed in ``missing``."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.missing = []
        for owner, attr, name, counter in SPAN_TARGETS:
            self._patch(owner, attr, lambda fn, n=name, c=counter: self._span_wrapper(fn, n, c))
        for owner, attr, prefix in COUNT_TARGETS:
            self._patch(owner, attr, lambda fn, p=prefix: self._count_wrapper(fn, p))

    def uninstall(self) -> None:
        """Restore every patched attribute exactly as it was found."""
        while self._patches:
            obj, attr, own = self._patches.pop()
            if own is _ABSENT:
                delattr(obj, attr)
            else:
                setattr(obj, attr, own)

    def _span_wrapper(self, fn, name, counter):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.add(f"{name}.calls", 1)
            result = self.call(name, fn, *args, **kwargs)
            if counter is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                counter(self, bound.arguments, result)
            return result
        return wrapper

    def _count_wrapper(self, fn, prefix):
        calls, rows = f"{prefix}.calls", f"{prefix}.rows"

        @functools.wraps(fn)
        def wrapper(obj, x, *args, **kwargs):
            self.add(calls, 1)
            self.add(rows, _rows(x))
            return fn(obj, x, *args, **kwargs)
        return wrapper

    # --- analysis --------------------------------------------------------

    def self_times(self, spans: list[Span]) -> dict[int, float]:
        """Span duration minus the part of it covered by direct child spans."""
        children: dict[int, list[Span]] = {}
        for s in spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        out = {}
        for s in spans:
            covered, cursor = 0.0, s.start
            for c in sorted(children.get(s.sid, []), key=lambda c: c.start):
                lo, hi = max(c.start, cursor), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out[s.sid] = (s.end - s.start) - covered
        return out

    def to_json(self) -> list[dict]:
        return [{"id": s.sid, "trace": s.trace, "name": s.name, "start": s.start,
                 "end": s.end, "parent": s.parent} for s in self.spans]
