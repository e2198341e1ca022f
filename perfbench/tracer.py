"""Layer tracing from outside the program.

While a ``Tracer`` is installed, every boundary function below is replaced, in
every ``qbmsim`` module that refers to it, by a wrapper that records a span
(name, start, end, parent span).  Uninstalling puts the original functions
back, so untraced calls run unpatched code.  Spans are kept in memory for one
workflow call and then reduced to per-boundary call counts and self times
(span duration minus the part of it that child spans cover).

Work written inline inside a boundary counts as that boundary's self time.
The conjugation S Gamma S^T, for example, is inline code, so it shows up in
the self time of ``certify.verify_all_times_separable``,
``certify.immediate_entanglement_check`` or ``cli.run_evolve``.  A boundary
whose function no longer exists reports zero calls.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import statistics
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

#: traced name -> (module under qbmsim, function name)
BOUNDARIES = {
    "model.make_spectral_model": ("model", "make_spectral_model"),
    "model.build_potential_matrix": ("model", "build_potential_matrix"),
    "symplectic.normal_modes": ("symplectic", "normal_modes"),
    "symplectic.gibbs_covariance": ("symplectic", "gibbs_covariance"),
    "symplectic.propagator": ("symplectic", "_propagator_from_modes"),
    "symplectic.symplectic_spectrum": ("symplectic", "symplectic_spectrum"),
    "symplectic.spectrum_schur": ("symplectic", "_spectrum_schur"),
    "entanglement.ppt_verdict": ("entanglement", "ppt_verdict"),
    "entanglement.reduce_two_mode": ("entanglement", "reduce_two_mode"),
    "entanglement.lambda_of_block": ("entanglement", "lambda_of_block"),
    "certify.critical_beta": ("certify", "critical_beta"),
    "certify.build_certificate": ("certify", "build_certificate"),
    "certify.verify_all_times_separable": ("certify", "verify_all_times_separable"),
    "certify.immediate_entanglement_check": ("certify", "immediate_entanglement_check"),
    "certify.lambda_dot_analytic": ("certify", "lambda_dot_analytic"),
    "certify.lambda_dot_finite_difference": ("certify", "lambda_dot_finite_difference"),
    "cli.load_config": ("cli", "load_config"),
    "cli.run_evolve": ("cli", "run_evolve"),
    "cli.run_certify": ("cli", "run_certify"),
    "cli.run_immediate": ("cli", "run_immediate"),
    "cli.run_sweep": ("cli", "run_sweep"),
    "cli.emit": ("cli", "emit"),
}

#: counters filled by observing arguments and results at the boundaries
COUNTERS = ("certify.critical_beta.iterations", "symplectic.symplectic_spectrum.dim_max",
            "cli.emit.bytes", "health.inconclusive_verdicts", "health.beta_bracket_top",
            "health.nan_lambda_dot0")


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the top


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(span)
    out = []
    for i, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for child in sorted(children[i], key=lambda c: c.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.end - span.start - covered)
    return out


def _ancestor(spans: list[Span], i: int, name: str) -> int:
    i = spans[i].parent
    while i >= 0 and spans[i].name != name:
        i = spans[i].parent
    return i


def bisection_iterations(spans: list[Span]) -> int:
    """Sum over critical_beta spans of their gibbs_covariance calls minus one."""
    under = Counter(_ancestor(spans, i, "certify.critical_beta")
                    for i, s in enumerate(spans) if s.name == "symplectic.gibbs_covariance")
    return sum(max(0, under[i] - 1) for i, s in enumerate(spans)
               if s.name == "certify.critical_beta")


class Tracer:
    """Records spans and counters; one ``call()`` block per workflow call."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.counters: Counter = Counter()
        self.per_call: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, observe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = Span(name, start, end, parent)
            if observe is not None:
                observe(self.counters, args, kwargs, result)
            return result
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every boundary in every loaded qbmsim module; undo on exit."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "qbmsim" or key.startswith("qbmsim."))]
        replaced = []
        try:
            for name, (module, attr) in BOUNDARIES.items():
                original = getattr(sys.modules.get(f"qbmsim.{module}"), attr, None)
                if original is None:
                    continue
                wrapper = self.wrap(name, original, _OBSERVERS.get(name))
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            replaced.append((mod, key, original))
            yield self
        finally:
            for mod, key, original in reversed(replaced):
                setattr(mod, key, original)

    @contextlib.contextmanager
    def call(self):
        """Collect the spans of one workflow call and reduce them when it ends."""
        self.spans, self.counters, self._stack = [], Counter(), []
        try:
            yield
        finally:
            spans = self.spans
            calls, self_s = Counter(), defaultdict(float)
            for span, own in zip(spans, self_times(spans)):
                calls[span.name] += 1
                self_s[span.name] += own
            counters = dict(self.counters)
            counters["certify.critical_beta.iterations"] = bisection_iterations(spans)
            self.per_call.append({"calls": calls, "self_s": self_s, "counters": counters})
            self.spans = []

    def metrics(self) -> dict:
        """Per-layer metrics per workflow call: mean counts, median self times."""
        n = max(1, len(self.per_call))
        out = {}
        for name in BOUNDARIES:
            out[f"{name}.calls"] = sum(c["calls"][name] for c in self.per_call) / n
            out[f"{name}.self_s"] = (statistics.median(c["self_s"][name] for c in self.per_call)
                                     if self.per_call else 0.0)
        for name in COUNTERS:
            values = [c["counters"].get(name, 0) for c in self.per_call]
            out[name] = (max(values, default=0) if name.endswith("dim_max")
                         else sum(values) / n)
        return out


def _count_dim(counters, args, kwargs, result) -> None:
    gamma = args[0] if args else kwargs.get("gamma")
    dim = len(gamma)
    counters["symplectic.symplectic_spectrum.dim_max"] = max(
        dim, counters["symplectic.symplectic_spectrum.dim_max"])


def _count_bytes(counters, args, kwargs, result) -> None:
    path = args[2] if len(args) > 2 else kwargs.get("path")
    with contextlib.suppress(OSError, TypeError):
        counters["cli.emit.bytes"] += os.path.getsize(path)


def _count_inconclusive(counters, args, kwargs, result) -> None:
    if getattr(result, "status", None) == "inconclusive":
        counters["health.inconclusive_verdicts"] += 1


def _count_bracket_top(counters, args, kwargs, result) -> None:
    certify = sys.modules.get("qbmsim.certify")
    top = getattr(certify, "BETA_BRACKET", (None, 1e3))[1]
    if result == top:
        counters["health.beta_bracket_top"] += 1


def _count_nan_onset(counters, args, kwargs, result) -> None:
    value = getattr(result, "lambda_dot0", 0.0)
    if isinstance(value, float) and math.isnan(value):
        counters["health.nan_lambda_dot0"] += 1


_OBSERVERS = {
    "symplectic.symplectic_spectrum": _count_dim,
    "cli.emit": _count_bytes,
    "entanglement.ppt_verdict": _count_inconclusive,
    "certify.critical_beta": _count_bracket_top,
    "certify.immediate_entanglement_check": _count_nan_onset,
}
