"""Out-of-process-boundary tracer for the qseries layers.

The tracer wraps the public functions of each layer from outside the
package: every module attribute that is bound to a traced function is
replaced by a wrapper for the duration of a ``with Tracer():`` block and put
back on exit. Layer functions record spans (name, start, end, parent) kept in
memory; the mpmath backend functions only count calls, because they run
hundreds of thousands of times per campaign op.

Spans are timed in process CPU seconds, like the ops in ``run.py``. A
span's self time is its duration minus the time covered by its direct
children. Nothing in ``src/`` knows about the tracer.
"""

from __future__ import annotations

import dataclasses
import json
import time
from collections import defaultdict

import mpmath

from qseries import eta, harness, identities, qcore, qgamma, registry
import qseries

# layer -> owning module and public functions, in report order
LAYERS = {
    "qcore": (qcore, ("pochhammer_inf", "phi", "psi_bilateral",
                      "sum_with_ratio_bound", "accelerate", "qpow")),
    "eta": (eta, ("eta_quotient", "eta_nome")),
    "qgamma": (qgamma, ("gamma_q", "classical_gamma",
                        "jackson_integral_finite")),
    "registry": (registry, ("eval_identity", "sample_domain")),
    "harness": (harness, ("run", "render_json")),
}
SIDES = ("identities.lhs", "identities.rhs")

# modules that may hold a by-name import of a traced function
OWNERS = (qseries, qcore, eta, qgamma, identities, registry, harness)

# backend calls counted (not spanned): counter name -> (owner, attribute)
BACKEND = {
    "mpmath.exp": (mpmath.mp, "exp"),
    "mpmath.log": (mpmath.mp, "log"),
    "mpmath.expm1": (mpmath.mp, "expm1"),
    "mpmath.power": (mpmath.mp, "power"),
    "mpmath.binomial": (qcore, "binomial"),
}

# functions whose SeriesValue.terms_used is primitive work
PRIMITIVES = ("qcore.pochhammer_inf", "qcore.phi", "qcore.psi_bilateral",
              "qcore.sum_with_ratio_bound", "qcore.accelerate",
              "qgamma.jackson_integral_finite")


def layer_functions():
    """Span names in report order: '<module>.<fn>' plus the two sides."""
    names = [f"{layer}.{fn}" for layer, (_, fns) in LAYERS.items()
             for fn in fns]
    return names + list(SIDES)


def returns_series(name: str) -> bool:
    """Whether the traced function returns a SeriesValue (has a .terms)."""
    return name not in ("qcore.qpow", "qgamma.classical_gamma",
                        "registry.eval_identity", "registry.sample_domain",
                        "harness.run", "harness.render_json")


def per_layer_names():
    """Every per-layer metric name with its unit and better direction."""
    out = []
    for name in layer_functions():
        out.append((f"{name}.calls", "count", "lower"))
        out.append((f"{name}.self_s", "s", "lower"))
        out.append((f"{name}.errors", "count", "lower"))
        if returns_series(name):
            out.append((f"{name}.terms", "count", "lower"))
    for name in BACKEND:
        out.append((f"{name}.calls", "count", "lower"))
    out.append(("identity.terms_reported_share", "ratio", "higher"))
    out.append(("trace.ops_per_s_gap", "ratio", "lower"))
    return out


def _targets():
    """(owner, attribute, span name) for every by-name binding of a layer
    function, found by identity so that re-exports are covered too."""
    found = []
    for layer, (module, fns) in LAYERS.items():
        for fn in fns:
            original = getattr(module, fn)
            for owner in OWNERS:
                if getattr(owner, fn, None) is original:
                    found.append((owner, fn, f"{layer}.{fn}"))
    return found


def snapshot():
    """Current value of every attribute the tracer may replace, and whether
    it lived in the owner's own ``__dict__`` (mpmath binds some functions on
    the context instance and others on its class)."""
    attrs = [(owner, attr) for owner, attr, _ in _targets()]
    attrs += list(BACKEND.values())
    return {(id(owner), attr): (getattr(owner, attr), attr in vars(owner))
            for owner, attr in attrs}


class Tracer:
    """Context manager that installs the wrappers and collects spans."""

    def __init__(self):
        self.spans = []      # (name, start, end, parent index or -1)
        self.stack = []
        self.calls = defaultdict(int)
        self.errors = defaultdict(int)
        self.terms = defaultdict(int)
        self._saved = []

    # -- wrappers --------------------------------------------------------

    def wrap(self, fn, name):
        spans, stack = self.spans, self.stack
        calls, errors, terms = self.calls, self.errors, self.terms
        clock = time.process_time

        def traced(*args, **kwargs):
            calls[name] += 1
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                errors[name] += 1
                raise
            finally:
                spans[idx] = (name, start, clock(), parent)
                stack.pop()
            used = getattr(result, "terms_used", None)
            if used is not None and returns_series(name):
                terms[name] += used
            return result

        traced.__wrapped__ = fn
        return traced

    def count(self, fn, name):
        calls = self.calls

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def traced_registry(self, entries):
        """Copies of the registry entries whose sides are spanned."""
        return [dataclasses.replace(
                    e, lhs=self.wrap(e.lhs, "identities.lhs"),
                    rhs=self.wrap(e.rhs, "identities.rhs"))
                for e in entries]

    # -- install / restore -------------------------------------------------

    def _replace(self, owner, attr, new):
        self._saved.append((owner, attr, getattr(owner, attr),
                            attr in vars(owner)))
        setattr(owner, attr, new)

    def __enter__(self):
        wrapped = {}
        for owner, attr, name in _targets():
            original = getattr(owner, attr)
            if id(original) not in wrapped:
                wrapped[id(original)] = self.wrap(original, name)
            self._replace(owner, attr, wrapped[id(original)])
        for name, (owner, attr) in BACKEND.items():
            self._replace(owner, attr, self.count(getattr(owner, attr), name))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original, own = self._saved.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        return False

    # -- results -------------------------------------------------------------

    def self_times(self):
        """Self seconds per span name: duration minus direct-child coverage."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return out

    def primitive_terms(self):
        return sum(self.terms[name] for name in PRIMITIVES)

    def metrics(self):
        """Per-layer metric values (without the share and overhead)."""
        self_s = self.self_times()
        out = {}
        for name in layer_functions():
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self_s[name]
            out[f"{name}.errors"] = self.errors[name]
            if returns_series(name):
                out[f"{name}.terms"] = self.terms[name]
        for name in BACKEND:
            out[f"{name}.calls"] = self.calls[name]
        return out

    def write_spans(self, path):
        """One JSON line per span: name, start, end, parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")
