"""Spans and work counters around segrekit's public functions.

Nothing inside segrekit changes: ``Tracer.install`` replaces each function
listed in SPANS or COUNTED by a wrapper in every ``segrekit.*`` module
namespace (or class) that binds it, and ``uninstall`` puts the originals
back.  A span records name, start, end and parent; spans stay in memory
until ``summary`` derives self times from them (a span's duration minus the
time its child spans cover).  Counters are exact and repeat from run to run
on the same inputs.  A target that a later version of the package no longer
has is skipped and reported under ``missing``.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

# (module, attribute, span name).  "Class.method" patches a class attribute.
SPANS = [
    ("segrekit.poly", "Poly.__mul__", "poly.mul"),
    ("segrekit.poly", "Poly.substitute", "poly.substitute"),
    ("segrekit.poly", "Poly.transport", "poly.transport"),
    ("segrekit.ideal", "buchberger", "ideal.buchberger"),
    ("segrekit.ideal", "reduce_poly", "ideal.reduce"),
    ("segrekit.ideal", "eliminate", "ideal.eliminate"),
    ("segrekit.ideal", "saturate", "ideal.saturate"),
    ("segrekit.ideal", "parametric_normal_form", "ideal.pnf"),
    ("segrekit.ideal", "dimension", "ideal.dimension"),
    ("segrekit.solve", "solve_zero_dim", "solve"),
    ("segrekit.segre", "inversion_set", "segre.inversion_set"),
    ("segrekit.segre", "segre_sets", "segre.segre_sets"),
    ("segrekit.correspond", "build_correspondence", "correspond.build"),
    ("segrekit.correspond", "fiber", "correspond.fiber"),
    ("segrekit.correspond", "compose", "correspond.compose"),
    ("segrekit.correspond", "verify_invariance", "correspond.invariance"),
    ("segrekit.manifold", "levi_signature", "manifold.levi"),
    ("segrekit.linalg", "rank", "linalg"),
    ("segrekit.linalg", "nullspace", "linalg"),
    ("segrekit.linalg", "real_symmetric_signature", "linalg"),
    ("segrekit.linalg", "hermitian_signature", "linalg"),
    ("segrekit.catalog", "run_suite", "catalog.run_suite"),
    ("segrekit.parsing", "parse_poly", "parsing"),
    ("segrekit.parsing", "parse_manifold_text", "parsing"),
    ("segrekit.parsing", "parse_map_text", "parsing"),
    ("segrekit.report", "Report.emit", "report.emit"),
    ("segrekit.cli", "main", "cli.main"),
]

# Counted, not timed: these run far too often for a span each.
COUNTED = [
    ("segrekit.gaussian", "GaussianRational.__add__", "gaussian.ops"),
    ("segrekit.gaussian", "GaussianRational.__sub__", "gaussian.ops"),
    ("segrekit.gaussian", "GaussianRational.__rsub__", "gaussian.ops"),
    ("segrekit.gaussian", "GaussianRational.__mul__", "gaussian.ops"),
    ("segrekit.gaussian", "GaussianRational.__truediv__", "gaussian.ops"),
    ("segrekit.gaussian", "GaussianRational.__rtruediv__", "gaussian.ops"),
    ("segrekit.orders", "MonomialOrder.key", "orders.key_calls"),
]


def coeff_bits(polys) -> int:
    """Largest numerator or denominator bit length over the coefficients."""
    best = 0
    for p in polys:
        for c in p.terms.values():
            for f in (c.re, c.im):
                best = max(best, f.numerator.bit_length(), f.denominator.bit_length())
    return best


def _resolve(modname, attr):
    try:
        mod = importlib.import_module(modname)
    except ImportError:
        return None
    owner, _, name = attr.rpartition(".")
    holder = getattr(mod, owner, None) if owner else mod
    if holder is None or name not in vars(holder):
        return None
    return holder, name


class Tracer:
    def __init__(self):
        self.spans = []            # [name, start, end, parent index]
        self._stack = []
        self._counters = {}        # name -> [count]
        self.extra = defaultdict(int)
        self.basis_max_size = 0
        self.basis_max_degree = 0
        self.max_bits = 0
        self._pending_spoly = None
        self._patched = []         # (holder, name, original)
        self.missing = []

    # -- wrappers ---------------------------------------------------------------

    def _span(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else None])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        return wrapper

    def _counted(self, name, fn):
        cell = self._counters.setdefault(name, [0])

        def wrapper(*args):
            cell[0] += 1
            return fn(*args)

        return wrapper

    def _buchberger(self, fn):
        def wrapper(*args, **kwargs):
            basis = fn(*args, **kwargs)
            self.basis_max_size = max(self.basis_max_size, len(basis))
            self.basis_max_degree = max(
                [self.basis_max_degree] + [g.total_degree() for g in basis])
            self.max_bits = max(self.max_bits, coeff_bits(basis))
            return basis

        return wrapper

    def _s_poly(self, fn):
        def wrapper(*args, **kwargs):
            s = fn(*args, **kwargs)
            self.extra["ideal.spolys"] += 1
            self._pending_spoly = s
            return s

        return wrapper

    def _reduce(self, fn):
        def wrapper(p, *args, **kwargs):
            r = fn(p, *args, **kwargs)
            if p is self._pending_spoly:
                self._pending_spoly = None
                if not r.is_zero():
                    self.extra["ideal.useful_reductions"] += 1
            return r

        return wrapper

    # -- install / uninstall ------------------------------------------------------

    def _replace(self, modname, attr, make):
        found = _resolve(modname, attr)
        if found is None:
            self.missing.append(f"{modname}:{attr}")
            return
        holder, name = found
        original = vars(holder)[name]
        wrapped = make(original)
        if isinstance(holder, type):
            # every alias in the class (e.g. __rmul__ = __mul__)
            for key, val in list(vars(holder).items()):
                if val is original:
                    self._patched.append((holder, key, val))
                    setattr(holder, key, wrapped)
            return
        for modname2, mod in list(sys.modules.items()):
            if mod is None or not (modname2 == "segrekit" or modname2.startswith("segrekit.")):
                continue
            for key, val in list(vars(mod).items()):
                if val is original:
                    self._patched.append((mod, key, val))
                    setattr(mod, key, wrapped)

    def install(self):
        for modname, attr, name in SPANS:
            self._replace(modname, attr, lambda fn, name=name: self._span(name, fn))
        for modname, attr, name in COUNTED:
            self._replace(modname, attr, lambda fn, name=name: self._counted(name, fn))
        # outside the spans, so that their bookkeeping is not timed as engine work
        self._replace("segrekit.ideal", "_s_poly", self._s_poly)
        self._replace("segrekit.ideal", "reduce_poly", self._reduce)
        self._replace("segrekit.ideal", "buchberger", self._buchberger)

    def uninstall(self):
        for holder, key, original in reversed(self._patched):
            setattr(holder, key, original)
        self._patched.clear()

    # -- results ----------------------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: call count, total and self seconds; plus counters."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        calls = defaultdict(int)
        total = defaultdict(float)
        self_s = defaultdict(float)
        for i, (name, start, end, parent) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child[i]
            if parent is None or self.spans[parent][0] != name:
                total[name] += end - start
        counts = dict(self.extra)
        counts.update({name: cell[0] for name, cell in self._counters.items()})
        counts["ideal.basis_max_size"] = self.basis_max_size
        counts["ideal.basis_max_degree"] = self.basis_max_degree
        counts["gaussian.max_bits"] = self.max_bits
        return {"calls": dict(calls), "total_s": dict(total), "self_s": dict(self_s),
                "counts": counts, "missing": self.missing}


def merge(summaries) -> dict:
    """Add up summaries (e.g. one per child process)."""
    out = {"calls": defaultdict(int), "total_s": defaultdict(float),
           "self_s": defaultdict(float), "counts": defaultdict(int), "missing": set()}
    for s in summaries:
        for key in ("calls", "total_s", "self_s"):
            for name, v in s[key].items():
                out[key][name] += v
        for name, v in s["counts"].items():
            if name in ("ideal.basis_max_size", "ideal.basis_max_degree", "gaussian.max_bits"):
                out["counts"][name] = max(out["counts"][name], v)
            else:
                out["counts"][name] += v
        out["missing"].update(s["missing"])
    return {k: (sorted(v) if k == "missing" else dict(v)) for k, v in out.items()}
