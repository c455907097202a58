"""Span tracing of jetclosure's layers from outside the library.

``Tracer.install`` wraps the public entry points of ``cli``, ``jets``,
``groebner``, ``linalg``, ``closures`` and ``newton``.  Callers bind
many of these by name (``closures`` does ``from .jets import
hs_derivations``), so each wrapper replaces the original under every
name that refers to it in every loaded ``jetclosure`` module, not only
in the module that defines it.  Methods are wrapped on their classes.

Spans are kept in memory (name, case, parent, start, end) and written
out by ``dump`` at the end.  A span's self time is its duration minus
the time covered by its child spans.  Counting work that needs extra
computation (box sizes) runs after the span closes, and its time is
credited to the enclosing span as child time, so it inflates no layer.
"""

from __future__ import annotations

import json
import time
import weakref
from array import array

# (module, name, span name) for functions; (module, class, method, span name)
FUNCTIONS = (
    ("cli", "parse_session", "cli.parse_session"),
    ("jets", "hs_derivations", "jets.hs_derivations"),
    ("jets", "fiber_ideal", "jets.fiber_ideal"),
    ("groebner", "intersect_ideals", "groebner.intersect_ideals"),
    ("groebner", "ideals_equal", "groebner.ideals_equal"),
    ("groebner", "colon_ideal", "groebner.colon_ideal"),
    ("groebner", "standard_monomial_basis", "groebner.standard_monomial_basis"),
    ("groebner", "module_standard_monomials", "groebner.module_standard_monomials"),
    ("linalg", "nullspace_basis", "linalg.nullspace_basis"),
    ("closures", "jet_closure", "closures.jet_closure"),
    ("closures", "socle_and_gorenstein", "closures.socle_and_gorenstein"),
    ("closures", "matlis_embedding", "closures.matlis_embedding"),
    ("closures", "module_jet_closure", "closures.module_jet_closure"),
    ("newton", "newton_membership", "newton.newton_membership"),
)
METHODS = (
    ("cli", "Report", "to_json", "cli.render"),
    ("groebner", "Ideal", "groebner_basis", "groebner.groebner_basis"),
    ("groebner", "GroebnerBasis", "normal_form", "groebner.normal_form"),
    ("groebner", "SubmodulePresentation", "groebner_basis", "groebner.module_groebner_basis"),
    ("groebner", "ModuleGroebnerBasis", "normal_form", "groebner.module_normal_form"),
)
SPAN_NAMES = tuple(f[2] for f in FUNCTIONS) + tuple(m[3] for m in METHODS)

# raw spans kept for the dump; aggregates are exact beyond this
SPAN_CAP = 400_000


def _pure_power_box(lts, nvars: int) -> int:
    """Points in the pure-power box of a leading-term list (0 if unbounded)."""
    bounds = [None] * nvars
    for lt in lts:
        support = [j for j, e in enumerate(lt) if e]
        if len(support) == 1:
            j = support[0]
            bounds[j] = lt[j] if bounds[j] is None else min(bounds[j], lt[j])
    if any(b is None for b in bounds):
        return 0
    size = 1
    for b in bounds:
        size *= b
    return size


def _module_box(lts, rank: int, nvars: int) -> int:
    """Box points summed over the components that are not zero."""
    zero = (0,) * nvars
    total = 0
    for comp in range(rank):
        comp_lts = [u for c, u in lts if c == comp]
        if zero not in comp_lts:
            total += _pure_power_box(comp_lts, nvars)
    return total


class Tracer:
    def __init__(self):
        self.names = list(SPAN_NAMES)
        self.index = {n: i for i, n in enumerate(self.names)}
        self.self_s = [0.0] * len(self.names)
        self.calls = [0] * len(self.names)
        self.counts = {}
        self.case = 0
        self._stack = []  # [name index, start, child seconds, span id]
        self._name = array("i")
        self._case = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self.dropped = 0
        self._restore = []
        self._seen_bases = weakref.WeakKeyDictionary()  # ideal -> orders asked

    # -- spans ----------------------------------------------------------

    def enter(self, idx: int) -> None:
        sid = len(self._start) if len(self._start) < SPAN_CAP else -1
        self._stack.append([idx, time.perf_counter(), 0.0, sid])
        if sid >= 0:
            self._name.append(idx)
            self._case.append(self.case)
            self._parent.append(self._stack[-2][3] if len(self._stack) > 1 else -1)
            self._start.append(self._stack[-1][1])
            self._end.append(0.0)
        else:
            self.dropped += 1

    def leave(self) -> None:
        end = time.perf_counter()
        idx, start, child, sid = self._stack.pop()
        dur = end - start
        self.self_s[idx] += dur - child
        self.calls[idx] += 1
        if self._stack:
            self._stack[-1][2] += dur
        if sid >= 0:
            self._end[sid] = end

    def exclude(self, seconds: float) -> None:
        """Credit bookkeeping time to the open span as child time."""
        if self._stack:
            self._stack[-1][2] += seconds

    # -- wrapping -------------------------------------------------------

    def _span(self, name: str, fn, after=None):
        idx = self.index[name]
        enter, leave = self.enter, self.leave

        def wrapper(*args, **kwargs):
            enter(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave()
            if after is not None:
                t0 = time.perf_counter()
                after(args, result)
                self.exclude(time.perf_counter() - t0)
            return result

        return wrapper

    def install(self, jc, modules: dict) -> None:
        """Wrap every traced entry point; ``modules`` maps short names
        to the loaded ``jetclosure`` submodules."""
        groebner = modules["groebner"]
        raw_gb = groebner.Ideal.groebner_basis
        raw_module_gb = groebner.SubmodulePresentation.groebner_basis
        afters = {
            "jets.fiber_ideal": lambda a, r: self.count("jets.fiber_ideal.generators", len(r.generators)),
            "groebner.standard_monomial_basis": lambda a, r: self._count_box(
                "groebner.standard_monomial_basis", r.colength,
                _pure_power_box(raw_gb(*a).leading_exponents(), a[0].ring.nvars)),
            "groebner.module_standard_monomials": lambda a, r: self._count_box(
                "groebner.module_standard_monomials", len(r),
                _module_box(raw_module_gb(*a).leading_positions(), a[0].rank, a[0].ring.nvars)),
            "linalg.nullspace_basis": lambda a, r: (
                self.count("linalg.nullspace_basis.cells", len(a[0]) * a[1]),
                self.count("linalg.nullspace_basis.kernel_dim", len(r))),
            "newton.newton_membership": lambda a, r: self.count("newton.newton_membership.members", int(r)),
        }
        for mod_name, attr, span in FUNCTIONS:
            original = getattr(modules[mod_name], attr)
            wrapper = self._span(span, original, afters.get(span))
            for mod in [jc] + list(modules.values()):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._restore.append((mod, key, original))
        for mod_name, cls_name, attr, span in METHODS:
            cls = getattr(modules[mod_name], cls_name)
            original = cls.__dict__[attr]
            if span == "groebner.groebner_basis":
                wrapper = self._wrap_groebner_basis(original, groebner.DEGREVLEX)
            else:
                wrapper = self._span(span, original)
            setattr(cls, attr, wrapper)
            self._restore.append((cls, attr, original))

    def _wrap_groebner_basis(self, original, default_order):
        """Span plus cache accounting keyed by (ideal identity, order).

        Identity is tracked with weak references, so an address reused
        by a new ideal after the old one is freed never counts as a hit.
        """
        idx = self.index["groebner.groebner_basis"]

        def groebner_basis(ideal, order=default_order):
            t0 = time.perf_counter()
            orders = self._seen_bases.setdefault(ideal, set())
            hit = order in orders
            orders.add(order)
            self.exclude(time.perf_counter() - t0)
            self.enter(idx)
            try:
                basis = original(ideal, order)
            finally:
                self.leave()
            if hit:
                self.count("groebner.groebner_basis.hits", 1)
            else:
                self.count("groebner.groebner_basis.basis_size", len(basis))
            return basis

        return groebner_basis

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def count(self, key: str, n) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _count_box(self, name: str, found: int, box: int) -> None:
        self.count(f"{name}.found", found)
        self.count(f"{name}.box", box)

    # -- output ---------------------------------------------------------

    def metrics(self, passes: int) -> dict:
        """Per-layer metrics for one pass over the workload's cases."""
        per = 1.0 / max(passes, 1)
        out = {}

        def put(name, value, unit):
            out[name] = {"value": value, "unit": unit}

        for name in self.names:
            put(f"{name}.self_s", self.self_s[self.index[name]] * per, "s")
        for name in ("jets.hs_derivations", "groebner.groebner_basis", "groebner.normal_form",
                     "groebner.intersect_ideals", "groebner.module_groebner_basis",
                     "linalg.nullspace_basis", "closures.jet_closure", "newton.newton_membership"):
            put(f"{name}.calls", self.calls[self.index[name]] * per, "count")
        c = self.counts.get
        gb_calls = self.calls[self.index["groebner.groebner_basis"]]
        put("groebner.groebner_basis.cache_hit_ratio", c("groebner.groebner_basis.hits", 0) / gb_calls
            if gb_calls else 0.0, "ratio")
        put("groebner.groebner_basis.basis_size", c("groebner.groebner_basis.basis_size", 0) * per, "count")
        put("jets.fiber_ideal.generators", c("jets.fiber_ideal.generators", 0) * per, "count")
        put("linalg.nullspace_basis.cells", c("linalg.nullspace_basis.cells", 0) * per, "count")
        put("linalg.nullspace_basis.kernel_dim", c("linalg.nullspace_basis.kernel_dim", 0) * per, "count")
        for name in ("groebner.standard_monomial_basis", "groebner.module_standard_monomials"):
            box = c(f"{name}.box", 0)
            put(f"{name}.hit_ratio", c(f"{name}.found", 0) / box if box else 0.0, "ratio")
        tested = self.calls[self.index["newton.newton_membership"]]
        put("newton.newton_membership.hit_ratio",
            c("newton.newton_membership.members", 0) / tested if tested else 0.0, "ratio")
        return out

    def dump(self, path: str, case_ids: list) -> None:
        """Write the recorded spans, one JSON array per line."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"names": self.names, "cases": case_ids,
                                     "fields": ["name", "case", "parent", "start", "end"],
                                     "dropped": self.dropped}) + "\n")
            for i in range(len(self._start)):
                handle.write(f"[{self._name[i]},{self._case[i]},{self._parent[i]},"
                             f"{self._start[i]:.9f},{self._end[i]:.9f}]\n")
