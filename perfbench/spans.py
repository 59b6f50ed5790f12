"""Spans recorded around calls into the library, and per-layer figures.

The tracer patches the library's public functions with wrappers that
record a span per call: name, start, end, parent span and the op the call
belongs to.  Wrappers replace every module-level binding of the original
function inside the ``homgroups`` package, so calls the library makes to
itself (``lagrange_check`` calling ``enumerate_hom_subgroups``, ``HomGroup``
calling ``verify``) are recorded too.  Nothing is patched unless a traced
run asks for it, and ``uninstall`` puts the originals back.
"""

from __future__ import annotations

import time
from collections import defaultdict

from refs import nonunit_orbits

# A span is a list [name, start, end, parent, op, attrs]; parent is the
# index of the enclosing span, or -1 for a root span.
NAME, START, END, PARENT, OP, ATTRS = range(6)


def _verify_attrs(args, result):
    return {"first_fail": result.violations[0][0]} if result.violations else {}


def _subgroup_attrs(args, result):
    G = args[0]
    orbits = len(nonunit_orbits(G.alpha.images, G.unit))
    return {"n": G.n, "orbits": orbits, "candidates": 2**orbits, "found": len(result)}


def _count_attrs(key):
    return lambda args, result: {key: len(result)}


def _hopf_attrs(args, result):
    return {"n": args[0].n}


MODULES = ("core", "constructions", "subgroups", "classify", "homhopf", "cli")

# (module, function, span name, attribute hook run on the call's result)
TARGETS = (
    ("core", "verify", "core.verify", _verify_attrs),
    ("constructions", "cyclic_group", "constructions.group", None),
    ("constructions", "dihedral_group", "constructions.group", None),
    ("constructions", "automorphisms_of", "constructions.automorphisms_of", _count_attrs("found")),
    ("constructions", "twist", "constructions.twist", None),
    ("constructions", "direct_product", "constructions.direct_product", None),
    ("subgroups", "enumerate_hom_subgroups", "subgroups.enumerate", _subgroup_attrs),
    ("subgroups", "coset_partition", "subgroups.coset_partition", None),
    ("subgroups", "lagrange_check", "subgroups.lagrange_check", None),
    ("subgroups", "cauchy_search", "subgroups.cauchy_search", None),
    ("classify", "enumerate_hom_groups", "classify.enumerate", _count_attrs("tables")),
    ("classify", "reduce_to_classes", "classify.reduce", _count_attrs("classes")),
    ("classify", "canonical_form", "classify.canonical_form", None),
    ("homhopf", "verify_hom_hopf", "homhopf.verify", _hopf_attrs),
    ("homhopf", "sub_hopf_dims", "homhopf.sub_hopf_dims", None),
    ("cli", "main", "cli.main", None),
    ("cli", "parse_document", "cli.parse_document", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op, None])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn, hook):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.spans[idx][END] = time.perf_counter()
                tracer._stack.pop()
            if hook is not None:
                tracer.spans[idx][ATTRS] = hook(args, result)
            return result

        return traced

    def install(self, lib) -> None:
        """Patch every binding of each target function in the library."""
        modules = [lib.package] + [getattr(lib, m) for m in MODULES]
        for module_name, func_name, span_name, hook in TARGETS:
            original = getattr(getattr(lib, module_name), func_name)
            wrapper = self.wrap(span_name, original, hook)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Calls on one thread nest, so children never overlap one another and
    the part of a span they cover is the sum of their durations.
    """
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def summarize(spans):
    """Per span name: calls, inclusive seconds, self seconds, summed attrs."""
    own = self_times(spans)
    out = defaultdict(lambda: {"calls": 0, "total": 0.0, "self": 0.0, "attrs": defaultdict(int)})
    for s, self_s in zip(spans, own):
        row = out[s[NAME]]
        row["calls"] += 1
        row["total"] += s[END] - s[START]
        row["self"] += self_s
        for key, value in (s[ATTRS] or {}).items():
            if isinstance(value, str):
                row["attrs"][f"{key}={value}"] += 1
            else:
                row["attrs"][key] += value
    return out


def per_op_rows(spans, props):
    """One row per op: its input properties and the self time of each span name."""
    own = self_times(spans)
    rows = {}
    for s, self_s in zip(spans, own):
        row = rows.setdefault(s[OP], {"op": s[OP], **props.get(s[OP], {}), "self_s": defaultdict(float)})
        row["self_s"][s[NAME]] += self_s
    return list(rows.values())
