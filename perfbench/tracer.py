"""Span tracer kept in the benchmark's own files.

`Tracer.install` replaces each traced public function of the package at the
attribute its callers look up (a module attribute, or a method on its
class) by a wrapper that records one span per call: name, start, end,
parent span and item id.  Spans live in flat arrays in memory and are
written out once, at the end of a traced run.  Counters are taken at the
same boundaries, from the arguments and results of the wrapped calls.

Layer self time is a span's duration minus the part covered by its nearest
descendant spans of *other* layers, so nested calls within one layer (say
`numtheory.omega` calling `numtheory.factorize`) stay that layer's time.
"""

from __future__ import annotations

import functools
import importlib
from array import array
from time import perf_counter

# (module, attribute path, span name, counter hook name or None).  Domain
# builders share the span name "geometry.domain"; the three scans share
# "bounds.scans".
TRACED = [
    ("cli", "main", "cli.main", None),
    ("perm", "parse_group_file", "perm.parse_group_file", None),
    ("perm", "PermGroup.element_array", "perm.element_array", "rows"),
    ("perm", "has_regular_cycle_direct", "perm.has_regular_cycle_direct",
     None),
    ("perm", "emit_group_file", "perm.emit_group_file", None),
    ("regcycle", "verify_all_elements", "regcycle.verify_all_elements",
     "checked"),
    ("regcycle", "fix_union_test", "regcycle.fix_union_test", None),
    ("regcycle", "compare_actions_monotonic",
     "regcycle.compare_actions_monotonic", "samples"),
    ("numtheory", "factorize", "numtheory.factorize", "distinct"),
    ("numtheory", "omega", "numtheory.omega", None),
    ("numtheory", "primitive_prime_divisor_count",
     "numtheory.primitive_prime_divisor_count", None),
    ("bounds", "GroupId.__post_init__", "bounds.GroupId", None),
    ("bounds", "certify_case", "bounds.certify_case", "verdict"),
    ("bounds", "triality_bound", "bounds.triality_bound", "verdict"),
    ("bounds", "small_dim_scan", "bounds.scans", None),
    ("bounds", "nonsubspace_scan", "bounds.scans", None),
    ("bounds", "dagger_scan", "bounds.scans", None),
    ("bounds", "a_nq", "bounds.a_nq", None),
    ("geometry", "builtin_matrix_group", "geometry.builtin_matrix_group",
     None),
    ("geometry", "parse_matrix_file", "geometry.parse_matrix_file", None),
    ("geometry", "perm_image", "geometry.perm_image", "applications"),
] + [("geometry", name, "geometry.domain", "points") for name in (
    "singular_points", "nondegenerate_points", "anisotropic_2_subspaces",
    "nondegenerate_2_subspaces", "maximal_totally_singular",
    "quadratic_forms_polarizing", "pair_domains", "k_set_action",
    "product_action")]


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.item = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current_item = -1
        self._stack = [-1]
        self.counts: dict[str, int] = {}
        self.factorize_args: set[int] = set()

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside one span called `name`."""
        return self._wrap(fn, self._name_id(name), None)(*args, **kwargs)

    def _wrap(self, fn, nid: int, hook):
        stack, names, parents = self._stack, self.name, self.parent
        items, starts, ends = self.item, self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            items.append(self.current_item)
            ends.append(0.0)
            stack.append(sid)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(args, result)
            return result

        return traced

    def _count(self, key: str, amount: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _hooks(self):
        def rows(args, arr):
            self._count("perm.elements", len(arr))
            self._count("perm.element_array.bytes", int(arr.nbytes))

        def checked(args, report):
            self._count("regcycle.rows_checked", report.checked)

        def samples(args, report):
            self._count("regcycle.words_sampled", report.samples)

        def distinct(args, result):
            self.factorize_args.add(args[0])

        def verdict(args, report):
            if report.verdict == "certified":
                self._count("bounds.certified", 1)

        def points(args, dom):
            doms = dom if isinstance(dom, tuple) else (dom,)
            self._count("geometry.domain.points",
                        sum(d.degree for d in doms))

        def applications(args, group):
            self._count("geometry.perm_image.applications",
                        group.degree * len(args[0]))

        return {"rows": rows, "checked": checked, "samples": samples,
                "distinct": distinct, "verdict": verdict, "points": points,
                "applications": applications}

    def install(self) -> None:
        hooks = self._hooks()
        for module, path, name, hook in TRACED:
            owner = importlib.import_module(f"regcycles.{module}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            setattr(owner, attr, self._wrap(getattr(owner, attr),
                                            self._name_id(name),
                                            hooks[hook] if hook else None))

    # -- analysis ----------------------------------------------------------

    def save(self, path) -> None:
        import numpy as np

        np.savez_compressed(
            path, names=np.array(self.names), name=np.frombuffer(self.name,
                                                                 "i4"),
            parent=np.frombuffer(self.parent, "i4"),
            item=np.frombuffer(self.item, "i4"),
            start=np.frombuffer(self.start, "f8"),
            end=np.frombuffer(self.end, "f8"))

    def summary(self) -> dict:
        """Per-name totals: calls, time of outermost spans, layer self time.

        `s` counts only spans with no ancestor of the same name, so a nested
        name is not counted twice.  `self_s` sums, over a name's spans that
        have no ancestor in the same layer, their duration minus the time of
        their nearest descendants in another layer.
        """
        import numpy as np

        names = np.frombuffer(self.name, "i4").astype(np.int64)
        parent = np.frombuffer(self.parent, "i4").astype(np.int64)
        dur = np.frombuffer(self.end, "f8") - np.frombuffer(self.start, "f8")
        n = len(dur)
        layer_ids = {lay: k for k, lay in enumerate(
            sorted({_layer(s) for s in self.names}))}
        layer = np.array([layer_ids[_layer(s)] for s in self.names],
                         dtype=np.int64)[names]
        has_parent = parent >= 0
        safe_parent = np.where(has_parent, parent, 0)
        same_layer = has_parent & (layer[safe_parent] == layer)
        # nearest ancestor-or-self that starts a run of one layer
        root = np.where(same_layer, parent, np.arange(n))
        while True:
            nxt = root[root]
            if np.array_equal(nxt, root):
                break
            root = nxt
        cross = has_parent & ~same_layer
        foreign = np.bincount(root[parent[cross]], weights=dur[cross],
                              minlength=n)
        # spans with an ancestor of the same name
        nested = np.zeros(n, dtype=bool)
        anc = parent.copy()
        while (anc >= 0).any():
            live = anc >= 0
            nested[live] |= names[anc[live]] == names[live]
            anc[live] = parent[anc[live]]
        is_root = ~same_layer
        out = {}
        for nid, name in enumerate(self.names):
            mine = names == nid
            out[name] = {
                "calls": int(mine.sum()),
                "s": float(dur[mine & ~nested].sum()),
                "self_s": float((dur - foreign)[mine & is_root].sum()),
            }
        return out
