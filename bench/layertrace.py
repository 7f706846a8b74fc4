"""Outside-in layer trace: spans around the package's public functions.

The package is not instrumented.  ``LayerTrace.install`` replaces each
traced function with a wrapper in every namespace that holds it, so a
caller that imported the function by name (``homology`` imports
``cover_matrix``, ``cli`` imports ``folner_ratio``) is traced as well,
and ``uninstall`` puts the originals back.  Spans stay in memory as
parallel arrays (name, parent, start, end); self time is a span's
duration minus that of its children.  ``trace.coverage`` is the share
of operation time inside some layer span, so a missed path shows.
"""

from __future__ import annotations

import importlib
import json
from array import array
from collections import Counter
from time import perf_counter

PACKAGE = "dihedral_dynamics"
MODULES = ["exact_circle", "systems", "amenability", "towers", "abgroups", "homology", "cli"]


def _setop_arcs(tally, args):
    tally["setop_arcs"] += len(args[0].arcs) + (len(args[1].arcs) if len(args) > 1 else 0)


def _cover_before(tally, args):
    tally["cover_cells_scanned"] += len(args[1])


def _cover_after(tally, args, result):
    tally["cover_cells_picked"] += len(result)


def _cells_after(tally, args, result):
    system = args[0]
    key = (type(system), getattr(system, "theta", None), getattr(system, "chain", None), *args[1:])
    tally["cells_built"] += len(result)
    tally.lists[key] = len(result)


def _ratio_elements(tally, args):
    tally["ratio_elements"] += len(args[0])


def _castle_after(tally, args, result):
    tally["castles"] += 1


def _snf_input(kind):
    def before(tally, args):
        mat = args[-1]
        rows, cols = len(mat), len(mat[0]) if mat else 0
        tally[f"snf_{kind}_calls"] += 1
        tally["snf_entries"] += rows * cols
        tally["snf_nnz"] += sum(1 for row in mat for x in row if x)
        tally["snf_max_cols"] = max(tally["snf_max_cols"], cols)
    return before


# (span name, module, attribute path, before hook, after hook)
TRACED = [
    *[("exact_circle.setop", "exact_circle", f"ClopenSet.{op}", _setop_arcs, None)
      for op in ("union", "intersection", "difference", "symmetric_difference", "complement")],
    ("systems.cover", "systems", "cover_indices", _cover_before, _cover_after),
    ("systems.matrix", "systems", "cover_matrix", None, None),
    ("systems.matrix", "systems", "pullback_matrix", None, None),
    ("systems.cells", "systems", "DenjoyFlipSystem.cells", None, _cells_after),
    ("systems.cells", "systems", "OdometerSystem.cells", None, _cells_after),
    ("systems.act", "systems", "DenjoyFlipSystem.act", None, None),
    ("systems.act", "systems", "DoubledSystem.act", None, None),
    ("systems.act", "systems", "OdometerSystem.act", None, None),
    ("amenability.ratio", "amenability", "folner_ratio", _ratio_elements, None),
    ("towers.certificate", "towers", "almost_finite_certificate", None, None),
    ("towers.first_return", "towers", "first_return_castle", None, _castle_after),
    ("towers.verify", "towers", "verify_castle", None, None),
    ("towers.to_json", "towers", "Castle.to_json", None, None),
    ("abgroups.snf", "abgroups", "snf_diagonal", _snf_input("diag"), None),
    ("abgroups.snf", "abgroups", "smith_normal_form", _snf_input("full"), None),
    ("abgroups.snf", "abgroups", "kernel_basis", _snf_input("full"), None),
    ("abgroups.snf", "abgroups", "SnfSolver.__init__", _snf_input("full"), None),
    ("abgroups.limit", "abgroups", "DirectSystem.limit", None, None),
    ("abgroups.matmul", "abgroups", "mat_mul", None, None),
    ("abgroups.matmul", "abgroups", "mat_vec", None, None),
    ("homology.telescope", "homology", "h0_translation_telescope", None, None),
    ("homology.freeproduct", "homology", "free_product_homology", None, None),
    ("homology.table", "homology", "homology_table", None, None),
    ("homology.bar", "homology", "bar_homology", None, None),
]

#: Per-layer metric name -> unit, in report order.
LAYER_METRICS = {
    "exact_circle.setop_calls": "count",
    "exact_circle.setop_arcs": "count",
    "exact_circle.setop_self_s": "s",
    "systems.cover_calls": "count",
    "systems.cover_cells_scanned": "count",
    "systems.cover_hit_ratio": "ratio",
    "systems.matrix_s": "s",
    "systems.matrix_self_s": "s",
    "systems.cells_built": "count",
    "systems.cells_rebuild_ratio": "ratio",
    "systems.act_calls": "count",
    "systems.act_s": "s",
    "amenability.ratio_calls": "count",
    "amenability.ratio_elements": "count",
    "amenability.ratio_s": "s",
    "towers.certificate_s": "s",
    "towers.first_return_s": "s",
    "towers.verify_calls": "count",
    "towers.verify_s": "s",
    "towers.verifies_per_castle": "ratio",
    "towers.to_json_s": "s",
    "abgroups.snf_diag_calls": "count",
    "abgroups.snf_full_calls": "count",
    "abgroups.snf_s": "s",
    "abgroups.snf_entries": "count",
    "abgroups.snf_nnz": "count",
    "abgroups.snf_max_cols": "count",
    "abgroups.limit_calls": "count",
    "abgroups.limit_s": "s",
    "abgroups.matmul_s": "s",
    "homology.telescope_s": "s",
    "homology.freeproduct_s": "s",
    "homology.table_s": "s",
    "homology.bar_calls": "count",
    "homology.bar_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead_s": "s",
}


class Tally(Counter):
    """Counts taken at the traced boundaries, plus distinct cell lists."""

    def __init__(self):
        super().__init__()
        self.lists = {}


def _resolve(module, path: str):
    """The raw function at ``path``: a module function or a class attribute."""
    owner = module
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return vars(owner)[attr]


class LayerTrace:
    """Spans in memory; one instance traces one round of operations."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.nested = array("b")     # 1 if an enclosing span has the same name
        self.start = array("d")
        self.end = array("d")
        self.tally = Tally()
        self._stack = []
        self._open = []              # open spans per name id
        self._undo = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._open.append(0)
        return self._ids[name]

    def call(self, name: str, fn, args=(), kwargs=None, before=None, after=None):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        if before:
            before(self.tally, args)
        nid = self._id(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.nested.append(1 if self._open[nid] else 0)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        self._open[nid] += 1
        t0 = perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            t1 = perf_counter()
            self._open[nid] -= 1
            self._stack.pop()
            self.start[idx] = t0
            self.end[idx] = t1
        if after:
            after(self.tally, args, result)
        return result

    def wrap(self, name: str, fn, before=None, after=None):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, before, after)
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every traced function in every package namespace holding it."""
        modules = [importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES]
        modules.append(importlib.import_module(PACKAGE))
        holders = list(modules)
        for m in modules:
            holders += [v for v in vars(m).values()
                        if isinstance(v, type) and v.__module__.startswith(PACKAGE)]
        for name, module, path, before, after in TRACED:
            original = _resolve(importlib.import_module(f"{PACKAGE}.{module}"), path)
            wrapper = self.wrap(name, original, before, after)
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
                        self._undo.append((holder, key, original))

    def uninstall(self) -> None:
        while self._undo:
            holder, key, original = self._undo.pop()
            setattr(holder, key, original)

    def spans(self):
        for i in range(len(self.start)):
            yield {"name": self.names[self.name[i]], "start": self.start[i],
                   "end": self.end[i], "parent": self.parent[i]}

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans():
                fh.write(json.dumps(span) + "\n")

    def layer_metrics(self, overhead_s: float) -> dict:
        """Per-layer metrics of the recorded spans (operations are roots)."""
        n = len(self.start)
        child = [0.0] * n
        root = list(range(n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
                root[i] = root[p]
        calls, incl, self_s = Counter(), Counter(), Counter()
        op_total = op_self = 0.0
        verify_in_cli = 0
        for i in range(n):
            name = self.names[self.name[i]]
            dur = self.end[i] - self.start[i]
            self_s[name] += dur - child[i]
            if not self.nested[i]:
                calls[name] += 1
                incl[name] += dur
            if self.parent[i] < 0:
                op_total += dur
                op_self += dur - child[i]
            elif name == "towers.verify" and self.names[self.name[root[i]]].startswith("cli."):
                verify_in_cli += 1
        t = self.tally
        scanned, built = t["cover_cells_scanned"], t["cells_built"]
        distinct = sum(t.lists.values())
        values = {
            "exact_circle.setop_calls": calls["exact_circle.setop"],
            "exact_circle.setop_arcs": t["setop_arcs"],
            "exact_circle.setop_self_s": self_s["exact_circle.setop"],
            "systems.cover_calls": calls["systems.cover"],
            "systems.cover_cells_scanned": scanned,
            "systems.cover_hit_ratio": t["cover_cells_picked"] / scanned if scanned else 0.0,
            "systems.matrix_s": incl["systems.matrix"],
            "systems.matrix_self_s": self_s["systems.matrix"],
            "systems.cells_built": built,
            "systems.cells_rebuild_ratio": built / distinct if distinct else 0.0,
            "systems.act_calls": calls["systems.act"],
            "systems.act_s": incl["systems.act"],
            "amenability.ratio_calls": calls["amenability.ratio"],
            "amenability.ratio_elements": t["ratio_elements"],
            "amenability.ratio_s": incl["amenability.ratio"],
            "towers.certificate_s": incl["towers.certificate"],
            "towers.first_return_s": incl["towers.first_return"],
            "towers.verify_calls": calls["towers.verify"],
            "towers.verify_s": incl["towers.verify"],
            "towers.verifies_per_castle": verify_in_cli / t["castles"] if t["castles"] else 0.0,
            "towers.to_json_s": incl["towers.to_json"],
            "abgroups.snf_diag_calls": t["snf_diag_calls"],
            "abgroups.snf_full_calls": t["snf_full_calls"],
            "abgroups.snf_s": self_s["abgroups.snf"],
            "abgroups.snf_entries": t["snf_entries"],
            "abgroups.snf_nnz": t["snf_nnz"],
            "abgroups.snf_max_cols": t["snf_max_cols"],
            "abgroups.limit_calls": calls["abgroups.limit"],
            "abgroups.limit_s": incl["abgroups.limit"],
            "abgroups.matmul_s": incl["abgroups.matmul"],
            "homology.telescope_s": incl["homology.telescope"],
            "homology.freeproduct_s": incl["homology.freeproduct"],
            "homology.table_s": incl["homology.table"],
            "homology.bar_calls": calls["homology.bar"],
            "homology.bar_s": incl["homology.bar"],
            "trace.coverage": (op_total - op_self) / op_total if op_total else 0.0,
            "trace.overhead_s": overhead_s,
        }
        return values
