"""In-memory span tracer around swaplab's public functions.

``Tracer.install`` replaces every public function of the package modules,
and the public ``KDTree`` methods, with a wrapper that records a span (name,
start, end, parent, unit id) while a unit is being traced.  The modules call
each other through module and class attributes, so nested calls are caught.
A few wrappers also add work counters after the call returns.  Spans live
in flat arrays and are written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import inspect
import os
import time
from array import array
from collections import Counter

import numpy as np

MODULES = ("statevec", "circuits", "stats", "egraph", "harness", "cli")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _gate(counters, args, kwargs, result):
    n = _arg(args, kwargs, 0, "state").num_qubits
    counters["statevec.amp_bytes_computed"] += 2 * 16 * 2**n
    counters["statevec.max_qubits"] = max(counters["statevec.max_qubits"], n)


def _tensor(counters, args, kwargs, result):
    counters["statevec.max_qubits"] = max(counters["statevec.max_qubits"],
                                          result.num_qubits)


def _shots(counters, args, kwargs, result):
    counters["statevec.shots_drawn"] += int(_arg(args, kwargs, 2, "shots"))


def _range_query(counters, args, kwargs, result):
    counters["egraph.KDTree.visited"] += args[0].last_visited
    counters["egraph.kdtree.hits"] += len(result)


def _brute(counters, args, kwargs, result):
    n = len(_arg(args, kwargs, 0, "cloud"))
    counters["egraph.brute_force_egraph.dist_evals"] += n * (n - 1) // 2


def _edges(counters, args, kwargs, result):
    counters["egraph.edges"] += len(_arg(args, kwargs, 1, "graph").edges)


def _tail_terms(counters, args, kwargs, result):
    N = _arg(args, kwargs, 0, "N")
    if 1 <= result <= N:
        counters["stats.tail_terms"] += N - result + 1


def _bytes(counters, args, kwargs, result):
    target = _arg(args, kwargs, 1, "path_or_file")
    if not hasattr(target, "write"):
        counters["harness.bytes_written"] += os.path.getsize(target)


POST_HOOKS = {
    "statevec.apply_hadamard": _gate,
    "statevec.apply_cswap": _gate,
    "statevec.tensor": _tensor,
    "statevec.sample_outcomes": _shots,
    "egraph.KDTree.range_query": _range_query,
    "egraph.brute_force_egraph": _brute,
    "egraph.write_edge_list": _edges,
    "stats.tail_threshold": _tail_terms,
    "harness.write_records": _bytes,
}


class Tracer:
    """Records spans only between ``begin_unit`` and ``end_unit``; outside
    them the wrappers call straight through."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.unit = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._unit = -1
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ patching

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        post = POST_HOOKS.get(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._unit < 0:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.unit.append(self._unit)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if post is not None:
                post(self.counters, args, kwargs, result)
            return result

        return wrapper

    def install(self, package) -> None:
        """Patch the public functions of ``package``'s modules (and their
        aliases in the other modules) and the public KDTree methods."""
        mods = [getattr(package, m) for m in MODULES]
        wrapped = {}
        for mod in mods:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")
                        and not inspect.isgeneratorfunction(obj)):
                    wrapped[obj] = self._wrap(f"{short}.{attr}", obj)
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[obj])
        cls = package.egraph.KDTree
        for attr in ("__init__", "range_query", "depth"):
            obj = cls.__dict__[attr]
            self._patches.append((cls, attr, obj))
            setattr(cls, attr, self._wrap(f"egraph.KDTree.{attr}", obj))

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._patches):
            setattr(owner, attr, obj)
        self._patches.clear()

    # ------------------------------------------------------------ recording

    def begin_unit(self, unit_id: int) -> None:
        self._unit = unit_id

    def end_unit(self) -> None:
        self._unit = -1

    def arrays(self) -> dict[str, np.ndarray]:
        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = end - start
        child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0],
                            minlength=dur.size)
        return {"name_id": np.frombuffer(self.name_id, dtype=np.int32),
                "parent": parent, "unit": np.frombuffer(self.unit, dtype=np.int32),
                "start": start, "end": end, "self": dur - child}

    def save(self, path: str) -> None:
        a = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), **a)


def check_trees(a: dict[str, np.ndarray], names: list[str], root: str) -> list[str]:
    """Each unit's spans form one tree rooted at ``root`` whose self times
    sum to the root's duration."""
    problems = []
    for u in np.unique(a["unit"]):
        sel = a["unit"] == u
        roots = np.flatnonzero(sel & (a["parent"] < 0))
        if len(roots) != 1 or names[a["name_id"][roots[0]]] != root:
            problems.append(f"unit {u}: roots {[names[a['name_id'][r]] for r in roots]}")
            continue
        r = roots[0]
        wall = a["end"][r] - a["start"][r]
        total = a["self"][sel].sum()
        if abs(total - wall) > 1e-9 * max(1.0, wall) + 1e-12 * sel.sum():
            problems.append(f"unit {u}: self times sum to {total}, root lasts {wall}")
    return problems


def _names_with(names, prefix):
    return [n for n in names if n.startswith(prefix)]


def layer_metrics(a, names, counters, units: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as (value, unit), averaged per traced unit except
    the hit ratio and max_qubits: ``_s`` names sum span self times, ``.calls``
    names count spans, the rest are counters; ``<module>.self_s`` totals a
    module's spans."""
    self_by = np.bincount(a["name_id"], weights=a["self"], minlength=len(names))
    calls_by = np.bincount(a["name_id"], minlength=len(names))
    idx = {n: k for k, n in enumerate(names)}

    def self_s(*span_names):
        return float(sum(self_by[idx[n]] for n in span_names if n in idx)) / units

    def calls(*span_names):
        return float(sum(calls_by[idx[n]] for n in span_names if n in idx)) / units

    def per_unit(key):
        return counters.get(key, 0) / units

    build = _names_with(names, "circuits.build_")
    estimate = ["stats.estimate_from_counts", "stats.estimate_from_probability"]
    visited = counters.get("egraph.KDTree.visited", 0)
    out = {
        "egraph.KDTree.init_s": (self_s("egraph.KDTree.__init__"), "s"),
        "egraph.KDTree.range_query.self_s": (self_s("egraph.KDTree.range_query"), "s"),
        "egraph.KDTree.range_query.calls": (calls("egraph.KDTree.range_query"), "count"),
        "egraph.KDTree.visited": (per_unit("egraph.KDTree.visited"), "count"),
        "egraph.kdtree.hits_per_visit": (
            counters.get("egraph.kdtree.hits", 0) / visited if visited else 0.0, "ratio"),
        "egraph.kdtree_egraph.self_s": (self_s("egraph.kdtree_egraph"), "s"),
        "egraph.brute_force_egraph.self_s": (self_s("egraph.brute_force_egraph"), "s"),
        "egraph.brute_force_egraph.dist_evals": (
            per_unit("egraph.brute_force_egraph.dist_evals"), "count"),
        "egraph.load_point_cloud.self_s": (self_s("egraph.load_point_cloud"), "s"),
        "egraph.write_edge_list.self_s": (self_s("egraph.write_edge_list"), "s"),
        "egraph.compare_graphs.self_s": (self_s("egraph.compare_graphs"), "s"),
        "egraph.edges": (per_unit("egraph.edges"), "count"),
        "egraph.encode_point.self_s": (self_s("egraph.encode_point"), "s"),
        "egraph.quantum_egraph.self_s": (self_s("egraph.quantum_egraph"), "s"),
        "stats.false_negative_exact.self_s": (self_s("stats.false_negative_exact"), "s"),
        "stats.false_negative_exact.calls": (calls("stats.false_negative_exact"), "count"),
        "stats.tail_terms": (per_unit("stats.tail_terms"), "count"),
        "stats.tail_threshold.self_s": (self_s("stats.tail_threshold"), "s"),
        "stats.threshold_aligned.self_s": (self_s("stats.threshold_aligned"), "s"),
        "stats.chernoff.self_s": (
            self_s("stats.chernoff_upper", "stats.chernoff_lower"), "s"),
        "stats.estimate.self_s": (self_s(*estimate), "s"),
        "stats.estimate.calls": (calls(*estimate), "count"),
        "harness.run_bounds_sweep.self_s": (self_s("harness.run_bounds_sweep"), "s"),
        "harness.write_records.self_s": (self_s("harness.write_records"), "s"),
        "harness.bytes_written": (per_unit("harness.bytes_written"), "bytes"),
        "harness.run_egraph_trial.self_s": (self_s("harness.run_egraph_trial"), "s"),
        "circuits.build.self_s": (self_s(*build), "s"),
        "circuits.build.calls": (calls(*build), "count"),
        "circuits.simulate.self_s": (self_s("circuits.simulate"), "s"),
        "circuits.simulate.calls": (calls("circuits.simulate"), "count"),
        "circuits.derive_pair_map.self_s": (self_s("circuits.derive_pair_map"), "s"),
        "statevec.apply_hadamard.self_s": (self_s("statevec.apply_hadamard"), "s"),
        "statevec.apply_cswap.self_s": (self_s("statevec.apply_cswap"), "s"),
        "statevec.tensor.self_s": (self_s("statevec.tensor"), "s"),
        "statevec.sample_outcomes.self_s": (self_s("statevec.sample_outcomes"), "s"),
        "statevec.exact_marginal.self_s": (self_s("statevec.exact_marginal"), "s"),
        "statevec.gate_calls": (
            calls("statevec.apply_hadamard", "statevec.apply_cswap"), "count"),
        "statevec.amp_bytes_computed": (per_unit("statevec.amp_bytes_computed"), "bytes"),
        "statevec.shots_drawn": (per_unit("statevec.shots_drawn"), "count"),
        "statevec.max_qubits": (float(counters.get("statevec.max_qubits", 0)), "count"),
        "cli.main.self_s": (self_s("cli.main"), "s"),
    }
    for mod in MODULES:
        out[f"{mod}.self_s"] = (self_s(*_names_with(names, mod + ".")), "s")
    out["trace.spans"] = (a["start"].size / units, "count")
    return out
