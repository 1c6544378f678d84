"""Spans around the program's public functions, recorded from outside it.

``Tracer.install`` rebinds each traced function under every name another
``rfeas`` module (or the package namespace) imported it by, for example
``rfeas.rfuncs.eval_arrays`` and ``rfeas.solver.eval_expr``.  The defining
module keeps its own binding, so recursion inside ``expr`` and calls between
functions of one module are not spans.  ``rng`` and ``outputs`` are reached
through their module objects, so their own bindings are rebound too; a span
nested in a span of its own layer does not count again.

A span is a name, a start, an end and the span that was open when it began
(for a worker thread with no open span of its own: the main thread's).  They
are kept in flat arrays and written out by ``save`` when the run ends.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from array import array

import numpy as np

import rfeas
import rfeas.outputs
import rfeas.rng

# The public functions that do work, per layer; node constructors such as
# ``expr.const`` and accessors such as ``region.box_of`` are not spans.
TRACED = {
    "rng": ("uniforms", "uniform_pairs"),
    "dsl": ("parse_problem", "parse_expr", "emit_problem"),
    "rfuncs": ("build_region", "psi_open", "eval_region", "conj_expr", "disj_expr"),
    "expr": ("eval_expr", "eval_arrays", "substitute", "to_text"),
    "region": ("classify", "mc_volume", "mc_bbox", "opt_bbox", "boundary_2d", "grid_field"),
    "solver": ("psi_closed", "sweep", "critical_search"),
    "outputs": ("csv_text", "write_text", "boundary_csv", "boundary_svg", "heatmap_ppm",
                "heatmap_sidecar", "write_ppm"),
}
LAYERS = tuple(TRACED)
SELF_TIME_LAYERS = ("region", "solver")


def tree_sizes(expr) -> tuple[int, int]:
    """Nodes of the expression as a tree, and structurally distinct nodes."""
    size: dict[int, int] = {}
    canon: dict[int, int] = {}
    shapes: dict[tuple, int] = {}
    stack = [(expr, False)]
    while stack:
        e, done = stack.pop()
        if id(e) in size:
            continue
        if not done:
            stack.append((e, True))
            stack.extend((a, False) for a in e.args if id(a) not in size)
            continue
        size[id(e)] = 1 + sum(size[id(a)] for a in e.args)
        key = (e.kind, e.value, e.name, e.exponent, tuple(canon[id(a)] for a in e.args))
        canon[id(e)] = shapes.setdefault(key, len(shapes))
    return size[id(expr)], len(shapes)


def _count(tracer: "Tracer", name: str, args, kwargs, result):
    c = tracer.counts
    if name == "rng.uniforms":
        c["rng.draws"] += int(args[2] if len(args) > 2 else kwargs["count"])
    elif name == "expr.eval_arrays":
        arrays = args[1] if len(args) > 1 else kwargs["arrays"]
        c["expr.eval_arrays_points"] += int(np.size(next(iter(arrays.values()), 0)))
    elif name == "rfuncs.build_region":
        nodes, unique = tree_sizes(result.expr)
        c["rfuncs.tree_nodes"] += nodes
        c["rfuncs.unique_nodes"] += unique
    elif name == "solver.psi_closed":
        c["solver.inner_evals"] += result.inner_evals
        c["solver.nonconverged"] += int(not result.converged)
    elif name == "solver.critical_search":
        c["solver.critical_evals"] += result.evals
    elif name == "solver.ProjectedRegion.values_at":
        c["solver.projected_points"] += int(np.size(next(iter(args[1].values()))))
    elif name == "region.boundary_2d":
        c["region.boundary_vertices"] += sum(len(p) for p in result.polylines)
    elif name == "region.opt_bbox":
        c["region.opt_bbox_effort"] += result.effort
    elif name in ("outputs.write_text", "outputs.write_ppm"):
        c["outputs.bytes"] += os.path.getsize(args[0])


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.t0 = array("q")
        self.t1 = array("q")
        self.counts: dict[str, int] = {}
        self._local = threading.local()
        self._main: list[int] = []
        self._main_thread = threading.get_ident()
        self._lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []

    # Recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main_thread:
            return self._main
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        nid = self.ids[name]
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else (tracer._main[-1] if tracer._main else -1)
            with tracer._lock:
                i = len(tracer.name)
                tracer.name.append(nid)
                tracer.parent.append(parent)
                tracer.t0.append(time.perf_counter_ns())
                tracer.t1.append(0)
            stack.append(i)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.t1[i] = time.perf_counter_ns()
                stack.pop()
            _count(tracer, name, args, kwargs, result)
            return result

        return traced

    def install(self):
        for key in ("rng.draws", "expr.eval_arrays_points", "rfuncs.tree_nodes", "rfuncs.unique_nodes",
                    "solver.inner_evals", "solver.nonconverged", "solver.critical_evals",
                    "solver.projected_points", "region.boundary_vertices", "region.opt_bbox_effort",
                    "outputs.bytes"):
            self.counts[key] = 0
        targets = {}
        for layer, names in TRACED.items():
            for n in names:
                fn = getattr(getattr(rfeas, layer), n)
                targets[id(fn)] = (layer, n, fn)
        modules = [rfeas] + [getattr(rfeas, layer) for layer in LAYERS]
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = targets.get(id(value))
                if hit is None:
                    continue
                layer, n, fn = hit
                if module is getattr(rfeas, layer) and layer not in ("rng", "outputs"):
                    continue
                self._set(module, attr, self._wrap(f"{layer}.{n}", fn))
        cls = rfeas.solver.ProjectedRegion
        self._set(cls, "values_at", self._wrap("solver.ProjectedRegion.values_at", cls.values_at))

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def snapshot(self) -> dict[str, int]:
        return dict(self.counts)

    def save(self, path):
        np.savez_compressed(
            path, names=np.array(self.names), name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            t0=np.frombuffer(self.t0, dtype=np.int64), t1=np.frombuffer(self.t1, dtype=np.int64),
        )

    # Analysis ----------------------------------------------------------

    def layer_times(self) -> dict[str, float]:
        """Seconds per function and per layer (outermost spans of the layer) and
        the self time of the layers in ``SELF_TIME_LAYERS``."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        t0 = np.frombuffer(self.t0, dtype=np.int64)
        t1 = np.frombuffer(self.t1, dtype=np.int64)
        layer_of_name = np.array([LAYERS.index(n.split(".")[0]) for n in self.names] or [0], dtype=np.int64)
        layer = layer_of_name[name]
        # Bit mask of the layers of every ancestor; parents precede children.
        anc = np.zeros(len(name), dtype=np.int64)
        for i in range(len(name)):
            p = parent[i]
            if p >= 0:
                anc[i] = anc[p] | (1 << int(layer[p]))
        outer = ((anc >> layer) & 1) == 0
        dur = (t1 - t0) / 1e9
        out: dict[str, float] = {}
        for nid, n in enumerate(self.names):
            m = outer & (name == nid)
            out[n + "_s"] = float(dur[m].sum())
            out[n + "_calls"] = int(np.count_nonzero(m))
        for li, lname in enumerate(LAYERS):
            out[lname + "_s"] = float(dur[outer & (layer == li)].sum())
        for lname in SELF_TIME_LAYERS:
            li = LAYERS.index(lname)
            owners = np.flatnonzero(outer & (layer == li))
            covered = 0.0
            children: dict[int, list[tuple[int, int]]] = {int(o): [] for o in owners}
            for c in np.flatnonzero(np.isin(parent, owners)):
                children[int(parent[c])].append((int(t0[c]), int(t1[c])))
            for o, spans in children.items():
                end = int(t0[o])
                for a, b in sorted(spans):
                    a, b = max(a, end), min(b, int(t1[o]))
                    if b > a:
                        covered += (b - a) / 1e9
                        end = b
            out[lname + "_self_s"] = float(dur[owners].sum()) - covered
        return out
