"""In-memory spans around the calls into stiffnet's layers.

``install`` replaces every binding of the traced public functions with a
timing wrapper: the name in its defining module, in the ``stiffnet``
package namespace, and the names other modules imported with
``from ... import``.  Modules are taken from ``sys.modules`` because
``stiffnet/__init__.py`` rebinds the attribute ``stiffnet.energy`` to the
function of that name.  The scipy solver entry points are patched on the
scipy modules, since ``energy``, ``criteria`` and ``effective`` look them
up there at call time (``scipy.sparse.linalg.cg`` and friends).

A span is ``[layer, start, end, parent, counters]``.  Spans live in a list
until the run ends and the child writes them out; no file is touched while
the traced run is timed.
"""

from __future__ import annotations

import functools
import sys
import threading
import time


def _generate_counts(args, kwargs, config):
    return {"spheres": config.n_spheres, "saturated": int(bool(config.warnings))}


def _restrict_counts(args, kwargs, config):
    source = args[0] if args else kwargs["config"]
    return {"kept": config.n_spheres, "input": source.n_spheres}


def _components_counts(args, kwargs, comp):
    return {"triple_overlap_possible": int(comp.triple_overlap_possible)}


def _graph_counts(args, kwargs, graph):
    return {"nodes": graph.n_nodes, "edges": graph.n_edges,
            "g2_violations": int(graph.g2_violations)}


def _cluster_counts(args, kwargs, part):
    sizes = [int(c) for c in part.cardinalities]
    return {"largest": max(sizes, default=0), "nodes": sum(sizes)}


def _h2_counts(args, kwargs, estimate):
    return {"starts": len(estimate.per_start)}


class _IterCounter:
    """CG callback that counts iterations and leaves the iterate alone."""

    def __init__(self):
        self.n = 0

    def __call__(self, xk):
        self.n += 1


def _add_iter_counter(kwargs):
    if kwargs.get("callback") is None:
        kwargs["callback"] = _IterCounter()


def _cg_counts(args, kwargs, result):
    cb = kwargs.get("callback")
    return {"iters": cb.n if isinstance(cb, _IterCounter) else 0}


# (module, function) -> (layer, counters from (args, kwargs, result))
TRACED = {
    ("stiffnet.geometry", "generate_hardcore"): ("geometry.generate", _generate_counts),
    ("stiffnet.geometry", "generate_lattice_jitter"): ("geometry.generate", _generate_counts),
    ("stiffnet.geometry", "generate_chain_forest"): ("geometry.generate", _generate_counts),
    ("stiffnet.geometry", "restrict_box"): ("geometry.restrict_box", _restrict_counts),
    ("stiffnet.geometry", "components"): ("geometry.components", _components_counts),
    ("stiffnet.geometry", "cluster_moment_statistic"): ("geometry.cluster_moment_statistic", None),
    ("stiffnet.multigraph", "build_graph"): ("multigraph.build_graph", _graph_counts),
    ("stiffnet.multigraph", "clusters"): ("multigraph.clusters", _cluster_counts),
    ("stiffnet.energy", "minimize_energy"): ("energy.minimize_energy", None),
    ("stiffnet.criteria", "h2_statistic"): ("criteria.h2_statistic", _h2_counts),
    ("stiffnet.criteria", "scan_limsup"): ("criteria.scan", None),
    ("stiffnet.effective", "effective_scan"): ("criteria.scan", None),
    ("stiffnet.effective", "network_effective_tensor"): ("effective.network_effective_tensor", None),
    ("stiffnet.cli", "run_experiment"): ("cli.run_experiment", None),
}

# (scipy module, function) -> layer; cg also gets an iteration counter.
SOLVERS = {
    ("scipy.sparse.linalg", "cg"): "solve.cg",
    ("scipy.linalg", "cho_factor"): "solve.cho",
    ("scipy.linalg", "cho_solve"): "solve.cho",
}


class Tracer:
    """Collects spans; parents follow the call stack of each thread.

    A span opened on a thread with no open span of its own (a worker of
    ``run_experiment``'s task pool) takes the outermost open span as its
    parent, so that the pool's time is not counted as its caller's self
    time.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._root = None

    def wrap(self, layer, fn, counts=None, before=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            with self._lock:
                parent = stack[-1] if stack else self._root
                idx = len(self.spans)
                span = [layer, 0.0, 0.0, parent, None]
                self.spans.append(span)
                if self._root is None:
                    self._root = idx
            stack.append(idx)
            if before is not None:
                before(kwargs)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[1], span[2] = t0, time.perf_counter()
                stack.pop()
                with self._lock:
                    if self._root == idx:
                        self._root = None
            if counts is not None:
                span[4] = counts(args, kwargs, result)
            return result
        return traced


def install() -> Tracer:
    """Wrap every traced function and solver; returns the collecting tracer."""
    tracer = Tracer()
    replacements = {}
    for (module, name), (layer, counts) in TRACED.items():
        fn = getattr(sys.modules[module], name)
        replacements[id(fn)] = tracer.wrap(layer, fn, counts)
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "stiffnet" and not mod_name.startswith("stiffnet."):
            continue
        for attr, value in list(vars(module).items()):
            if id(value) in replacements:
                setattr(module, attr, replacements[id(value)])
    for (module, name), layer in SOLVERS.items():
        fn = getattr(sys.modules[module], name)
        if name == "cg":
            wrapped = tracer.wrap(layer, fn, _cg_counts, _add_iter_counter)
        else:
            wrapped = tracer.wrap(layer, fn)
        setattr(sys.modules[module], name, wrapped)
    return tracer
