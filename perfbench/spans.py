"""Span tracing of pdekit's layers from outside the package.

Tracer.install() replaces each listed pdekit function, in every pdekit
module namespace that binds it, by a wrapper that records a span (name,
start, end, parent span, execution) and returns the original result; it
also wraps numpy.linalg.eigvalsh, numpy.linalg.svd and
scipy.sparse.linalg.splu, which pdekit calls through module attributes.
uninstall() puts the originals back.  Spans stay in flat in-memory columns
and are written out once, at the end of the run.

A layer's self time is its span's duration minus the durations of its
direct child spans.  A library span is reported as the share of the layer
that called it (eigvalsh under fdm.solve is fdm.solve.dense_eig).
"""

from __future__ import annotations

import contextlib
import sys
import time
from array import array
from pathlib import Path

import numpy as np
import scipy.sparse.linalg

LAYERS = [
    ("fdm", "assemble"), ("fdm", "solve"), ("fdm", "error_report"),
    ("images", "restrict"), ("images", "fold_vector"),
    ("laplacian", "eigenvalues_1d"), ("laplacian", "condition_number"),
    ("stencil", "make_stencil"),
    ("spectral_ops", "multi_diff"),
    ("spectral_system", "assemble_system"), ("spectral_system", "condition_report"),
    ("solver", "solve_system"), ("solver", "manufactured_problem"),
    ("solver", "analyze_values"), ("solver", "synthesize_nodes"),
    ("transforms", "qct_apply"), ("transforms", "qsft_apply"),
    ("cli", "main"),
]
LIBRARY = [(np.linalg, "numpy.linalg", "eigvalsh"), (np.linalg, "numpy.linalg", "svd"),
           (scipy.sparse.linalg, "scipy.sparse.linalg", "splu")]
# (library span, calling layer) -> the name of that layer's share
SHARES = {
    ("numpy.linalg.eigvalsh", "fdm.solve"): "fdm.solve.dense_eig",
    ("scipy.sparse.linalg.splu", "solver.solve_system"): "solver.solve_system.lu",
    ("numpy.linalg.svd", "spectral_system.condition_report"):
        "spectral_system.condition_report.svd",
}
ROOT = "bench.problem"      # one per problem execution; its self time is glue
SAMPLER = "fdm.sample"      # the benchmark's own source and exact samplers
MAX_COUNTS = {"fdm.solve.residual_max"}   # reduced by max; other counts are summed


def _work_counts(name, result, parent):
    """Work counts read off a layer's return value."""
    if name == "fdm.assemble" and result.matrix is not None:
        return {"fdm.matrix.nnz": result.matrix.nnz}
    if name == "fdm.solve":
        return {"fdm.solve.cg_iterations": result.iterations,
                "fdm.solve.residual_max": result.residual}
    if name == "spectral_system.assemble_system":
        return {"spectral_system.L.nnz": result.L.nnz}
    if name == "scipy.sparse.linalg.splu" and parent == "solver.solve_system":
        return {"solver.solve_system.lu_nnz": result.L.nnz + result.U.nnz}
    return {}


class Tracer:
    """In-memory span store plus per-execution counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.execution = array("i")
        self.exec_pid: list[int] = []
        self.exec_counts: list[dict] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    # ------------------------------------------------------------ recording
    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name: str) -> int:
        i = len(self.start)
        self.name_id.append(self._intern(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.execution.append(len(self.exec_pid) - 1)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        i = self._open(name)
        try:
            yield
        finally:
            self._close(i)

    @contextlib.contextmanager
    def problem(self, pid: int):
        """Root span of one problem execution; counts recorded inside go to it."""
        self.exec_pid.append(pid)
        self.exec_counts.append({})
        with self.span(ROOT):
            yield

    def sampler(self):
        return self.span(SAMPLER)

    def count(self, metric: str, value) -> None:
        counts = self.exec_counts[-1]
        if metric in MAX_COUNTS:
            counts[metric] = max(counts.get(metric, value), value)
        else:
            counts[metric] = counts.get(metric, 0) + value

    def _parent_name(self) -> str | None:
        return self.names[self.name_id[self._stack[-1]]] if self._stack else None

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            if not self._stack:  # outside a problem: not part of any measurement
                return fn(*args, **kwargs)
            parent = self._parent_name()
            i = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            for metric, value in _work_counts(name, result, parent).items():
                self.count(metric, value)
            return result
        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------------------------- patching
    def install(self) -> None:
        import pdekit
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "pdekit" or key.startswith("pdekit."))]
        for mod, fn in LAYERS:
            original = getattr(getattr(pdekit, mod), fn)
            wrapper = self.wrap(f"{mod}.{fn}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)
        for module, prefix, fn in LIBRARY:
            original = getattr(module, fn)
            self._patched.append((module, fn, original))
            setattr(module, fn, self.wrap(f"{prefix}.{fn}", original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # ----------------------------------------------------------- reduction
    def layer_keys(self) -> list[str]:
        """Per span: its layer, with library spans named by their caller's share."""
        names = [self.names[i] for i in self.name_id]
        keys = []
        for i, name in enumerate(names):
            parent = names[self.parent[i]] if self.parent[i] >= 0 else None
            keys.append(SHARES.get((name, parent), name))
        return keys

    def self_times(self) -> np.ndarray:
        start = np.frombuffer(self.start, dtype=float)
        dur = np.frombuffer(self.end, dtype=float) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        child = np.zeros_like(dur)
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        return dur - child

    def summary(self) -> list:
        """Per execution: {"self": {layer: s}, "calls": {span: n}, "counts": {...}}."""
        keys = self.layer_keys()
        selfs = self.self_times()
        out = [{"self": {}, "calls": {}, "counts": dict(c)} for c in self.exec_counts]
        for i, key in enumerate(keys):
            rec = out[self.execution[i]]
            rec["self"][key] = rec["self"].get(key, 0.0) + float(selfs[i])
            name = self.names[self.name_id[i]]
            rec["calls"][name] = rec["calls"].get(name, 0) + 1
        return out

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path, names=np.array(self.names), name_id=np.frombuffer(self.name_id, np.int32),
            start=np.frombuffer(self.start, float), end=np.frombuffer(self.end, float),
            parent=np.frombuffer(self.parent, np.int32),
            execution=np.frombuffer(self.execution, np.int32),
            exec_pid=np.array(self.exec_pid, dtype=np.int32))
