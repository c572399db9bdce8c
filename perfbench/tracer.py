"""Layer spans recorded from outside the program.

``Tracer.install`` wraps every public function of each ``nsocp`` module,
the classmethod ``CsrMatrix.from_scipy`` and the ``splu`` name each module
imported from scipy. A wrapper replaces the function under every module
name bound to it (``harness.solve_kkt`` is ``kkt_solver.solve_kkt``), so
no call bypasses it. ``uninstall`` puts the originals back. Nothing under
``src/`` changes.

Spans stay in memory, in one list for the life of the process: name,
start, end, the index of the enclosing span, and a few attributes read
from the call's arguments or result after its clock stopped.
``layer_metrics`` turns the spans of chosen phases (index ranges) into the
per-layer metrics listed in ``LAYER_METRICS``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from collections import defaultdict

import scipy.sparse.linalg

PACKAGE = "nsocp"
# every module with a public API (``__all__``); the CLI is not a workload layer
MODULES = ["sparse_core", "nonsmooth", "fe_mesh", "state_solver", "kkt_solver",
           "regpath", "stationarity", "examples", "harness"]


def _iterations(args, kwargs, result):
    return {"iterations": result[1].iterations}


# Attributes taken from a call once its span has ended, by span name.
ATTRIBUTES = {
    "sparse_core.splu": lambda a, k, lu: {"fill": lu.nnz},
    "state_solver.splu": lambda a, k, lu: {"fill": lu.nnz},
    "regpath.splu": lambda a, k, lu: {"fill": lu.nnz},
    "kkt_solver.solve_kkt": _iterations,
    "kkt_solver.index_sets": lambda a, k, sets: {"crit": len(sets.i_crit)},
    "state_solver.solve_state": _iterations,
    "state_solver.solve_state_regularized": _iterations,
    "state_solver.directional_derivative": _iterations,
    "regpath.solve_regularized_kkt": lambda a, k, r: {
        "iterations": r[1].iterations, "converged": r[1].converged, "eps": a[1]},
    "stationarity.check_primal_stationarity": lambda a, k, rep: {"directions": len(rep.values)},
    "fe_mesh.export_vtk": lambda a, k, r: {"bytes": os.path.getsize(a[1])},
}


class Span:
    __slots__ = ("name", "parent", "start", "end", "error", "attrs")

    def __init__(self, name: str, parent: int):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.error = None
        self.attrs = {}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def mark(self) -> int:
        """Index of the next span; two marks bound the spans of one phase."""
        return len(self.spans)

    def _wrap(self, name: str, fn):
        attributes = ATTRIBUTES.get(name)
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, open_[-1] if open_ else -1)
            open_.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                open_.pop()
            if attributes is not None:
                span.attrs = attributes(args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {name: importlib.import_module(f"{PACKAGE}.{name}") for name in MODULES}
        wrappers = {}
        for name, mod in modules.items():
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[fn] = self._wrap(f"{name}.{attr}", fn)
        for mod in [importlib.import_module(PACKAGE), *modules.values()]:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(mod, attr, wrappers[value])
        for name, mod in modules.items():
            if vars(mod).get("splu") is scipy.sparse.linalg.splu:
                self._patch(mod, "splu", self._wrap(f"{name}.splu", scipy.sparse.linalg.splu))
        csr = modules["sparse_core"].CsrMatrix
        from_scipy = vars(csr)["from_scipy"].__func__
        self._patch(csr, "from_scipy",
                    classmethod(self._wrap("sparse_core.CsrMatrix.from_scipy", from_scipy)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# ------------------------------------------------------------------ metrics

class _Index:
    """Span lookups by name, with outermost totals and self times."""

    def __init__(self, spans: list[Span], ranges):
        self.spans = spans
        self.by_name = defaultdict(list)
        self.child_time = defaultdict(float)
        for lo, hi in ranges:
            for i in range(lo, hi):
                s = spans[i]
                self.by_name[s.name].append(i)
                if s.parent >= 0:
                    self.child_time[s.parent] += s.end - s.start

    def calls(self, name: str) -> int:
        return len(self.by_name[name])

    def total(self, *names: str) -> float:
        """Time inside any of ``names``, counting nested spans of the set once."""
        wanted = set(names)
        out = 0.0
        for name in names:
            for i in self.by_name[name]:
                if not self._has_ancestor_in(i, wanted):
                    out += self.spans[i].end - self.spans[i].start
        return out

    def self_time(self, name: str) -> float:
        return sum(self.spans[i].end - self.spans[i].start - self.child_time[i]
                   for i in self.by_name[name])

    def child_total(self, parent: str, *names: str) -> float:
        """Time in spans of ``names`` whose direct parent is a ``parent`` span."""
        return sum(self.spans[i].end - self.spans[i].start
                   for name in names for i in self.by_name[name]
                   if self.spans[i].parent >= 0
                   and self.spans[self.spans[i].parent].name == parent)

    def attr_sum(self, key: str, *names: str) -> float:
        return sum(self.spans[i].attrs.get(key, 0) for name in names for i in self.by_name[name])

    def errors(self, name: str, error: str) -> int:
        return sum(1 for i in self.by_name[name] if self.spans[i].error == error)

    def _has_ancestor_in(self, i: int, names: set) -> bool:
        p = self.spans[i].parent
        while p >= 0:
            if self.spans[p].name in names:
                return True
            p = self.spans[p].parent
        return False

    def first_try_ratio(self) -> float:
        """Continuation steps whose first solve converged, over all steps.

        A step is one eps value of one ``run_path`` call; a retry is a second
        ``solve_regularized_kkt`` span with the same eps under the same parent.
        """
        first = {}
        for i in self.by_name["regpath.solve_regularized_kkt"]:
            s = self.spans[i]
            if s.attrs and s.parent >= 0 and self.spans[s.parent].name == "regpath.run_path":
                first.setdefault((s.parent, s.attrs["eps"]), s.attrs["converged"])
        return sum(first.values()) / len(first) if first else 0.0


STATE_SOLVES = ("state_solver.solve_state", "state_solver.solve_state_regularized",
                "state_solver.directional_derivative")
ERROR_EVAL = ("fe_mesh.interpolate", "state_solver.m_norm", "fe_mesh.linf_nodal_error")

# name -> (unit, kind, workloads on which it is nonzero, how it is derived)
LAYER_METRICS = {
    "sparse_core.lu_factor_s": ("s", "timing", ("kkt-fine", "sweep-coarse"),
                                lambda ix: ix.total("sparse_core.splu")),
    "sparse_core.lu_fill": ("count", "count", ("kkt-fine", "sweep-coarse"),
                            lambda ix: ix.attr_sum("fill", "sparse_core.splu")),
    "sparse_core.solve_linear_calls": ("count", "count", ("kkt-fine", "sweep-coarse"),
                                       lambda ix: ix.calls("sparse_core.solve_linear")),
    "sparse_core.solve_other_s": ("s", "timing", ("kkt-fine", "sweep-coarse"),
                                  lambda ix: ix.self_time("sparse_core.solve_linear")),
    "sparse_core.from_scipy_calls": ("count", "count", ("kkt-fine", "sweep-coarse", "certify"),
                                     lambda ix: ix.calls("sparse_core.CsrMatrix.from_scipy")),
    "sparse_core.from_scipy_s": ("s", "timing", ("kkt-fine", "sweep-coarse", "certify"),
                                 lambda ix: ix.total("sparse_core.CsrMatrix.from_scipy")),
    "sparse_core.assemble_block_s": ("s", "timing", ("kkt-fine", "sweep-coarse"),
                                     lambda ix: ix.total("sparse_core.assemble_block")),
    "sparse_core.singular_errors": ("count", "count", ("sweep-coarse",),
                                    lambda ix: ix.errors("sparse_core.solve_linear",
                                                         "SingularMatrixError")),
    "kkt_solver.solve_kkt_s": ("s", "timing", ("kkt-fine", "sweep-coarse"),
                               lambda ix: ix.total("kkt_solver.solve_kkt")),
    "kkt_solver.newton_steps": ("count", "count", ("kkt-fine", "sweep-coarse"),
                                lambda ix: ix.attr_sum("iterations", "kkt_solver.solve_kkt")),
    "kkt_solver.crit_nodes": ("count", "count", ("kkt-fine", "sweep-coarse"),
                              lambda ix: ix.attr_sum("crit", "kkt_solver.index_sets")),
    "kkt_solver.residual_s": ("s", "timing", ("kkt-fine", "sweep-coarse", "certify"),
                              lambda ix: ix.total("kkt_solver.residual")),
    "kkt_solver.index_sets_s": ("s", "timing", ("kkt-fine", "sweep-coarse"),
                                lambda ix: ix.total("kkt_solver.index_sets")),
    "kkt_solver.newton_matrix_s": ("s", "timing", ("kkt-fine", "sweep-coarse"),
                                   lambda ix: ix.total("kkt_solver.newton_matrix")),
    "kkt_solver.active_set_fix_s": ("s", "timing", ("kkt-fine", "sweep-coarse"),
                                    lambda ix: ix.total("kkt_solver.apply_active_set_fix")),
    "state_solver.solve_state_s": ("s", "timing", ("certify",),
                                   lambda ix: ix.total("state_solver.solve_state")),
    "state_solver.solve_state_calls": ("count", "count", ("certify",),
                                       lambda ix: ix.calls("state_solver.solve_state")),
    "state_solver.directional_derivative_s": (
        "s", "timing", ("certify",),
        lambda ix: ix.total("state_solver.directional_derivative")),
    "state_solver.directional_derivative_calls": (
        "count", "count", ("certify",),
        lambda ix: ix.calls("state_solver.directional_derivative")),
    "state_solver.newton_steps": ("count", "count", ("certify",),
                                  lambda ix: ix.attr_sum("iterations", *STATE_SOLVES)),
    "state_solver.lu_factor_s": ("s", "timing", ("certify",),
                                 lambda ix: ix.total("state_solver.splu")),
    "state_solver.lu_fill": ("count", "count", ("certify",),
                             lambda ix: ix.attr_sum("fill", "state_solver.splu")),
    "regpath.run_path_s": ("s", "timing", ("certify",),
                           lambda ix: ix.total("regpath.run_path")),
    "regpath.solve_regularized_kkt_s": ("s", "timing", ("certify",),
                                        lambda ix: ix.total("regpath.solve_regularized_kkt")),
    "regpath.newton_steps": ("count", "count", ("certify",),
                             lambda ix: ix.attr_sum("iterations",
                                                    "regpath.solve_regularized_kkt")),
    "regpath.first_try_ratio": ("ratio", "ratio", ("certify",),
                                lambda ix: ix.first_try_ratio()),
    "regpath.lu_factor_s": ("s", "timing", ("certify",),
                            lambda ix: ix.total("regpath.splu")),
    "regpath.lu_fill": ("count", "count", ("certify",),
                        lambda ix: ix.attr_sum("fill", "regpath.splu")),
    "stationarity.primal_s": ("s", "timing", ("certify",),
                              lambda ix: ix.total("stationarity.check_primal_stationarity")),
    "stationarity.directions": ("count", "count", ("certify",),
                                lambda ix: ix.attr_sum("directions",
                                                       "stationarity.check_primal_stationarity")),
    "fe_mesh.mesh_s": ("s", "timing", ("kkt-fine", "sweep-coarse", "certify"),
                       lambda ix: ix.total("fe_mesh.build_mesh", "fe_mesh.build_space")),
    "fe_mesh.assemble_s": ("s", "timing", ("kkt-fine", "sweep-coarse", "certify"),
                           lambda ix: ix.total("fe_mesh.assemble_operators")),
    "fe_mesh.interpolate_s": ("s", "timing", ("kkt-fine", "sweep-coarse", "certify"),
                              lambda ix: ix.total("fe_mesh.interpolate")),
    "fe_mesh.export_vtk_s": ("s", "timing", ("certify",),
                             lambda ix: ix.total("fe_mesh.export_vtk")),
    "fe_mesh.export_vtk_bytes": ("B", "count", ("certify",),
                                 lambda ix: ix.attr_sum("bytes", "fe_mesh.export_vtk")),
    "examples.build_s": ("s", "timing", ("kkt-fine", "sweep-coarse", "certify"),
                         lambda ix: ix.total("examples.build_example", "examples.build_example1",
                                             "examples.build_example2")),
    "harness.run_cell_s": ("s", "timing", ("sweep-coarse",),
                           lambda ix: ix.total("harness.run_cell")),
    "harness.error_eval_s": ("s", "timing", ("sweep-coarse",),
                             lambda ix: ix.child_total("harness.run_cell", *ERROR_EVAL)),
    "harness.csv_write_s": ("s", "timing", ("sweep-coarse",),
                            lambda ix: ix.self_time("harness.run_sweep")),
}


def layer_metrics(spans: list[Span], ranges) -> dict[str, float]:
    """Per-layer metrics over the spans whose indices lie in ``ranges``."""
    ix = _Index(spans, ranges)
    return {name: float(spec[3](ix)) for name, spec in LAYER_METRICS.items()}
