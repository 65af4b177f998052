"""Span recorder for the traced benchmark run.

``install`` rebinds the names each ``dapt`` module looks up at call time
(module globals such as ``dapt.pipeline.smooth_gauge``, and methods such
as ``Workspace.build``) to wrappers that record one span per call: name,
start, end, parent span, command id and thread. The program's files are
not touched; ``Tracer.restore`` puts the original objects back.

Parents are tracked per thread. The program's ``sweep`` runs its points
in a ``ThreadPoolExecutor`` looked up in ``dapt.pipeline``; that name is
rebound to a subclass whose ``submit`` hands the submitting thread's open
span to the worker, so point spans attach to their ``pipeline.sweep``.

Spans stay in memory until ``write`` is called at the end of the run.
"""
import functools
import itertools
import json
import os
import statistics
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from typing import NamedTuple

import numpy as np


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int
    command: int
    thread: int
    work: int


# span name -> name of the per-command count metric recorded with it
COUNTS = {
    "propagate.propagate": "propagate.steps",
    "spectral.snapshot_eigensystem": "spectral.nodes",
    "engine.advance_order": "engine.advance_order.calls",
    "linalg.unitary_expm": "linalg.unitary_expm.matrices",
    "hamio.read_hamiltonian": "hamio.read_hamiltonian.bytes",
    "hamio.write_csv": "hamio.write_csv.cells",
}

# span names whose per-command self time is reported as "<name>.s"
TIMED = (
    "propagate.propagate", "spectral.snapshot_eigensystem",
    "spectral.smooth_gauge", "couplings.couplings_from_path",
    "holonomy.transport_all", "holonomy.corrected_holonomy",
    "engine.advance_order", "engine.series_state", "engine.validity_margins",
    "linalg.unitary_expm", "grid.central_derivative",
    "grid.cumulative_quadrature", "hamio.read_hamiltonian", "hamio.write_csv",
    "hamio.write_summary", "pipeline.build", "pipeline.exact",
    "pipeline.sweep", "models.closed_forms",
)

MODULES = ("cli", "pipeline", "models", "spectral", "couplings", "holonomy",
           "engine", "linalg", "grid", "hamio", "propagate")


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches = []
        self._command = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = [None]
        return stack

    def call(self, name, fn, args=(), kwargs=None, count=None):
        """Run fn(*args, **kwargs) inside a span; ``count`` maps
        (args, kwargs, result) to the span's work count."""
        kwargs = kwargs or {}
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1]
        stack.append(sid)
        n = None
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
            if count is not None:
                n = int(count(args, kwargs, out))
            return out
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(sid, name, start, end, parent,
                                   self._command, threading.get_ident(), n))

    def command(self, label, main, argv):
        """One CLI command as a root span with a fresh command id."""
        self._command = next(self._ids)
        return self.call(f"cli.{label}", main, (argv,))

    def wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, count)
        return traced

    def patch(self, owner, attr, name, count=None):
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            new = classmethod(self.wrap(name, raw.__func__, count))
        else:
            new = self.wrap(name, raw, count)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, new)

    def pool(self):
        """ThreadPoolExecutor whose tasks start under the submitter's span."""
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                parent = tracer._stack()[-1]

                def run(*a, **k):
                    stack = tracer._stack()
                    stack.append(parent)
                    try:
                        return fn(*a, **k)
                    finally:
                        stack.pop()
                return super().submit(run, *args, **kwargs)
        return TracedPool

    def restore(self):
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def write(self, path, env: dict):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"env": env, "fields": list(Span._fields),
                       "spans": [list(s) for s in self.spans]}, fh)


def _matrices(args, kwargs, out):
    a = args[0]
    return a.shape[0] if a.ndim == 3 else 1


def _cells(args, kwargs, out):
    return sum(len(col) * (2 if np.iscomplexobj(col) else 1)
               for _, col in args[1])


def install(tracer: Tracer, dapt) -> None:
    """Rebind every traced name; undone by ``tracer.restore()``."""
    cli, pipeline, engine = dapt.cli, dapt.pipeline, dapt.engine
    p = tracer.patch
    p(cli, "read_hamiltonian", "hamio.read_hamiltonian",
      lambda a, k, r: os.path.getsize(a[0]))
    p(cli, "write_csv", "hamio.write_csv", _cells)
    p(cli, "write_summary", "hamio.write_summary")
    p(cli, "series_state", "engine.series_state")
    p(cli, "sweep", "pipeline.sweep")
    p(pipeline, "_sweep_point", "pipeline.sweep_point")
    p(pipeline, "snapshot_eigensystem", "spectral.snapshot_eigensystem",
      lambda a, k, r: r.grid.n)
    p(pipeline, "smooth_gauge", "spectral.smooth_gauge")
    p(pipeline, "couplings_from_path", "couplings.couplings_from_path")
    p(pipeline, "transport_all", "holonomy.transport_all")
    p(pipeline, "advance_order", "engine.advance_order", lambda a, k, r: 1)
    p(pipeline, "series_state", "engine.series_state")
    p(pipeline, "validity_margins", "engine.validity_margins")
    p(pipeline, "corrected_holonomy", "holonomy.corrected_holonomy")
    p(pipeline, "propagate", "propagate.propagate",
      lambda a, k, r: (r.grid.n - 1) * r.substeps)
    p(engine, "unitary_expm", "linalg.unitary_expm", _matrices)
    p(dapt.holonomy, "unitary_expm", "linalg.unitary_expm", _matrices)
    p(engine, "central_derivative", "grid.central_derivative")
    p(dapt.couplings, "central_derivative", "grid.central_derivative")
    p(engine, "cumulative_quadrature", "grid.cumulative_quadrature")
    for method in ("build", "exact", "series", "series_residuals", "margins",
                   "corrected"):
        p(pipeline.Workspace, method, f"pipeline.{method}")
    for method in ("spectral_path", "couplings", "holonomies", "exact_state"):
        p(dapt.models.GammaModel, method, "models.closed_forms")
    tracer._patches.append((pipeline, "ThreadPoolExecutor",
                            pipeline.ThreadPoolExecutor))
    pipeline.ThreadPoolExecutor = tracer.pool()


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it its children cover."""
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children[s.id], key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = (s.end - s.start) - covered
    return out


def layer_metrics(spans) -> dict:
    """Per-layer figures, each the median over the commands in which the
    layer ran (0 when it never ran)."""
    selft = self_times(spans)
    per_cmd = defaultdict(lambda: defaultdict(float))
    counts = defaultdict(lambda: defaultdict(int))
    for s in spans:
        per_cmd[s.name][s.command] += selft[s.id]
        if s.work is not None:
            counts[COUNTS[s.name]][s.command] += s.work

    def med(d):
        return float(statistics.median(d.values())) if d else 0.0

    out = {f"{name}.s": (med(per_cmd[name]), "s") for name in TIMED}
    out.update({name: (med(counts[name]), "count") for name in COUNTS.values()})

    ratios = []
    for sweep in (s for s in spans if s.name == "pipeline.sweep"):
        points = [s for s in spans
                  if s.name == "pipeline.sweep_point" and s.parent == sweep.id]
        if points:
            busy = sum(s.end - s.start for s in points)
            workers = len({s.thread for s in points})
            ratios.append(busy / ((sweep.end - sweep.start) * workers))
    out["pipeline.sweep.busy_ratio"] = (
        float(statistics.median(ratios)) if ratios else 0.0, "ratio")

    # Shares of all self time, which counts every pool thread in full and
    # so sums to 1 over the modules.
    total = sum(selft.values())
    for module in MODULES:
        busy = sum(selft[s.id] for s in spans
                   if s.name.split(".", 1)[0] == module)
        out[f"{module}.share"] = (busy / total if total else 0.0, "ratio")
    return out
