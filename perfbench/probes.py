"""Instrumentation applied to polympe from outside its source.

A function is patched at every place a caller looks it up: the attribute of
each loaded ``polympe`` module that is bound to it (``driver`` and
``stepping`` import ``factorize``, ``build_faces``, ``build_space`` and
``build_system`` by name, so they hold bindings of their own), or the class
attribute for a method.

Two kinds of wrapper exist:

* phase gates (untraced pass): a handful of coarse functions whose entry
  switches the current phase (setup, solve or post). The phase sticks until
  the next gate, so the three phase times partition the workload's wall time;
* spans (traced pass): every public function of every layer module, plus
  the methods in ``METHODS``. Each call records name, start, end and parent
  span in memory; self times are derived afterwards.

Both kinds also read the size counts in ``COUNTERS`` off the return values.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

import numpy as np

LAYERS = ("families", "mesh", "agglomerate", "manufactured", "spaces", "forms",
          "system", "stepping", "solvers", "norms", "outputs")
PHASES = ("setup", "solve", "post")
ROOT_SPAN = "workload"

# methods traced besides the layers' public functions: (module, class) -> the
# method names (None: every public method). A method span is named
# "<layer>.<method>", a constructor span "<layer>.<class>".
METHODS = {
    ("manufactured", "ManufacturedCase"): None,  # every public method
    ("solvers", "Factorization"): ("solve",),
    ("mesh", "PolyMesh"): ("__init__",),
}


def _sparse_nnz(obj) -> int:
    if hasattr(obj, "nnz"):
        return int(obj.nnz)
    if isinstance(obj, dict):
        return sum(_sparse_nnz(v) for v in obj.values())
    return 0


def _system_nnz(sysm) -> dict:
    return {"system.operator_nnz": sum(_sparse_nnz(getattr(sysm, f)) for f in vars(sysm))}


def _space_sizes(space) -> dict:
    out = {"spaces.n_dofs": int(space.n_dofs)}
    out.update({"spaces.n_dofs_" + f.replace(":", "_"): int(n) for f, n in space.sizes.items()})
    return out


def _lu_nnz(fact) -> dict:
    # SuperLU's stored count of L and U entries (supernodal storage, so a
    # little above the nonzeros of L plus U). Reading ``.L``/``.U`` instead
    # would copy the whole factor on every call.
    return {"solvers.lu_nnz": int(fact._lu.nnz)}


# size counts read off return values, summed over every call in one run
COUNTERS = {
    "families.triangulated_two_domain": lambda r: {"mesh.n_elements": r.n_elements},
    "agglomerate.agglomerate": lambda r: {"mesh.n_elements": r.n_elements},
    "mesh.build_faces": lambda r: {"mesh.n_faces": len(r)},
    "spaces.build_space": _space_sizes,
    "system.build_system": _system_nnz,
    "stepping.build_stepping_matrices": lambda r: {"stepping.a1_rows": r["A1"].shape[0],
                                                   "stepping.a1_nnz": r["A1"].nnz},
    "solvers.factorize": _lu_nnz,
}


def layer_targets() -> dict:
    """Span name -> (function, [(owner, attribute), ...]) for every public
    layer function and traced method. A module function has one owner per
    polympe module that binds it."""
    targets = {}
    for (layer, cls_name), names in METHODS.items():
        cls = getattr(importlib.import_module(f"polympe.{layer}"), cls_name)
        if names is None:
            names = [n for n, v in vars(cls).items()
                     if not n.startswith("_") and inspect.isfunction(v)]
        for name in names:
            span = f"{layer}.{cls_name}" if name == "__init__" else f"{layer}.{name}"
            targets[span] = (vars(cls)[name], [(cls, name)])
    modules = [m for n, m in list(sys.modules.items())
               if n == "polympe" or n.startswith("polympe.")]
    for layer in LAYERS:
        mod = importlib.import_module(f"polympe.{layer}")
        for name, fn in vars(mod).items():
            span = f"{layer}.{name}"
            if (name.startswith("_") or span in targets or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__):
                continue
            targets[span] = (fn, [(m, attr) for m in modules
                                  for attr, val in vars(m).items() if val is fn])
    return targets


class Counts:
    def __init__(self):
        self.values = {}

    def observe(self, span, result):
        observer = COUNTERS.get(span)
        if observer is not None:
            for key, val in observer(result).items():
                self.values[key] = self.values.get(key, 0) + int(val)


class PhaseClock:
    """Sticky phase accounting: time between two gate entries goes to the
    phase the first one switched to."""

    def __init__(self):
        self.totals = dict.fromkeys(PHASES, 0.0)
        self.phase = "setup"
        self.last = None

    def start(self):
        self.last = time.perf_counter()

    def enter(self, phase):
        now = time.perf_counter()
        self.totals[self.phase] += now - self.last
        self.phase, self.last = phase, now

    def stop(self) -> dict:
        self.enter(self.phase)
        return dict(self.totals)


class Tracer:
    """Spans kept in memory as (name id, parent index, start, end)."""

    def __init__(self):
        self.names = [ROOT_SPAN]
        self.spans = []
        self.stack = [-1]

    def wrap(self, span, fn, counts):
        nid = len(self.names)
        self.names.append(span)
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        observe = counts.observe if span in COUNTERS else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(i)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                spans[i] = (nid, parent, t0, clock())
                stack.pop()
            if observe is not None:
                observe(span, out)
            return out
        return traced

    def open_root(self):
        self.spans.append(None)
        self.stack.append(0)
        self._root_t0 = time.perf_counter()

    def close_root(self) -> float:
        """Closes the root span and returns its duration."""
        end = time.perf_counter()
        self.spans[0] = (0, -1, self._root_t0, end)
        self.stack.pop()
        return end - self._root_t0

    def arrays(self) -> dict:
        rec = np.array(self.spans, dtype=float).reshape(-1, 4)
        return {"name": rec[:, 0].astype(np.int32), "parent": rec[:, 1].astype(np.int64),
                "start": rec[:, 2], "end": rec[:, 3]}

    def summary(self) -> dict:
        """Per span name: call count and self time (duration minus the
        durations of direct children, which never overlap)."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros(len(dur))
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        self_t = dur - child
        calls = np.bincount(a["name"], minlength=len(self.names))
        self_by = np.bincount(a["name"], weights=self_t, minlength=len(self.names))
        return {n: {"calls": int(calls[i]), "self_s": float(self_by[i])}
                for i, n in enumerate(self.names)}

    def save(self, path):
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def _gate(fn, span, phase, clock, counts):
    observe = counts.observe if span in COUNTERS else None

    @functools.wraps(fn)
    def gated(*args, **kwargs):
        if phase is not None:
            clock.enter(phase)
        out = fn(*args, **kwargs)
        if observe is not None:
            observe(span, out)
        return out
    return gated


class Instrumentation:
    """Patches polympe in place; ``restore`` undoes it. With a tracer every
    layer target gets a span; without, only the gates and counted functions
    get a (cheap) gate wrapper."""

    def __init__(self, gates: dict, tracer: Tracer | None):
        self.counts = Counts()
        self.clock = PhaseClock()
        self._saved = []
        for span, (fn, sites) in layer_targets().items():
            if tracer is not None:
                wrapper = tracer.wrap(span, fn, self.counts)
            elif span in gates or span in COUNTERS:
                wrapper = _gate(fn, span, gates.get(span), self.clock, self.counts)
            else:
                continue
            for owner, attr in sites:
                self._saved.append((owner, attr, fn))
                setattr(owner, attr, wrapper)

    def restore(self):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()
