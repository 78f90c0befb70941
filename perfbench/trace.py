"""Per-layer tracing from outside the program.

The traced run replaces each public function of the picband layers, in
every picband module namespace that holds it, by a wrapper that opens a
span.  A span's self time is its duration minus the durations of the spans
it directly contains, so nested calls (bands -> curvature.min_isotropic,
cli -> comparison.riccati_oracle) give each layer its own share.  Spans are
folded into per-function totals as they close; nothing is kept per call.

Calls that bypass module attributes (cli's SUITES table, bound methods,
private helpers) are charged to the nearest wrapped caller.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("curvature", "bands", "exterior", "potentials", "gridcalc",
          "comparison", "hodge", "reporting", "cli")


class Tracer:
    """Span stack plus per-function (calls, self seconds) totals."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.edges = Counter()  # (parent, child): parent spans with such a direct child
        self.hooks = {}  # name -> f(args, kwargs, result), run outside every span
        self.wrapped = set()  # names of the functions install() has wrapped
        self.top_s = 0.0  # summed durations of the outermost spans
        self.excluded_s = 0.0  # hook time taken out of an open span
        self._stack = []  # [name, start, covered seconds, direct child names]

    def enter(self, name: str):
        self._stack.append([name, self.clock(), 0.0, set()])

    def exit(self):
        name, start, covered, children = self._stack.pop()
        duration = self.clock() - start
        self.calls[name] += 1
        self.self_s[name] += duration - covered
        for child in children:
            self.edges[name, child] += 1
        if self._stack:
            self._stack[-1][2] += duration
            self._stack[-1][3].add(name)
        else:
            self.top_s += duration

    def exclude(self, seconds: float):
        """Take time spent by the tracer's own hooks out of the open span."""
        if self._stack:
            self._stack[-1][2] += seconds
            self.excluded_s += seconds

    def telescoping_error(self) -> float:
        """Self times must add up to the outermost spans' durations less the
        hook time inside them; returns the absolute discrepancy."""
        return abs(sum(self.self_s.values()) + self.excluded_s - self.top_s)

    def wrap(self, fn, name: str):
        hook = self.hooks.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if hook is not None:
                t0 = self.clock()
                hook(args, kwargs, result)
                self.exclude(self.clock() - t0)
            return result

        return traced

    def layer_self_s(self) -> dict:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, s in self.self_s.items():
            out[name.split(".", 1)[0]] += s
        return out


def public_functions(module) -> dict:
    """Public callables defined in a module (functions and cached functions)."""
    return {
        name: obj for name, obj in vars(module).items()
        if not name.startswith("_") and callable(obj) and not isinstance(obj, type)
        and getattr(obj, "__module__", None) == module.__name__
    }


def install(tracer: Tracer, package: str = "picband"):
    """Wrap every public layer function wherever picband modules bind it;
    returns a callable that puts the originals back."""
    wrappers = {}
    for layer in LAYERS:
        module = importlib.import_module(f"{package}.{layer}")
        for name, fn in public_functions(module).items():
            wrappers[id(fn)] = (fn, tracer.wrap(fn, f"{layer}.{name}"))
            tracer.wrapped.add(f"{layer}.{name}")
    saved = []
    for modname, module in list(sys.modules.items()):
        if modname != package and not modname.startswith(package + "."):
            continue
        for attr, value in list(vars(module).items()):
            if id(value) in wrappers and wrappers[id(value)][0] is value:
                saved.append((module, attr, value))
                setattr(module, attr, wrappers[id(value)][1])

    def restore():
        for module, attr, value in saved:
            setattr(module, attr, value)

    return restore
