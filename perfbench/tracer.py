"""Span tracer for the benchmark's traced runs.

Wrappers are installed from the benchmark's own files, at every module
attribute through which grassdist reaches a function (``from .x import f``
binds a second name), so nothing under ``src/`` changes.  Each call records a
span (name, start, end, parent) in flat in-memory arrays; self times are
computed from them after the run and the spans are written out at the end.
"""

from __future__ import annotations

import enum
import functools
import importlib
import inspect
import sys
import time
import types
from array import array

import numpy as np

# The package modules that are measured; ``corpus`` and ``errors`` are data.
LAYERS = ("io", "numerics", "subspace", "angles", "metrics", "exterior",
          "cli", "verify")

# Scalar helpers called in inner loops: counted, not spanned, so their cost
# stays in the caller's self time and the trace stays small.
COUNT_ONLY = frozenset({"numerics.clamp_cosine", "exterior.perm_sign"})


class Tracer:
    """Nested spans kept in memory, one array per field."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn, observe=None):
        """``fn`` wrapped so that each call records a span; ``observe(tracer,
        args, result)`` runs after the span closes, outside its time."""
        nid = self._intern(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    def counter(self, name: str, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def add(self, name: str, value: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def summary(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, summed self time in seconds).  A span's
        self time is its duration minus the durations of its direct children,
        which nest inside it without overlapping."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        children = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                               minlength=len(dur))
        own = dur - children
        k = len(self.names)
        calls = np.bincount(a["name_id"], minlength=k)
        self_s = np.bincount(a["name_id"], weights=own, minlength=k)
        return {name: (int(calls[i]), float(self_s[i]))
                for i, name in enumerate(self.names)}

    def write(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def _public_callables(module: types.ModuleType):
    """(qualified name, owner, attribute) for the module's public functions
    and the public methods of its non-enum classes."""
    layer = module.__name__.rsplit(".", 1)[-1]
    for attr, obj in vars(module).items():
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield f"{layer}.{attr}", module, attr
        elif inspect.isclass(obj) and not issubclass(obj, enum.Enum):
            for mattr, mobj in vars(obj).items():
                if mattr.startswith("_"):
                    continue
                if isinstance(mobj, (types.FunctionType, classmethod, staticmethod)):
                    yield f"{layer}.{obj.__name__}.{mattr}", obj, mattr


def _rewrap(original, wrap):
    if isinstance(original, classmethod):
        return classmethod(wrap(original.__func__))
    if isinstance(original, staticmethod):
        return staticmethod(wrap(original.__func__))
    return wrap(original)


class Installation:
    """The wrappers of one tracer, installed at every alias; ``uninstall``
    puts every original object back."""

    def __init__(self, tracer: Tracer, package: str = "grassdist",
                 observers: dict | None = None) -> None:
        observers = observers or {}
        modules = [importlib.import_module(f"{package}.{m}") for m in LAYERS]
        everywhere = [m for name, m in sorted(sys.modules.items())
                      if name == package or name.startswith(package + ".")]
        self.patched: list[tuple[object, str, object]] = []
        for module in modules:
            for name, owner, attr in _public_callables(module):
                original = vars(owner)[attr]
                if name in COUNT_ONLY:
                    wrap = functools.partial(tracer.counter, name)
                else:
                    wrap = functools.partial(tracer.span, name,
                                             observe=observers.get(name))
                wrapped = _rewrap(original, wrap)
                if owner is module:
                    targets = [(m, a) for m in everywhere
                               for a, obj in vars(m).items() if obj is original]
                else:
                    targets = [(owner, attr)]
                for target, alias in targets:
                    self.patched.append((target, alias, original))
                    setattr(target, alias, wrapped)
        # every SVD of the package goes through this attribute
        linalg = importlib.import_module("numpy.linalg")
        self.patched.append((linalg, "svd", linalg.svd))
        linalg.svd = tracer.span("numpy.linalg.svd", linalg.svd)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self.patched):
            setattr(target, attr, original)
        self.patched = []
