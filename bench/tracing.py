"""Spans around the public functions of quonalg's layers, recorded from outside.

A traced pass replaces each public function of every layer module with a
wrapper, in every module namespace that holds it (the defining module, each
module that imported the name, and the package itself), so calls between
layers are seen wherever they are made.  Each call records one span
``(name, start, end, parent, task)``: ``parent`` is the index of the
enclosing span or -1, ``task`` the benchmark task it belongs to.  Spans stay
in memory and are written once the run ends.

Names called millions of times per pass are left unwrapped (``HOT``); their
cost lands in the self time of the wrapped caller.
"""

from __future__ import annotations

import gzip
import sys
import time
from contextlib import contextmanager

LAYERS = (
    "exact_arith",
    "colored_perm",
    "group_algebra",
    "quon_engine",
    "gram",
    "formulas",
    "linalg",
    "posdef",
    "cli",
)

# Inner-loop helpers: per group element, per matrix entry or per annihilator step.
HOT = frozenset({"act", "compose", "cinv", "color_mismatch"})


def self_times(spans):
    """Per span name, ``(calls, self seconds)``.

    A span's self time is its duration minus the durations of its direct
    children; children never overlap, because calls nest.
    """
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        calls, total = out.get(name, (0, 0.0))
        out[name] = (calls + 1, total + (end - start) - child[i])
    return out


class Tracer:
    """Records spans; ``capture`` names spans whose return values are kept."""

    def __init__(self, capture=()):
        self.spans = []
        self.task = -1
        self.captured = {name: [] for name in capture}
        self._stack = []
        self._patches = []

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        spans, stack = self.spans, self._stack
        index = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(index)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            spans[index] = (name, start, end, parent, self.task)
        kept = self.captured.get(name)
        if kept is not None:
            kept.append(result)
        return result

    def _wrapper(self, name, fn):
        call = self.call
        if name == "gram.build_gram":

            def wrapper(*args, **kwargs):
                path = kwargs.get("path", args[2] if len(args) > 2 else "operator")
                return call(f"{name}.{path}", fn, *args, **kwargs)

        else:

            def wrapper(*args, **kwargs):
                return call(name, fn, *args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def installed(self, package):
        """Wrap the layers of an imported ``package`` for the ``with`` body."""
        prefix = package.__name__
        modules = [package] + [
            sys.modules[f"{prefix}.{layer}"]
            for layer in LAYERS
            if f"{prefix}.{layer}" in sys.modules
        ]
        wrappers = {}
        for module in modules[1:]:
            layer = module.__name__.rpartition(".")[2]
            for attr, obj in vars(module).items():
                if (
                    not attr.startswith("_")
                    and attr not in HOT
                    and callable(obj)
                    and not isinstance(obj, type)
                    and getattr(obj, "__module__", None) == module.__name__
                ):
                    wrappers[id(obj)] = self._wrapper(f"{layer}.{attr}", obj)
        try:
            for module in modules:
                for attr, obj in list(vars(module).items()):
                    wrapper = wrappers.get(id(obj))
                    if wrapper is not None:
                        setattr(module, attr, wrapper)
                        self._patches.append((module, attr, obj))
            yield self
        finally:
            while self._patches:
                module, attr, obj = self._patches.pop()
                setattr(module, attr, obj)

    def write(self, path):
        """Write the spans as gzip'd tab-separated lines, one span a line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("index\tname\tstart\tend\tparent\ttask\n")
            for i, (name, start, end, parent, task) in enumerate(self.spans):
                out.write(f"{i}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{task}\n")
