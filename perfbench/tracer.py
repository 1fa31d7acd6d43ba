"""Spans around ``sst``'s public functions, recorded from outside the package.

Each named public function (``"argmax.solve_map"`` is ``solve_map`` of
``sst.argmax``) is wrapped once, and the wrapper is written over the
original under every name that holds it in any loaded ``sst`` module
(``sst.cli.solve_map``, ``sst.verify.solve_map``, ``sst.solve_map`` ...),
so calls between modules and within a module both pass through it.
Functions left unwrapped count toward their caller's self time.  Spans are kept in memory: name, parent span, start,
end, the timed call they belong to, and whether they raised.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import defaultdict

class Tracer:
    def __init__(self):
        self.active = False
        self.names = []  # span name per span
        self.parent = []  # parent span index or -1
        self.start = []
        self.end = []
        self.call = []  # index of the timed call the span ran in
        self.raised = []  # exception type name, or ""
        self._stack = []
        self.call_index = 0

    # -- patching -------------------------------------------------------------

    def install(self, span_names):
        """Wrap the functions named ``layer.function``, in every sst module."""
        originals = {}
        for span_name in span_names:
            layer, name = span_name.split(".")
            fn = getattr(sys.modules[f"sst.{layer}"], name)
            originals[id(fn)] = (fn, self._wrap(fn, span_name))
        for key, mod in list(sys.modules.items()):
            if key != "sst" and not key.startswith("sst."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])

    def _wrap(self, fn, span_name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(tracer.names)
            tracer.names.append(span_name)
            tracer.parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.call.append(tracer.call_index)
            tracer.raised.append("")
            tracer.end.append(0.0)
            tracer._stack.append(idx)
            tracer.start.append(time.perf_counter())
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                tracer.raised[idx] = type(exc).__name__
                raise
            finally:
                tracer.end[idx] = time.perf_counter()
                tracer._stack.pop()

        return wrapper

    # -- aggregation ----------------------------------------------------------

    def summary(self, factors):
        """Per span name: calls, failures and normalized self time.

        ``factors[i]`` is the normalization factor of timed call ``i``.
        Also counts child calls per parent name, keyed ``(parent, child)``.
        """
        n = len(self.names)
        child_s = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_s[p] += self.end[i] - self.start[i]
        calls = defaultdict(int)
        failed = defaultdict(int)
        self_s = defaultdict(float)
        children = defaultdict(int)
        for i in range(n):
            name = self.names[i]
            calls[name] += 1
            if self.raised[i]:
                failed[name] += 1
            self_s[name] += (self.end[i] - self.start[i] - child_s[i]) * factors[self.call[i]]
            p = self.parent[i]
            if p >= 0:
                children[(self.names[p], name)] += 1
        return calls, failed, self_s, children

    def write(self, path):
        """Write the spans as gzipped JSON lines, one span per line."""
        with gzip.open(path, "wt") as fh:
            for i in range(len(self.names)):
                fh.write(json.dumps({
                    "span": i, "name": self.names[i], "parent": self.parent[i],
                    "call": self.call[i], "start": self.start[i], "end": self.end[i],
                    "raised": self.raised[i],
                }) + "\n")
