"""Span recorder and call-site patching for the benchmark.

The program is measured from outside: each layer function is replaced, for
the duration of a traced run, by a wrapper that records a span (name, start,
end, parent span) and optional counters. Spans are kept in memory and
written out when the run ends.

Several functions are imported by name into other modules
(``from .diffusion import solve_T``), so patching only the defining module
would leave those calls untraced. :class:`Patcher` therefore replaces a
function at every place in the ``aotomo`` modules that holds it.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


class Recorder:
    """In-memory span store with per-name counters."""

    def __init__(self):
        self.active = True
        self.clear()

    def clear(self):
        """Forget every span and counter."""
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.counts = defaultdict(float)
        self._stack = []

    def open(self, name):
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(time.perf_counter())
        return i

    def close(self, i):
        self.ends[i] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        i = self.open(name)
        try:
            yield
        finally:
            self.close(i)

    @contextmanager
    def paused(self):
        """Calls made inside (output checks, say) record nothing."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def count(self, key, value=1.0):
        self.counts[key] += value

    def wrap(self, name, fn, tally=None):
        """Return ``fn`` wrapped in a span; ``tally(rec, name, args, out)``
        adds counters from a successful call. An exception counts as
        ``<name>.failures`` and propagates."""
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            i = rec.open(name)
            try:
                out = fn(*args, **kwargs)
            except Exception:
                rec.count(name + ".failures")
                raise
            finally:
                rec.close(i)
            if tally is not None:
                tally(rec, name, args, out)
            return out

        return traced

    def summary(self):
        """Per span name: calls, inclusive seconds and self seconds."""
        own = self_times(self.starts, self.ends, self.parents)
        out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for k, name in enumerate(self.names):
            row = out[name]
            row["calls"] += 1
            row["s"] += self.ends[k] - self.starts[k]
            row["self_s"] += own[k]
        return dict(out)

    def dump(self, path):
        """Write every span and counter as gzip-compressed JSON."""
        doc = {
            "columns": ["name", "start_s", "end_s", "parent"],
            "spans": [
                [n, s, e, p] for n, s, e, p in
                zip(self.names, self.starts, self.ends, self.parents)
            ],
            "counts": dict(self.counts),
        }
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh)


def self_times(starts, ends, parents):
    """Duration of each span minus the durations of its direct children.

    Spans are properly nested (one thread), so the children of a span cover
    disjoint parts of it and their durations add.
    """
    own = [e - s for s, e in zip(starts, ends)]
    for k, p in enumerate(parents):
        if p >= 0:
            own[p] -= ends[k] - starts[k]
    return own


class Patcher:
    """Replaces functions at every lookup site and restores them."""

    def __init__(self, package="aotomo"):
        self.package = package
        self._undo = []

    def _modules(self):
        prefix = self.package + "."
        return [m for name, m in list(sys.modules.items())
                if m is not None
                and (name == self.package or name.startswith(prefix))]

    def replace(self, owner, attr, make):
        """Replace ``owner.attr`` (a module function or a class method) by
        ``make(current)``; for a module function, every module of the
        package that holds the same object gets the replacement too."""
        old = owner.__dict__[attr]
        new = make(old)
        if isinstance(owner, type):
            self._undo.append((owner, attr, old))
            setattr(owner, attr, new)
            return new
        sites = 0
        for mod in self._modules():
            for key, value in list(vars(mod).items()):
                if value is old:
                    self._undo.append((mod, key, old))
                    setattr(mod, key, new)
                    sites += 1
        if sites == 0:
            raise LookupError(f"{owner.__name__}.{attr} has no lookup site")
        return new

    def restore(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)
