"""In-memory spans for the traced run.

A span records its name, start, end, parent span and op id.  Spans are
kept in a list while the run goes and written out when it ends; a span's
self time is its duration minus the time its child spans cover.

``instrument`` times the library's public functions from outside: while
it is active, every call to a listed function, from the benchmark or from
inside the library, is a span.
"""

import functools
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

_NO_SPAN = nullcontext()


class NullTracer:
    """Stands in for Tracer in untraced runs; a span costs one method call."""

    def span(self, name):
        return _NO_SPAN


class _Span:
    __slots__ = ("tracer", "index", "record")

    def __init__(self, tracer, index, record):
        self.tracer = tracer
        self.index = index
        self.record = record

    def __enter__(self):
        self.tracer.stack.append(self.index)
        self.record[1] = time.perf_counter()

    def __exit__(self, *exc):
        self.record[2] = time.perf_counter()
        self.tracer.stack.pop()
        return False


class Tracer:
    def __init__(self):
        self.records = []  # [name, start, end, parent index or -1, op id]
        self.stack = []
        self.op = None

    def span(self, name):
        parent = self.stack[-1] if self.stack else -1
        record = [name, 0.0, 0.0, parent, self.op]
        self.records.append(record)
        return _Span(self, len(self.records) - 1, record)

    def self_times(self):
        """Span name -> list of self times in seconds, one per span."""
        covered = defaultdict(float)
        for name, start, end, parent, _ in self.records:
            if parent >= 0:
                covered[parent] += end - start
        out = defaultdict(list)
        for i, (name, start, end, _, _) in enumerate(self.records):
            out[name].append(end - start - covered[i])
        return out

    def durations(self, name):
        """Durations of the spans called ``name``."""
        return [end - start for n, start, end, _, _ in self.records if n == name]

    def write(self, path):
        with open(path, "w") as fh:
            json.dump([{"name": n, "start": s, "end": e, "parent": p, "op": o}
                       for n, s, e, p, o in self.records], fh)


@contextmanager
def instrument(tracer, names):
    """Make every call to the functions ``names`` ("module.function" in
    the dualcurve package) a span of ``tracer`` named the same, and undo it
    on exit.

    Each module of the package that holds a listed function, under any
    name, gets the timed wrapper, so calls from one layer into another are
    spans too.
    """
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "dualcurve" or name.startswith("dualcurve."))]
    patched = []
    for name in names:
        module, attr = name.rsplit(".", 1)
        original = getattr(sys.modules[f"dualcurve.{module}"], attr)
        timed = _timed(tracer, name, original)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, timed)
                    patched.append((m, key, original))
    try:
        yield
    finally:
        for m, key, original in patched:
            setattr(m, key, original)


def _timed(tracer, name, fn):
    @functools.wraps(fn)
    def timed(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)
    return timed
