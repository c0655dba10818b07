"""Measurement helpers for the strnn benchmark: spans, self time, tail
percentiles and the per-operation correctness gate.

Everything here is plain Python so that ``bench/tests`` can check the
arithmetic without running a workload.
"""

import functools
import inspect
import json
import math
import statistics
import time
from collections import defaultdict


# ---------------------------------------------------------------------------
# Order statistics


def median(values):
    return statistics.median(values) if values else float("nan")


def tail(values, beyond=10):
    """The highest percentile that still has ``beyond`` samples above it.

    The sample of rank r (1-based, ascending) is the 100*r/n percentile and
    has n - r samples beyond it, so the answer is rank n - beyond.  Returns
    (value, percentile, samples_beyond, n).  With n <= beyond no sample
    qualifies; the maximum is returned with its true count beyond (0).
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return float("nan"), float("nan"), 0, 0
    rank = n - beyond if n > beyond else n
    return ordered[rank - 1], 100.0 * rank / n, n - rank, n


# ---------------------------------------------------------------------------
# Correctness gate


class Gate:
    """Counts operations and the ones that failed, with a reason for each.

    ``repeat(key, value)`` fails an operation whose deterministic output is
    non-finite or differs bitwise from the first value seen under ``key``.
    """

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self._first = {}

    def record(self, op, reasons):
        """Count one operation; ``reasons`` lists what was wrong with it."""
        self.attempted += 1
        if reasons:
            self.failures.append((op, list(reasons)))

    @property
    def failed(self):
        return len(self.failures)

    def repeat(self, key, value):
        """Return the reasons ``value`` is not an acceptable repeat of ``key``."""
        value = float(value)
        if not math.isfinite(value):
            return [f"{key} is not finite: {value!r}"]
        first = self._first.setdefault(key, value)
        if first.hex() != value.hex():
            return [f"{key} changed between repeats: {first!r} -> {value!r}"]
        return []


# ---------------------------------------------------------------------------
# Spans


class Tracer:
    """In-memory span recorder installed by wrapping functions from outside.

    Each span is (name, start, end, parent span index, request id), stored
    column-wise.  Wrappers cost one flag test while ``active`` is false.
    ``hooks[name](args)`` runs before a traced call, for counters that need
    the call's arguments.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.active = False
        self.request = None
        self.names = []
        self.start = []
        self.end = []
        self.parent = []
        self.req = []
        self.hooks = {}
        self.counters = defaultdict(int)
        self._stack = []

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            hook = self.hooks.get(name)
            if hook is not None:
                hook(args)
            idx = len(self.names)
            self.names.append(name)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.req.append(self.request)
            self.end.append(0.0)
            self.start.append(0.0)
            self._stack.append(idx)
            self.start[idx] = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = self.clock()
                self._stack.pop()
        return traced

    def instrument(self, module, skip=()):
        """Wrap the public functions and methods defined in ``module``.

        Spans are named ``<module>.<qualname>`` with the package prefix
        dropped, e.g. ``neural.MaskedMLP.forward``.  Properties, dunders,
        private names and qualnames in ``skip`` are left alone.  Returns the
        wrapped names.
        """
        short = module.__name__.rsplit(".", 1)[-1]
        done = []
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                name = f"{short}.{attr}"
                if attr not in skip:
                    setattr(module, attr, self.wrap(name, obj))
                    done.append(name)
            elif inspect.isclass(obj):
                for meth, raw in list(vars(obj).items()):
                    qual = f"{attr}.{meth}"
                    if meth.startswith("_") or qual in skip:
                        continue
                    name = f"{short}.{qual}"
                    if isinstance(raw, classmethod):
                        setattr(obj, meth, classmethod(self.wrap(name, raw.__func__)))
                    elif inspect.isfunction(raw):
                        setattr(obj, meth, self.wrap(name, raw))
                    else:
                        continue
                    done.append(name)
        return done

    def spans(self):
        return list(zip(self.names, self.start, self.end, self.parent, self.req))

    def dump(self, path, t0=0.0):
        """Write the spans as JSON columns (times relative to ``t0``)."""
        table = sorted(set(self.names))
        index = {n: i for i, n in enumerate(table)}
        payload = {
            "names": table,
            "columns": ["name", "start_s", "end_s", "parent", "request"],
            "spans": [[index[n], s - t0, e - t0, p, r]
                      for n, s, e, p, r in self.spans()],
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Per-span self time: duration minus the part its children cover.

    ``spans`` is a list of (name, start, end, parent, request) tuples whose
    parent is an index into the same list or -1.
    """
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    return [(s[2] - s[1]) - _covered(kids, s[1], s[2])
            for s, kids in zip(spans, children)]


def descendant_counts(spans, ancestor, descendant):
    """For every span named ``ancestor``, the number of spans named
    ``descendant`` below it (at any depth).  Returns a list, one per ancestor
    span, in span order."""
    counts = {i: 0 for i, s in enumerate(spans) if s[0] == ancestor}
    for s in spans:
        if s[0] != descendant:
            continue
        p = s[3]
        while p >= 0:
            if p in counts:
                counts[p] += 1
            p = spans[p][3]
    return [counts[i] for i in sorted(counts)]
