"""In-memory timing spans for the benchmark's traced runs.

A Tracer replaces module or class attributes with wrappers, so that every
call records one span: its name, start, end, the span that was open when it
began (its parent), the graph nodes created inside it and the garbage
collector pauses that hit it directly. Spans live in flat typed arrays,
which the garbage collector does not scan, so tracing adds little to the
pauses it measures.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import time
from array import array


def percentile(values, q):
    """The q-th percentile (0..100) by linear interpolation between the
    closest ranks, the same rule as numpy's default."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile: no values")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile: q={q} outside [0, 100]")
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


class Tracer:
    """Records spans while active; summarises them per name afterwards.

    node_probe, if given, is a callable returning the id the graph engine
    gives its next node. A span's node count is the difference of two probes
    taken around it, less the ids the probes themselves consumed. If the
    probe fails or returns something other than an int, node counts are
    absent (None), never zero.
    """

    def __init__(self, clock=time.perf_counter, node_probe=None, gc_pauses=True):
        self._clock = clock
        self._probe = node_probe if node_probe is not None and self._probe_works(node_probe) else None
        self._gc_pauses = gc_pauses
        self._names = []
        self._name_ids = {}
        self._targets = []
        self._stack = []
        self._marks = []
        self._probes = 0
        self._gc_t0 = None
        self.gc_collections = [0, 0, 0]
        self.name = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.gc_own = array("d")
        self.nodes = array("q")

    @staticmethod
    def _probe_works(probe):
        try:
            return isinstance(probe(), int)
        except (AttributeError, TypeError):
            return False

    def _mark(self):
        if self._probe is None:
            return None
        self._probes += 1
        return self._probe()

    def _open(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self._names)
            self._names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self.gc_own.append(0.0)
        self.nodes.append(-1)
        node0 = self._mark()
        self._marks.append((node0, self._probes))
        self._stack.append(idx)
        self.start.append(self._clock())
        return idx

    def _close(self, idx):
        self.end[idx] = self._clock()
        self._stack.pop()
        node0, probes0 = self._marks.pop()
        if node0 is not None:
            inner_probes = self._probes - probes0
            node1 = self._mark()
            self.nodes[idx] = node1 - node0 - 1 - inner_probes

    @contextlib.contextmanager
    def span(self, name):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def add(self, owner, attr, name):
        """Register owner.attr to be wrapped while the tracer is active.
        Returns False, and wraps nothing, if the attribute does not exist."""
        original = getattr(owner, attr, None)
        if original is None:
            return False
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                return original(*args, **kwargs)
            finally:
                tracer._close(idx)

        self._targets.append((owner, attr, original, traced))
        return True

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_t0 = self._clock()
            return
        if self._gc_t0 is None:
            return
        pause = self._clock() - self._gc_t0
        self._gc_t0 = None
        self.gc_collections[info["generation"]] += 1
        if self._stack:
            self.gc_own[self._stack[-1]] += pause

    @contextlib.contextmanager
    def active(self):
        """Install the wrappers (and the GC callback) for the block."""
        for owner, attr, _, traced in self._targets:
            setattr(owner, attr, traced)
        if self._gc_pauses:
            gc.callbacks.append(self._on_gc)
        try:
            yield self
        finally:
            if self._gc_pauses:
                gc.callbacks.remove(self._on_gc)
                self._gc_t0 = None
            for owner, attr, original, _ in reversed(self._targets):
                setattr(owner, attr, original)

    def durations(self, name):
        """Seconds of every span with this name, in call order: wall time
        less the GC pauses that hit the span directly."""
        nid = self._name_ids.get(name)
        return [self.end[i] - self.start[i] - self.gc_own[i] for i in range(len(self.start)) if self.name[i] == nid]

    def summary(self):
        """Per name: calls, wall_s (inclusive), self_s (wall less children
        and less GC pauses that hit the span itself), gc_s (GC pauses inside
        the span, children included) and nodes (inclusive, or None)."""
        n = len(self.start)
        child = [0.0] * n
        gc_incl = list(self.gc_own)
        # a child always opens after its parent, so a reverse sweep sees
        # every child before its parent
        for i in range(n - 1, -1, -1):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
                gc_incl[p] += gc_incl[i]
        out = {}
        for i in range(n):
            wall = self.end[i] - self.start[i]
            s = out.setdefault(self._names[self.name[i]],
                               {"calls": 0, "wall_s": 0.0, "self_s": 0.0, "gc_s": 0.0, "nodes": 0})
            s["calls"] += 1
            s["wall_s"] += wall
            s["self_s"] += wall - child[i] - self.gc_own[i]
            s["gc_s"] += gc_incl[i]
            if self.nodes[i] < 0:
                s["nodes"] = None
            elif s["nodes"] is not None:
                s["nodes"] += self.nodes[i]
        return out
