"""Tests for the benchmark's span and percentile helpers.

    python3 -m pytest -q bench/test_spans.py
"""

import itertools
import random
import types

import numpy as np
import pytest

from spans import Tracer, percentile


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.mark.parametrize("values,q,want", [
    ([1.0, 2.0, 3.0, 4.0], 50, 2.5),
    ([1.0, 2.0, 3.0, 4.0], 0, 1.0),
    ([1.0, 2.0, 3.0, 4.0], 100, 4.0),
    (list(range(1, 12)), 90, 10.0),
    ([7.0], 90, 7.0),
    ([3.0, 1.0, 2.0], 50, 2.0),
])
def test_percentile_known_values(values, q, want):
    assert percentile(values, q) == pytest.approx(want)


def test_percentile_matches_numpy():
    rng = random.Random(3)
    for n in (2, 9, 100, 101):
        xs = [rng.random() for _ in range(n)]
        for q in (10, 50, 90, 99):
            assert percentile(xs, q) == pytest.approx(float(np.percentile(xs, q)))


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_self_time_subtracts_children_and_gc():
    clock = FakeClock()
    tr = Tracer(clock=clock)
    with tr.span("outer"):
        clock.now = 2.0
        with tr.span("inner"):
            clock.now = 3.0
            tr._on_gc("start", {"generation": 2})
            clock.now = 4.0
            tr._on_gc("stop", {"generation": 2})
            clock.now = 5.0
        clock.now = 10.0
    s = tr.summary()
    assert s["outer"]["wall_s"] == 10.0
    assert s["outer"]["self_s"] == 7.0
    assert s["outer"]["gc_s"] == 1.0
    assert s["inner"]["wall_s"] == 3.0
    assert s["inner"]["self_s"] == 2.0
    assert s["inner"]["gc_s"] == 1.0
    assert tr.gc_collections == [0, 0, 1]
    assert tr.durations("inner") == [2.0]
    # spans' self times plus GC account for the root's wall time
    assert s["outer"]["self_s"] + s["inner"]["self_s"] + s["outer"]["gc_s"] == s["outer"]["wall_s"]


def test_node_counts_exclude_probe_ids():
    ids = itertools.count()
    tr = Tracer(node_probe=lambda: next(ids))

    def make_nodes(k):
        for _ in range(k):
            next(ids)

    with tr.span("outer"):
        make_nodes(3)
        for _ in range(2):
            with tr.span("inner"):
                make_nodes(5)
        make_nodes(1)
    s = tr.summary()
    assert s["inner"]["calls"] == 2
    assert s["inner"]["nodes"] == 10
    assert s["outer"]["nodes"] == 14


def test_node_counts_absent_when_engine_has_no_ids():
    def probe():
        raise AttributeError("_id")

    tr = Tracer(node_probe=probe)
    with tr.span("a"):
        pass
    assert tr.summary()["a"]["nodes"] is None


def test_wrapped_attributes_are_traced_and_restored():
    def double(x):
        return 2 * x

    def boom():
        raise KeyError("x")

    mod = types.SimpleNamespace(double=double, boom=boom)
    tr = Tracer()
    assert tr.add(mod, "double", "mod.double")
    assert tr.add(mod, "boom", "mod.boom")
    assert not tr.add(mod, "missing", "mod.missing")
    with tr.active():
        assert mod.double(4) == 8
        with pytest.raises(KeyError):
            mod.boom()
    assert mod.double is double and mod.boom is boom
    s = tr.summary()
    assert s["mod.double"]["calls"] == 1
    assert s["mod.boom"]["calls"] == 1
    assert len(tr.durations("mod.double")) == 1
