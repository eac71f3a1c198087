"""Span tracing: self time, the percentile rule, and restoring what it wraps."""

import inspect
import math
import sys

import pytest

import repro.harness.runner as runner_mod
from perfbench import layers, tracing
from perfbench.tracing import Target, Tracer, install, installed, tail_percentile
from perfbench.workloads import tail_latencies


class ScriptedClock:
    """Returns the scripted readings in order, one per call."""

    def __init__(self, readings):
        self.readings = iter(readings)

    def __call__(self):
        return next(self.readings)


class Toy:
    def outer(self):
        self.inner(None)
        self.zero()
        self.inner(7)

    def inner(self, request):
        if request is not None:
            self.leaf()

    def zero(self):
        pass

    def leaf(self):
        pass


def toy_targets():
    return [
        Target(Toy, "outer", "a"),
        Target(Toy, "inner", "b", request=("request", 1)),
        Target(Toy, "zero", "b"),
        Target(Toy, "leaf", "c", hot=True),
    ]


def test_self_time_nested_sibling_and_zero_length_spans():
    # outer [0, 10] holds inner [1, 3], zero [4, 4] and inner [5, 9], which
    # holds the hot leaf [6, 7].
    clock = ScriptedClock([0, 1, 3, 4, 4, 5, 6, 7, 9, 10])
    tracer = Tracer(clock)
    with installed(tracer, toy_targets()):
        Toy().outer()
    Toy().outer()  # restored: no clock reading, no span
    outer, first, zero, second = tracer.spans
    assert (outer.start, outer.end, outer.self_s) == (0, 10, 10 - 2 - 0 - 4)
    assert (first.self_s, zero.self_s, second.self_s) == (2, 0, 4 - 1)
    assert [s.parent for s in tracer.spans] == [-1, 0, 0, 0]
    assert [s.request for s in tracer.spans] == [None, None, None, 7]
    assert dict(tracer.aggregated) == {("Toy.leaf", "c", 3): [1, 1, 1]}
    assert tracer.self_seconds() == {"a": 4, "b": 5, "c": 1}
    assert tracer.counts() == {
        "Toy.outer": 1,
        "Toy.inner": 2,
        "Toy.zero": 1,
        "Toy.leaf": 1,
    }
    # Self times partition the root span.
    assert sum(tracer.self_seconds().values()) == outer.end - outer.start


def test_calls_past_the_span_budget_are_aggregated():
    tracer = Tracer(ScriptedClock([0, 1, 3, 4, 4, 5, 6, 7, 9, 10]), max_spans=2)
    with installed(tracer, toy_targets()):
        Toy().outer()
    assert [s.name for s in tracer.spans] == ["Toy.outer", "Toy.inner"]
    assert dict(tracer.aggregated) == {
        ("Toy.zero", "b", 0): [1, 0, 0],
        ("Toy.inner", "b", 0): [1, 4, 3],
        ("Toy.leaf", "c", 0): [1, 1, 1],
    }
    assert tracer.self_seconds() == {"a": 4, "b": 5, "c": 1}


class Boom(Exception):
    pass


class Faulty:
    def fail(self):
        raise Boom

    def fine(self):
        pass


def test_a_raising_call_closes_its_span():
    tracer = Tracer(ScriptedClock([0, 2, 3, 3]))
    targets = [Target(Faulty, "fail", "b"), Target(Faulty, "fine", "b")]
    with installed(tracer, targets):
        with pytest.raises(Boom):
            Faulty().fail()
        Faulty().fine()
    failed, after = tracer.spans
    assert (failed.start, failed.end, failed.self_s) == (0, 2, 2)
    assert after.parent == -1  # the failed call no longer encloses anything


@pytest.mark.parametrize(
    "count, expected",
    [(19, None), (20, 50), (96, 89), (100, 90), (999, 98), (1000, 99), (5000, 99)],
)
def test_tail_percentile_keeps_ten_samples_beyond(count, expected):
    q = tail_percentile(count)
    assert q == expected
    if q is not None:
        assert count * (100 - q) / 100 >= 10
        assert q == 99 or count * (100 - (q + 1)) / 100 < 10


def test_tail_latencies_reports_the_supported_percentile_and_failures():
    values = [float(v) for v in range(1, 1001)]
    p50, tail, q = tail_latencies(values)
    assert (q, p50) == (99, 500.5)
    assert tail == pytest.approx(990.01)
    # Eleven failed requests reach the p99 rank: the tail is missing.
    failed = values[:-11] + [math.inf] * 11
    assert tail_latencies(failed)[1] == math.inf
    assert tail_latencies(failed)[0] == 500.5
    with pytest.raises(ValueError):
        tail_latencies(values[:19])


def test_traced_run_restores_every_wrapped_function():
    targets = layers.targets(layers.Counters())
    before = {
        (id(t.owner), t.attr): inspect.getattr_static(t.owner, t.attr)
        for t in targets
    }
    copies = {
        name: module.load_split
        for name, module in sys.modules.items()
        if name.startswith("repro") and hasattr(module, "load_split")
    }
    assert len(copies) >= 2  # the runner and the modules importing it

    tracer = Tracer()
    with installed(tracer, targets):
        assert runner_mod.load_split is not before[(id(runner_mod), "load_split")]
        for name in copies:
            assert sys.modules[name].load_split.__wrapped__ is copies[name]
    for target in targets:
        raw = inspect.getattr_static(target.owner, target.attr)
        assert raw is before[(id(target.owner), target.attr)]
    for name, original in copies.items():
        assert sys.modules[name].load_split is original


def test_install_undoes_partial_patches_on_error():
    bad = Target(Toy, "missing", "b")
    before = inspect.getattr_static(Toy, "outer")
    with pytest.raises(AttributeError):
        install(Tracer(), [Target(Toy, "outer", "a"), bad])
    assert inspect.getattr_static(Toy, "outer") is before


def test_classmethods_stay_classmethods():
    from repro.serving import ServeReport

    raw = inspect.getattr_static(ServeReport, "from_records")
    patches = install(Tracer(), [Target(ServeReport, "from_records", "r")])
    try:
        wrapped = inspect.getattr_static(ServeReport, "from_records")
        assert isinstance(wrapped, classmethod)
    finally:
        tracing.restore(patches)
    assert inspect.getattr_static(ServeReport, "from_records") is raw
