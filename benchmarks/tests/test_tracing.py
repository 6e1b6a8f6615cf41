import types

import pytest

from tracing import Tracer, covered_seconds, patched


class FakeClock:
    """Advances only when told to, so span arithmetic is exact."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_nested_children():
    clock = FakeClock()
    tracer = Tracer(clock)

    def leaf(step):
        clock.now += step

    def middle():
        clock.now += 1.0
        tracer.span("leaf", leaf)(2.0)
        clock.now += 0.5
        tracer.span("leaf", leaf)(3.0)

    def outer():
        clock.now += 4.0
        tracer.span("middle", middle)()

    tracer.span("outer", outer)()
    names = [s.name for s in tracer.spans]
    assert names == ["outer", "middle", "leaf", "leaf"]
    assert [s.seconds for s in tracer.spans] == [10.5, 6.5, 2.0, 3.0]
    assert tracer.self_seconds() == [4.0, 1.5, 2.0, 3.0]
    assert [s.parent for s in tracer.spans] == [None, 0, 1, 1]
    assert tracer.enclosing(3, "outer") is tracer.spans[0]
    assert tracer.enclosing(0, "outer") is None


def test_covered_seconds_merges_overlaps():
    assert covered_seconds([]) == 0.0
    assert covered_seconds([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == 4.0
    assert covered_seconds([(0.0, 4.0), (1.0, 2.0)]) == 4.0


def test_span_wrapper_returns_the_same_object():
    grads = {"w": [1.0]}
    tracer = Tracer()
    wrapped = tracer.span("clip", lambda g, norm: g,
                          lambda args, kwargs, result: {"clipped": result is not args[0]})
    assert wrapped(grads, 1.0) is grads
    assert tracer.spans[0].attrs == {"clipped": False}
    counted = tracer.counter("sigmoid", lambda x: x)
    assert counted(grads) is grads
    assert tracer.counters["sigmoid"][0] == 1


def test_span_closes_when_the_call_raises():
    tracer = Tracer()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.span("boom", boom)()
    assert tracer.spans[0].end is not None
    tracer.span("after", lambda: None)()
    assert tracer.spans[1].parent is None


def test_patched_restores_attributes():
    module = types.SimpleNamespace(f=lambda: "original")
    with patched([(module, "f", lambda: "wrapped")]):
        assert module.f() == "wrapped"
    assert module.f() == "original"
    with pytest.raises(RuntimeError):
        with patched([(module, "f", lambda: "wrapped")]):
            raise RuntimeError
    assert module.f() == "original"
