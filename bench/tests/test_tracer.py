import types

import pytest

from tracer import Span, Tracer, percentile, root_totals, self_times, summarize


def hand_built_tree():
    #  root [0, 10]
    #    a [1, 4]
    #      a1 [2, 3]
    #    b [5, 9]
    #  other [20, 21]
    return [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0, {"rows": 3}),
        Span("a1", 2.0, 3.0, 1),
        Span("b", 5.0, 9.0, 0),
        Span("a", 20.0, 21.0, -1, {"rows": 2}),
    ]


def test_self_time_is_duration_minus_direct_children():
    assert self_times(hand_built_tree()) == [3.0, 2.0, 1.0, 4.0, 1.0]


def test_self_times_under_each_root_add_up_to_its_duration():
    spans = hand_built_tree()
    assert root_totals(spans, self_times(spans)) == {0: 10.0, 4: 1.0}


def test_summary_groups_by_name():
    summary = summarize(hand_built_tree())
    assert summary["a"]["calls"] == 2
    assert summary["a"]["self_s"] == 3.0
    assert summary["a"]["total_s"] == 4.0
    assert summary["a"]["counts"] == {"rows": 5}
    assert sorted(summary["a"]["durations"]) == [1.0, 3.0]


def test_spans_nest_by_what_is_open():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    with tracer.span("outer"):
        with tracer.span("inner", rows=4):
            tracer.count("rows", 2)
        with tracer.span("second"):
            pass
    assert [(s.name, s.parent) for s in tracer.spans] == [
        ("outer", -1), ("inner", 0), ("second", 0)]
    assert tracer.spans[1].counts == {"rows": 6}
    assert [s.duration for s in tracer.spans] == [5.0, 1.0, 1.0]


def test_wrap_returns_the_result_unchanged_and_restore_undoes_it():
    module = types.ModuleType("fake")
    payload = {"x": [1, 2]}

    def produce(a, b=1):
        return payload

    module.produce = produce
    tracer = Tracer()
    tracer.wrap(module, "produce", "fake.produce", lambda args, kwargs, r: {"n": args[0]})
    assert module.produce(7, b=2) is payload
    assert module.produce.__name__ == "produce"
    assert [(s.name, s.counts) for s in tracer.spans] == [("fake.produce", {"n": 7})]
    tracer.restore()
    assert module.produce is produce


def test_wrapped_exception_propagates_and_closes_the_span():
    module = types.ModuleType("fake")

    def boom():
        raise KeyError("x")

    module.boom = boom
    tracer = Tracer()
    tracer.wrap(module, "boom", "fake.boom")
    with pytest.raises(KeyError):
        with tracer.span("outer"):
            module.boom()
    assert tracer.spans[1].parent == 0
    assert tracer.spans[1].end >= tracer.spans[1].start > 0
    assert tracer._open == []
    tracer.restore()


def test_wrap_patches_a_class_attribute():
    class Pool:
        def __init__(self, n):
            self.n = n

    original = Pool.__init__
    tracer = Tracer()
    tracer.wrap(Pool, "__init__", "Pool")
    assert Pool(3).n == 3
    assert [s.name for s in tracer.spans] == ["Pool"]
    tracer.restore()
    assert Pool.__init__ is original


def test_wrap_refuses_an_attribute_the_owner_does_not_define():
    class Base:
        def f(self):
            return 1

    class Child(Base):
        pass

    with pytest.raises(KeyError):
        Tracer().wrap(Child, "f", "Child.f")


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(1, 101)]
    assert percentile(values, 50) == 50.0
    assert percentile(values, 99) == 99.0
    assert percentile([4.0], 99) == 4.0
