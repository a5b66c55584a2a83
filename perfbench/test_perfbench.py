"""Tests of the benchmark's own arithmetic: the percentile rule and span self
time.  Run from the repository root with ``python -m pytest perfbench``."""

import sys
from pathlib import Path

import pytest

from run import Outcome, best_times, identity_problems, percentile, rank, run_pass, tail_percentile
from tracing import Tracer
from workloads import Op, Plan

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


@pytest.mark.parametrize(
    "n, q",
    [(1000, 90), (100, 90), (99, 89), (38, 73), (27, 62), (20, 50), (19, None), (1, None)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, q):
    assert tail_percentile(n) == q


@pytest.mark.parametrize("n", range(20, 260))
def test_tail_percentile_is_the_highest_that_qualifies(n):
    q = tail_percentile(n)
    values = list(range(n))
    assert sum(v > percentile(values, q) for v in values) >= 10
    if q < 90:
        assert n - rank(n, q + 1) < 10


def test_nearest_rank_percentile():
    values = [5, 1, 4, 2, 3]
    assert percentile(values, 50) == 3
    assert percentile(values, 100) == 5
    assert percentile(values, 1) == 1
    assert percentile(list(range(1, 101)), 90) == 90


def test_best_times_keeps_each_requests_fastest_pass():
    outcomes = [Outcome(label, seconds, 0, None, None)
                for label, seconds in [("a", 3.0), ("b", 1.0), ("a", 2.0), ("b", 4.0), ("a", 5.0)]]
    assert best_times(outcomes) == {"a": 2.0, "b": 1.0}


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def tick(self, seconds):
        self.now += seconds


def test_self_time_subtracts_direct_children_only():
    clock = FakeClock()
    tracer = Tracer(clock)
    outer = tracer.open("outer")
    clock.tick(1.0)
    child = tracer.open("child")
    clock.tick(2.0)
    grandchild = tracer.open("grandchild")
    clock.tick(4.0)
    tracer.close(grandchild)
    clock.tick(0.5)
    tracer.close(child)
    clock.tick(0.25)
    second = tracer.open("child")
    clock.tick(3.0)
    tracer.close(second)
    tracer.close(outer)

    spans = tracer.spans
    assert spans["grandchild"].total_s == spans["grandchild"].self_s == 4.0
    assert spans["child"].calls == 2
    assert spans["child"].total_s == 6.5 + 3.0
    assert spans["child"].self_s == 2.5 + 3.0
    assert spans["outer"].total_s == 10.75
    assert spans["outer"].self_s == 10.75 - 9.5


def test_wrapped_call_closes_its_span_when_it_raises():
    clock = FakeClock()
    tracer = Tracer(clock)

    def boom():
        clock.tick(1.5)
        raise ValueError("no")

    with pytest.raises(ValueError):
        tracer.wrap(boom, "boom")()
    assert tracer.spans["boom"].calls == 1
    assert tracer.spans["boom"].self_s == 1.5
    assert not tracer._stack


def test_traced_census_counts_add_up_and_bindings_are_restored(tmp_path):
    import necfix.cli

    rows = len(necfix.run_census(4, 6)[0])
    path = tmp_path / "rows.csv"
    argv = ("census", "--order", "4", "--max-genus", "6", "--format", "csv", "--output", str(path))
    op = Op("census M=4", argv, lambda code, _out: f"{code} {path.read_text().splitlines()[-1]}", rows)
    plan = Plan((op,), (op,), accepted=rows)
    original = necfix.census.validate
    reference = run_pass(necfix, plan.ops)
    tracer = Tracer()
    with tracer.installed(necfix):
        assert necfix.census.validate is not original
        traced = run_pass(necfix, plan.traced_ops)
    assert necfix.census.validate is original

    assert identity_problems(plan, tracer, traced, reference) == []
    counts = tracer.counts
    assert counts["census.rows"] == rows > 0
    assert counts["census.candidates"] > rows
    metrics = tracer.metrics()
    assert metrics["epimorphism.validate.calls"] == counts["census.candidates"] + rows
    assert 0 < metrics["cli.self.s"] < metrics["cli.main.s"]
