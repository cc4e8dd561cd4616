"""Tests of the benchmark's own accounting, gate and names.

Run from the repository root:  python3 -m pytest perfbench
"""

import dataclasses
import json
import os
import re

import pytest

import run  # puts src/ on sys.path
from gate import GateError, check, due_arrivals
from layers import LAYERS, install
from tracer import Tracer, root_time, self_times
from workloads import SETTLE, WHY, WORKLOADS, build

NAME = re.compile(r"[A-Za-z0-9_.-]+")


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def tick(self, seconds):
        self.now += seconds


def synthetic_tree(tracer, clock):
    """a(4 s own) -> b(3 s own) -> c(5 s); a -> c(5 s); a -> a2 (in-layer, 1 s)."""
    def c():
        clock.tick(5)

    def b():
        clock.tick(3)
        c_traced()

    def a2():
        clock.tick(1)

    def a():
        clock.tick(1)
        b_traced()
        clock.tick(2)
        c_traced()
        a2_traced()
        clock.tick(1)

    c_traced = tracer.wrap(c, "C", "C:c")
    b_traced = tracer.wrap(b, "B", "B:b")
    a2_traced = tracer.wrap(a2, "A", "A:a2")
    return tracer.wrap(a, "A", "A:a")


def test_self_time_of_a_synthetic_nested_tree():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    synthetic_tree(tracer, clock)()
    assert tracer.layer_self() == {"A": 5.0, "B": 3.0, "C": 10.0}
    # The in-layer call is counted but opens no span.
    assert tracer.calls() == {"A:a": 1, "A:a2": 1, "B:b": 1, "C:c": 2}
    assert tracer.span_count == 4
    assert self_times(tracer.spans) == tracer.layer_self()
    assert root_time(tracer.spans) == clock.now == 18.0
    assert tracer.layer is None


def test_explicit_spans_nest_with_wrapped_calls():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    inner = tracer.wrap(lambda: clock.tick(2), "B", "B:inner")
    tracer.enter("A", "A:outer")
    clock.tick(1)
    inner()
    tracer.exit()
    assert tracer.layer_self() == {"A": 1.0, "B": 2.0}
    assert self_times(tracer.spans) == tracer.layer_self()


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def fail():
        clock.tick(1)
        raise ValueError("boom")

    with pytest.raises(ValueError):
        tracer.wrap(fail, "A", "A:fail")()
    assert tracer.layer is None
    assert tracer.layer_self() == {"A": 1.0}
    tracer.reset()  # raises while a span is still open


def test_tracer_cost_correction_never_goes_negative():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    synthetic_tree(tracer, clock)()
    huge = {"call": 1.0, "callee": 1.0, "caller": 1.0}
    assert all(v >= 0.0 for v in tracer.corrected_self(huge).values())
    none = {"call": 0.0, "callee": 0.0, "caller": 0.0}
    assert tracer.corrected_self(none) == tracer.layer_self()


def short(name, duration=300.0):
    workload = WORKLOADS[name]
    return dataclasses.replace(
        workload, arrival=dataclasses.replace(workload.arrival, duration=duration),
        outage=None)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_real_traced_run_accounts_for_the_whole_wall_time(name):
    workload = short(name)
    tracer = Tracer(keep_spans=10_000_000)
    wall, _, system, engine, queue_peak, _ = run.traced_run(workload, 3, tracer)
    # Every span was kept, so the span list reproduces the online totals.
    recomputed = self_times(tracer.spans)
    for layer, seconds in tracer.layer_self().items():
        assert recomputed.get(layer, 0.0) == pytest.approx(seconds, abs=1e-9)
    assert root_time(tracer.spans) <= wall
    assert wall - root_time(tracer.spans) < 0.01 * wall
    counts = {"committed": sum(r.committed for r in engine.results),
              "offered": engine.submitted, "shed": len(engine.shed_results)}
    cost = {"call": 1e-7, "callee": 1e-7, "caller": 5e-7}
    metrics, _ = run.layer_metrics(system, engine, counts, tracer, cost, wall, wall,
                                   queue_peak)
    layer_sum = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
    assert layer_sum + metrics["bench.unattributed_s"] == pytest.approx(wall, rel=1e-9)
    assert metrics["bench.unattributed_s"] >= 0.0


def test_tracing_is_removed_after_a_traced_run():
    from repro.sim import Simulator

    original = Simulator.__dict__["schedule_at"]
    installation = install(Tracer())
    assert Simulator.__dict__["schedule_at"] is not original
    installation.restore()
    assert Simulator.__dict__["schedule_at"] is original


def test_tracing_leaves_simulated_outputs_identical():
    from gate import fingerprint

    workload = short("db_hot", duration=600.0)
    system, engine = build(workload, 5)
    engine.run(settle=SETTLE)
    counts = {"committed": len(engine.results), "shed": len(engine.shed_results)}
    untraced = fingerprint(system, engine, counts)
    _, _, system, engine, _, _ = run.traced_run(workload, 5, Tracer())
    counts = {"committed": len(engine.results), "shed": len(engine.shed_results)}
    assert fingerprint(system, engine, counts) == untraced


def test_gate_accepts_a_correct_run_and_rejects_a_broken_one():
    workload = WORKLOADS["edge_burst"]
    system, engine = build(workload, 4)
    engine.run(settle=SETTLE)
    counts = check(workload, system, engine, 4)
    assert counts["offered"] == counts["committed"] + counts["aborted"] + counts["shed"]
    engine.results.pop()  # a request that never resolved
    with pytest.raises(GateError, match="offered"):
        check(workload, system, engine, 4)


def test_gate_rejects_late_arrivals():
    workload = WORKLOADS["edge_burst"]
    system, engine = build(workload, 4)
    engine.run(settle=SETTLE)
    late = engine.results[0]
    engine.results[0] = dataclasses.replace(late, submitted_at=late.submitted_at + 0.5)
    with pytest.raises(GateError, match="lateness"):
        check(workload, system, engine, 4)


def test_arrival_replay_matches_the_engine():
    workload = short("edge_burst", duration=1000.0)
    system, engine = build(workload, 9)
    engine.run(settle=SETTLE)
    submitted = sorted(r.submitted_at for r in engine.results + engine.shed_results)
    assert submitted == due_arrivals(workload.arrival, 9)


def test_names_match_the_benchmark_definition():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    workloads = {w["name"]: w["why"] for w in spec["workloads"]}
    assert workloads == WHY and set(WORKLOADS) == set(WHY)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    names = list(workloads) + list(run.END_TO_END) + list(run.PER_LAYER)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name
