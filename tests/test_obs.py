"""Tests for the observability layer (repro.obs).

Four layers of guarantees:

* **Unit** — span tracer causality, metrics registry snapshots, the
  exporters' shapes.
* **Neutrality** — observing a run changes nothing: same seed, same
  results, same store contents, with and without the observer.
* **Regression, per technique** — the same seed twice produces
  byte-identical span exports; every committed request's trace contains
  the technique's declared phase sequence; and every message span's type
  is covered by the generated protocol catalog (docs/messages.json), so
  the dynamic span world and the static message-flow world agree.
* **Regression, pinned** — two small observed open-loop runs export
  exactly the bytes pinned by digest, and the wire-size estimate matches
  its plain recursive reference rules.
"""

import hashlib
import json
import os
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro import REGISTRY, Operation, ReplicatedSystem
from repro.core import AdmissionConfig
from repro.lint.engine import collect_files, parse_file
from repro.lint.msgflow import build_catalog, pattern_matches
from repro.lint.symeval import WILDCARD
from repro.net.network import _SharedPayload
from repro.obs import (
    MetricsRegistry,
    Observer,
    SpanTracer,
    abort_reason_label,
    chrome_trace,
    counter_trace,
    spans_jsonl,
    write_artifacts,
)
from repro.obs.observer import _approx_size
from repro.workload import (
    ArrivalSpec,
    OpenLoopEngine,
    WorkloadGenerator,
    WorkloadSpec,
    run_workload,
)

REPO = Path(__file__).resolve().parent.parent

TECHNIQUES = sorted(REGISTRY)

SPEC = WorkloadSpec(items=6, read_fraction=0.3, ops_per_transaction=2)

# Semi-active replication only enters its AC phase at non-deterministic
# choice points (Figure 4: "EX and AC are repeated for each non
# deterministic choice"), so its workload uses the non-deterministic
# update function to exercise the declared sequence.
SPECS = {
    "semi_active": WorkloadSpec(
        items=6, read_fraction=0.3, ops_per_transaction=2,
        update_func="random_token",
    ),
}


def _observed_run(technique: str):
    system, driver, summary = run_workload(
        technique,
        spec=SPECS.get(technique, SPEC),
        replicas=3,
        clients=2,
        requests_per_client=2,
        seed=1301,
        think_time=5.0,
        settle=300.0,
        config={"abcast": "sequencer"},
        observe=True,
    )
    system.observer.finalize()
    return system, driver


def _export(system):
    spans = system.observer.tracer.spans
    order = system.replica_names + [c.name for c in system.clients]
    return (
        chrome_trace(spans, node_order=order),
        spans_jsonl(spans),
        system.observer.metrics.report(title="run"),
    )


@pytest.fixture(scope="module")
def runs():
    """Two independent same-seed observed runs per technique, cached."""
    cache = {}

    def get(technique):
        if technique not in cache:
            cache[technique] = (_observed_run(technique), _observed_run(technique))
        return cache[technique]

    return get


@pytest.fixture(scope="module")
def catalog():
    cwd = os.getcwd()
    os.chdir(REPO)
    try:
        contexts = []
        for path in collect_files(["src/repro"]):
            context, error = parse_file(path)
            assert error is None, f"unparseable source: {error}"
            contexts.append(context)
        return build_catalog(contexts)
    finally:
        os.chdir(cwd)


def _is_subsequence(needle, haystack):
    iterator = iter(haystack)
    return all(item in iterator for item in needle)


# ---------------------------------------------------------------------------
# Unit: span tracer
# ---------------------------------------------------------------------------

class FakeClock:
    def __init__(self):
        self.now = 0.0


class TestSpanTracer:
    def test_ids_are_sequential_and_times_from_clock(self):
        clock = FakeClock()
        tracer = SpanTracer(clock)
        a = tracer.start("a", "cat", "n1")
        clock.now = 2.0
        b = tracer.start("b", "cat", "n1")
        tracer.finish(a)
        assert (a.span_id, b.span_id) == (1, 2)
        assert a.start == 0.0 and a.end == 2.0 and a.duration == 2.0

    def test_context_stack_sets_parent_and_trace(self):
        tracer = SpanTracer(FakeClock())
        root = tracer.start("root", "request", "c0", trace_id="req-1",
                            use_context=False)
        tracer.push(root)
        child = tracer.start("child", "message", "c0")
        tracer.pop()
        assert child.parent_id == root.span_id
        assert child.trace_id == "req-1"
        # Outside the context: no parent inherited.
        orphan = tracer.start("orphan", "message", "c0")
        assert orphan.parent_id is None and orphan.trace_id == ""

    def test_explicit_parent_wins_over_context(self):
        tracer = SpanTracer(FakeClock())
        a = tracer.start("a", "cat", "n", trace_id="t1", use_context=False)
        b = tracer.start("b", "cat", "n", trace_id="t2", use_context=False)
        tracer.push(a)
        child = tracer.start("c", "cat", "n", parent_id=b.span_id)
        tracer.pop()
        assert child.parent_id == b.span_id
        assert child.trace_id == "t2"

    def test_finalize_bounds_open_spans(self):
        clock = FakeClock()
        tracer = SpanTracer(clock)
        span = tracer.start("open", "phase", "r0")
        clock.now = 7.0
        done = tracer.start("done", "phase", "r0")
        tracer.finish(done)
        tracer.finalize()
        assert span.end == 7.0 and span.status == "open"
        assert done.status == "ok"

    def test_instant_is_point_event(self):
        tracer = SpanTracer(FakeClock())
        span = tracer.instant("tick", "gc", "r0")
        assert span.kind == "instant" and span.start == span.end

    def test_ids_index_the_span_list(self):
        tracer = SpanTracer(FakeClock())
        spans = [tracer.start(name, "cat", "n") for name in "abc"]
        assert [tracer.get(s.span_id) for s in spans] == spans
        for missing in (None, 0, -1, 4):
            assert tracer.get(missing) is None
        # An unknown explicit parent falls back to the context stack.
        tracer.push(spans[0])
        child = tracer.start("d", "cat", "n", parent_id=99)
        tracer.pop()
        assert child.parent_id == spans[0].span_id

    def test_tracer_without_clock_stamps_zero(self):
        tracer = SpanTracer()
        span = tracer.start("a", "cat", "n")
        tracer.finish(span)
        assert (span.start, span.end, tracer.now) == (0.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# Unit: metrics registry
# ---------------------------------------------------------------------------

class TestMetrics:
    def test_counters_gauges_histograms_snapshot(self):
        registry = MetricsRegistry()
        registry.inc("msgs")
        registry.inc("msgs", amount=2)
        registry.inc("msgs.by_type", label="abcast")
        registry.set("height", 4.5)
        for value in (1.0, 2.0, 3.0, 4.0):
            registry.observe("lat", value)
        snap = registry.snapshot()
        assert snap["counters"]["msgs"] == 3
        assert snap["counters"]["msgs.by_type{abcast}"] == 1
        assert snap["gauges"]["height"] == 4.5
        hist = snap["histograms"]["lat"]
        assert hist["count"] == 4 and hist["mean"] == 2.5 and hist["max"] == 4.0

    def test_histogram_percentiles_nearest_rank(self):
        registry = MetricsRegistry()
        for value in range(1, 101):
            registry.observe("lat", float(value))
        hist = registry.snapshot()["histograms"]["lat"]
        assert hist["p50"] == 50.0
        assert hist["p95"] == 95.0
        assert hist["p99"] == 99.0

    def test_report_is_deterministic_text(self):
        registry = MetricsRegistry()
        registry.inc("b")
        registry.inc("a")
        registry.observe("h", 1.0)
        first = registry.report(title="t")
        assert first == registry.report(title="t")
        assert first.endswith("\n")
        assert first.index("a") < first.index("b")

    def test_abort_reason_labels_bounded(self):
        assert abort_reason_label("transaction r0:t3: deadlock victim") == "deadlock"
        assert abort_reason_label("lock wait timeout") == "timeout"
        assert abort_reason_label("certification failed on x") == "certification"
        assert abort_reason_label("weird new failure") == "other"


# ---------------------------------------------------------------------------
# Unit: exporters
# ---------------------------------------------------------------------------

class TestExporters:
    def _tracer_with_spans(self):
        clock = FakeClock()
        tracer = SpanTracer(clock)
        root = tracer.start("request", "request", "c0", trace_id="req-1",
                            use_context=False)
        msg = tracer.start("msg:ping", "message", "c0", parent_id=root.span_id,
                           type="ping", src="c0", dst="r0", msg_id=1)
        clock.now = 1.0
        tracer.finish(msg)
        handler = tracer.start("on:ping", "handler", "r0",
                               parent_id=msg.span_id)
        tracer.finish(handler)
        tracer.finish(root)
        return tracer

    def test_chrome_trace_shape(self):
        tracer = self._tracer_with_spans()
        document = json.loads(chrome_trace(tracer.spans, node_order=["r0", "c0"]))
        events = document["traceEvents"]
        names = {e["name"] for e in events if e["ph"] == "M"}
        assert "process_name" in names and "thread_name" in names
        complete = [e for e in events if e["ph"] == "X"]
        assert {e["name"] for e in complete} == {"request", "msg:ping", "on:ping"}
        # The delivered message produced a flow arrow pair.
        assert [e["ph"] for e in events if e["name"] == "flight"] == ["s", "f"]

    def test_spans_jsonl_round_trips(self):
        tracer = self._tracer_with_spans()
        lines = spans_jsonl(tracer.spans).strip().split("\n")
        parsed = [json.loads(line) for line in lines]
        assert [p["span_id"] for p in parsed] == [1, 2, 3]
        assert parsed[1]["parent_id"] == 1
        assert parsed[2]["parent_id"] == 2

    def test_write_artifacts_creates_three_files(self, tmp_path):
        observer = Observer(FakeClock())
        observer.on_request_submit("req-1", "c0")
        observer.on_request_complete("req-1", True)
        paths = write_artifacts(observer, str(tmp_path / "run"))
        assert sorted(paths) == ["metrics", "spans", "trace"]
        for path in paths.values():
            assert os.path.exists(path) and os.path.getsize(path) > 0


# ---------------------------------------------------------------------------
# Neutrality: observation never perturbs a run
# ---------------------------------------------------------------------------

class TestZeroCostWhenDisabled:
    def test_unobserved_system_builds_no_observer(self):
        system = ReplicatedSystem("eager_primary", replicas=3, seed=3)
        assert system.observer is None
        assert system.net.obs is None
        assert system.tracer.obs is None
        for replica in system.replicas.values():
            assert replica.tm.obs is None
            assert replica.tm.locks.obs is None

    @pytest.mark.parametrize("technique", ["active", "eager_primary", "lazy_ue"])
    def test_observation_is_neutral(self, technique):
        results = {}
        for observe in (False, True):
            system = ReplicatedSystem(
                technique, replicas=3, seed=11, observe=observe,
                config={"abcast": "sequencer"},
            )
            result = system.execute(
                [Operation.write("x", 1), Operation.read("x")]
            )
            system.settle(200.0)
            results[observe] = (
                result.committed,
                result.completed_at,
                {n: system.store_of(n).digest() for n in system.replica_names},
                len(system.trace),
            )
        assert results[False] == results[True]


# ---------------------------------------------------------------------------
# Regression: per-technique determinism, phase coverage, catalog agreement
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("technique", TECHNIQUES)
def test_same_seed_exports_are_byte_identical(technique, runs):
    (system_a, _), (system_b, _) = runs(technique)
    chrome_a, jsonl_a, report_a = _export(system_a)
    chrome_b, jsonl_b, report_b = _export(system_b)
    assert chrome_a == chrome_b, f"{technique}: chrome trace differs across runs"
    assert jsonl_a == jsonl_b, f"{technique}: span JSONL differs across runs"
    assert report_a == report_b, f"{technique}: metrics report differs across runs"
    assert len(system_a.observer.tracer.spans) > 0


# Two small observed open-loop runs whose exports are pinned by digest:
# the lazy primary behind admission control under bursts, and active
# replication over consensus ABCAST with one replica crashed and
# recovered.  The digests were taken from the exporters as they stood
# before the observation hot path was rewritten, so any change in what
# gets exported — not only run-to-run drift — fails here.
GOLDEN_RUNS = {
    "lazy_primary_burst": dict(
        technique="lazy_primary",
        spec=WorkloadSpec(items=50, read_fraction=0.7),
        arrival=ArrivalSpec(process="burst", rate=0.3, burst_rate=2.0,
                            burst_every=100.0, burst_length=20.0,
                            duration=300.0, clients=2_000),
        admission=AdmissionConfig(rate=0.5, burst=4.0, queue_capacity=8),
    ),
    "active_consensus_crash": dict(
        technique="active",
        spec=WorkloadSpec(items=20, read_fraction=0.2),
        arrival=ArrivalSpec(rate=0.2, duration=300.0, clients=2_000),
        config={"abcast": "consensus"},
        outage=("r1", 100.0, 180.0),
    ),
}

GOLDEN_DIGESTS = {
    "lazy_primary_burst": {
        "chrome": "ea421b5a8c1d02a9afdf129ee38756a2a1498346b5c4c8aafb5641fcd71f08cf",
        "jsonl": "9e78471b8d4516a34b8c506aac764862471940f3d7471ba23a11a2a71177abb0",
        "report": "578ae13f30aa193d913adeda70ba33c1b1dfcad5de8bc0233637379bdb43118f",
        "counters": "3a17ad1d3c0c4d53a72a3731765d241d363872f28decbcd439cdd93095bcea1d",
    },
    "active_consensus_crash": {
        "chrome": "de2f356d981017635fa963f4d0d5d69274172f6d79dbd242daa846f2d4d0dd2e",
        "jsonl": "80db1ff3ff640719e78e99c8a1cd19d709f68902b14c5b97abe2f9c8c1bcd745",
        "report": "87be288d8a85043f89749b0f2f9beb8f84ed3fca5ddde38e89610b459bf8fb15",
        "counters": "c546f89ff519f088d6d4053cb49fc3d55b644e7c4963100b8058c80eaa4d3dc6",
    },
}


def _golden_run(technique, spec, arrival, config=None, admission=None,
                outage=None):
    system = ReplicatedSystem(technique, replicas=3, clients=2, seed=5,
                              config=config, observe=True, admission=admission)
    if outage is not None:
        replica, down, up = outage
        system.injector.crash_at(down, replica)
        system.injector.recover_at(up, replica)
    generator = WorkloadGenerator(spec, seed=5)
    OpenLoopEngine(system, generator, arrival).run(settle=100.0)
    system.observer.finalize()
    return system


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_observed_exports_match_pinned_digests(name):
    run = GOLDEN_RUNS[name]
    system = _golden_run(**run)
    observer = system.observer
    counters = observer.metrics.snapshot()["counters"]
    # The scenario exercises what it is named for.
    if run.get("admission") is not None:
        assert system.admission.snapshot()["shed"] > 0
    if run.get("outage") is not None:
        assert counters["nodes.crashed"] == 1
    order = system.replica_names + [c.name for c in system.clients]
    exports = {
        "chrome": chrome_trace(observer.tracer.spans, node_order=order),
        "jsonl": spans_jsonl(observer.tracer.spans),
        "report": observer.metrics.report(title=run["technique"]),
        "counters": counter_trace(observer.metrics.series_snapshot(),
                                  process_name=run["technique"]),
    }
    digests = {
        kind: hashlib.sha256(text.encode()).hexdigest()
        for kind, text in exports.items()
    }
    assert digests == GOLDEN_DIGESTS[name]


def _reference_size(value):
    """The plain recursive wire-size rules ``_approx_size`` must match."""
    if isinstance(value, bool) or value is None:
        return 1
    if isinstance(value, (int, float)):
        return 8
    if isinstance(value, str):
        return len(value)
    if isinstance(value, bytes):
        return len(value)
    if isinstance(value, dict):
        return 2 + sum(
            _reference_size(k) + _reference_size(v) + 2 for k, v in value.items()
        )
    if isinstance(value, (list, tuple, set, frozenset)):
        return 2 + sum(_reference_size(item) for item in value)
    return 16


class _LabelDict(dict):
    pass


class _Opaque:
    pass


SIZING_CORPUS = [
    True, False, None, 0, -7, 2**100, 3.5, float("inf"), "", "abc",
    b"", b"\x00\x01\x02", _Opaque(),
    {}, {"a": 1}, {True: None, 1.5: b"xy", None: "z", 3: (1, 2)},
    [1, "two", [3.0, [None, True]]], (), ("a", ("b", ("c",))),
    {1, 2, 3}, frozenset({"x", "yy"}),
    {"request": {"request_id": "c0:1",
                 "operations": [["w", "x", 1, None], ["r", "y", None, None]]}},
    _SharedPayload({"body": {"entries": [{"txn": "t1"}]}, "seq": 4}),
    _LabelDict(a=[1, {"b": _Opaque()}]),
    {"nested": _LabelDict(k=frozenset({(1, "a")})), "flag": True},
]


@pytest.mark.parametrize("value", SIZING_CORPUS,
                         ids=lambda v: type(v).__name__)
def test_approx_size_matches_reference(value):
    assert _approx_size(value) == _reference_size(value)


_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
            | st.text(max_size=8) | st.binary(max_size=8)
            | st.builds(_Opaque))
_PAYLOADS = st.recursive(
    _SCALARS,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.frozensets(st.integers() | st.text(max_size=4), max_size=4)
        | st.dictionaries(st.text(max_size=4) | st.integers(), inner,
                          max_size=4)
        | st.dictionaries(st.text(max_size=4), inner, max_size=4)
        .map(_SharedPayload)
    ),
    max_leaves=20,
)


@given(_PAYLOADS)
@settings(max_examples=200, deadline=None)
def test_approx_size_matches_reference_on_nested_payloads(payload):
    assert _approx_size(payload) == _reference_size(payload)


@pytest.mark.parametrize("technique", TECHNIQUES)
def test_request_traces_contain_declared_phase_sequence(technique, runs):
    (system, driver), _ = runs(technique)
    # Read-only requests legitimately short-circuit the coordination
    # phases (served locally), so the declared sequence is checked on
    # committed *update* requests only.
    committed = [
        r for r in driver.results
        if r.committed and any(op.is_write for op in r.operations)
    ]
    assert committed, f"{technique}: no committed updates under the test workload"
    tracer = system.observer.tracer
    for result in committed:
        declared = system.info.descriptor_for(len(result.operations)).phase_names()
        observed = tracer.phase_sequence(str(result.request_id))
        assert _is_subsequence(declared, observed), (
            f"{technique} {result.request_id}: declared {declared} "
            f"not contained in observed {observed}"
        )


@pytest.mark.parametrize("technique", TECHNIQUES)
def test_message_spans_covered_by_catalog(technique, runs, catalog):
    (system, _), _ = runs(technique)
    patterns = [
        record["type"].replace("*", WILDCARD) for record in catalog["types"]
    ]

    def covered(concrete):
        return any(pattern_matches(p, concrete) for p in patterns)

    message_spans = [
        s for s in system.observer.tracer.spans if s.category == "message"
    ]
    assert message_spans, f"{technique}: no message spans recorded"
    uncovered = set()
    for span in message_spans:
        if not covered(span.attrs["type"]):
            uncovered.add(span.attrs["type"])
        inner = span.attrs.get("inner")
        if inner is not None and not covered(inner):
            uncovered.add(inner)
    assert not uncovered, (
        f"{technique}: span message types missing from docs/messages.json: "
        f"{sorted(uncovered)}"
    )


@pytest.mark.parametrize("technique", TECHNIQUES)
def test_every_message_span_closes(technique, runs):
    (system, _), _ = runs(technique)
    for span in system.observer.tracer.spans:
        assert span.end is not None, f"{technique}: unbounded span {span!r}"
        if span.category == "message":
            assert span.status == "ok" or span.status.startswith(("dropped:", "open")), (
                f"{technique}: unexpected message status {span.status!r}"
            )


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_observe_writes_artifacts(tmp_path, capsys):
    from repro.__main__ import main

    code = main(["observe", "active", "--seed", "1", "--requests", "2",
                 "--out", str(tmp_path)])
    assert code == 0
    stem = tmp_path / "observe_active_seed1"
    for suffix in (".trace.json", ".spans.jsonl", ".metrics.txt"):
        path = Path(str(stem) + suffix)
        assert path.exists() and path.stat().st_size > 0, suffix
    out = capsys.readouterr().out
    assert "spans" in out and "[counters]" in out


def test_cli_observe_rejects_unknown_technique(tmp_path):
    from repro.__main__ import main

    assert main(["observe", "nope", "--out", str(tmp_path)]) == 2
