"""Tests for workload generation and the closed-loop driver."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro import ReplicatedSystem
from repro.workload import ClosedLoopDriver, WorkloadGenerator, WorkloadSpec, run_workload


class TestWorkloadSpec:
    def test_invalid_read_fraction_rejected(self):
        with pytest.raises(ValueError):
            WorkloadSpec(read_fraction=1.5)

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            WorkloadSpec(items=0)
        with pytest.raises(ValueError):
            WorkloadSpec(ops_per_transaction=0)


class TestWorkloadGenerator:
    def test_transaction_size_matches_spec(self):
        generator = WorkloadGenerator(WorkloadSpec(ops_per_transaction=4), seed=1)
        assert len(generator.next_transaction()) == 4

    def test_read_fraction_zero_means_all_updates(self):
        generator = WorkloadGenerator(WorkloadSpec(read_fraction=0.0), seed=1)
        ops = [op for _ in range(20) for op in generator.next_transaction()]
        assert all(op.kind == "update" for op in ops)

    def test_read_fraction_one_means_all_reads(self):
        generator = WorkloadGenerator(WorkloadSpec(read_fraction=1.0), seed=1)
        ops = [op for _ in range(20) for op in generator.next_transaction()]
        assert all(op.kind == "read" for op in ops)

    def test_deterministic_given_seed(self):
        a = WorkloadGenerator(WorkloadSpec(), seed=5)
        b = WorkloadGenerator(WorkloadSpec(), seed=5)
        txa = [a.next_transaction() for _ in range(10)]
        txb = [b.next_transaction() for _ in range(10)]
        assert txa == txb

    def test_hotspot_concentrates_accesses(self):
        spec = WorkloadSpec(items=100, hot_fraction=0.02,
                            hot_access_probability=0.9)
        generator = WorkloadGenerator(spec, seed=2)
        picks = [generator.pick_item() for _ in range(500)]
        hot = [p for p in picks if p in ("item0", "item1")]
        assert len(hot) > 300

    def test_zipf_skews_toward_low_ranks(self):
        spec = WorkloadSpec(items=50, zipf_s=1.2)
        generator = WorkloadGenerator(spec, seed=3)
        picks = [generator.pick_item() for _ in range(500)]
        top = sum(1 for p in picks if p in ("item0", "item1", "item2"))
        assert top > 150

    def test_unique_writes_are_unique(self):
        generator = WorkloadGenerator(WorkloadSpec(), seed=4)
        values = {generator.unique_write().argument for _ in range(50)}
        assert len(values) == 50

    @given(st.floats(0, 1), st.integers(1, 5))
    @settings(max_examples=30, deadline=None)
    def test_mix_ratio_roughly_respected(self, read_fraction, ops):
        spec = WorkloadSpec(read_fraction=read_fraction, ops_per_transaction=ops)
        generator = WorkloadGenerator(spec, seed=0)
        drawn = [op for _ in range(100) for op in generator.next_transaction()]
        reads = sum(1 for op in drawn if op.kind == "read")
        assert abs(reads / len(drawn) - read_fraction) < 0.2


class TestSpecValidation:
    # Regression: out-of-range skew knobs used to be accepted silently and
    # produced inverted skew or crashing Zipf weights downstream.

    def test_out_of_range_hot_fraction_rejected(self):
        with pytest.raises(ValueError):
            WorkloadSpec(hot_fraction=-0.1)
        with pytest.raises(ValueError):
            WorkloadSpec(hot_fraction=1.5)

    def test_out_of_range_hot_access_probability_rejected(self):
        with pytest.raises(ValueError):
            WorkloadSpec(hot_access_probability=-0.5)
        with pytest.raises(ValueError):
            WorkloadSpec(hot_access_probability=2.0)

    def test_negative_zipf_rejected(self):
        with pytest.raises(ValueError):
            WorkloadSpec(zipf_s=-1.0)

    def test_nan_skew_rejected(self):
        nan = float("nan")
        with pytest.raises(ValueError):
            WorkloadSpec(hot_fraction=nan)
        with pytest.raises(ValueError):
            WorkloadSpec(hot_access_probability=nan)
        with pytest.raises(ValueError):
            WorkloadSpec(zipf_s=nan)

    def test_boundary_values_accepted(self):
        WorkloadSpec(hot_fraction=1.0, hot_access_probability=1.0, zipf_s=0.0)


class TestHotSetRounding:
    # Regression: ``int(spec.items * spec.hot_fraction)`` truncated the
    # binary-float product, silently shrinking the hot set (0.29 * 100 is
    # 28.999... and became 28 items instead of 29).

    def test_hot_set_size_rounds_half_up(self):
        spec = WorkloadSpec(items=100, hot_fraction=0.29,
                            hot_access_probability=0.5)
        assert WorkloadGenerator(spec, seed=0).hot_set_size == 29

    def test_hot_set_share_pinned(self):
        # Under a hot probability of 1.0 every pick must land inside the
        # spec'd 29-item hot set, and all 29 items must be reachable.
        spec = WorkloadSpec(items=100, hot_fraction=0.29,
                            hot_access_probability=1.0)
        generator = WorkloadGenerator(spec, seed=1)
        picks = {generator.pick_item() for _ in range(5000)}
        assert picks == {f"item{i}" for i in range(29)}

    def test_tiny_hot_fraction_keeps_one_item(self):
        spec = WorkloadSpec(items=10, hot_fraction=0.01,
                            hot_access_probability=0.9)
        assert WorkloadGenerator(spec, seed=0).hot_set_size == 1

    def test_zero_hot_fraction_means_no_hot_set(self):
        assert WorkloadGenerator(WorkloadSpec(items=10), seed=0).hot_set_size == 0

    @given(st.integers(2, 500), st.floats(0.01, 1.0))
    @settings(max_examples=50, deadline=None)
    def test_hot_set_share_within_one_item(self, items, fraction):
        spec = WorkloadSpec(items=items, hot_fraction=fraction,
                            hot_access_probability=0.5)
        generator = WorkloadGenerator(spec, seed=0)
        expected = items * fraction
        # A nonzero hot fraction keeps at least one hot item; above that
        # floor the size must track the exact product within half an item
        # (the truncation bug was off by up to a whole item).
        assert generator.hot_set_size >= 1
        if expected >= 1:
            assert abs(generator.hot_set_size - expected) <= 0.5


class TestZipfMonotonicity:
    def test_zipf_rank_counts_decrease(self):
        # Zipf access counts must fall with rank (coarse-grained: compare
        # front, middle and tail thirds so sampling noise cannot flip it).
        spec = WorkloadSpec(items=30, zipf_s=1.0)
        generator = WorkloadGenerator(spec, seed=9)
        counts = {f"item{i}": 0 for i in range(30)}
        for _ in range(6000):
            counts[generator.pick_item()] += 1
        front = sum(counts[f"item{i}"] for i in range(10))
        middle = sum(counts[f"item{i}"] for i in range(10, 20))
        tail = sum(counts[f"item{i}"] for i in range(20, 30))
        assert front > middle > tail


class TestDriver:
    def test_driver_completes_budget(self):
        system, driver, summary = run_workload(
            "lazy_ue", spec=WorkloadSpec(items=5), replicas=2, clients=2,
            requests_per_client=5, seed=1, settle=200.0,
        )
        assert summary.requests == 10
        assert len(driver.results) == 10

    def test_retry_aborts_resubmits(self):
        spec = WorkloadSpec(items=1, read_fraction=0.0)
        system, driver, summary = run_workload(
            "certification", spec=spec, replicas=2, clients=3,
            requests_per_client=4, seed=2, retry_aborts=True, settle=300.0,
        )
        # With one hot item, raw certification aborts are guaranteed; the
        # driver hides them by retrying.
        assert summary.abort_rate == 0.0
        assert driver.extra_attempts > 0

    def test_retry_aborts_never_resubmits_indeterminate_outcomes(self):
        # Regression: a "client gave up" outcome (the request may still
        # commit) was resubmitted under a fresh request id, so one logical
        # increment could be applied twice.  With a short client timeout
        # and no client-level retries, active replication's consensus
        # ABCAST outlives the client; a counter may never exceed the
        # number of logical requests that touched its item.
        spec = WorkloadSpec(items=3, read_fraction=0.0)
        system, driver, summary = run_workload(
            "active", spec=spec, clients=2, requests_per_client=10, seed=3,
            retry_aborts=True,
            system_kwargs={"client_timeout": 7.0, "max_client_retries": 0},
        )
        assert any(r.reason == "client gave up" for r in driver.results)
        assert driver.extra_attempts == 0
        touched = Counter(op.item for r in driver.results for op in r.operations)
        assert sum(touched.values()) == 20
        for name in system.live_replicas():
            store = system.store_of(name)
            for item, count in touched.items():
                assert (store.read(item) or 0) <= count, (name, item)

    def test_retry_attempts_reach_summary(self):
        # Regression: ``extra_attempts`` was a bare counter that never fed
        # the summary — retried aborts vanished from ``retries`` and no
        # per-attempt abort rate existed at all.
        spec = WorkloadSpec(items=1, read_fraction=0.0)
        system, driver, summary = run_workload(
            "certification", spec=spec, replicas=2, clients=3,
            requests_per_client=4, seed=2, retry_aborts=True, settle=300.0,
        )
        assert driver.extra_attempts > 0
        assert len(driver.attempts) == driver.extra_attempts
        assert summary.retries >= driver.extra_attempts
        assert summary.attempts == summary.requests + driver.extra_attempts
        # Final-result semantics are unchanged (retried-to-commit runs
        # still read as abort-free); the per-attempt view shows the
        # aborts the servers actually produced.
        assert summary.abort_rate == 0.0
        assert summary.attempt_abort_rate > 0.0
        assert summary.attempt_aborts == driver.extra_attempts

    def test_retry_latency_spans_all_attempts(self):
        # Regression: a retried request's final Result carried the *last*
        # attempt's submission time, so its reported latency omitted every
        # earlier attempt and the think-time between them.
        spec = WorkloadSpec(items=1, read_fraction=0.0)
        system = ReplicatedSystem("certification", replicas=2, clients=3, seed=2)
        # Each attempt's own Result, read from the futures submit returns.
        raw = {}

        def record(future):
            raw[future.result.request_id] = future.result

        for client in system.clients:
            def submit(operations, deadline=None, _submit=client.submit):
                future = _submit(operations, deadline=deadline)
                future.add_callback(record)
                return future
            client.submit = submit
        driver = ClosedLoopDriver(
            system, WorkloadGenerator(spec, seed=2), requests_per_client=4,
            retry_aborts=True,
        )
        driver.run(settle=300.0)
        spanned = [
            r for r in driver.results
            if r.submitted_at < raw[r.request_id].submitted_at
        ]
        assert spanned, "no driver result spans its earlier attempts"
        for result in spanned:
            assert result.latency > raw[result.request_id].latency

    def test_think_time_spreads_submissions(self):
        fast = run_workload("lazy_ue", replicas=2, clients=1,
                            requests_per_client=5, seed=3, settle=0.0)[2]
        slow = run_workload("lazy_ue", replicas=2, clients=1,
                            requests_per_client=5, seed=3, think_time=50.0,
                            settle=0.0)[2]
        assert slow.duration > fast.duration

    def test_same_seed_same_summary(self):
        s1 = run_workload("eager_primary", replicas=3, clients=2,
                          requests_per_client=5, seed=11, settle=100.0)[2]
        s2 = run_workload("eager_primary", replicas=3, clients=2,
                          requests_per_client=5, seed=11, settle=100.0)[2]
        assert s1.row() == s2.row()
