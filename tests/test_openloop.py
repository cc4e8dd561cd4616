"""Tests for the open-loop engine and system-edge admission control."""

import json

import pytest

from repro import DB_TECHNIQUES, DS_TECHNIQUES
from repro.core import AdmissionConfig
from repro.core.admission import (
    SHED_DEADLINE_QUEUED,
    SHED_QUEUE_FULL,
)
from repro.obs import write_artifacts
from repro.workload import ArrivalSpec, run_openloop

ALL_TECHNIQUES = DS_TECHNIQUES + DB_TECHNIQUES


class TestArrivalSpec:
    def test_unknown_process_rejected(self):
        with pytest.raises(ValueError):
            ArrivalSpec(process="pareto")

    def test_nonpositive_rate_rejected(self):
        with pytest.raises(ValueError):
            ArrivalSpec(rate=0.0)
        with pytest.raises(ValueError):
            ArrivalSpec(rate=-1.0)

    def test_burst_needs_consistent_window(self):
        with pytest.raises(ValueError):
            ArrivalSpec(process="burst", burst_rate=0.0)
        with pytest.raises(ValueError):
            ArrivalSpec(process="burst", burst_rate=2.0,
                        burst_every=50.0, burst_length=80.0)

    def test_diurnal_amplitude_bounded(self):
        with pytest.raises(ValueError):
            ArrivalSpec(process="diurnal", diurnal_amplitude=1.0)

    def test_nonpositive_deadline_rejected(self):
        with pytest.raises(ValueError):
            ArrivalSpec(deadline_budget=0.0)

    def test_burst_rate_at_follows_windows(self):
        spec = ArrivalSpec(process="burst", rate=0.1, burst_rate=2.0,
                           burst_every=100.0, burst_length=20.0)
        assert spec.rate_at(10.0) == 2.0      # inside the first window
        assert spec.rate_at(50.0) == 0.1      # between windows
        assert spec.rate_at(110.0) == 2.0     # inside the second window

    def test_diurnal_rate_oscillates_around_mean(self):
        spec = ArrivalSpec(process="diurnal", rate=1.0,
                           diurnal_period=400.0, diurnal_amplitude=0.5)
        assert spec.rate_at(100.0) == pytest.approx(1.5)   # sin peak
        assert spec.rate_at(300.0) == pytest.approx(0.5)   # sin trough


class TestOpenLoopEngine:
    def test_deterministic_process_paces_arrivals(self):
        system, engine, summary = run_openloop(
            "active",
            arrival=ArrivalSpec(process="deterministic", rate=0.5,
                                duration=100.0, clients=1_000),
            seed=1, settle=50.0,
        )
        # Fixed gaps of 2.0 inside a 100-unit horizon: 49 arrivals (the
        # first fires after one full gap, the horizon is open-ended).
        assert engine.submitted == 49
        assert summary.requests == 49
        assert summary.offered == 49
        assert summary.shed == 0
        assert summary.committed == 49

    def test_served_plus_shed_equals_submitted(self):
        system, engine, summary = run_openloop(
            "lazy_primary",
            arrival=ArrivalSpec(rate=0.3, duration=200.0, clients=5_000),
            admission=AdmissionConfig(rate=0.1, burst=2.0, queue_capacity=4),
            seed=2, settle=100.0,
        )
        assert len(engine.results) + len(engine.shed_results) == engine.submitted
        assert summary.offered == engine.submitted
        assert summary.shed == len(engine.shed_results)

    def test_open_loop_offered_independent_of_technique(self):
        # The arrival schedule draws from its own named streams, so the
        # offered count must not change with protocol-internal randomness.
        arrival = ArrivalSpec(rate=0.2, duration=200.0, clients=2_000)
        offered = {
            run_openloop(name, arrival=arrival, replicas=2, seed=4,
                         settle=100.0)[1].submitted
            for name in ("active", "certification", "lazy_primary")
        }
        assert len(offered) == 1

    def test_sustains_100k_logical_clients(self):
        # Acceptance bar: one deterministic run carries a 10^5+ logical
        # client population (no per-client process) with the admission
        # edge absorbing the overload.
        system, engine, summary = run_openloop(
            "active",
            arrival=ArrivalSpec(process="deterministic", rate=400.0,
                                duration=300.0, clients=1_000_000),
            admission=AdmissionConfig(rate=1.0, burst=8.0, queue_capacity=64),
            seed=11, settle=50.0,
        )
        stats = engine.stats()
        assert summary.offered == 120_000
        assert stats["logical_clients"] >= 100_000
        snap = system.admission.snapshot()
        assert snap["offered"] == (
            snap["admitted"] + snap["shed"] + snap["queued"]
        )
        assert snap["queued"] == 0
        # The admitted stream still commits: goodput survives the overload.
        assert summary.committed > 0
        assert summary.abort_rate == 0.0


class TestSameSeedByteIdentical:
    @pytest.mark.parametrize("technique", ALL_TECHNIQUES)
    def test_summary_and_artifacts_identical(self, technique, tmp_path):
        arrival = ArrivalSpec(rate=0.15, duration=150.0, clients=2_000)

        def one(tag):
            system, engine, summary = run_openloop(
                technique, arrival=arrival, replicas=2, seed=13,
                settle=100.0, observe=True,
            )
            stem = str(tmp_path / f"{technique}-{tag}")
            node_order = system.replica_names + [c.name for c in system.clients]
            paths = write_artifacts(system.observer, stem,
                                    node_order=node_order, title=technique)
            blobs = {
                kind: open(path, "rb").read() for kind, path in paths.items()
            }
            return json.dumps(summary.row(), sort_keys=True), blobs

        row_a, blobs_a = one("a")
        row_b, blobs_b = one("b")
        assert row_a == row_b
        assert blobs_a == blobs_b


class TestAdmissionControl:
    def test_rate_is_required_and_positive(self):
        with pytest.raises(TypeError):
            AdmissionConfig()
        for rate in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError):
                AdmissionConfig(rate=rate)

    def test_queue_full_sheds(self):
        system, engine, summary = run_openloop(
            "active",
            arrival=ArrivalSpec(process="deterministic", rate=2.0,
                                duration=100.0, clients=1_000),
            admission=AdmissionConfig(rate=0.1, burst=1.0, queue_capacity=3),
            seed=5, settle=100.0,
        )
        reasons = system.admission.shed_by_reason
        assert reasons.get(SHED_QUEUE_FULL, 0) > 0
        assert summary.shed_rate > 0.5

    def test_queued_deadline_expiry_sheds(self):
        system, engine, summary = run_openloop(
            "active",
            arrival=ArrivalSpec(process="deterministic", rate=1.0,
                                duration=50.0, clients=1_000,
                                deadline_budget=15.0),
            admission=AdmissionConfig(rate=0.05, burst=1.0,
                                      queue_capacity=1_000),
            seed=6, settle=200.0,
        )
        reasons = system.admission.shed_by_reason
        assert reasons.get(SHED_DEADLINE_QUEUED, 0) > 0

    def test_conservation_invariant_holds(self):
        system, engine, _ = run_openloop(
            "certification",
            arrival=ArrivalSpec(rate=0.5, duration=150.0, clients=3_000),
            admission=AdmissionConfig(rate=0.2, burst=2.0, queue_capacity=6),
            seed=7, settle=200.0,
        )
        snap = system.admission.snapshot()
        assert snap["offered"] == (
            snap["admitted"] + snap["shed"] + snap["queued"]
        )
        assert snap["offered"] == engine.submitted

    def test_shed_results_carry_shed_reason(self):
        system, engine, _ = run_openloop(
            "active",
            arrival=ArrivalSpec(process="deterministic", rate=2.0,
                                duration=60.0, clients=500),
            admission=AdmissionConfig(rate=0.1, burst=1.0, queue_capacity=2),
            seed=8, settle=100.0,
        )
        assert engine.shed_results
        for result in engine.shed_results:
            assert not result.committed
            assert result.reason.startswith("shed:")

    def test_observer_records_edge_series(self):
        system, engine, _ = run_openloop(
            "active",
            arrival=ArrivalSpec(process="deterministic", rate=1.0,
                                duration=80.0, clients=500),
            admission=AdmissionConfig(rate=0.2, burst=2.0, queue_capacity=2),
            seed=9, settle=100.0, observe=True,
        )
        series = system.observer.metrics.series_snapshot()
        assert "ts.offered" in series
        assert "ts.admitted" in series
        assert "ts.shed" in series
        assert sum(c for _, c in series["ts.offered"].counts()) == engine.submitted

    def test_rates_helper_reports_per_unit_rate(self):
        system, engine, _ = run_openloop(
            "active",
            arrival=ArrivalSpec(process="deterministic", rate=1.0,
                                duration=80.0, clients=500),
            admission=AdmissionConfig(rate=0.2, burst=2.0, queue_capacity=2),
            seed=9, settle=100.0, observe=True,
        )
        series = system.observer.metrics.series_snapshot()["ts.offered"]
        for (t_rate, rate), (t_count, count) in zip(series.rates(),
                                                    series.counts()):
            assert t_rate == t_count
            assert rate == pytest.approx(count / series.width)

    def test_no_admission_means_no_gating(self):
        system, engine, summary = run_openloop(
            "active",
            arrival=ArrivalSpec(process="deterministic", rate=1.0,
                                duration=60.0, clients=500),
            seed=10, settle=100.0,
        )
        assert system.admission is None
        assert summary.offered == summary.requests
        assert summary.shed == 0
