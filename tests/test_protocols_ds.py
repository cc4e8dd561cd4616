"""Integration tests for the distributed-systems replication techniques."""

import pytest

from repro import AC, END, EX, RE, SC, Operation, ReplicatedSystem
from repro.analysis import check_linearizable, history_from_results


def drive_updates(system, n, gap=25.0, item="x", client=0, func="add", arg=1):
    def loop():
        results = []
        for _ in range(n):
            result = yield system.client(client).submit(
                [Operation.update(item, func, arg)]
            )
            results.append(result)
            yield system.sim.timeout(gap)
        return results
    handle = system.sim.spawn(loop())
    system.sim.run_until_done(handle)
    return handle.result


class TestActive:
    def test_all_replicas_execute_and_converge(self):
        system = ReplicatedSystem("active", replicas=3, seed=1)
        result = system.execute([Operation.update("x", "add", 10)])
        assert result.committed and result.value == 10
        system.settle(100)
        assert all(system.store_of(n).read("x") == 10 for n in system.replica_names)

    def test_client_takes_first_of_n_responses(self):
        system = ReplicatedSystem("active", replicas=3, seed=1, observe=True)
        result = system.execute([Operation.read("x")])
        assert result.committed
        system.settle(100)  # let the other replicas' replies arrive
        assert system.net.stats.by_type["client.response"] == 3
        # Duplicate responses must be ignored: one completion, nothing left.
        snapshot = system.observer.metrics.snapshot()["counters"]
        assert snapshot["requests.committed"] == 1
        assert not system.client(0)._pending

    def test_replica_crash_is_transparent(self):
        system = ReplicatedSystem("active", replicas=3, seed=2,
                                  fd_interval=2.0, fd_timeout=8.0)
        system.injector.crash_at(40.0, "r0")
        results = drive_updates(system, 5)
        assert all(r.committed for r in results)
        assert all(r.retries == 0 for r in results), "failures must be masked"
        system.settle(400)
        live = system.live_replicas()
        assert all(system.store_of(n).read("x") == 5 for n in live)

    def test_phase_sequence_matches_figure_2(self):
        system = ReplicatedSystem("active", replicas=3, seed=1)
        result = system.execute([Operation.write("x", 1)])
        system.settle(100)
        observed = system.tracer.observed_sequence(result.request_id, source="r0")
        assert observed == [RE, SC, EX, END]
        assert system.tracer.mechanisms_used(result.request_id)[SC] == "abcast"

    def test_nondeterminism_genuinely_breaks_active_replication(self):
        # The paper's determinism requirement made real: a non-
        # deterministic operation diverges the replicas.
        system = ReplicatedSystem("active", replicas=3, seed=3)
        result = system.execute([Operation.update("x", "random_token")])
        assert result.committed
        system.settle(100)
        values = {system.store_of(n).read("x") for n in system.replica_names}
        assert len(values) > 1, "expected divergence under non-determinism"

    def test_sequencer_variant_works(self):
        system = ReplicatedSystem("active", replicas=4, seed=1,
                                  config={"abcast": "sequencer"})
        results = drive_updates(system, 4, gap=10.0)
        assert all(r.committed for r in results)
        system.settle(100)
        assert system.converged()

    def test_linearizable_history(self):
        system = ReplicatedSystem("active", replicas=3, clients=2, seed=5)
        results = []
        def client_loop(i):
            for _ in range(4):
                results.append(
                    (yield system.client(i).submit([Operation.update("x", "add", 1)]))
                )
                yield system.sim.timeout(3.0)
        h1 = system.sim.spawn(client_loop(0))
        h2 = system.sim.spawn(client_loop(1))
        system.sim.run_until_done(system.sim.all_of([h1, h2]))
        history = history_from_results(results)
        assert check_linearizable(history, initial=None).ok


class TestPassive:
    def test_primary_executes_backups_apply(self):
        system = ReplicatedSystem("passive", replicas=3, seed=1)
        result = system.execute([Operation.update("x", "add", 7)])
        assert result.committed and result.server == "r0"
        system.settle(100)
        for name in system.replica_names:
            assert system.store_of(name).read("x") == 7

    def test_nondeterminism_is_safe(self):
        # Only the primary executes; backups apply after-images.
        system = ReplicatedSystem("passive", replicas=3, seed=2)
        result = system.execute([Operation.update("x", "random_token")])
        assert result.committed
        system.settle(100)
        values = {system.store_of(n).read("x") for n in system.replica_names}
        assert len(values) == 1, "backups must hold the primary's value"

    def test_phase_sequence_matches_figure_3(self):
        system = ReplicatedSystem("passive", replicas=3, seed=1)
        result = system.execute([Operation.write("x", 1)])
        system.settle(50)
        primary_seq = system.tracer.observed_sequence(result.request_id, source="r0")
        assert primary_seq == [RE, EX, AC, END]
        backup_seq = system.tracer.observed_sequence(result.request_id, source="r1")
        assert backup_seq == [AC], "backups only participate in agreement"

    def test_primary_failover_promotes_next_member(self):
        system = ReplicatedSystem("passive", replicas=3, seed=3,
                                  fd_interval=2.0, fd_timeout=8.0)
        system.injector.crash_at(60.0, "r0")
        results = drive_updates(system, 6, gap=30.0)
        assert all(r.committed for r in results)
        assert {r.server for r in results} == {"r0", "r1"}
        assert system.directory.primary == "r1"
        system.settle(300)
        for name in system.live_replicas():
            assert system.store_of(name).read("x") == 6

    def test_failover_is_not_transparent(self):
        # Crash the primary exactly while a request is in flight: the
        # client must observe at least one retry (Figure 5's placement of
        # passive replication).
        system = ReplicatedSystem("passive", replicas=3, seed=4,
                                  fd_interval=2.0, fd_timeout=6.0,
                                  client_timeout=40.0)
        system.injector.crash_at(30.5, "r0")
        def loop():
            yield system.sim.timeout(30.0)
            return (yield system.client(0).submit([Operation.update("x", "add", 1)]))
        handle = system.sim.spawn(loop())
        result = system.sim.run_until_done(handle)
        assert result.committed
        assert result.retries >= 1
        assert result.server == "r1"

    def test_exactly_once_across_failover(self):
        # Even when the primary dies right after executing, re-submission
        # must not double-apply (result cache travels with the vscast).
        for crash_at in (30.5, 31.5, 32.5):
            system = ReplicatedSystem("passive", replicas=3, seed=5,
                                      fd_interval=2.0, fd_timeout=6.0,
                                      client_timeout=40.0)
            system.injector.crash_at(crash_at, "r0")
            def loop():
                yield system.sim.timeout(30.0)
                first = yield system.client(0).submit([Operation.update("x", "add", 1)])
                return first
            handle = system.sim.spawn(loop())
            result = system.sim.run_until_done(handle)
            system.settle(400)
            assert result.committed
            survivors = system.live_replicas()
            values = {system.store_of(n).read("x") for n in survivors}
            assert values == {1}, f"crash_at={crash_at}: {values}"


class TestSemiActive:
    def test_deterministic_requests_run_everywhere(self):
        system = ReplicatedSystem("semi_active", replicas=3, seed=1)
        result = system.execute([Operation.update("x", "add", 4)])
        assert result.committed and result.value == 4
        system.settle(100)
        assert system.converged()

    def test_leader_decides_nondeterministic_choice(self):
        system = ReplicatedSystem("semi_active", replicas=3, seed=2)
        result = system.execute([Operation.update("x", "random_token")])
        assert result.committed
        system.settle(200)
        values = {system.store_of(n).read("x") for n in system.replica_names}
        assert len(values) == 1, "leader's choice must reach all followers"

    def test_phase_sequence_includes_ac_per_choice(self):
        system = ReplicatedSystem("semi_active", replicas=3, seed=3)
        result = system.execute(
            [Operation.update("x", "random_token"), Operation.update("y", "random_token")]
        )
        system.settle(200)
        observed = system.tracer.observed_sequence(result.request_id, source="r0")
        assert observed == [RE, SC, EX, AC, EX, AC, END]
        collapsed = system.tracer.observed_sequence(
            result.request_id, source="r0", collapse=True
        )
        assert collapsed == [RE, SC, EX, AC, END]

    def test_leader_crash_mid_choice_recovers(self):
        system = ReplicatedSystem("semi_active", replicas=3, seed=4,
                                  fd_interval=2.0, fd_timeout=8.0)
        system.injector.crash_at(45.0, "r0")
        results = drive_updates(system, 5, gap=25.0, func="random_token", arg=None)
        assert all(r.committed for r in results)
        system.settle(400)
        live = system.live_replicas()
        digests = {system.store_of(n).values_digest() for n in live}
        assert len(digests) == 1


class TestSemiPassive:
    def test_decides_and_converges(self):
        system = ReplicatedSystem("semi_passive", replicas=3, seed=1)
        result = system.execute([Operation.update("x", "add", 2)])
        assert result.committed and result.value == 2
        system.settle(100)
        assert system.converged()

    def test_only_coordinator_executes_failure_free(self):
        system = ReplicatedSystem("semi_passive", replicas=3, seed=2)
        for _ in range(3):
            system.execute([Operation.update("x", "add", 1)])
        system.settle(100)
        executed = {
            name: system.protocol_at(name).executed_slots()
            for name in system.replica_names
        }
        assert executed["r0"] == 3, executed
        assert executed["r1"] == 0 and executed["r2"] == 0

    def test_crash_transparent_to_client(self):
        system = ReplicatedSystem("semi_passive", replicas=3, seed=3,
                                  fd_interval=2.0, fd_timeout=6.0)
        system.injector.crash_at(40.0, "r0")
        results = drive_updates(system, 5)
        assert all(r.committed and r.retries == 0 for r in results)
        system.settle(400)
        live = system.live_replicas()
        assert all(system.store_of(n).read("x") == 5 for n in live)

    def test_nondeterminism_safe_like_passive(self):
        system = ReplicatedSystem("semi_passive", replicas=3, seed=4)
        result = system.execute([Operation.update("x", "random_token")])
        assert result.committed
        system.settle(200)
        values = {system.store_of(n).read("x") for n in system.replica_names}
        assert len(values) == 1
