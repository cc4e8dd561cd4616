"""Tests for the ReplicatedSystem builder, clients, directory, routing."""

import pytest

from repro import Operation, ReplicatedSystem, ReplicationError
from repro.core.system import Directory


class TestBuilder:
    def test_unknown_protocol_rejected(self):
        with pytest.raises(ReplicationError):
            ReplicatedSystem("paxos-deluxe")

    def test_replica_and_client_names(self):
        system = ReplicatedSystem("active", replicas=4, clients=2)
        assert system.replica_names == ["r0", "r1", "r2", "r3"]
        assert [c.name for c in system.clients] == ["c0", "c1"]

    def test_clients_get_round_robin_homes(self):
        system = ReplicatedSystem("lazy_ue", replicas=3, clients=5)
        assert [c.home for c in system.clients] == ["r0", "r1", "r2", "r0", "r1"]

    def test_protocol_info_exposed(self):
        system = ReplicatedSystem("passive")
        assert system.info.client_policy == "primary"
        assert system.info.community == "ds"

    def test_same_seed_same_outcome(self):
        def run():
            system = ReplicatedSystem("certification", replicas=3, clients=2, seed=9)
            f0 = system.client(0).submit([Operation.update("x", "add", 1)])
            f1 = system.client(1).submit([Operation.update("x", "add", 1)])
            r0, r1 = system.sim.run_until_done(system.sim.all_of([f0, f1]))
            return (r0.committed, r1.committed, r0.latency, r1.latency)
        assert run() == run()

    @pytest.mark.parametrize("protocol", ["active", "certification"])
    def test_unknown_abcast_flavour_rejected(self, protocol):
        # A misspelt flavour used to fall through to consensus silently.
        with pytest.raises(ValueError, match="consensus, sequencer"):
            ReplicatedSystem(protocol, config={"abcast": "sequncer"})

    def test_optimistic_abcast_rejects_unknown_flavour(self):
        from repro.groupcomm import OptimisticAtomicBroadcast

        system = ReplicatedSystem("active", replicas=3)
        replica = system.replicas["r0"]
        with pytest.raises(ValueError, match="unknown abcast flavour"):
            OptimisticAtomicBroadcast(
                replica.node, replica.transport, system.replica_names,
                replica.detector, lambda *a: None, lambda *a: None,
                flavour="sequncer",
            )

    def test_config_passed_to_protocols(self):
        system = ReplicatedSystem("lazy_primary", config={"propagation_delay": 77.0})
        assert system.protocol_at("r0").propagation_delay == 77.0


class TestDirectory:
    def test_initial_primary_is_first(self):
        directory = Directory(["a", "b", "c"])
        assert directory.primary == "a"

    def test_set_primary_counts_changes(self):
        directory = Directory(["a", "b"])
        directory.set_primary("b")
        directory.set_primary("b")  # no-op
        assert directory.primary == "b"
        assert directory.changes == 1

    def test_non_member_rejected(self):
        with pytest.raises(ReplicationError):
            Directory(["a"]).set_primary("z")


class TestClientRouting:
    def test_all_policy_reaches_every_replica(self):
        system = ReplicatedSystem("active", replicas=3)
        system.execute([Operation.write("x", 1)])
        assert system.net.stats.by_type["client.request"] == 3

    def test_primary_policy_single_target(self):
        system = ReplicatedSystem("passive", replicas=3)
        system.execute([Operation.write("x", 1)])
        assert system.net.stats.by_type["client.request"] == 1

    def test_local_policy_uses_home(self):
        system = ReplicatedSystem("lazy_ue", replicas=3, clients=2)
        result = system.execute([Operation.write("x", 1)], client=1)
        assert result.server == "r1"

    def test_client_gives_up_after_max_retries(self):
        system = ReplicatedSystem("passive", replicas=2, client_timeout=20.0,
                                  max_client_retries=2, fd_interval=1000.0,
                                  fd_timeout=4000.0)
        for name in system.replica_names:
            system.replicas[name].node.crash()
        result = system.execute([Operation.write("x", 1)])
        assert not result.committed
        assert result.reason == "client gave up"
        assert result.retries == 3

    def test_local_client_fails_over_to_next_live_replica(self):
        system = ReplicatedSystem("lazy_ue", replicas=3, client_timeout=30.0)
        system.replicas["r0"].node.crash()
        result = system.execute([Operation.write("x", 1)])
        assert result.committed
        assert result.server == "r1"
        assert result.retries == 1


class TestSystemHelpers:
    def test_next_live_replica_skips_crashed(self):
        system = ReplicatedSystem("active", replicas=3)
        system.replicas["r1"].node.crash()
        assert system.next_live_replica("r0") == "r2"

    def test_converged_ignores_crashed_by_default(self):
        system = ReplicatedSystem("lazy_primary", replicas=3,
                                  config={"propagation_delay": 5.0})
        system.execute([Operation.write("x", 1)])
        system.replicas["r2"].node.crash()  # r2 may be stale forever
        system.settle(300)
        assert system.converged()

    def test_divergent_replicas_reports_values(self):
        system = ReplicatedSystem("lazy_primary", replicas=2,
                                  config={"propagation_delay": 1000.0})
        system.execute([Operation.write("x", 1)])
        report = system.divergent_replicas()
        assert set(report) == {"r0", "r1"}
        assert report["r0"] != report["r1"]

    def test_crash_aborts_active_transactions(self):
        system = ReplicatedSystem("lazy_primary", replicas=2)
        tm = system.replicas["r0"].tm
        txn = tm.begin("hanging")
        system.replicas["r0"].node.crash()
        assert tm.active == {}
        assert tm.aborted_count == 1
