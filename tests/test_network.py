"""Unit tests for the network fabric and node abstraction."""

import pytest

from repro.errors import NetworkError, NodeCrashed, SimulationError
from repro.net import (
    ConstantLatency,
    Network,
    Node,
    PerLinkLatency,
    UniformLatency,
)
from repro.sim import Simulator


@pytest.fixture
def sim():
    return Simulator(seed=1)


def make_net(sim, **kwargs):
    return Network(sim, latency=kwargs.pop("latency", ConstantLatency(1.0)), **kwargs)


class Echo(Node):
    """Test node recording everything it receives and echoing calls."""

    def __init__(self, sim, network, name):
        super().__init__(sim, network, name)
        self.received = []
        self.on("ping", self._on_ping)
        self.on("note", self._on_note)

    def _on_ping(self, msg):
        self.received.append(msg)
        self.reply(msg, text="pong from " + self.name)

    def _on_note(self, msg):
        self.received.append(msg)


class TestDelivery:
    def test_message_arrives_after_latency(self, sim):
        net = make_net(sim, latency=ConstantLatency(3.0))
        a, b = Echo(sim, net, "a"), Echo(sim, net, "b")
        a.send("b", "note", text="hi")
        sim.run()
        assert len(b.received) == 1
        assert b.received[0]["text"] == "hi"
        assert sim.now == 3.0

    def test_unknown_destination_raises(self, sim):
        net = make_net(sim)
        Echo(sim, net, "a")
        with pytest.raises(NetworkError):
            net.send("a", "ghost", "note")

    def test_duplicate_node_name_rejected(self, sim):
        net = make_net(sim)
        Echo(sim, net, "a")
        with pytest.raises(SimulationError):
            Echo(sim, net, "a")

    def test_missing_handler_is_error(self, sim):
        net = make_net(sim)
        Echo(sim, net, "a")
        Echo(sim, net, "b")
        net.send("a", "b", "mystery")
        with pytest.raises(SimulationError):
            sim.run()

    def test_default_handler_catches_unmatched(self, sim):
        net = make_net(sim)
        a = Echo(sim, net, "a")
        b = Echo(sim, net, "b")
        caught = []
        b.on_default(caught.append)
        a.send("b", "mystery", n=1)
        sim.run()
        assert len(caught) == 1 and caught[0]["n"] == 1

    def test_fifo_link_preserves_order_with_random_latency(self, sim):
        net = make_net(sim, latency=UniformLatency(0.1, 10.0), fifo=True)
        a, b = Echo(sim, net, "a"), Echo(sim, net, "b")
        for i in range(50):
            a.send("b", "note", seq=i)
        sim.run()
        assert [m["seq"] for m in b.received] == list(range(50))

    def test_non_fifo_link_can_reorder(self):
        reordered = False
        for seed in range(20):
            sim = Simulator(seed=seed)
            net = Network(sim, latency=UniformLatency(0.1, 10.0), fifo=False)
            a, b = Echo(sim, net, "a"), Echo(sim, net, "b")
            for i in range(20):
                a.send("b", "note", seq=i)
            sim.run()
            if [m["seq"] for m in b.received] != list(range(20)):
                reordered = True
                break
        assert reordered, "no reordering observed across 20 seeds"

    def test_broadcast_reaches_all(self, sim):
        net = make_net(sim)
        Echo(sim, net, "a")
        others = [Echo(sim, net, f"n{i}") for i in range(3)]
        net.broadcast("a", [n.name for n in others], "note", payload={"x": 1})
        sim.run()
        assert all(len(n.received) == 1 for n in others)

    def test_stats_count_by_type(self, sim):
        net = make_net(sim)
        a, b = Echo(sim, net, "a"), Echo(sim, net, "b")
        a.send("b", "note", text="1")
        a.send("b", "note", text="2")
        sim.run()
        assert net.stats.by_type["note"] == 2
        assert net.stats.messages_matching("no") == 2
        assert net.stats.delivered == 2


class TestLoss:
    def test_loss_rate_drops_messages(self):
        sim = Simulator(seed=3)
        net = Network(sim, latency=ConstantLatency(1.0), loss_rate=0.5)
        a, b = Echo(sim, net, "a"), Echo(sim, net, "b")
        for i in range(200):
            a.send("b", "note", seq=i)
        sim.run()
        assert 0 < len(b.received) < 200
        assert net.stats.dropped_loss == 200 - len(b.received)

    def test_invalid_loss_rate_rejected(self, sim):
        with pytest.raises(ValueError):
            Network(sim, loss_rate=1.0)


class TestPartitions:
    def test_cross_partition_messages_dropped(self, sim):
        net = make_net(sim)
        a, b, c = Echo(sim, net, "a"), Echo(sim, net, "b"), Echo(sim, net, "c")
        net.partition(["a"], ["b", "c"])
        a.send("b", "note")
        b.send("c", "note")
        sim.run()
        assert len(b.received) == 0
        assert len(c.received) == 1

    def test_heal_restores_connectivity(self, sim):
        net = make_net(sim)
        a, b = Echo(sim, net, "a"), Echo(sim, net, "b")
        net.partition(["a"], ["b"])
        a.send("b", "note")
        sim.run()
        net.heal()
        a.send("b", "note")
        sim.run()
        assert len(b.received) == 1

    def test_unlisted_nodes_form_residual_group(self, sim):
        net = make_net(sim)
        a, b, c = Echo(sim, net, "a"), Echo(sim, net, "b"), Echo(sim, net, "c")
        net.partition(["a"])  # b and c implicitly together
        b.send("c", "note")
        a.send("c", "note")
        sim.run()
        assert len(c.received) == 1

    def test_partition_cuts_in_flight_messages(self, sim):
        net = make_net(sim, latency=ConstantLatency(5.0))
        a, b = Echo(sim, net, "a"), Echo(sim, net, "b")
        a.send("b", "note")
        sim.schedule(1.0, net.partition, ["a"], ["b"])
        sim.run()
        assert len(b.received) == 0


class TestRpc:
    def test_call_resolves_with_reply(self, sim):
        net = make_net(sim)
        a, b = Echo(sim, net, "a"), Echo(sim, net, "b")
        def proc():
            reply = yield a.call("b", "ping")
            return reply["text"]
        handle = sim.spawn(proc())
        sim.run()
        assert handle.result == "pong from b"

    def test_call_timeout_fires(self, sim):
        net = make_net(sim)
        a = Echo(sim, net, "a")
        b = Echo(sim, net, "b")
        b.crash()
        def proc():
            try:
                yield a.call("b", "ping", timeout=10.0)
            except TimeoutError:
                return "timed out at %.0f" % sim.now
        handle = sim.spawn(proc())
        sim.run()
        assert handle.result == "timed out at 10"

    def test_reply_after_timeout_is_ignored(self, sim):
        net = make_net(sim, latency=ConstantLatency(5.0))
        a, b = Echo(sim, net, "a"), Echo(sim, net, "b")
        def proc():
            try:
                yield a.call("b", "ping", timeout=1.0)
            except TimeoutError:
                pass
            yield sim.timeout(100.0)
            return "done"
        handle = sim.spawn(proc())
        sim.run()
        assert handle.result == "done"


class TestCrash:
    def test_crashed_node_does_not_receive(self, sim):
        net = make_net(sim)
        a, b = Echo(sim, net, "a"), Echo(sim, net, "b")
        b.crash()
        a.send("b", "note")
        sim.run()
        assert b.received == []

    def test_crashed_node_does_not_send(self, sim):
        net = make_net(sim)
        a, b = Echo(sim, net, "a"), Echo(sim, net, "b")
        a.crash()
        a.send("b", "note")
        sim.run()
        assert b.received == []

    def test_in_flight_message_to_crashing_node_dropped(self, sim):
        net = make_net(sim, latency=ConstantLatency(5.0))
        a, b = Echo(sim, net, "a"), Echo(sim, net, "b")
        a.send("b", "note")
        sim.schedule(1.0, b.crash)
        sim.run()
        assert b.received == []

    def test_crash_interrupts_owned_processes(self, sim):
        net = make_net(sim)
        a = Echo(sim, net, "a")
        def proc():
            yield sim.timeout(100.0)
            return "survived"
        handle = a.spawn(proc())
        sim.schedule(1.0, a.crash)
        sim.run()
        assert handle.failed
        assert isinstance(handle.exception, NodeCrashed)

    def test_crash_cancels_timers(self, sim):
        net = make_net(sim)
        a = Echo(sim, net, "a")
        seen = []
        a.after(10.0, seen.append, "fired")
        sim.schedule(1.0, a.crash)
        sim.run()
        assert seen == []

    def test_crash_fails_pending_calls(self, sim):
        net = make_net(sim, latency=ConstantLatency(50.0))
        a, b = Echo(sim, net, "a"), Echo(sim, net, "b")
        future = a.call("b", "ping")
        sim.schedule(1.0, a.crash)
        sim.run()
        assert future.failed
        assert isinstance(future.exception, NodeCrashed)

    def test_recover_rejoins_network(self, sim):
        net = make_net(sim)
        a, b = Echo(sim, net, "a"), Echo(sim, net, "b")
        b.crash()
        b.recover()
        a.send("b", "note")
        sim.run()
        assert len(b.received) == 1

    def test_every_stops_after_crash(self, sim):
        net = make_net(sim)
        a = Echo(sim, net, "a")
        ticks = []
        a.every(1.0, lambda: ticks.append(sim.now))
        sim.schedule(3.5, a.crash)
        sim.schedule(10.0, lambda: None)
        sim.run()
        assert ticks == [1.0, 2.0, 3.0]


class TestPerLinkLatency:
    def test_override_applies_to_specific_link(self, sim):
        model = PerLinkLatency(default=ConstantLatency(1.0))
        model.set_link("a", "b", ConstantLatency(20.0))
        net = Network(sim, latency=model)
        a, b, c = Echo(sim, net, "a"), Echo(sim, net, "b"), Echo(sim, net, "c")
        a.send("c", "note")
        a.send("b", "note")
        sim.run()
        assert sim.now == 20.0
        assert len(b.received) == 1 and len(c.received) == 1


class TestBroadcastIsolation:
    def test_receiver_mutation_does_not_leak_to_siblings(self, sim):
        # Regression: broadcast used to shallow-copy the payload, so one
        # receiver mutating a nested value corrupted every other envelope
        # (and the caller's dict).
        net = make_net(sim)
        Node(sim, net, "src")
        seen = {}
        def grab(msg):
            msg.payload["vector"][msg.dst] = "tainted"
            seen[msg.dst] = msg.payload["vector"]
        for name in ("a", "b", "c"):
            node = Node(sim, net, name)
            node.on("state", grab)
        original = {"vector": {"seed": 0}, "round": 1}
        net.broadcast("src", ["a", "b", "c"], "state", payload=original)
        sim.run()
        for name in ("a", "b", "c"):
            assert seen[name] == {"seed": 0, name: "tainted"}
        assert original == {"vector": {"seed": 0}, "round": 1}

    def test_nested_list_payload_isolated(self, sim):
        net = make_net(sim)
        Node(sim, net, "src")
        seen = {}
        def grab(msg):
            msg.payload["log"].append(msg.dst)
            seen[msg.dst] = msg.payload["log"]
        for name in ("a", "b"):
            node = Node(sim, net, name)
            node.on("state", grab)
        net.broadcast("src", ["a", "b"], "state", payload={"log": ["x"]})
        sim.run()
        assert seen["a"] == ["x", "a"]
        assert seen["b"] == ["x", "b"]


class TestPartitionMap:
    def test_repartition_without_heal(self, sim):
        # The node->group map must be rebuilt by every partition() call,
        # not only after an intervening heal().
        net = make_net(sim)
        a, b, c = Echo(sim, net, "a"), Echo(sim, net, "b"), Echo(sim, net, "c")
        net.partition(["a", "b"], ["c"])
        a.send("b", "note")
        sim.run()
        assert len(b.received) == 1
        net.partition(["a", "c"], ["b"])
        a.send("b", "note")
        a.send("c", "note")
        sim.run()
        assert len(b.received) == 1  # now cut off
        assert len(c.received) == 1  # now reachable

    def test_node_registered_after_partition_is_isolated(self, sim):
        net = make_net(sim)
        a = Echo(sim, net, "a")
        net.partition(["a"])
        late = Echo(sim, net, "late")
        a.send("late", "note")
        late.send("a", "note")
        sim.run()
        assert len(late.received) == 0
        assert len(a.received) == 0
        assert net.stats.dropped_partition == 2

    def test_overlapping_groups_first_wins(self, sim):
        net = make_net(sim)
        a, b, c = Echo(sim, net, "a"), Echo(sim, net, "b"), Echo(sim, net, "c")
        net.partition(["a", "b"], ["b", "c"])  # b belongs to its first group
        b.send("a", "note")
        b.send("c", "note")
        sim.run()
        assert len(a.received) == 1
        assert len(c.received) == 0


class TestCallTimerHygiene:
    def test_replied_calls_do_not_accumulate_guard_timers(self, sim):
        # Regression: every replied Node.call(timeout=...) used to leave
        # its expiry timer queued until the distant timeout, so RPC-heavy
        # runs dragged an ever-growing heap behind them.
        net = make_net(sim)
        Echo(sim, net, "server")
        client = Node(sim, net, "client")
        def caller():
            for _ in range(300):
                yield client.call("server", "ping", timeout=1_000_000.0)
        client.spawn(caller())
        sim.run()
        assert sim.now < 1_000_000.0
        assert sim.pending_events < 100

    def test_timeout_guard_still_fires_without_reply(self, sim):
        net = make_net(sim)
        deaf = Node(sim, net, "deaf")
        deaf.on("ping", lambda msg: None)  # receives, never replies
        client = Node(sim, net, "client")
        def caller():
            try:
                yield client.call("deaf", "ping", timeout=10.0)
            except TimeoutError:
                return sim.now
        handle = client.spawn(caller())
        sim.run()
        assert handle.result == 10.0


class _ObsProbe:
    """Duck-typed observer stub recording span opens and closes."""

    def __init__(self):
        self.sent = []
        self.delivered = []
        self.dropped = []

    def on_message_send(self, message):
        self.sent.append(message.msg_id)

    def on_message_deliver(self, message):
        self.delivered.append(message.msg_id)

    def on_message_drop(self, message, cause):
        self.dropped.append((message.msg_id, cause))


class TestObsFlightSpans:
    def test_unknown_destination_closes_flight_span(self, sim):
        # Regression: _route raised NetworkError for an unknown destination
        # without telling the observer, leaving the just-opened flight
        # span dangling forever.
        probe = _ObsProbe()
        net = Network(sim, latency=ConstantLatency(1.0), obs=probe)
        a = Echo(sim, net, "a")
        with pytest.raises(NetworkError):
            a.send("ghost", "note")
        assert probe.sent == [1]
        assert probe.dropped == [(1, "no-route")]
        assert probe.delivered == []
