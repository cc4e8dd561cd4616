"""Figure 2 — active replication.

One update, three replicas: RE and SC merge into the atomic broadcast, no
AC phase exists, every replica executes and responds.
"""

from conftest import figure_block, report, run_single_request
from repro import AC, END, EX, RE, SC, Operation


def scenario():
    return run_single_request(
        "active", [Operation.update("x", "add", 10)], replicas=3, seed=1
    )


def test_fig02_active_replication(once):
    system, result = once(scenario)
    assert result.committed and result.value == 10

    # Every replica runs the full RE,SC,EX,END sequence — and no AC.
    for lane in system.replica_names:
        observed = system.tracer.observed_sequence(result.request_id, source=lane)
        assert observed == [RE, SC, EX, END], (lane, observed)
    assert system.tracer.mechanisms_used(result.request_id)[SC] == "abcast"
    assert system.converged(values_only=False)
    # All replicas answered; the client kept exactly one response.
    assert system.net.stats.by_type["client.response"] == 3
    assert system.observer.metrics.snapshot()["counters"]["requests.committed"] == 1
    assert not system.client(0)._pending

    report(
        "fig02_active",
        figure_block(
            system, result, "Figure 2: Active replication",
            notes=[
                "RE+SC merged into the Atomic Broadcast; no AC phase",
                "all 3 replicas executed and responded; client used first reply",
                f"client latency: {result.latency:.1f}",
            ],
        ),
        system=system,
    )
