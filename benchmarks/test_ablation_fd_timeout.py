"""Ablation — failure-detector aggressiveness (Section 3.5's trade-off).

"The main advantage [of semi-passive] ... is to allow for aggressive
time-outs ... without incurring a too important cost for incorrect
failure suspicions."  This ablation sweeps the suspicion timeout and
measures, under jittery latency (which provokes wrong suspicions):

* how many wrong suspicions occur,
* what they cost in **passive** replication — view changes (full
  reconfiguration protocol runs), and
* what they cost in **semi-passive** replication — merely redundant
  executions at extra coordinators, with no membership machinery at all.
"""

from conftest import format_rows, report
from repro import Operation, ReplicatedSystem
from repro.net import UniformLatency

TIMEOUTS = [1.5, 4.0, 12.0]


def run_one(protocol, fd_timeout, seed=31):
    system = ReplicatedSystem(
        protocol, replicas=3, clients=1, seed=seed,
        latency=UniformLatency(0.4, 2.2),
        fd_interval=1.0, fd_timeout=fd_timeout, client_timeout=60.0,
    )

    results = []

    def loop():
        for _ in range(10):
            results.append(
                (yield system.client(0).submit([Operation.update("x", "add", 1)]))
            )
            yield system.sim.timeout(12.0)

    handle = system.sim.spawn(loop())
    system.sim.run_until_done(handle)
    system.settle(400)
    wrong = sum(
        system.replicas[n].detector.wrong_suspicions for n in system.replica_names
    )
    if protocol == "passive":
        reconfig_cost = max(
            system.protocol_at(n).view_group.view.view_id
            for n in system.replica_names
        )
    else:
        # Redundant executions: every coordinator that evaluated its thunk,
        # minus the 10 winning evaluations the requests actually needed.
        executed = sum(
            len(system.protocol_at(n).consensus._computed)
            for n in system.replica_names
        )
        reconfig_cost = max(0, executed - 10)
    committed = sum(1 for r in results if r.committed)
    value = max(
        system.store_of(n).read("x") or 0 for n in system.live_replicas()
    )
    return {
        "wrong": wrong,
        "cost": reconfig_cost,
        "committed": committed,
        "exact": value == committed,
    }


def sweep():
    table = {}
    for timeout in TIMEOUTS:
        for protocol in ("passive", "semi_passive"):
            table[(protocol, timeout)] = run_one(protocol, timeout)
    return table


def test_ablation_fd_timeout(once):
    table = once(sweep)

    # Aggressive timeouts provoke more wrong suspicions in both.
    for protocol in ("passive", "semi_passive"):
        wrongs = [table[(protocol, t)]["wrong"] for t in TIMEOUTS]
        assert wrongs[0] >= wrongs[-1], (protocol, wrongs)
    # At the most aggressive setting the scenario must actually misfire.
    assert table[("passive", 1.5)]["wrong"] + table[("semi_passive", 1.5)]["wrong"] > 0
    # Passive pays wrong suspicions with membership reconfigurations;
    # semi-passive never reconfigures (its cost is bounded redundant work).
    assert table[("passive", 1.5)]["cost"] > table[("passive", 12.0)]["cost"]
    # Correctness must survive the flapping everywhere.
    for key, row in table.items():
        assert row["committed"] == 10, key
        assert row["exact"], key

    rows = []
    for timeout in TIMEOUTS:
        for protocol in ("passive", "semi_passive"):
            row = table[(protocol, timeout)]
            cost_label = "view changes" if protocol == "passive" else "extra execs"
            rows.append([
                protocol, f"{timeout:g}", str(row["wrong"]),
                f"{row['cost']} {cost_label}", "yes" if row["exact"] else "NO",
            ])
    report(
        "ablation_fd_timeout",
        "Ablation: failure-detector timeout under jittery latency\n"
        "(10 updates; wrong suspicions and what they cost)\n\n"
        + format_rows(
            ["technique", "fd timeout", "wrong suspicions", "suspicion cost", "exact"],
            rows,
        )
        + "\n\nshape: aggressive timeouts -> more wrong suspicions; passive "
        "pays with\nview changes, semi-passive only with redundant executions "
        "(Section 3.5's claim)",
    )
