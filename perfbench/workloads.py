"""The benchmark's three open-loop workloads.

Each is a Poisson-based arrival process from 100,000 logical clients
through 4 physical client edges, against a ``ReplicatedSystem`` with the
default constant 1.0-unit link delay.  Every input is derived from the
``seed`` argument: the system's simulator streams, the transaction
generator and the arrival process.  The reasons each workload exists are
in ``WHY`` (mirrored into ``BENCHMARK.json``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.core.admission import AdmissionConfig
from repro.core.system import ReplicatedSystem
from repro.workload.generator import WorkloadGenerator, WorkloadSpec
from repro.workload.openloop import ArrivalSpec, OpenLoopEngine

LOGICAL_CLIENTS = 100_000
CLIENT_EDGES = 4
SETTLE = 300.0  # simulated time run after the last request resolves


@dataclass(frozen=True)
class Workload:
    name: str
    technique: str
    replicas: int
    spec: WorkloadSpec
    arrival: ArrivalSpec
    config: dict = field(default_factory=dict)
    admission: Optional[AdmissionConfig] = None
    observe: bool = False
    # (replica, crash time, recovery time) of one outage, if any.
    outage: Optional[Tuple[str, float, float]] = None


WORKLOADS = {
    # DS side of the paper under its failure assumption: consensus-based
    # ABCAST with one replica down for 300 units mid-run.  The outage is
    # short because ReliableTransport resends every unacked frame to the
    # dead peer each retry interval, a load that grows faster than the
    # outage is long.
    "ds_crash": Workload(
        name="ds_crash",
        technique="active",
        replicas=5,
        config={"abcast": "consensus"},
        spec=WorkloadSpec(items=200, read_fraction=0.2),
        arrival=ArrivalSpec(process="poisson", rate=0.3, duration=4000.0,
                            clients=LOGICAL_CLIENTS),
        outage=("r0", 1600.0, 1900.0),
    ),
    # DB side under lock conflicts: 4-operation transactions, half reads,
    # 5% of 340 items drawing half the accesses; 2PL, deadlock handling
    # and 2PC run on every request.  Arrivals are dense enough that
    # request work, not idle heartbeats, dominates the run.
    "db_hot": Workload(
        name="db_hot",
        technique="eager_ue_locking",
        replicas=3,
        spec=WorkloadSpec(items=340, read_fraction=0.5, ops_per_transaction=4,
                          hot_fraction=0.05, hot_access_probability=0.5),
        arrival=ArrivalSpec(process="poisson", rate=0.5, duration=10800.0,
                            clients=LOGICAL_CLIENTS),
    ),
    # Cheapest protocol path under flash crowds, observed: 40-unit bursts
    # at 3.0/unit every 200 units over a 0.5/unit base, through a token
    # bucket admitting 1.0/unit with a 48-entry leveling queue.  The queue
    # stays non-empty for most of each cycle, so queue wait sets sim_p50,
    # and burst overflow is shed.
    "edge_burst": Workload(
        name="edge_burst",
        technique="lazy_primary",
        replicas=3,
        spec=WorkloadSpec(items=5000, read_fraction=0.9),
        arrival=ArrivalSpec(process="burst", rate=0.5, burst_rate=3.0,
                            burst_every=200.0, burst_length=40.0,
                            duration=8000.0, clients=LOGICAL_CLIENTS),
        admission=AdmissionConfig(rate=1.0, burst=16, queue_capacity=48),
        observe=True,
    ),
}

WHY = {
    "ds_crash": "active replication over consensus ABCAST, 5 replicas, write-mostly, one "
                "replica crashed then recovered: groupcomm, failures and net work, db idle",
    "db_hot": "eager update-everywhere locking, 3 replicas, 4-op transactions on a small "
              "hot set: lock conflicts, deadlocks and 2PC on every request, groupcomm idle",
    "edge_burst": "lazy primary, 90% reads over 5000 keys, bursts through admission control, "
                  "observed: client edge, admission, engine and obs dominate, groupcomm idle",
}


def build(workload: Workload, seed: int) -> Tuple[ReplicatedSystem, OpenLoopEngine]:
    """The system and engine for one run, everything derived from ``seed``."""
    system = ReplicatedSystem(
        workload.technique,
        replicas=workload.replicas,
        clients=CLIENT_EDGES,
        seed=seed,
        config=workload.config,
        observe=workload.observe,
        admission=workload.admission,
    )
    if workload.outage is not None:
        replica, down, up = workload.outage
        system.injector.crash_at(down, replica)
        system.injector.recover_at(up, replica)
    generator = WorkloadGenerator(workload.spec, seed=seed)
    return system, OpenLoopEngine(system, generator, workload.arrival)
