"""Correctness gate and determinism fingerprint of one simulated run.

The gate raises :class:`GateError` when a run's outputs are wrong; the
benchmark then exits non-zero without reporting numbers.  The
fingerprint holds every simulated-time output a perf change must leave
byte-identical; repeats of a workload, and the traced run, must match it.
"""

from __future__ import annotations

import hashlib
import math
from typing import Dict, List

from repro.analysis.serializability import counter_check
from repro.sim import Simulator

MIN_COMMITTED = 1000  # so at least 10 samples lie beyond sim_p99


class GateError(Exception):
    """A correctness check failed."""


def percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def due_arrivals(arrival, seed: int) -> List[float]:
    """The arrival instants the open-loop schedule asks for, replayed.

    Mirrors ``OpenLoopEngine``'s draw from its ``openloop.arrivals``
    stream with the same float arithmetic, so a run whose requests were
    submitted exactly when due matches this list exactly.
    """
    rng = Simulator(seed=seed).stream("openloop.arrivals")

    def gap(now: float) -> float:
        if arrival.process == "deterministic":
            return 1.0 / arrival.rate
        return rng.expovariate(max(arrival.rate_at(now), 1e-9))

    now = 0.0 + gap(0.0)
    due = []
    while True:
        due.append(now)
        step = gap(now)
        if now + step < arrival.duration:
            now = now + step
        else:
            return due


def check(workload, system, engine, seed: int) -> Dict[str, int]:
    """Run every correctness check; return the request accounting."""
    problems = []
    admission = system.admission
    offered = admission.offered if admission is not None else engine.submitted
    committed = sum(1 for r in engine.results if r.committed)
    aborted = len(engine.results) - committed
    shed = len(engine.shed_results)
    if offered != engine.submitted:
        problems.append(f"edge saw {offered} arrivals, engine {engine.submitted}")
    if offered != committed + aborted + shed:
        problems.append(
            f"offered {offered} != committed {committed} + aborted {aborted} + shed {shed}"
        )
    if admission is not None and (admission.shed != shed or admission.queued):
        problems.append(f"admission shed {admission.shed} (engine {shed}), "
                        f"{admission.queued} still queued")
    pending = sum(len(client._pending) for client in system.clients)
    if engine.in_flight or pending:
        problems.append(f"{engine.in_flight} in flight, {pending} pending at clients")
    if committed < MIN_COMMITTED:
        problems.append(f"only {committed} committed (< {MIN_COMMITTED})")
    crashed = [name for name in system.replica_names if system.replicas[name].crashed]
    if crashed:
        problems.append(f"replicas still crashed after settling: {crashed}")
    if not system.converged(live_only=False):
        problems.append(f"replicas diverged: {system.divergent_replicas()}")
    stores = {name: system.store_of(name) for name in system.replica_names}
    problems.extend(counter_check(engine.results, stores, strict=False))
    submitted = sorted(r.submitted_at for r in engine.results + engine.shed_results)
    if submitted != due_arrivals(workload.arrival, seed):
        problems.append("arrivals were not submitted at their due instants "
                        "(generator lateness must be zero)")
    if problems:
        raise GateError(f"{workload.name} seed {seed}: " + "; ".join(problems))
    return {"offered": offered, "committed": committed, "aborted": aborted, "shed": shed}


def fingerprint(system, engine, counts: Dict[str, int]) -> Dict[str, object]:
    """Simulated-time outputs of a run, for identity checks."""
    committed = sorted((r for r in engine.results if r.committed),
                       key=lambda r: r.request_id)
    latencies = sorted(r.latency for r in committed)
    digest = hashlib.sha256()
    for r in committed:
        digest.update(repr((r.request_id, r.server, r.values, r.retries,
                            r.submitted_at, r.completed_at)).encode())
    return {
        "events": system.sim.events_processed,
        "end_time": system.sim.now,
        "messages": sorted(system.net.stats.by_type.items()),
        "sim_p50": percentile(latencies, 0.50),
        "sim_p99": percentile(latencies, 0.99),
        **counts,
        "results_sha256": digest.hexdigest(),
    }
