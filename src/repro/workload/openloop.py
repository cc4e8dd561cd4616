"""Open-loop workload engine: arrival processes over lightweight clients.

The closed-loop driver models each client as a simulator process that
waits for its previous response before submitting again — faithful to
interactive terminals, but it caps the client population at the number
of processes the run can afford, and offered load collapses exactly when
the system slows down (the coordinated-omission trap).  An open-loop
engine decouples the two: an **arrival process** decides *when* requests
enter, independent of how the system is doing, and each arrival is
attributed to one of up to 10⁵–10⁶ **logical clients** represented as
lightweight in-flight records instead of processes.  Offered load is an
input, goodput is an output, and the difference — queueing, shedding,
aborts — is the saturation behaviour Section 6 is about.

Arrival timing draws from named :meth:`~repro.sim.Simulator.stream`
RNGs, so the arrival schedule is deterministic per seed and independent
of protocol-internal randomness: two techniques swept with the same seed
face the byte-identical offered sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from ..analysis.metrics import WorkloadSummary, summarize
from ..core.admission import AdmissionConfig
from ..core.operations import Result
from ..core.system import ReplicatedSystem
from ..sim import Future
from .generator import WorkloadGenerator, WorkloadSpec

__all__ = ["ArrivalSpec", "OpenLoopEngine", "run_openloop"]

_PROCESSES = ("poisson", "deterministic", "burst", "diurnal")


@dataclass(frozen=True)
class ArrivalSpec:
    """Shape of an open-loop arrival process.

    ``process`` selects the inter-arrival law:

    * ``"poisson"`` — exponential gaps at ``rate`` (memoryless traffic);
    * ``"deterministic"`` — fixed gaps of ``1/rate`` (paced load tester);
    * ``"burst"`` — Poisson at ``rate``, except inside periodic windows
      (every ``burst_every`` time units, for ``burst_length``) where the
      rate jumps to ``burst_rate`` — flash-crowd traffic;
    * ``"diurnal"`` — Poisson whose rate follows a sinusoid of period
      ``diurnal_period`` and relative amplitude ``diurnal_amplitude``
      around ``rate`` — a compressed day/night cycle.

    Each arrival is attributed to one of ``clients`` logical clients and
    may carry a ``deadline_budget`` (relative give-up time stamped on
    the message envelope, enforced by admission control and replicas).
    """

    process: str = "poisson"
    rate: float = 1.0
    duration: float = 1000.0
    clients: int = 100_000
    burst_rate: float = 0.0
    burst_every: float = 200.0
    burst_length: float = 50.0
    diurnal_period: float = 500.0
    diurnal_amplitude: float = 0.8
    deadline_budget: Optional[float] = None

    def __post_init__(self) -> None:
        if self.process not in _PROCESSES:
            raise ValueError(
                f"unknown arrival process {self.process!r}; "
                f"available: {sorted(_PROCESSES)}"
            )
        if not self.rate > 0:
            raise ValueError("rate must be > 0")
        if not self.duration > 0:
            raise ValueError("duration must be > 0")
        if self.clients < 1:
            raise ValueError("clients must be >= 1")
        if self.process == "burst":
            if not self.burst_rate > 0:
                raise ValueError("burst process needs burst_rate > 0")
            if not 0 < self.burst_length <= self.burst_every:
                raise ValueError("need 0 < burst_length <= burst_every")
        if self.process == "diurnal":
            if not 0 <= self.diurnal_amplitude < 1:
                raise ValueError("diurnal_amplitude must be in [0, 1)")
            if not self.diurnal_period > 0:
                raise ValueError("diurnal_period must be > 0")
        if self.deadline_budget is not None and not self.deadline_budget > 0:
            raise ValueError("deadline_budget must be > 0 when set")

    def rate_at(self, time: float) -> float:
        """Instantaneous target rate at simulated ``time``."""
        if self.process == "burst":
            phase = time % self.burst_every
            return self.burst_rate if phase < self.burst_length else self.rate
        if self.process == "diurnal":
            wave = math.sin(2 * math.pi * time / self.diurnal_period)
            return self.rate * (1.0 + self.diurnal_amplitude * wave)
        return self.rate


class OpenLoopEngine:
    """Submits an arrival process against a :class:`ReplicatedSystem`.

    The engine draws arrival gaps from the ``openloop.arrivals`` stream
    and logical-client attribution from ``openloop.clients``; requests
    enter through the system's (physical) client edges round-robin by
    logical client id, so admission control and routing policies apply
    unchanged.  Results split into served (``results``) and shed
    (``shed_results``) by the admission edge's ``shed:`` reason prefix.
    """

    def __init__(self, system: ReplicatedSystem, generator: WorkloadGenerator,
                 arrival: ArrivalSpec) -> None:
        self.system = system
        self.generator = generator
        self.arrival = arrival
        self._gap_rng = system.sim.stream("openloop.arrivals")
        self._client_rng = system.sim.stream("openloop.clients")
        self.results: List[Result] = []
        self.shed_results: List[Result] = []
        self.submitted = 0
        self.in_flight = 0
        self.max_in_flight = 0
        self._touched: set = set()
        self._started_at = 0.0
        self._arrivals_done = False
        self._drained = None

    # -- driving ---------------------------------------------------------------

    def run(self, settle: float = 0.0, max_events: int = 50_000_000) -> WorkloadSummary:
        """Play the arrival process to the end and drain all in-flight work."""
        sim = self.system.sim
        self._started_at = sim.now
        self._drained = sim.future(label="openloop-drained")
        sim.schedule(self._next_gap(), self._arrive)
        sim.run_until_done(self._drained, max_events=max_events)
        duration = sim.now - self._started_at
        if settle > 0:
            self.system.settle(settle)
        return self.summary(duration=duration)

    def _arrive(self) -> None:
        sim = self.system.sim
        client_id = self._client_rng.randrange(self.arrival.clients)
        self._touched.add(client_id)
        edge = self.system.clients[client_id % len(self.system.clients)]
        deadline = None
        if self.arrival.deadline_budget is not None:
            deadline = sim.now + self.arrival.deadline_budget
        self.submitted += 1
        self.in_flight += 1
        if self.in_flight > self.max_in_flight:
            self.max_in_flight = self.in_flight
        if self.system.admission is None:
            self._observe("ts.offered")
        future = edge.submit(self.generator.next_transaction(), deadline=deadline)
        future.add_callback(self._on_done)
        elapsed = sim.now - self._started_at
        gap = self._next_gap()
        if elapsed + gap < self.arrival.duration:
            sim.schedule(gap, self._arrive)
        else:
            self._arrivals_done = True
            self._maybe_drained()

    def _next_gap(self) -> float:
        arrival = self.arrival
        if arrival.process == "deterministic":
            return 1.0 / arrival.rate
        # Nonhomogeneous processes approximate by drawing the exponential
        # gap at the instantaneous rate — accurate while the rate changes
        # slowly relative to the gap, which burst/diurnal defaults respect.
        rate = arrival.rate_at(self.system.sim.now - self._started_at)
        rate = max(rate, 1e-9)
        return self._gap_rng.expovariate(rate)

    def _on_done(self, future: Future) -> None:
        self.in_flight -= 1
        result = future.result
        if (result.reason or "").startswith("shed:"):
            self.shed_results.append(result)
        else:
            self.results.append(result)
        self._maybe_drained()

    def _maybe_drained(self) -> None:
        # Queued arrivals hold unresolved futures, so nothing in flight
        # also means the admission queue is empty.
        if self._arrivals_done and self.in_flight == 0:
            self._drained.try_set_result(None)

    def _observe(self, series: str) -> None:
        observer = self.system.observer
        if observer is not None:
            observer.metrics.sample(series, self.system.sim.now)

    # -- accounting ------------------------------------------------------------

    def summary(self, duration: Optional[float] = None) -> WorkloadSummary:
        """Aggregate served results with the offered and shed counts.

        Every arrival passes the admission edge once and every shed
        resolves its future, so these equal the edge's own counters.
        """
        return summarize(self.results, duration=duration,
                         offered=self.submitted, shed=len(self.shed_results))

    def stats(self) -> Dict[str, Any]:
        """Engine-side accounting next to the admission snapshot."""
        row: Dict[str, Any] = {
            "submitted": self.submitted,
            "logical_clients": len(self._touched),
            "max_in_flight": self.max_in_flight,
            "served": len(self.results),
            "shed": len(self.shed_results),
        }
        if self.system.admission is not None:
            row["admission"] = self.system.admission.snapshot()
        return row


def run_openloop(
    protocol: str,
    spec: Optional[WorkloadSpec] = None,
    arrival: Optional[ArrivalSpec] = None,
    replicas: int = 3,
    clients: int = 4,
    seed: int = 7,
    admission: Optional[AdmissionConfig] = None,
    settle: float = 300.0,
    system_kwargs: Optional[dict] = None,
    config: Optional[dict] = None,
    observe: bool = False,
) -> tuple:
    """One-call open-loop experiment: build system, play arrivals, summarize.

    Returns ``(system, engine, summary)``.  ``clients`` is the number of
    *physical* client edges; the logical population lives in
    ``arrival.clients``.
    """
    spec = spec if spec is not None else WorkloadSpec()
    arrival = arrival if arrival is not None else ArrivalSpec()
    system = ReplicatedSystem(
        protocol,
        replicas=replicas,
        clients=clients,
        seed=seed,
        config=config,
        observe=observe,
        admission=admission,
        **(system_kwargs or {}),
    )
    generator = WorkloadGenerator(spec, seed=seed)
    engine = OpenLoopEngine(system, generator, arrival)
    summary = engine.run(settle=settle)
    return system, engine, summary
