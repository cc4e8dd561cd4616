"""Composable chaos campaigns: named fault scenarios as data.

A :class:`ChaosCampaign` is a list of timed :class:`FaultAction`\\ s —
crashes, recoveries, partitions, heals and the link-fault windows from the
network fault plane (drop, duplicate, jitter, slow).  Campaigns are plain
frozen data: composing a new scenario means writing a tuple, not code, and
the same campaign runs unchanged against every replication technique.

:func:`run_campaign` drives one ``(campaign, technique, seed)`` cell:
it builds a :class:`~repro.core.system.ReplicatedSystem`, attaches
:class:`~repro.resilience.client.ResilientClient` edges, schedules the
campaign through the :class:`~repro.failures.FailureInjector`, runs a
closed-loop counter workload, and then asserts the technique's *declared*
guarantee:

* **strong** techniques must keep exactly-once counters (every committed
  increment visible exactly once at every live replica), finish every
  request definitively (no indeterminate outcomes within the deadline
  budget), and converge;
* **weak** (lazy) techniques must converge after the faults heal —
  transient divergence and lost unshipped commits are their documented
  price.

Every cell is deterministic: the workload, retry jitter and fault plane
draw from named simulator streams, so the same seed produces the same
:class:`CampaignReport` and byte-identical obs evidence artifacts.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.operations import INDETERMINATE_REASONS, Operation, Result
from ..core.protocols import REGISTRY
from ..core.system import ReplicatedSystem
from ..analysis import counter_check
from ..failures import FailureInjector
from .client import ResilientClient
from .retry import RetryPolicy

__all__ = [
    "FaultAction",
    "ChaosCampaign",
    "CampaignReport",
    "CAMPAIGNS",
    "run_campaign",
    "run_matrix",
]

# Placeholder in partition groups, expanded to the attached client edges'
# node names at schedule time (the clients don't exist when the campaign
# literal is written).
CLIENTS = "@clients"


@dataclass(frozen=True)
class FaultAction:
    """One timed fault (or repair) in a campaign.

    ``kind`` selects the injector call:

    ========== ==================================== =====================
    kind       injector effect                      uses
    ========== ==================================== =====================
    crash      ``crash_at(at, node)``               node
    recover    ``recover_at(at, node)``             node
    partition  ``partition_at(at, *groups)``        groups
    heal       ``heal_at(at)``                      —
    drop       ``fault_at(at, node, ...)``          node, value, duration
    duplicate  ``fault_at(at, node, ...)``          node, value, duration
    jitter     ``fault_at(at, node, ...)``          node, value, duration
    slow       ``fault_at(at, node, ...)``          node, value, duration
    ========== ==================================== =====================

    Partition groups may contain the :data:`CLIENTS` placeholder, which
    expands to every attached resilient client.
    """

    kind: str
    at: float
    node: str = ""
    value: float = 0.0
    duration: Optional[float] = None
    groups: Tuple[Tuple[str, ...], ...] = ()


@dataclass(frozen=True)
class ChaosCampaign:
    """A named, reusable fault scenario."""

    name: str
    description: str
    actions: Tuple[FaultAction, ...]

    def horizon(self) -> float:
        """Time by which every action (and fault window) has played out."""
        times = [0.0]
        for action in self.actions:
            times.append(action.at + (action.duration or 0.0))
        return max(times)

    def schedule(self, injector: FailureInjector, clients: Sequence[str] = ()) -> None:
        """Arm every action on ``injector`` (validates names immediately)."""
        for action in self.actions:
            if action.kind == "crash":
                injector.crash_at(action.at, action.node)
            elif action.kind == "recover":
                injector.recover_at(action.at, action.node)
            elif action.kind == "partition":
                groups = [self._expand(group, clients) for group in action.groups]
                injector.partition_at(action.at, *groups)
            elif action.kind == "heal":
                injector.heal_at(action.at)
            else:
                injector.fault_at(
                    action.at, action.node, action.kind, action.value,
                    duration=action.duration,
                )

    @staticmethod
    def _expand(group: Tuple[str, ...], clients: Sequence[str]) -> List[str]:
        expanded: List[str] = []
        for member in group:
            if member == CLIENTS:
                expanded.extend(clients)
            else:
                expanded.append(member)
        return expanded


# ---------------------------------------------------------------------------
# The named campaigns
# ---------------------------------------------------------------------------

CAMPAIGNS: Dict[str, ChaosCampaign] = {
    campaign.name: campaign
    for campaign in (
        ChaosCampaign(
            name="partition_during_view_change",
            description=(
                "Crash a member, then split the group while the view change "
                "it triggered is still settling; heal, then bring the "
                "crashed member back.  Exercises reconfiguration logic "
                "racing a partition."
            ),
            actions=(
                FaultAction("crash", at=40.0, node="r2"),
                FaultAction("partition", at=50.0,
                            groups=(("r0", CLIENTS), ("r1",))),
                FaultAction("heal", at=110.0),
                FaultAction("recover", at=130.0, node="r2"),
            ),
        ),
        ChaosCampaign(
            name="primary_crash_mid_2pc",
            description=(
                "Crash r0 — the initial primary / delegate — while "
                "coordination rounds are in flight, then recover it.  "
                "Clients must fail over (retrying the same idempotency "
                "key) without double-applying."
            ),
            actions=(
                FaultAction("crash", at=32.0, node="r0"),
                FaultAction("recover", at=120.0, node="r0"),
            ),
        ),
        ChaosCampaign(
            name="group_loss_under_load",
            description=(
                "A lossy, duplicating network under load: 35% loss on all "
                "of r1's links and 30% duplication on r0's for 60 time "
                "units.  Retries plus server-side dedup must keep "
                "counters exact despite at-least-once delivery."
            ),
            actions=(
                FaultAction("drop", at=25.0, node="r1", value=0.35, duration=60.0),
                FaultAction("duplicate", at=25.0, node="r0", value=0.30,
                            duration=60.0),
            ),
        ),
        ChaosCampaign(
            name="detector_flap_storm",
            description=(
                "Gray failure: r1 answers 8x slow and r2's links reorder "
                "under 6-unit jitter for 50 time units.  Failure detectors "
                "flap with wrong suspicions; safety must hold anyway."
            ),
            actions=(
                FaultAction("slow", at=20.0, node="r1", value=8.0, duration=50.0),
                FaultAction("jitter", at=20.0, node="r2", value=6.0, duration=50.0),
            ),
        ),
        ChaosCampaign(
            name="rolling_restarts",
            description=(
                "Restart every replica in sequence, one at a time, under "
                "continuous load — the everyday maintenance scenario that "
                "still loses data when recovery is wrong."
            ),
            actions=(
                FaultAction("crash", at=30.0, node="r1"),
                FaultAction("recover", at=70.0, node="r1"),
                FaultAction("crash", at=90.0, node="r2"),
                FaultAction("recover", at=130.0, node="r2"),
                FaultAction("crash", at=150.0, node="r0"),
                FaultAction("recover", at=190.0, node="r0"),
            ),
        ),
    )
}


# ---------------------------------------------------------------------------
# Campaign execution
# ---------------------------------------------------------------------------

@dataclass
class CampaignReport:
    """The verdict for one (campaign, technique, seed) cell."""

    campaign: str
    technique: str
    consistency: str
    seed: int
    requests: int = 0
    committed: int = 0
    definitive_aborts: int = 0
    indeterminate: int = 0
    retries: int = 0
    breaker_trips: int = 0
    converged: bool = False
    violations: List[str] = field(default_factory=list)
    passed: bool = False
    finished_at: float = 0.0
    artifacts: Dict[str, str] = field(default_factory=dict)

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        line = (
            f"{status} {self.campaign} x {self.technique} (seed {self.seed}): "
            f"{self.committed}/{self.requests} committed, "
            f"{self.definitive_aborts} aborted, "
            f"{self.indeterminate} indeterminate, {self.retries} retries, "
            f"{self.breaker_trips} breaker trips, "
            f"converged={self.converged}"
        )
        if self.violations:
            line += f"; violations: {'; '.join(self.violations)}"
        return line


def run_campaign(
    technique: str,
    campaign: ChaosCampaign,
    seed: int = 0,
    clients: int = 2,
    requests_per_client: int = 6,
    deadline: float = 400.0,
    request_timeout: float = 30.0,
    retry: Optional[RetryPolicy] = None,
    observe: bool = True,
    artifact_dir: Optional[str] = None,
    settle_time: float = 600.0,
) -> CampaignReport:
    """Run one campaign against one technique and judge the outcome.

    The workload is a closed loop per client: counter increments with
    think time, each driven through the resilient edge.  A definitive
    abort (lock timeout, deadlock, certification conflict — outcomes the
    edge *knows* had no effect) is resubmitted as a fresh request, the
    way an application-level retry would; an indeterminate outcome is
    never resubmitted, because doing so could double-apply.
    """
    system = ReplicatedSystem(
        technique, replicas=3, clients=0, seed=seed,
        fd_interval=2.0, fd_timeout=8.0, observe=observe,
    )
    edges = [
        ResilientClient(
            system, index=i, request_timeout=request_timeout,
            deadline=deadline, retry=retry,
        )
        for i in range(clients)
    ]
    campaign.schedule(system.injector, clients=[edge.name for edge in edges])

    results: List[Result] = []

    def load(edge: ResilientClient):
        # Per-client named stream: think times never perturb the main
        # workload stream or other clients' draws.
        rng = system.sim.stream(f"campaign.load.{edge.name}")
        for _ in range(requests_per_client):
            result = yield edge.submit(Operation.update("x", "add", 1))
            resubmits = 0
            while (
                not result.committed
                and result.reason not in INDETERMINATE_REASONS
                and resubmits < 8
            ):
                resubmits += 1
                yield system.sim.timeout(rng.uniform(5.0, 15.0))
                result = yield edge.submit(Operation.update("x", "add", 1))
            results.append(result)
            yield system.sim.timeout(rng.uniform(5.0, 20.0))

    procs = [
        system.sim.spawn(load(edge), name=f"load-{edge.name}") for edge in edges
    ]
    system.sim.run_until_done(system.sim.all_of(procs))
    # Let any still-armed fault window play out before end-of-run hygiene
    # (healing ahead of a scheduled partition would get re-split).
    if system.sim.now < campaign.horizon():
        system.sim.run(until=campaign.horizon() + 1.0)
    system.net.heal()
    system.net.clear_faults()
    system.settle(settle_time)

    committed = [r for r in results if r.committed]
    indeterminate = [
        r for r in results
        if not r.committed and r.reason in INDETERMINATE_REASONS
    ]
    stores = {name: system.store_of(name) for name in system.live_replicas()}
    violations = counter_check(committed, stores, strict=False)
    converged = system.converged()

    report = CampaignReport(
        campaign=campaign.name,
        technique=technique,
        consistency=system.info.consistency,
        seed=seed,
        requests=len(results),
        committed=len(committed),
        definitive_aborts=len(results) - len(committed) - len(indeterminate),
        indeterminate=len(indeterminate),
        retries=sum(r.retries for r in results),
        breaker_trips=sum(
            sum(1 for _, state in breaker.transitions if state == "open")
            for edge in edges for breaker in edge.breakers.values()
        ),
        converged=converged,
        violations=list(violations),
        finished_at=system.sim.now,
    )
    if system.info.consistency == "strong":
        # The strong guarantee: every request settles definitively within
        # its budget, committed increments land exactly once everywhere.
        report.passed = (
            not violations and converged and not indeterminate
        )
    else:
        # The lazy guarantee is weaker by design: convergence after heal.
        report.passed = converged

    if observe and artifact_dir is not None:
        from ..obs import write_artifacts

        stem = os.path.join(
            artifact_dir, f"{campaign.name}--{technique}--seed{seed}"
        )
        node_order = list(system.replica_names) + [e.name for e in edges]
        written = write_artifacts(
            system.observer, stem, node_order=node_order,
            title=f"{campaign.name}/{technique}",
        )
        # Record basenames, not paths: the report itself is an evidence
        # artifact, and same-seed runs must be byte-identical no matter
        # which directory they export into.
        report.artifacts = {
            kind: os.path.basename(path) for kind, path in written.items()
        }
        report_path = f"{stem}.report.json"
        with open(report_path, "w") as handle:
            json.dump(asdict(report), handle, indent=2, sort_keys=True)
            handle.write("\n")
        report.artifacts["report"] = os.path.basename(report_path)
    return report


def run_matrix(
    campaigns: Optional[Sequence[str]] = None,
    techniques: Optional[Sequence[str]] = None,
    seed: int = 0,
    observe: bool = True,
    artifact_dir: Optional[str] = None,
    **kwargs: Any,
) -> List[CampaignReport]:
    """Run campaigns x techniques; returns one report per cell.

    Defaults to every named campaign against every registered technique —
    the full robustness matrix behind ``make chaos``.
    """
    campaign_names = list(campaigns) if campaigns else sorted(CAMPAIGNS)
    technique_names = list(techniques) if techniques else list(REGISTRY)
    reports = []
    for campaign_name in campaign_names:
        if campaign_name not in CAMPAIGNS:
            raise ValueError(
                f"unknown campaign {campaign_name!r}; "
                f"available: {sorted(CAMPAIGNS)}"
            )
        for technique in technique_names:
            reports.append(
                run_campaign(
                    technique, CAMPAIGNS[campaign_name], seed=seed,
                    observe=observe, artifact_dir=artifact_dir, **kwargs,
                )
            )
    return reports
