"""Dynamic twin of the static determinism rules (repro.lint D1xx).

Runs the same seeded workload twice through every registered technique
and asserts the two executions are observably identical: same trace (the
source of every regenerated figure), same final stores, same client
results.  Any nondeterminism the linter's static rules cannot see —
unordered container state, leaked object identity, global RNG reached
through a helper — shows up here as a diff.
"""

import os
import subprocess
import sys

import pytest

from repro import REGISTRY
from repro.workload import WorkloadSpec, run_workload


def _run(technique: str, seed: int):
    spec = WorkloadSpec(items=6, read_fraction=0.3, ops_per_transaction=2)
    system, driver, summary = run_workload(
        technique,
        spec=spec,
        replicas=3,
        clients=2,
        requests_per_client=3,
        seed=seed,
        think_time=5.0,
        settle=300.0,
        config={"abcast": "sequencer"},
    )
    trace = [
        (
            event.time,
            event.category,
            event.source,
            tuple(sorted((key, repr(value)) for key, value in event.data.items())),
        )
        for event in system.trace
    ]
    stores = {
        name: system.store_of(name).digest() for name in system.live_replicas()
    }
    results = [
        (r.request_id, r.committed, repr(r.values), r.server)
        for r in driver.results
    ]
    return trace, stores, results, (summary.requests, summary.committed,
                                    summary.aborted)


@pytest.mark.parametrize("technique", sorted(REGISTRY))
def test_same_seed_same_execution(technique):
    first = _run(technique, seed=1301)
    second = _run(technique, seed=1301)
    for label, a, b in zip(("trace", "stores", "results", "summary"),
                           first, second):
        assert a == b, f"{technique}: {label} diverged between identical seeds"


def test_different_seeds_actually_differ():
    """Guard against the comparison being vacuous (e.g. empty traces).

    With the default constant-latency network the *trace* of a failure-free
    run can be timing-identical across seeds, but the seeded workload mix
    must still show up in the stores and client results.
    """
    base = _run("active", seed=1301)
    other = _run("active", seed=1302)
    assert base != other
    assert len(base[0]) > 50


# A contended eager_ue_locking open-loop cell: lock conflicts, deadlock
# victims and waiter wake-ups on every few requests.  Prints a digest of
# every client result.
_CONTENDED_CELL = """
import hashlib
from repro.workload import ArrivalSpec, WorkloadSpec, run_openloop
_, engine, _ = run_openloop(
    "eager_ue_locking",
    spec=WorkloadSpec(items=40, read_fraction=0.5, ops_per_transaction=3,
                      hot_fraction=0.1, hot_access_probability=0.5),
    arrival=ArrivalSpec(process="poisson", rate=0.4, duration=600.0,
                        clients=1_000),
    seed=5,
)
digest = hashlib.sha256()
for r in sorted(engine.results, key=lambda r: r.request_id):
    digest.update(repr((r.request_id, r.committed, r.reason, r.values,
                        r.completed_at)).encode())
print(digest.hexdigest())
"""


def _cell_digest(hash_seed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-c", _CONTENDED_CELL], env=env, capture_output=True,
        text=True, timeout=300, check=True,
    )
    return done.stdout.strip()


def test_same_seed_same_results_across_processes():
    """String hashing is salted per process, so any simulated decision
    that walks a set of strings (lock release order, wait-for edges) makes
    one seed give different results in different processes.  Hash seeds
    0 and 4 ordered the lock manager's sets differently when it iterated
    them directly."""
    assert _cell_digest("0") == _cell_digest("4")
