"""Dynamic twin of the static interference pass (repro.lint R6xx).

The generated interference catalog (``docs/interference.md`` + JSON)
claims, per dispatchable handler, the replica-state attributes it can
read and write and the atomicity windows its blocking waits open.  This
module holds the artifact to that claim in the directions the linter
cannot check on its own:

* **freshness** — the committed files equal what the pass regenerates
  from today's sources (the test-suite mirror of ``make docs-check``),
  byte for byte, and a second independent rebuild
  produces identical bytes (determinism);
* **coverage** — every registered technique appears with a
  ``client.request`` entry, and the per-class write sets span the whole
  protocol registry;
* **soundness** — seeded chaos campaigns of all ten techniques run with
  attribute-write tracking swapped onto every protocol instance
  (:func:`repro.obs.track_attr_writes`); every ``self.attr = ...`` the
  runtime actually performs must be one the static analysis predicted
  (observed ⊆ static).  A runtime write the pass failed to see would
  show up here as an unpredicted attribute.
"""

import json
import os
from pathlib import Path

import pytest

from repro import Operation, ReplicatedSystem
from repro.core.protocols import REGISTRY
from repro.lint.engine import collect_files, parse_file
from repro.lint.interference import (
    INTERFERENCE_HEADER,
    build_interference_artifact,
    render_interference_json,
    render_interference_markdown,
)
from repro.obs import track_attr_writes, untrack_attr_writes

REPO = Path(__file__).resolve().parent.parent
MARKDOWN = REPO / "docs" / "interference.md"
JSON_PATH = REPO / "docs" / "interference.json"


def _contexts():
    contexts = []
    for path in collect_files(["src/repro"]):
        context, error = parse_file(path)
        assert error is None, f"unparseable source: {error}"
        contexts.append(context)
    return contexts


def _build():
    cwd = os.getcwd()
    os.chdir(REPO)
    try:
        return build_interference_artifact(_contexts())
    finally:
        os.chdir(cwd)


@pytest.fixture(scope="module")
def artifact(generated_docs):
    return json.loads(generated_docs["interference.json"])


# ---------------------------------------------------------------------------
# Freshness and determinism
# ---------------------------------------------------------------------------

def test_committed_catalog_is_fresh(generated_docs):
    assert MARKDOWN.read_text() == generated_docs["interference.md"], (
        "docs/interference.md is stale — run `make docs`"
    )
    assert JSON_PATH.read_text() == generated_docs["interference.json"], (
        "docs/interference.json is stale — run `make docs`"
    )


def test_generated_header_is_present():
    content = MARKDOWN.read_text()
    assert INTERFERENCE_HEADER in content
    assert "Do not edit by hand" in INTERFERENCE_HEADER


def test_rebuild_is_byte_deterministic(generated_docs):
    # An independent re-parse and rebuild yields the shared build's bytes.
    again = _build()
    assert render_interference_markdown(again) == \
        generated_docs["interference.md"]
    assert render_interference_json(again) == generated_docs["interference.json"]


# ---------------------------------------------------------------------------
# Coverage
# ---------------------------------------------------------------------------

def test_every_registered_technique_is_catalogued(artifact):
    assert {t["technique"] for t in artifact["techniques"]} == set(REGISTRY)
    for technique in artifact["techniques"]:
        triggers = {h["trigger"] for h in technique["handlers"]}
        assert "client.request" in triggers, (
            f"{technique['technique']} has no client.request entry"
        )


def test_class_write_sets_span_the_registry(artifact):
    assert set(artifact["classes"]) == {
        cls.__name__ for cls in REGISTRY.values()
    }
    for name, attrs in artifact["classes"].items():
        assert attrs == sorted(attrs), name
        assert len(attrs) == len(set(attrs)), name


def test_summary_counts_are_consistent(artifact):
    handlers = [
        h for t in artifact["techniques"] for h in t["handlers"]
    ]
    assert artifact["summary"]["handlers"] == len(handlers)
    assert artifact["summary"]["windows"] == sum(
        len(h["windows"]) for h in handlers
    )
    assert artifact["summary"]["write_attributes"] == len({
        attr for attrs in artifact["classes"].values() for attr in attrs
    })


# ---------------------------------------------------------------------------
# Dynamic cross-validation: observed writes ⊆ static write sets
# ---------------------------------------------------------------------------

def _run_tracked_campaign(protocol, seed=7, requests=4):
    """A small crash-and-recover campaign with attr tracking installed."""
    system = ReplicatedSystem(
        protocol, replicas=3, clients=2, seed=seed, observe=True,
        fd_interval=2.0, fd_timeout=8.0, client_timeout=40.0,
    )
    tracked = []
    for name in system.replica_names:
        instance = system.replicas[name].protocol
        tracked.append(track_attr_writes(instance, system.observer))
    system.injector.crash_at(60.0, "r2")
    system.injector.recover_at(200.0, "r2")

    def client_loop(index):
        for _ in range(requests):
            result = yield system.client(index).submit(
                [Operation.update("x", "add", 1)]
            )
            attempts = 0
            while not result.committed and attempts < 5:
                attempts += 1
                yield system.sim.timeout(10.0)
                result = yield system.client(index).submit(
                    [Operation.update("x", "add", 1)]
                )
            yield system.sim.timeout(15.0)

    handles = [system.sim.spawn(client_loop(i)) for i in range(2)]
    system.sim.run_until_done(system.sim.all_of(handles))
    system.settle(400)
    for instance in tracked:
        untrack_attr_writes(instance)
    return system


@pytest.mark.parametrize("protocol", sorted(REGISTRY))
def test_observed_writes_are_subset_of_static(protocol):
    # Many techniques only mutate containers at runtime (``self.x[k] =``
    # goes through ``__getattribute__``, not ``__setattr__``), so an
    # empty observation is fine; what may never happen is a recorded
    # rebind the static analysis did not predict.
    static = json.loads(JSON_PATH.read_text())["classes"]
    system = _run_tracked_campaign(protocol)
    observed = system.observer.attr_writes
    class_name = REGISTRY[protocol].__name__
    for label, attrs in observed.items():
        assert label == class_name
        unpredicted = attrs - set(static[label])
        assert not unpredicted, (
            f"{protocol}: runtime wrote {sorted(unpredicted)} on {label}, "
            f"absent from the static R6xx write set — regenerate "
            f"docs/interference.json or fix the analysis"
        )


def test_tracking_mechanism_observes_runtime_writes():
    # Proof the dynamic side is live, not vacuous: semi-passive rebinds
    # its rotating-coordinator slot bookkeeping on every request, so a
    # campaign must record those attribute writes.
    system = _run_tracked_campaign("semi_passive")
    observed = system.observer.attr_writes.get("SemiPassiveReplication")
    assert observed, "campaign recorded no attribute writes at all"
    assert "_slot" in observed
