"""Dynamic twin of the static message-flow pass (repro.lint M4xx).

The generated protocol catalog (``docs/messages.md`` + JSON) claims to
name every string-typed message the tree can put on the wire.  This
module holds it to that claim in both directions the linter cannot check
on its own:

* **freshness** — the committed catalog files equal what the pass
  regenerates from today's sources (the test-suite mirror of
  ``make docs-check``);
* **coverage** — a recording shim under ``Network.send`` captures every
  envelope a seeded workload produces, for all ten registered
  techniques, and each observed type (outer envelope, reliable-transport
  ``inner_type``, and group-layer ``mtype``) must match a catalog
  pattern.  A message the static pass failed to resolve at all would
  show up here as an uncovered type.
"""

import json
from pathlib import Path

import pytest

from repro import REGISTRY
from repro.lint.msgflow import pattern_matches
from repro.lint.symeval import WILDCARD
from repro.net.network import Network
from repro.workload import WorkloadSpec, run_workload

REPO = Path(__file__).resolve().parent.parent


def _matches(rendered: str, concrete: str) -> bool:
    """Match a catalog pattern (``*`` = unresolved fragment) to a type."""
    return pattern_matches(rendered.replace("*", WILDCARD), concrete)


@pytest.fixture(scope="module")
def catalog(generated_docs):
    """The catalog rebuilt from sources, with repo-relative locations."""
    return json.loads(generated_docs["messages.json"])


# ---------------------------------------------------------------------------
# Freshness: committed files == regenerated catalog
# ---------------------------------------------------------------------------

def test_committed_json_catalog_is_fresh(generated_docs):
    committed = (REPO / "docs" / "messages.json").read_text()
    assert committed == generated_docs["messages.json"], (
        "docs/messages.json is stale; run `make docs`"
    )


def test_committed_markdown_catalog_is_fresh(generated_docs):
    committed = (REPO / "docs" / "messages.md").read_text()
    assert committed == generated_docs["messages.md"], (
        "docs/messages.md is stale; run `make docs`"
    )


def test_catalog_is_generated_not_hand_written():
    text = (REPO / "docs" / "messages.md").read_text()
    assert "Generated by" in text and "Do not edit by hand" in text


# ---------------------------------------------------------------------------
# Coverage: every dynamically observed type matches a catalog pattern
# ---------------------------------------------------------------------------

@pytest.fixture
def wire(monkeypatch):
    """Record ``(type, payload)`` for every envelope entering the network."""
    records = []
    original = Network.send

    def recording_send(self, src, dst, type, payload=None, reply_to=None,
                       deadline=None):
        records.append((type, dict(payload) if payload else {}))
        return original(self, src, dst, type, payload=payload,
                        reply_to=reply_to, deadline=deadline)

    monkeypatch.setattr(Network, "send", recording_send)
    return records


@pytest.mark.parametrize("technique", sorted(REGISTRY))
def test_catalog_covers_dynamic_traffic(technique, catalog, wire):
    run_workload(
        technique,
        spec=WorkloadSpec(items=6, read_fraction=0.3, ops_per_transaction=2),
        replicas=3,
        clients=2,
        requests_per_client=3,
        seed=1301,
        think_time=5.0,
        settle=300.0,
        config={"abcast": "sequencer"},
    )
    assert wire, f"{technique}: workload produced no network traffic"

    type_patterns = [record["type"] for record in catalog["types"]]
    uncovered_outer = set()
    uncovered_inner = set()
    mtype_pairs = set()
    for outer, payload in wire:
        if not any(_matches(p, outer) for p in type_patterns):
            uncovered_outer.add(outer)
        if outer != "rt.data":
            continue
        inner = payload["inner_type"]
        if not any(_matches(p, inner) for p in type_patterns):
            uncovered_inner.add(inner)
        body = payload.get("body")
        if isinstance(body, dict) and isinstance(body.get("mtype"), str):
            mtype_pairs.add((inner, body["mtype"]))

    assert not uncovered_outer, (
        f"{technique}: envelope types missing from the catalog: "
        f"{sorted(uncovered_outer)}"
    )
    assert not uncovered_inner, (
        f"{technique}: transport inner types missing from the catalog: "
        f"{sorted(uncovered_inner)}"
    )

    bindings = catalog["broadcast_bindings"]
    uncovered_mtypes = {
        (inner, mtype)
        for inner, mtype in mtype_pairs
        if not any(
            any(_matches(scope, inner) for scope in binding["scopes"])
            and any(_matches(m, mtype) for m in binding["mtypes"])
            for binding in bindings
        )
    }
    assert not uncovered_mtypes, (
        f"{technique}: group-layer mtypes missing from every binding: "
        f"{sorted(uncovered_mtypes)}"
    )
