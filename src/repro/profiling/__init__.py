"""repro.profiling — phase-resolved latency profiles and the cost catalog.

One observed run in, one deterministic profile out: the
:mod:`~repro.obs.critpath` walk turns each request's span tree into a
critical path and a five-phase attribution of its response time;
:func:`~repro.profiling.runner.profile_run` aggregates those into a
per-technique phase cost matrix plus windowed telemetry, and
:mod:`~repro.profiling.catalog` renders the matrix for all ten
techniques into ``docs/phasecost.{md,json}`` (written by ``python -m
repro docs``, freshness-gated by ``make docs-check``).

Layering: sits beside ``viz`` at the top of the DAG — it may import the
whole library but nothing imports it back.
"""

from .catalog import (
    build_catalog,
    render_catalog_json,
    render_catalog_markdown,
)
from .runner import (
    dominant_phase_for,
    matrix_for,
    profile_json,
    profile_run,
    profiles_for,
    write_profile,
)

__all__ = [
    "build_catalog",
    "render_catalog_json",
    "render_catalog_markdown",
    "dominant_phase_for",
    "matrix_for",
    "profile_json",
    "profile_run",
    "profiles_for",
    "write_profile",
]
