#!/usr/bin/env python3
"""Benchmark of the replication simulator: one workload, one seed, one run.

    python3 perfbench/run.py --workload ds_crash --seed 1 --seconds 20 --trace 0

Run from the root of a checkout (the simulator is imported from
``src/``).  ``--trace 0`` measures the end-to-end metrics: set-up time
(median of several fresh processes, each timed from the start of this
script to a built system, generator and engine), one warm-up run, then
untraced repeats of the simulation for ``--seconds`` seconds, reporting
the median speed.  Timed work runs under ``speed.SpeedSampler``, which
scales its wall time to nominal machine speed.
``--trace 1`` measures the per-layer metrics: untraced repeats for a
third of ``--seconds``, then one run with every ``repro`` entry point
wrapped by the span tracer, whose spans are written to
``perfbench/out/``.  Every run passes the correctness gate in
``gate.py`` and must reproduce the first run's simulated outputs
exactly; otherwise the command exits non-zero and reports no numbers.
The last line of standard output is the result as one JSON object.
"""

import time

_STARTED = time.perf_counter()  # set-up time is measured from here

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, os.path.join(ROOT, "src"))

SETUP_SAMPLES = 9
MIN_REPEATS = 3
SETUP_TIMEOUT = 60

# name -> unit; the order is the report order.
END_TO_END = {
    "req_per_s": "req/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_p50": "simtime",
    "sim_p99": "simtime",
    "commit_ratio": "ratio",
}
PER_LAYER = {
    "sim.events_per_req": "count/req",
    "sim.timer_cancels_per_req": "count/req",
    "sim.self_s": "s",
    "net.msgs_per_req": "count/req",
    "net.dropped_per_req": "count/req",
    "net.self_s": "s",
    "groupcomm.rt_frames_per_req": "count/req",
    "groupcomm.rt_useful_ratio": "ratio",
    "groupcomm.consensus_per_req": "count/req",
    "groupcomm.self_s": "s",
    "failures.heartbeat_share": "ratio",
    "failures.suspicions": "count",
    "failures.self_s": "s",
    "db.lock_acquires_per_req": "count/req",
    "db.lock_wait_ratio": "ratio",
    "db.txn_commit_ratio": "ratio",
    "db.2pc_per_req": "count/req",
    "db.self_s": "s",
    "core.self_s": "s",
    "core.protocol_self_s": "s",
    "core.edge_self_s": "s",
    "core.client_resends_per_req": "count/req",
    "core.admission_shed_ratio": "ratio",
    "core.admission_queue_peak": "count",
    "core.admission_self_s": "s",
    "workload.self_s": "s",
    "workload.max_in_flight": "count",
    "obs.self_s": "s",
    "obs.hook_calls_per_req": "count/req",
    "obs.spans_per_req": "count/req",
    "obs.trace_events_per_req": "count/req",
    "bench.trace_overhead": "ratio",
    "bench.unattributed_s": "s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: build one system in a fresh process and print set-up time.
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def run_once(workload, seed, sampled=False):
    """Build, run and check one simulation; return (wall s, fingerprint).

    ``sampled`` runs it under a :class:`SpeedSampler` and returns its wall
    time at nominal machine speed instead of as measured.
    """
    from gate import check, fingerprint
    from speed import SpeedSampler
    from workloads import SETTLE, build

    gc.collect()
    system, engine = build(workload, seed)
    sampler = SpeedSampler()
    started = time.perf_counter()
    if sampled:
        with sampler:
            engine.run(settle=SETTLE)
    else:
        engine.run(settle=SETTLE)
    wall = time.perf_counter() - started
    if sampled:
        wall = sampler.nominal(wall)
    counts = check(workload, system, engine, seed)
    return wall, fingerprint(system, engine, counts)


def same_outputs(reference, fingerprint, what):
    from gate import GateError

    if fingerprint != reference:
        differing = sorted(k for k in reference if reference[k] != fingerprint.get(k))
        raise GateError(f"{what} changed simulated outputs: {differing}")


def setup_seconds(workload_name, seed):
    """Set-up time of one fresh process at nominal machine speed."""
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe",
         "--workload", workload_name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT, check=False,
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def measure_end_to_end(workload, seed, seconds):
    setups = [setup_seconds(workload.name, seed) for _ in range(SETUP_SAMPLES)]
    # The first run warms caches and lazy imports; it is checked, not timed.
    # Peak memory is read after it: one simulation on top of the imports,
    # before repeats can raise the high-water mark through fragmentation.
    _, reference = run_once(workload, seed)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    walls = []
    deadline = time.perf_counter() + seconds
    while len(walls) < MIN_REPEATS or time.perf_counter() < deadline:
        wall, fp = run_once(workload, seed, sampled=True)
        same_outputs(reference, fp, f"repeat {len(walls) + 1}")
        walls.append(wall)
    committed = reference["committed"]
    rates = [committed / wall for wall in walls]
    metrics = {
        "req_per_s": statistics.median(rates),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_kib / 1024.0,
        "sim_p50": reference["sim_p50"],
        "sim_p99": reference["sim_p99"],
        "commit_ratio": committed / reference["offered"],
    }
    detail = {"req_per_s_runs": rates, "setup_s_runs": setups}
    return metrics, reference, len(walls) + 1, detail


def traced_run(workload, seed, tracer):
    """One run with every ``repro`` entry point wrapped by ``tracer``.

    Returns ``(wall s, start clock, system, engine, admission queue peak,
    entry points wrapped)``; the tracer holds the run's accounting only.
    """
    from layers import install
    from repro.core.admission import AdmissionController
    from workloads import SETTLE, build

    installation = install(tracer)
    queue_peak = [0]
    admission_submit = AdmissionController.submit

    def submit_probe(self, client, entry):
        admission_submit(self, client, entry)
        queue_peak[0] = max(queue_peak[0], self.queued)

    AdmissionController.submit = submit_probe
    try:
        gc.collect()
        system, engine = build(workload, seed)
        tracer.reset()  # account the run only, not the build
        started = time.perf_counter()
        engine.run(settle=SETTLE)
        wall = time.perf_counter() - started
    finally:
        AdmissionController.submit = admission_submit
        installation.restore()
    return wall, started, system, engine, queue_peak[0], installation.entry_points


def layer_metrics(system, engine, counts, tracer, cost, traced_wall, untraced_wall,
                  queue_peak):
    """The per-layer metrics of a traced run, and supporting detail."""
    from layers import LAYERS, fold_core

    part_self = tracer.corrected_self(cost)
    layer_self = fold_core(part_self)
    calls = tracer.calls()

    def called(suffix):
        return sum(n for name, n in calls.items() if name.endswith(suffix))

    def ratio(part, whole, empty):
        return part / whole if whole else empty

    req = counts["committed"]
    stats = system.net.stats
    rt_frames = sum(sum(r.transport._next_seq.values()) for r in system.replicas.values())
    acquires = called("db.locks.LockManager.acquire")
    begun = called("db.transactions.TransactionManager.begin")
    txn_commits = sum(r.tm.committed_count for r in system.replicas.values())
    observer = system.observer
    attributed = sum(layer_self[layer] for layer in LAYERS)
    metrics = {
        "sim.events_per_req": system.sim.events_processed / req,
        "sim.timer_cancels_per_req": called("sim.core.Simulator._note_dead") / req,
        "sim.self_s": layer_self["sim"],
        "net.msgs_per_req": stats.sent / req,
        "net.dropped_per_req": (stats.dropped_loss + stats.dropped_partition
                                + stats.dropped_crash + stats.dropped_fault) / req,
        "net.self_s": layer_self["net"],
        "groupcomm.rt_frames_per_req": rt_frames / req,
        "groupcomm.rt_useful_ratio": ratio(rt_frames, stats.by_type["rt.data"], 1.0),
        "groupcomm.consensus_per_req": called("groupcomm.consensus.Consensus._run") / req,
        "groupcomm.self_s": layer_self["groupcomm"],
        "failures.heartbeat_share": ratio(stats.by_type["fd.heartbeat"], stats.sent, 0.0),
        "failures.suspicions": system.trace.count("fd", action="suspect"),
        "failures.self_s": layer_self["failures"],
        "db.lock_acquires_per_req": acquires / req,
        "db.lock_wait_ratio": ratio(called("db.locks._Request.__init__"), acquires, 0.0),
        "db.txn_commit_ratio": ratio(txn_commits, begun, 1.0),
        "db.2pc_per_req": called("db.twophase.TwoPhaseCoordinator.run") / req,
        "db.self_s": layer_self["db"],
        "core.self_s": layer_self["core"],
        "core.protocol_self_s": part_self.get("core.protocol", 0.0),
        "core.edge_self_s": part_self.get("core.edge", 0.0),
        "core.client_resends_per_req":
            sum(r.retries for r in engine.results + engine.shed_results) / req,
        "core.admission_shed_ratio": counts["shed"] / counts["offered"],
        "core.admission_queue_peak": queue_peak,
        "core.admission_self_s": part_self.get("core.admission", 0.0),
        "workload.self_s": layer_self["workload"],
        "workload.max_in_flight": engine.max_in_flight,
        "obs.self_s": layer_self["obs"],
        "obs.hook_calls_per_req":
            sum(n for name, n in calls.items() if name.startswith("obs:obs.observer.")) / req,
        "obs.spans_per_req": (len(observer.tracer) if observer is not None else 0) / req,
        "obs.trace_events_per_req": len(system.trace) / req,
        "bench.trace_overhead": traced_wall / untraced_wall,
        "bench.unattributed_s": traced_wall - attributed,
    }
    parts = {name: seconds for name, seconds in part_self.items() if name != "other"}
    detail = {
        "traced_wall_s": traced_wall,
        "untraced_wall_s": untraced_wall,
        "attributed_over_untraced": attributed / untraced_wall,
        "tracer_cost_us": {k: v * 1e6 for k, v in cost.items()},
        "measured_self_s": dict(sorted(tracer.layer_self().items())),
        "corrected_self_s": dict(sorted(part_self.items())),
        "layer_share": {layer: layer_self[layer] / attributed for layer in LAYERS},
        "top_three": sorted(parts, key=parts.get, reverse=True)[:3],
        "rt_data_share": ratio(stats.by_type["rt.data"], stats.sent, 0.0),
        "spans": tracer.span_count,
    }
    return metrics, detail


def measure_per_layer(workload, seed, seconds):
    from gate import check, fingerprint
    from tracer import Tracer, calibrate

    walls, reference = [], None
    deadline = time.perf_counter() + seconds / 3.0
    while not walls or time.perf_counter() < deadline:
        wall, fp = run_once(workload, seed)
        reference = reference or fp
        same_outputs(reference, fp, f"untraced run {len(walls) + 1}")
        walls.append(wall)

    cost = calibrate()
    tracer = Tracer()
    traced_wall, started, system, engine, queue_peak, entry_points = traced_run(
        workload, seed, tracer)
    counts = check(workload, system, engine, seed)
    same_outputs(reference, fingerprint(system, engine, counts), "tracing")
    metrics, detail = layer_metrics(system, engine, counts, tracer, cost, traced_wall,
                                    statistics.median(walls), queue_peak)
    detail["entry_points"] = entry_points
    detail["trace_file"] = os.path.relpath(
        write_trace(workload.name, seed, tracer, detail, started), ROOT)
    return metrics, reference, len(walls) + 1, detail


def write_trace(workload_name, seed, tracer, detail, started):
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"trace-{workload_name}-seed{seed}.json")
    document = {
        "workload": workload_name,
        "seed": seed,
        "summary": detail,
        "entry_points": {
            name: {"calls": stats[0], "self_s": stats[1], "spans": stats[2]}
            for name, (_layer, stats) in sorted(tracer.entries.items()) if stats[0]
        },
        "spans_total": tracer.span_count,
        "span_fields": ["id", "parent", "layer", "name", "start_s", "end_s"],
        "spans": [
            [i, p, layer, name, round(s - started, 9), round(e - started, 9)]
            for i, p, layer, name, s, e in tracer.spans
        ],
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle)
    return path


def setup_probe(workload_name, seed):
    """Import the simulator and build one run's system, generator and engine."""
    from speed import SpeedSampler

    with SpeedSampler() as sampler:
        from workloads import WORKLOADS, build

        build(WORKLOADS[workload_name], seed)
        wall = time.perf_counter() - _STARTED
    print(json.dumps({"setup_s": sampler.nominal(wall)}))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)
    try:
        from gate import GateError
        from workloads import WORKLOADS
    except ImportError as exc:
        print(f"cannot import the simulator from {os.path.join(ROOT, 'src')}: {exc}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    measure = measure_per_layer if args.trace else measure_end_to_end
    units = PER_LAYER if args.trace else END_TO_END
    try:
        metrics, reference, runs, detail = measure(workload, args.seed, args.seconds)
    except GateError as exc:
        print(f"correctness check failed: {exc}", file=sys.stderr)
        return 1
    except (RuntimeError, subprocess.SubprocessError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    print(f"workload {workload.name} seed {args.seed}: {runs} runs, "
          f"{reference['committed']} committed of {reference['offered']} offered per run")
    for key, value in detail.items():
        print(f"  {key}: {value}")
    for name, unit in units.items():
        print(f"{name:32s} {metrics[name]:>14.6g} {unit}")
    result = {
        "correct": True,
        "attempted": runs * reference["offered"],
        "failed": 0,  # unresolved or mis-accounted requests fail the gate instead
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
