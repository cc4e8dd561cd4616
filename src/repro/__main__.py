"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list``
    Show every implemented technique with its taxonomy coordinates.
``figures``
    Regenerate the paper's figures from live executions (text form).
``compare [--replicas N] [--requests N] [--seed N]``
    Run one update workload under every technique and print the
    trade-off table (latency, messages, aborts, convergence).
``run TECHNIQUE [--replicas N] [--requests N] [--seed N]``
    Drive one technique and print its summary plus phase row.
``observe TECHNIQUE [--replicas N] [--requests N] [--seed N] [--out DIR]``
    Drive one technique with span tracing and metrics enabled and write
    the three run artifacts (Perfetto-loadable ``.trace.json``, JSONL
    spans, plain-text metrics report); see docs/observability.md.
``chaos [--campaign NAME] [--technique NAME] [--seed N] [--out DIR]``
    Run the chaos campaign matrix — every named fault campaign against
    every technique by default — through the resilient client edge,
    asserting each technique's declared guarantee and exporting obs
    evidence artifacts; see docs/resilience.md.  ``--list`` shows the
    campaigns.  Exits non-zero if any cell fails its guarantee.
``profile TECHNIQUE|--all [--replicas N] [--requests N] [--seed N] [--out DIR]``
    Drive one technique (or all ten) observed, extract each request's
    critical path and five-phase latency attribution, and write the
    byte-deterministic ``profile_<tech>_seed<seed>.json`` plus a
    Perfetto-loadable counter track of the run's windowed time series;
    prints the phase cost matrix.  See docs/observability.md.
``docs [--check] [--docs DIR]``
    Regenerate every generated file under ``docs/`` — the message
    catalog, the wait graph with its per-technique DOT files, the
    interference catalog and the phase cost catalog — or, with
    ``--check``, name each missing or stale one and exit 1.  Run from
    the repository root; ``make docs`` / ``make docs-check`` wrap it.
``sweep [--smoke] [--technique NAME] [--seeds CSV] [--rates CSV] [--jobs N]``
    Fan the open-loop seed×rate×technique matrix across CPU cores,
    merge the per-cell rows into one byte-deterministic JSON and print
    the saturation table (goodput and p99 vs offered load, knee marked);
    see docs/workloads.md.  ``--smoke`` shrinks the matrix for CI.
``lint [paths] [options]``
    Run the static determinism/layering/contract linter
    (delegates to ``python -m repro.lint``; see docs/linting.md).
"""

from __future__ import annotations

import argparse
import glob
import os
import sys
from typing import Dict

from . import DB_TECHNIQUES, DS_TECHNIQUES, REGISTRY
from .analysis import counter_check, messages_per_request
from .workload import WorkloadSpec, run_workload


def cmd_list(_args: argparse.Namespace) -> int:
    print(f"{'technique':18s} {'community':10s} {'phase row':24s} "
          f"{'consistency':12s} {'figure'}")
    print("-" * 80)
    for name in DS_TECHNIQUES + DB_TECHNIQUES:
        info = REGISTRY[name].info
        row = " ".join(info.descriptor.phase_names())
        print(f"{name:18s} {info.community:10s} {row:24s} "
              f"{info.consistency:12s} {info.figure}")
    return 0


def cmd_figures(_args: argparse.Namespace) -> int:
    # Reuse the example script wholesale; it already renders everything.
    import importlib.util
    path = os.path.join(os.path.dirname(__file__), "..", "..", "examples",
                        "paper_figures.py")
    if not os.path.exists(path):
        print("examples/paper_figures.py not found (installed without examples); "
              "see the repository checkout", file=sys.stderr)
        return 1
    spec = importlib.util.spec_from_file_location("paper_figures", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    return 0


def _run_one(name: str, args: argparse.Namespace, observe: bool = False):
    spec = WorkloadSpec(items=8, read_fraction=0.0)
    return run_workload(
        name, spec=spec, replicas=args.replicas, clients=2,
        requests_per_client=args.requests, seed=args.seed,
        think_time=10.0, settle=500.0, config={"abcast": "sequencer"},
        observe=observe,
    )


def cmd_compare(args: argparse.Namespace) -> int:
    print(f"{'technique':18s} {'mean lat':>9s} {'p95 lat':>9s} "
          f"{'msgs/txn':>9s} {'aborts':>7s} {'converged':>10s} {'exact':>6s}")
    print("-" * 75)
    for name in DS_TECHNIQUES + DB_TECHNIQUES:
        system, driver, summary = _run_one(name, args)
        msgs = messages_per_request(system.net.stats, summary.requests)
        committed = [r for r in driver.results if r.committed]
        stores = {n: system.store_of(n) for n in system.live_replicas()}
        exact = not counter_check(committed, stores, strict=False)
        print(f"{name:18s} {summary.latency.mean:9.2f} {summary.latency.p95:9.2f} "
              f"{msgs:9.1f} {summary.abort_rate:7.2f} "
              f"{str(system.converged()):>10s} {'yes' if exact else 'NO':>6s}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    if args.technique not in REGISTRY:
        print(f"unknown technique {args.technique!r}; try: python -m repro list",
              file=sys.stderr)
        return 2
    system, driver, summary = _run_one(args.technique, args)
    info = system.info
    print(f"technique    : {info.title} ({info.figure})")
    print(f"phase row    : {' '.join(info.descriptor.phase_names())} "
          f"[{info.consistency} consistency]")
    print(f"requests     : {summary.requests} "
          f"({summary.committed} committed, {summary.aborted} aborted)")
    print(f"latency      : mean {summary.latency.mean:.2f}, "
          f"p95 {summary.latency.p95:.2f}")
    print(f"messages/txn : "
          f"{messages_per_request(system.net.stats, summary.requests):.1f}")
    print(f"converged    : {system.converged()}")
    return 0


def cmd_observe(args: argparse.Namespace) -> int:
    from .obs import write_artifacts

    if args.technique not in REGISTRY:
        print(f"unknown technique {args.technique!r}; try: python -m repro list",
              file=sys.stderr)
        return 2
    system, driver, summary = _run_one(args.technique, args, observe=True)
    stem = os.path.join(args.out, f"observe_{args.technique}_seed{args.seed}")
    node_order = system.replica_names + [c.name for c in system.clients]
    paths = write_artifacts(
        system.observer, stem, node_order=node_order,
        title=f"{args.technique} seed={args.seed}",
    )
    print(f"technique    : {system.info.title} ({system.info.figure})")
    print(f"requests     : {summary.requests} "
          f"({summary.committed} committed, {summary.aborted} aborted)")
    print(f"spans        : {len(system.observer.tracer.spans)}")
    print()
    print(system.observer.metrics.report(
        title=f"{args.technique} seed={args.seed}"))
    for kind in sorted(paths):
        print(f"{kind:7s} -> {paths[kind]}")
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    from .resilience import CAMPAIGNS, run_matrix

    if args.list:
        for name in sorted(CAMPAIGNS):
            campaign = CAMPAIGNS[name]
            print(f"{name}")
            print(f"    {campaign.description}")
        return 0
    for name in args.campaign or ():
        if name not in CAMPAIGNS:
            print(f"unknown campaign {name!r}; try: python -m repro chaos --list",
                  file=sys.stderr)
            return 2
    for name in args.technique or ():
        if name not in REGISTRY:
            print(f"unknown technique {name!r}; try: python -m repro list",
                  file=sys.stderr)
            return 2
    observe = not args.no_observe
    out = args.out if observe else None
    if out:
        os.makedirs(out, exist_ok=True)
    reports = run_matrix(
        campaigns=args.campaign or None,
        techniques=args.technique or None,
        seed=args.seed,
        observe=observe,
        artifact_dir=out,
    )
    for report in reports:
        print(report.summary())
    passed = sum(1 for r in reports if r.passed)
    print()
    print(f"{passed}/{len(reports)} cells passed "
          f"({len({r.campaign for r in reports})} campaigns x "
          f"{len({r.technique for r in reports})} techniques, seed {args.seed})")
    if out:
        print(f"evidence artifacts -> {out}/")
    return 0 if passed == len(reports) else 1


def _print_phase_table(profile: dict) -> None:
    from .obs import KINDS, PHASES

    matrix = profile["matrix"]
    print(f"{'phase':7s} {'time':>9s} {'share':>7s} {'msgs':>6s} {'bytes':>8s}")
    print("-" * 42)
    for phase in PHASES:
        row = matrix["phases"][phase]
        print(f"{phase:7s} {row['time']:9.2f} {row['share']*100:6.1f}% "
              f"{row['messages']:6d} {row['bytes']:8d}")
    kinds = " ".join(
        f"{kind}={matrix['kinds'][kind]['share']*100:.1f}%" for kind in KINDS
    )
    print(f"dominant: {matrix['dominant_phase']}  critical path: {kinds}")


def cmd_profile(args: argparse.Namespace) -> int:
    from .obs import write_counter_track
    from .profiling import profile_run, write_profile

    if args.all:
        techniques = DS_TECHNIQUES + DB_TECHNIQUES
    elif args.technique:
        if args.technique not in REGISTRY:
            print(f"unknown technique {args.technique!r}; "
                  "try: python -m repro list", file=sys.stderr)
            return 2
        techniques = [args.technique]
    else:
        print("profile: give a technique or --all", file=sys.stderr)
        return 2
    for name in techniques:
        system, _driver, profile = profile_run(
            name, seed=args.seed, replicas=args.replicas,
            requests_per_client=args.requests,
        )
        stem = os.path.join(args.out, f"profile_{name}_seed{args.seed}")
        path = write_profile(profile, f"{stem}.json")
        counters = write_counter_track(
            system.observer, stem, title=f"{name} seed={args.seed}"
        )
        matrix = profile["matrix"]
        print(f"== {name} ({profile['figure']}) seed={args.seed} "
              f"mean response {matrix['response_time_mean']:.2f} ==")
        _print_phase_table(profile)
        print(f"profile  -> {path}")
        print(f"counters -> {counters}")
        print()
    return 0


def generated_docs() -> Dict[str, str]:
    """Every generated file under ``docs/``, as docs-relative path -> content.

    Parses ``src/repro`` once, relative to the working directory (the
    catalog anchors read ``src/repro/...:line``), and builds the message,
    wait-graph and interference artifacts from that one context list, so
    the program index and the message and wait graphs are built once.
    The phase cost catalog comes from live observed runs.
    """
    from .lint.engine import collect_files, parse_file
    from .lint.interference import (
        build_interference_artifact,
        render_interference_json,
        render_interference_markdown,
    )
    from .lint.msgflow import (
        build_catalog,
        render_catalog_json,
        render_catalog_markdown,
    )
    from .lint.waitgraph import (
        build_waitgraph_artifact,
        render_waitgraph_dot,
        render_waitgraph_json,
        render_waitgraph_markdown,
    )
    from .profiling import catalog as phasecost

    contexts = []
    for path in collect_files(["src/repro"]):
        context, error = parse_file(path)
        if error is not None:
            raise SyntaxError(error.render())
        contexts.append(context)
    messages = build_catalog(contexts)
    waits = build_waitgraph_artifact(contexts)
    interference = build_interference_artifact(contexts)
    costs = phasecost.build_catalog()
    docs = {
        "messages.md": render_catalog_markdown(messages),
        "messages.json": render_catalog_json(messages),
        "waitgraph.md": render_waitgraph_markdown(waits),
        "waitgraph.json": render_waitgraph_json(waits),
        "interference.md": render_interference_markdown(interference),
        "interference.json": render_interference_json(interference),
        "phasecost.md": phasecost.render_catalog_markdown(costs),
        "phasecost.json": phasecost.render_catalog_json(costs),
    }
    for technique in waits["techniques"]:
        name = technique["technique"]
        docs[f"waitgraph/{name}.dot"] = render_waitgraph_dot(waits, name)
    return docs


def cmd_docs(args: argparse.Namespace) -> int:
    expected = {
        os.path.join(args.docs, name): content
        for name, content in generated_docs().items()
    }
    # Per-technique DOT files of techniques that no longer exist.
    dot_dir = os.path.join(args.docs, "waitgraph")
    orphans = sorted(set(glob.glob(os.path.join(dot_dir, "*.dot"))) - set(expected))
    if args.check:
        problems = [f"{path}: not generated" for path in orphans]
        for path, content in sorted(expected.items()):
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    current = handle.read()
            except FileNotFoundError:
                problems.append(f"{path}: missing")
                continue
            if current != content:
                problems.append(f"{path}: out of date")
        for problem in problems:
            print(problem, file=sys.stderr)
        if problems:
            print("regenerate with: make docs", file=sys.stderr)
            return 1
        print(f"{len(expected)} generated files in {args.docs}/ are fresh")
        return 0
    os.makedirs(dot_dir, exist_ok=True)
    for path, content in expected.items():
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(content)
    for path in orphans:
        os.remove(path)
    print(f"wrote {len(expected)} generated files to {args.docs}/")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    from .workload.sweep import SweepConfig, render_saturation, run_sweep, write_sweep

    techniques = tuple(args.technique or (DS_TECHNIQUES + DB_TECHNIQUES))
    for name in techniques:
        if name not in REGISTRY:
            print(f"unknown technique {name!r}; try: python -m repro list",
                  file=sys.stderr)
            return 2
    seeds = tuple(int(s) for s in args.seeds.split(","))
    rates = tuple(float(r) for r in args.rates.split(","))
    duration = args.duration
    clients = args.clients
    if args.smoke:
        # CI-sized matrix: two techniques spanning both communities, one
        # seed, two rates, short horizon — enough to exercise the full
        # pipeline (fan-out, merge, saturation render) in seconds.
        techniques = tuple(args.technique or ("active", "lazy_primary"))
        seeds = (0,)
        rates = (0.1, 0.4)
        duration = 200.0
        clients = 20_000
    config = SweepConfig(
        techniques=techniques,
        seeds=seeds,
        rates=rates,
        process=args.process,
        duration=duration,
        clients=clients,
        replicas=args.replicas,
        admission_rate=args.admission_rate,
        deadline_budget=args.deadline,
    )
    merged = run_sweep(config, jobs=args.jobs)
    paths = write_sweep(merged, args.out)
    print(render_saturation(merged["saturation"]))
    cells = len(merged["rows"])
    print(f"{cells} cells ({len(techniques)} techniques x {len(seeds)} seeds "
          f"x {len(rates)} rates)")
    for kind in sorted(paths):
        print(f"{kind:5s} -> {paths[kind]}")
    return 0


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "lint":
        # Forward everything after "lint" untouched so the linter's own
        # argparse handles --select/--format/... without double parsing.
        from .lint.cli import main as lint_main
        return lint_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Executable reproduction of 'Understanding Replication in "
                    "Databases and Distributed Systems' (ICDCS 2000)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list implemented techniques")
    sub.add_parser("figures", help="render the paper's figures from live runs")
    for command in ("compare", "run", "observe"):
        sp = sub.add_parser(command)
        if command in ("run", "observe"):
            sp.add_argument("technique")
        sp.add_argument("--replicas", type=int, default=3)
        sp.add_argument("--requests", type=int, default=10)
        sp.add_argument("--seed", type=int, default=7)
        if command == "observe":
            sp.add_argument("--out", default="benchmarks/output",
                            help="directory receiving the run artifacts")
    sp = sub.add_parser("chaos", help="run the chaos campaign matrix")
    sp.add_argument("--campaign", action="append",
                    help="campaign name (repeatable; default: all)")
    sp.add_argument("--technique", action="append",
                    help="technique name (repeatable; default: all)")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default="benchmarks/output/chaos",
                    help="directory receiving the evidence artifacts")
    sp.add_argument("--no-observe", action="store_true",
                    help="skip span/metrics collection and artifact export")
    sp.add_argument("--list", action="store_true",
                    help="list the named campaigns and exit")
    sp = sub.add_parser("profile", help="phase-resolved latency profile")
    sp.add_argument("technique", nargs="?", default=None)
    sp.add_argument("--all", action="store_true",
                    help="profile every implemented technique")
    sp.add_argument("--replicas", type=int, default=3)
    sp.add_argument("--requests", type=int, default=10)
    sp.add_argument("--seed", type=int, default=7)
    sp.add_argument("--out", default="benchmarks/output/profile",
                    help="directory receiving profile and counter artifacts")
    sp = sub.add_parser("docs", help="(re)generate every generated file "
                                     "under docs/")
    sp.add_argument("--check", action="store_true",
                    help="name each missing or stale file instead of writing")
    sp.add_argument("--docs", default="docs",
                    help="directory holding the generated files")
    sp = sub.add_parser("sweep", help="open-loop seed x rate x technique sweep")
    sp.add_argument("--technique", action="append",
                    help="technique name (repeatable; default: all ten)")
    sp.add_argument("--seeds", default="0,1",
                    help="comma-separated seed list")
    sp.add_argument("--rates", default="0.05,0.1,0.2,0.4",
                    help="comma-separated offered rates (arrivals/time unit)")
    sp.add_argument("--process", default="poisson",
                    choices=("poisson", "deterministic", "burst", "diurnal"))
    sp.add_argument("--duration", type=float, default=600.0)
    sp.add_argument("--clients", type=int, default=100_000,
                    help="logical client population per cell")
    sp.add_argument("--replicas", type=int, default=3)
    sp.add_argument("--admission-rate", type=float, default=0.0,
                    help="token-bucket admission rate (0 = no admission gate)")
    sp.add_argument("--deadline", type=float, default=None,
                    help="per-request deadline budget in time units")
    sp.add_argument("--jobs", type=int, default=None,
                    help="worker processes (default: one per core)")
    sp.add_argument("--out", default="benchmarks/output/sweep",
                    help="directory receiving sweep.json + saturation.txt")
    sp.add_argument("--smoke", action="store_true",
                    help="CI-sized matrix (2 techniques, 1 seed, 2 rates)")
    args = parser.parse_args(argv)
    return {"list": cmd_list, "figures": cmd_figures,
            "compare": cmd_compare, "run": cmd_run,
            "observe": cmd_observe, "chaos": cmd_chaos,
            "profile": cmd_profile, "docs": cmd_docs,
            "sweep": cmd_sweep}[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
