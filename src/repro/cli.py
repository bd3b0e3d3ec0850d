"""Command-line interface.

Installed as the ``repro`` console script::

    repro nodes                         # list technology nodes
    repro calibrate 65nm                # Table I coefficients for a node
    repro link 90nm 5 --weight 0.5      # optimize one link's buffering
    repro accuracy 90nm --lengths 1 5   # mini Table II
    repro synth dvopd 65nm              # one Table III cell
    repro table1 | table2 | table3      # full paper experiments
    repro staggering | runtime | leakage-area
    repro report trace.jsonl            # summarize a recorded trace
    repro lint src tests                # project-specific AST lint
    repro bench yield --quick           # tail-yield estimator gate
    repro bench lut --quick             # LUT-vs-closed-form gate
    repro luts build 90nm --output benchmarks/luts/90nm.json
                                        # grid the calibrated model
    repro luts check 90nm               # drift-tracked recalibration
    repro mc 90nm --estimator importance --samples 200
                                        # variance-reduced Monte Carlo
    repro serve --port 8787             # interconnect-model service
    python -m repro.serve.loadgen --port 8787
                                        # seeded load against it

Every subcommand prints the same artifacts the benchmark suite saves.

Every subcommand also accepts the shared runtime flags:

    --workers N     run parallel sweeps on N worker processes
                    (results are bit-identical to --workers 1)
    --no-cache      bypass the persistent disk cache entirely
    --max-retries N rebuild a crashed worker pool up to N times before
                    finishing the sweep serially (results identical)
    --stats         print a wall-time / cache-hit footer afterwards
                    (histogram metrics add p50/p95/p99 rows)
    --trace FILE    record a hierarchical span trace (JSONL) of the
                    run — including spans from worker processes — and
                    write a provenance manifest.json next to it
    --profile MODE  span-attributed profiling: 'time' prints a
                    self/total table per span path, 'memory' annotates
                    tracemalloc deltas onto spans, 'all' does both
    --metrics FILE  export the metrics registry (counters, timers,
                    histograms) in OpenMetrics text format
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.units import mm, ps, to_mw, to_ps


def _cmd_nodes(_args: argparse.Namespace) -> int:
    from repro.tech import available_nodes, get_technology
    print(f"{'node':<6} {'vdd':>5} {'clock':>9} {'global wire':>22}")
    for name in available_nodes():
        tech = get_technology(name)
        layer = tech.global_layer
        print(f"{name:<6} {tech.vdd:5.2f} "
              f"{tech.clock_frequency / 1e9:7.2f}GHz "
              f"{layer.width * 1e6:6.3f}um x {layer.thickness * 1e6:.3f}um")
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    from repro.characterization import RepeaterKind
    from repro.models.calibration import (
        OutputSlewForm,
        describe_coefficients,
        load_calibration,
    )
    from repro.tech import get_technology
    tech = get_technology(args.node)
    calibration = load_calibration(
        tech, RepeaterKind(args.kind), OutputSlewForm(args.slew_form))
    print(describe_coefficients(calibration))
    return 0


def _cmd_link(args: argparse.Namespace) -> int:
    from repro.buffering import compare_staggering, optimize_buffering
    from repro.experiments.suite import ModelSuite
    suite = ModelSuite.for_node(args.node)
    length = mm(args.length_mm)
    solution = optimize_buffering(suite.proposed, length,
                                  delay_weight=args.weight)
    estimate = solution.estimate
    print(f"{args.length_mm:g} mm link @ {args.node} "
          f"(delay weight {args.weight:g}):")
    print(f"  {solution.num_repeaters} repeaters of size "
          f"x{solution.repeater_size:.1f}")
    print(f"  delay   {to_ps(estimate.delay):9.1f} ps")
    print(f"  power   {to_mw(estimate.total_power):9.3f} mW "
          f"(dynamic {to_mw(estimate.dynamic_power):.3f} + leakage "
          f"{to_mw(estimate.leakage_power):.3f})")
    print(f"  area    {estimate.total_area * 1e12:9.1f} um^2")
    if args.staggered:
        comparison = compare_staggering(suite.proposed, length)
        print(f"  staggered: {comparison.power_saving * 100:.1f}% power "
              f"saved at {comparison.delay_penalty * 100:+.2f}% delay")
    return 0


def _cmd_accuracy(args: argparse.Namespace) -> int:
    from repro.experiments import table2
    from repro.tech import DesignStyle
    lengths = tuple(mm(value) for value in args.lengths)
    result = table2.run(nodes=(args.node,), lengths=lengths,
                        styles=(DesignStyle(args.style),))
    print(result.format())
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    from repro.experiments import table3
    from repro.noc.testcases import dual_vopd, vproc
    factory = vproc if args.design.lower() == "vproc" else dual_vopd
    case = table3.run_case(args.design.upper(), factory, args.node)
    from repro.noc.evaluation import NocReport
    print(NocReport.header())
    print(case.original_self.row())
    print(case.original_accurate.row())
    print(case.proposed_self.row())
    print(f"dynamic power underestimated "
          f"{case.dynamic_power_ratio:.2f}x by the original model")
    return 0


def _cmd_table1(_args: argparse.Namespace) -> int:
    from repro.experiments import table1
    print(table1.run().format())
    return 0


def _cmd_table2(_args: argparse.Namespace) -> int:
    from repro.experiments import table2
    print(table2.run().format())
    return 0


def _cmd_table3(_args: argparse.Namespace) -> int:
    from repro.experiments import table3
    print(table3.run().format())
    return 0


def _cmd_staggering(_args: argparse.Namespace) -> int:
    from repro.experiments import staggering
    print(staggering.run().format())
    return 0


def _cmd_runtime(_args: argparse.Namespace) -> int:
    from repro.experiments import runtime
    print(runtime.run().format())
    return 0


def _cmd_leakage_area(args: argparse.Namespace) -> int:
    from repro.experiments import leakage_area
    print(leakage_area.run(args.node).format())
    return 0


def _cmd_scaling(args: argparse.Namespace) -> int:
    from repro.experiments import scaling
    print(scaling.run(length=mm(args.length_mm)).format())
    return 0


def _cmd_corners(args: argparse.Namespace) -> int:
    from repro.experiments import corners
    print(corners.run(node=args.node,
                      length=mm(args.length_mm)).format())
    return 0


def _cmd_mesh(args: argparse.Namespace) -> int:
    from repro.experiments.suite import ModelSuite
    from repro.noc import build_mesh, evaluate_topology, synthesize
    from repro.noc.evaluation import NocReport
    from repro.noc.testcases import dual_vopd, vproc
    suite = ModelSuite.for_node(args.node)
    factory = vproc if args.design.lower() == "vproc" else dual_vopd
    spec = factory(suite.tech)
    custom = synthesize(spec, suite.proposed, suite.tech)
    mesh = build_mesh(spec)
    print(NocReport.header())
    print(evaluate_topology(custom, suite.proposed, suite.tech,
                            label="custom").row())
    print(evaluate_topology(mesh, suite.proposed, suite.tech,
                            label="mesh").row())
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.runtime.profile import write_flamegraph
    from repro.runtime.trace import (
        export_chrome_trace,
        read_trace,
        summarize_events,
    )
    try:
        events = read_trace(args.trace_file)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    summary = summarize_events(events)
    print(summary.format())
    if args.chrome:
        export_chrome_trace(events, args.chrome)
        print(f"chrome trace written to {args.chrome} "
              f"(open in chrome://tracing or ui.perfetto.dev)")
    if args.flamegraph:
        lines = write_flamegraph(events, args.flamegraph)
        print(f"flamegraph written to {args.flamegraph} "
              f"({lines} collapsed stacks; render with flamegraph.pl "
              f"or speedscope)")
    return 0 if summary.well_formed else 1


def _cmd_lint(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.analysis import (prune_baseline, run_lint,
                                write_baseline)

    paths = [Path(entry)
             for entry in (args.paths or ["src", "tests", "scripts"])]
    rules = None
    if args.rules is not None:
        rules = [name.strip() for name in args.rules.split(",")
                 if name.strip()]
    # The lint fixtures are deliberate violations; keep them out of
    # every run unless a path names them directly.
    exclude = ("tests/analysis/fixtures",) + tuple(args.exclude or ())
    baseline_path = Path(args.baseline)
    skip_baseline = args.write_baseline or args.prune_baseline
    try:
        result = run_lint(paths, rules=rules, exclude=exclude,
                          baseline_path=(None if skip_baseline
                                         else baseline_path),
                          graph_path=(Path(args.graph)
                                      if args.graph else None))
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.graph:
        print(f"call graph written to {args.graph}")
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            json.dump(result.to_json(), handle, indent=2,
                      sort_keys=True)
            handle.write("\n")
    if args.write_baseline:
        write_baseline(baseline_path, result.all_findings)
        grandfathered = sum(
            1 for finding in result.all_findings
            if finding.rule != "syntax")
        print(f"baseline written to {baseline_path} "
              f"({grandfathered} findings grandfathered)")
        return 0
    if args.prune_baseline:
        if not baseline_path.exists():
            print(f"error: no baseline at {baseline_path}",
                  file=sys.stderr)
            return 2
        kept, pruned = prune_baseline(baseline_path,
                                      result.all_findings)
        print(f"baseline pruned: {pruned} stale occurrence"
              f"{'s' if pruned != 1 else ''} removed, "
              f"{kept} entr{'ies' if kept != 1 else 'y'} kept")
        return 0
    if args.format == "json":
        print(json.dumps(result.to_json(), indent=2, sort_keys=True))
    else:
        print(result.format_text())
    return 0 if result.clean else 1


def _cmd_luts(args: argparse.Namespace) -> int:
    """``repro luts build`` / ``repro luts check``."""
    from repro.experiments.suite import ModelSuite
    from repro.luts.artifact import (
        load_artifact,
        load_artifact_file,
        save_artifact_file,
        store_artifact,
    )
    from repro.luts.build import build_artifact
    from repro.luts.check import check_drift
    from repro.luts.grid import COARSE_GRID, DEFAULT_GRID
    from repro.runtime.manifest import record_block

    suite = ModelSuite.for_node(args.node)
    model = suite.proposed
    spec = COARSE_GRID if args.grid == "coarse" else DEFAULT_GRID

    if args.action == "build":
        artifact = build_artifact(model, args.node, spec)
        store_artifact(artifact, model)
        valid = artifact.tables["valid"]
        print(f"built LUT artifact for {args.node} "
              f"({args.grid} grid, {spec.points} points, "
              f"{100.0 * float(valid.mean()):.1f}% servable)")
        print(f"  interp error {artifact.measured_rel_error:.2e} vs "
              f"contract {spec.max_rel_error:.2e}")
        print(f"  content hash {artifact.content_hash}")
        if args.output:
            path = save_artifact_file(artifact, args.output)
            print(f"  exported to {path}")
        return 0

    if args.artifact:
        artifact = load_artifact_file(args.artifact)
        origin = args.artifact
    else:
        artifact = load_artifact(args.node, model, spec)
        origin = "LUT cache"
    if artifact is None:
        print(f"error: no usable artifact in {origin} — run "
              f"'repro luts build' first", file=sys.stderr)
        return 2
    report = check_drift(model, artifact, threshold=args.threshold)
    print(report.format())
    record_block("lut_drift", report.manifest_block())
    return 0 if report.within_threshold else 1


def _cmd_bench(args: argparse.Namespace) -> int:
    if args.suite == "lut":
        from repro.bench_lut import run_lut_bench
        output = args.output or "BENCH_lut.json"
        status, report = run_lut_bench(node=args.node,
                                       quick=args.quick,
                                       output=output)
        error = ("LUT speedup fell below the floor, the interpolation "
                 "error broke its contract, or a LUT design missed its "
                 "delay bound")
    else:
        from repro.bench_yield import run_yield_bench
        output = args.output or "BENCH_yield.json"
        status, report = run_yield_bench(node=args.node,
                                         quick=args.quick,
                                         samples=args.samples,
                                         output=output)
        error = ("importance sampling saved fewer golden evals than "
                 "the floor demands for the reference tail")
    for line in report["formatted"]:
        print(line)
    print(f"report written to {output}")
    if status != 0:
        print(f"error: {error}", file=sys.stderr)
    return status


def _cmd_serve(args: argparse.Namespace) -> int:
    """``repro serve``: the interconnect-model query service.

    Exit codes: 2 on configuration conflicts (a CLI flag and its
    ``REPRO_SERVE_*`` variable disagreeing, or an out-of-range knob),
    0 on a clean shutdown (Ctrl-C or SIGTERM).
    """
    import asyncio
    import signal

    from repro.serve import (
        ReproServer,
        ServeConfigError,
        resolve_config,
    )

    try:
        config = resolve_config(
            host=args.host, port=args.port, socket=args.socket,
            shards=args.shards, max_batch=args.max_batch,
            memo_entries=args.memo_entries)
    except ServeConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    async def _run() -> None:
        server = ReproServer(config)
        # SIGTERM takes the Ctrl-C path: cancel, then close, so no
        # shard worker outlives the server.
        asyncio.get_running_loop().add_signal_handler(
            signal.SIGTERM, asyncio.current_task().cancel)
        try:
            await server.start()
            listening = []
            if config.host:
                listening.append(f"http://{config.host}:{server.port}")
            if config.socket:
                listening.append(f"unix:{config.socket}")
            print(f"repro serve: listening on {', '.join(listening)} "
                  f"({config.shards} shard(s), "
                  f"max batch {config.max_batch})", flush=True)
            await server.serve_forever()
        finally:
            await server.close()

    try:
        asyncio.run(_run())
    except (KeyboardInterrupt, asyncio.CancelledError):
        print("repro serve: shutting down")
    return 0


def _mc_engine(name: str) -> str:
    """``repro mc --engine``: ``kernel`` is another name for
    ``model``."""
    return "model" if name == "kernel" else name


def _cmd_mc(args: argparse.Namespace) -> int:
    from repro.experiments.suite import ModelSuite
    from repro.signoff.extraction import extract_buffered_line
    from repro.signoff.variation import monte_carlo_line_delay
    suite = ModelSuite.for_node(args.node)
    model = suite.proposed
    line = extract_buffered_line(suite.tech, model.config,
                                 mm(args.length_mm), args.repeaters,
                                 args.size)
    critical = ps(args.critical_ps) if args.critical_ps else None
    target = ps(args.target_ci) if args.target_ci else None
    result = monte_carlo_line_delay(
        line, ps(args.slew_ps), samples=args.samples, seed=args.seed,
        engine=args.engine, model=model, estimator=args.estimator,
        critical_delay=critical, target_ci=target, lanes=args.lanes,
        beta=args.beta, prepass_samples=args.prepass)
    print(f"{args.length_mm:g} mm line @ {args.node}, "
          f"{args.repeaters} repeaters of size x{args.size:g} "
          f"({args.engine} engine, {args.estimator} estimator):")
    print("  " + result.format())
    if result.report is not None:
        print("  " + result.report.format())
    threshold = critical
    if threshold is None and result.report is not None \
            and result.report.critical_delay:
        threshold = result.report.critical_delay
    if threshold is None:
        threshold = result.mean + 3.0 * result.sigma
    print("  " + result.tail_probability(threshold).format())
    return 0


def _cmd_widths(args: argparse.Namespace) -> int:
    from repro.experiments.suite import ModelSuite
    from repro.noc import explore_widths
    from repro.noc.testcases import dual_vopd, vproc
    suite = ModelSuite.for_node(args.node)
    factory = vproc if args.design.lower() == "vproc" else dual_vopd
    spec = factory(suite.tech)
    print(explore_widths(spec, suite.proposed, suite.tech,
                         widths=tuple(args.widths)).format())
    return 0


def _runtime_options() -> argparse.ArgumentParser:
    """The shared ``--workers/--no-cache/--stats`` option group.

    Declared as a parent parser so every subcommand accepts the flags
    in the natural position (``repro table2 --workers 2 --stats``).
    """
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("runtime")
    group.add_argument("--workers", type=int, default=None,
                       metavar="N",
                       help="worker processes for parallel sweeps "
                            "(default: REPRO_WORKERS or serial)")
    group.add_argument("--no-cache", action="store_true",
                       help="bypass the persistent disk cache")
    group.add_argument("--max-retries", type=int, default=None,
                       metavar="N",
                       help="pool rebuilds after a mid-run worker "
                            "crash before the remaining work re-runs "
                            "serially (default: REPRO_MAX_RETRIES "
                            "or 0; results are identical either way)")
    group.add_argument("--stats", action="store_true",
                       help="print runtime statistics afterwards")
    group.add_argument("--trace", default=None, metavar="FILE",
                       help="write a JSONL span trace of the run and "
                            "a manifest.json next to it")
    group.add_argument("--profile", default="off",
                       choices=["off", "time", "memory", "all"],
                       help="span-attributed profiling: print a "
                            "self/total time table per span path; "
                            "'memory'/'all' add tracemalloc net/peak "
                            "bytes per span")
    group.add_argument("--metrics", default=None, metavar="FILE",
                       help="export the metrics registry (counters, "
                            "timers, histograms) to FILE in "
                            "OpenMetrics text format")
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=("Predictive buffered-interconnect models and "
                     "NoC synthesis (Carloni et al., TVLSI 2010 "
                     "reproduction)"),
    )
    runtime_options = [_runtime_options()]
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name: str, **kwargs) -> argparse.ArgumentParser:
        return sub.add_parser(name, parents=runtime_options, **kwargs)

    add_parser("nodes", help="list technology nodes") \
        .set_defaults(func=_cmd_nodes)

    calibrate = add_parser("calibrate",
                           help="show Table I coefficients")
    calibrate.add_argument("node")
    calibrate.add_argument("--kind", default="inverter",
                           choices=["inverter", "buffer"])
    calibrate.add_argument("--slew-form", default="paper",
                           choices=["paper", "size-scaled"])
    calibrate.set_defaults(func=_cmd_calibrate)

    link = add_parser("link", help="optimize one link's buffering")
    link.add_argument("node")
    link.add_argument("length_mm", type=float)
    link.add_argument("--weight", type=float, default=0.5,
                      help="delay weight in [0, 1] (1 = delay-optimal)")
    link.add_argument("--staggered", action="store_true",
                      help="also report the staggered-insertion trade")
    link.set_defaults(func=_cmd_link)

    accuracy = add_parser("accuracy",
                              help="model accuracy vs sign-off")
    accuracy.add_argument("node")
    accuracy.add_argument("--lengths", type=float, nargs="+",
                          default=[1.0, 5.0, 10.0], metavar="MM")
    accuracy.add_argument("--style", default="swss",
                          choices=["swss", "shielded",
                                   "double-spacing"])
    accuracy.set_defaults(func=_cmd_accuracy)

    synth = add_parser("synth", help="synthesize a NoC test case")
    synth.add_argument("design", choices=["vproc", "dvopd"])
    synth.add_argument("node")
    synth.set_defaults(func=_cmd_synth)

    for name, func, help_text in (
            ("table1", _cmd_table1, "full Table I"),
            ("table2", _cmd_table2, "full Table II (slow)"),
            ("table3", _cmd_table3, "full Table III (slow)"),
            ("staggering", _cmd_staggering, "staggering experiment"),
            ("runtime", _cmd_runtime, "runtime comparison")):
        add_parser(name, help=help_text).set_defaults(func=func)

    leak = add_parser("leakage-area",
                          help="leakage/area model accuracy")
    leak.add_argument("node", nargs="?", default="90nm")
    leak.set_defaults(func=_cmd_leakage_area)

    scaling_cmd = add_parser("scaling",
                                 help="six-node scaling study")
    scaling_cmd.add_argument("--length-mm", type=float, default=5.0)
    scaling_cmd.set_defaults(func=_cmd_scaling)

    corners_cmd = add_parser("corners",
                                 help="corner guard-band experiment")
    corners_cmd.add_argument("node", nargs="?", default="90nm")
    corners_cmd.add_argument("--length-mm", type=float, default=5.0)
    corners_cmd.set_defaults(func=_cmd_corners)

    mesh_cmd = add_parser("mesh",
                              help="custom vs 2D-mesh comparison")
    mesh_cmd.add_argument("design", choices=["vproc", "dvopd"])
    mesh_cmd.add_argument("node", nargs="?", default="90nm")
    mesh_cmd.set_defaults(func=_cmd_mesh)

    widths_cmd = add_parser("widths",
                                help="flit-width exploration")
    widths_cmd.add_argument("design", choices=["vproc", "dvopd"])
    widths_cmd.add_argument("node", nargs="?", default="90nm")
    widths_cmd.add_argument("--widths", type=int, nargs="+",
                            default=[32, 64, 128])
    widths_cmd.set_defaults(func=_cmd_widths)

    report_cmd = add_parser("report",
                            help="summarize a --trace JSONL file")
    report_cmd.add_argument("trace_file")
    report_cmd.add_argument("--chrome", default=None, metavar="OUT",
                            help="also export a chrome://tracing JSON")
    report_cmd.add_argument("--flamegraph", default=None,
                            metavar="OUT",
                            help="also export a Brendan-Gregg "
                                 "collapsed-stack file (self-time "
                                 "weights in microseconds)")
    report_cmd.set_defaults(func=_cmd_report)

    lint_cmd = add_parser(
        "lint", help="project-specific AST static analysis")
    lint_cmd.add_argument("paths", nargs="*", metavar="PATH",
                          help="files or directories to scan "
                               "(default: src tests scripts)")
    lint_cmd.add_argument("--format", default="text",
                          choices=["text", "json"],
                          help="findings output format")
    lint_cmd.add_argument("--rules", default=None, metavar="R1,R2",
                          help="comma-separated subset of rules")
    lint_cmd.add_argument("--exclude", action="append", default=None,
                          metavar="FRAGMENT",
                          help="skip files whose path contains "
                               "FRAGMENT (repeatable)")
    lint_cmd.add_argument("--baseline", default="lint-baseline.json",
                          metavar="FILE",
                          help="baseline file of grandfathered "
                               "findings (used when it exists)")
    lint_cmd.add_argument("--write-baseline", action="store_true",
                          help="rewrite the baseline from the "
                               "current findings and exit 0")
    lint_cmd.add_argument("--prune-baseline", action="store_true",
                          help="drop baseline entries the current "
                               "tree no longer produces, then exit 0")
    lint_cmd.add_argument("--report", default=None, metavar="FILE",
                          help="also write a JSON findings report "
                               "to FILE")
    lint_cmd.add_argument("--graph", default=None, metavar="OUT",
                          help="also serialize the project call "
                               "graph (JSON for a .json suffix, "
                               "Graphviz DOT otherwise)")
    lint_cmd.set_defaults(func=_cmd_lint)

    bench_cmd = add_parser(
        "bench", help="gated benchmark reports (yield, lut)")
    bench_cmd.add_argument("suite", choices=["yield", "lut"],
                           help="'yield' compares tail-yield "
                                "estimators on the golden engine; "
                                "'lut' gates the characterization LUT "
                                "tier against the closed form")
    bench_cmd.add_argument("--node", default="90nm",
                           help="technology node (default 90nm)")
    bench_cmd.add_argument("--quick", action="store_true",
                           help="smaller sample counts (CI smoke)")
    bench_cmd.add_argument("--samples", type=int, default=None,
                           metavar="N",
                           help="(yield) Monte-Carlo draws (default "
                                "256, 64 with --quick)")
    bench_cmd.add_argument("--output", default=None, metavar="FILE",
                           help="benchmark report destination "
                                "(default BENCH_<suite>.json)")
    bench_cmd.set_defaults(func=_cmd_bench)

    luts_cmd = add_parser(
        "luts", help="characterization LUT tier: build and drift-check"
                     " precomputed tables")
    luts_cmd.add_argument("action", choices=["build", "check"],
                          help="'build' grids the calibrated model "
                               "into a versioned artifact; 'check' "
                               "rebuilds the coefficients and diffs "
                               "them against the stored artifact")
    luts_cmd.add_argument("node", nargs="?", default="90nm",
                          help="technology node (default 90nm)")
    luts_cmd.add_argument("--grid", default="default",
                          choices=["default", "coarse"],
                          help="grid spec: 'default' serves the "
                               "production contract, 'coarse' is the "
                               "fast CI/smoke variant")
    luts_cmd.add_argument("--output", default=None, metavar="FILE",
                          help="(build) also export the committable "
                               "standalone JSON artifact to FILE")
    luts_cmd.add_argument("--artifact", default=None, metavar="FILE",
                          help="(check) diff against this exported "
                               "artifact file instead of the LUT "
                               "cache slot")
    luts_cmd.add_argument("--threshold", type=float, default=1e-9,
                          metavar="REL",
                          help="(check) maximum relative drift before "
                               "the exit status turns nonzero "
                               "(default 1e-9 — the builder is "
                               "deterministic, so any drift signals "
                               "recalibration)")
    luts_cmd.set_defaults(func=_cmd_luts)

    mc_cmd = add_parser(
        "mc", help="Monte-Carlo line delay under process variation")
    mc_cmd.add_argument("node", nargs="?", default="90nm")
    mc_cmd.add_argument("--length-mm", type=float, default=2.0,
                        help="line length in millimeters")
    mc_cmd.add_argument("--repeaters", type=int, default=2,
                        help="repeater count")
    mc_cmd.add_argument("--size", type=float, default=24.0,
                        help="repeater size (multiple of minimum)")
    mc_cmd.add_argument("--slew-ps", type=float, default=100.0,
                        help="input slew in picoseconds")
    mc_cmd.add_argument("--samples", type=int, default=64,
                        metavar="N", help="Monte-Carlo draws")
    mc_cmd.add_argument("--seed", type=int, default=2010)
    mc_cmd.add_argument("--engine", default="model",
                        type=_mc_engine, choices=["golden", "model"],
                        help="'golden' simulates every draw; 'model' "
                             "(also accepted as 'kernel') evaluates "
                             "the closed form")
    mc_cmd.add_argument("--estimator", default="plain",
                        choices=["plain", "importance",
                                 "importance-sn", "qmc",
                                 "control-variate"],
                        help="sampling strategy (see "
                             "docs/yield-estimation.md)")
    mc_cmd.add_argument("--critical-ps", type=float, default=None,
                        metavar="PS",
                        help="critical delay (ps) the tail estimate "
                             "and the importance shift target "
                             "(default: mean + 3 sigma)")
    mc_cmd.add_argument("--target-ci", type=float, default=None,
                        metavar="PS",
                        help="keep doubling draws until the 95%% CI "
                             "half-width on the mean is below PS "
                             "picoseconds")
    mc_cmd.add_argument("--lanes", type=int, default=8,
                        help="scrambled-Sobol lanes (qmc estimator)")
    mc_cmd.add_argument("--beta", type=float, default=None,
                        help="control-variate coefficient (default: "
                             "estimated online)")
    mc_cmd.add_argument("--prepass", type=int, default=4096,
                        metavar="N",
                        help="cheap kernel draws for the pre-pass of "
                             "the model-backed estimators")
    mc_cmd.set_defaults(func=_cmd_mc)

    serve_cmd = add_parser(
        "serve", help="serve link-design and Monte-Carlo queries over "
                      "HTTP / a Unix socket")
    serve_cmd.add_argument("--host", default=None,
                           help="TCP bind address (default "
                                "127.0.0.1; REPRO_SERVE_HOST)")
    serve_cmd.add_argument("--port", type=int, default=None,
                           help="TCP port, 0 = ephemeral (default "
                                "8787; REPRO_SERVE_PORT)")
    serve_cmd.add_argument("--socket", default=None, metavar="PATH",
                           help="also listen on a Unix socket "
                                "(REPRO_SERVE_SOCKET)")
    serve_cmd.add_argument("--shards", type=int, default=None,
                           metavar="N",
                           help="warm worker processes, 0 = compute "
                                "in-process (default 2; "
                                "REPRO_SERVE_SHARDS)")
    serve_cmd.add_argument("--max-batch", type=int, default=None,
                           metavar="N",
                           help="ship a batch parked behind a busy "
                                "shard early at N queries (default 64; "
                                "REPRO_SERVE_MAX_BATCH)")
    serve_cmd.add_argument("--memo-entries", type=int, default=None,
                           metavar="N",
                           help="per-context link-design LRU bound "
                                "(default 4096; "
                                "REPRO_SERVE_MEMO_ENTRIES)")
    serve_cmd.set_defaults(func=_cmd_serve)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    import time

    from repro import runtime as rt

    parser = build_parser()
    args = parser.parse_args(argv)
    # Each invocation starts from a clean runtime configuration so a
    # prior in-process call's flags cannot leak into this one.
    rt.reset_configuration()
    rt.configure(
        workers=args.workers,
        cache_enabled=False if args.no_cache else None,
        max_retries=args.max_retries,
    )
    sink = None
    trace_path = getattr(args, "trace", None)
    if trace_path:
        sink = rt.JsonlSink(trace_path)
        rt.TRACER.add_sink(sink)
    # Span-attributed profiling: collect the run's spans in memory and
    # (for 'memory'/'all') attach the tracemalloc profiler so every
    # span gets net/peak byte annotations at its boundaries.
    profile_mode = getattr(args, "profile", "off") or "off"
    profile_memory = profile_mode in ("memory", "all")
    collector = None
    if profile_mode != "off":
        collector = rt.SpanCollector()
        rt.TRACER.add_sink(collector)
        if profile_memory:
            import tracemalloc
            tracemalloc.start()
            rt.TRACER.set_profiler(rt.MemoryProfiler())
    started_at = rt.utc_timestamp()
    started = time.perf_counter()
    try:
        with rt.METRICS.timer("command"), \
                rt.span(f"repro.{args.command}"):
            status = args.func(args)
    finally:
        wall_seconds = time.perf_counter() - started
        if sink is not None:
            rt.TRACER.remove_sink(sink)
            sink.close()
        if collector is not None:
            rt.TRACER.remove_sink(collector)
            if profile_memory:
                import tracemalloc
                rt.TRACER.set_profiler(None)
                tracemalloc.stop()
        if trace_path:
            config = {key: value for key, value in vars(args).items()
                      if key not in ("func",)}
            manifest = rt.build_manifest(
                args.command, config,
                workers=rt.resolve_workers(),
                cache_enabled=rt.cache_enabled(),
                wall_seconds=wall_seconds,
                started_at=started_at,
                trace_file=str(trace_path),
            )
            rt.write_manifest(rt.manifest_path_for(trace_path),
                              manifest)
        if collector is not None:
            profile = rt.build_profile(collector.events)
            print(profile.format(memory=profile_memory))
        metrics_path = getattr(args, "metrics", None)
        if metrics_path:
            with open(metrics_path, "w", encoding="utf-8") as handle:
                handle.write(rt.METRICS.to_openmetrics())
        if args.stats:
            workers = rt.resolve_workers()
            print(rt.METRICS.format_footer(
                extra={"workers": workers}))
    return status


if __name__ == "__main__":
    sys.exit(main())
