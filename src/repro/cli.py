"""Command-line interface: regenerate any of the paper's tables.

Usage (after ``pip install -e .``)::

    repro-gossip fig4                 # the general systolic bound table
    repro-gossip fig5                 # separator-refined systolic bounds
    repro-gossip fig6                 # non-systolic bounds per topology
    repro-gossip fig8                 # full-duplex bounds
    repro-gossip structure            # the Fig. 1-3 / Fig. 7 matrices
    repro-gossip sandwich             # certified vs. measured on instances
    repro-gossip broadcast            # batched multi-source broadcast sweep
    repro-gossip search               # synthesized schedules vs. bounds table
    repro-gossip optimize --family cycle --size 12
                                      # synthesize one schedule + certify gap
    repro-gossip robustness --family cycle --size 64 --model bernoulli --p 0.1
                                      # Monte-Carlo fault-injection analysis
    repro-gossip all                  # everything (the EXPERIMENTS.md source)

or equivalently ``python -m repro <command>``.  Simulation-backed commands
take ``--engine {auto,frontier,reference,vectorized,...}`` to pin the
simulation backend (the ``REPRO_SIM_ENGINE`` environment variable overrides
``auto`` globally); the choices are drawn live from the engine registry, so
newly registered backends appear automatically.

Telemetry and logging
---------------------
``--trace PATH`` (or the ``REPRO_TRACE`` environment variable) streams the
run's spans, counters and events as JSONL through
:class:`repro.telemetry.JsonlRecorder`; ``repro-gossip stats TRACE.jsonl``
summarises such a file (``--chrome OUT.json`` converts it to the Chrome
trace-event format for Perfetto / ``chrome://tracing``).  ``--metrics`` on
``optimize``/``robustness``/``broadcast`` records in memory and prints the
run-stats table after the command's own output.  ``-v`` raises stdlib
logging to INFO, ``-vv`` to DEBUG (where the telemetry layer mirrors every
record), ``-q`` silences everything below ERROR.  Recording never changes
results — the engines' telemetry is bit-neutral by construction.
"""

from __future__ import annotations

import argparse
import logging
import math
import sys
from collections.abc import Callable, Sequence

from repro import telemetry
from repro.exceptions import ReproError

from repro.experiments.broadcast_sweep import broadcast_sweep_table
from repro.experiments.fig4 import fig4_table
from repro.experiments.fig5 import fig5_table
from repro.experiments.fig6 import fig6_table
from repro.experiments.fig8 import fig8_table
from repro.experiments.runner import (
    BROADCAST_COLUMNS,
    SEARCH_GAP_COLUMNS,
    format_table,
    run_all,
)
from repro.experiments.sandwich import sandwich_table
from repro.experiments.search_gaps import search_gaps_table
from repro.experiments.structure import render_matrix, structure_report
from repro.gossip.engines import AUTO_ENGINE, available_engines
from repro.search.local_search import STRATEGIES
from repro.search.objective import OBJECTIVES

from repro.topologies.classic import (
    complete_graph,
    cycle_graph,
    grid_2d,
    hypercube,
    path_graph,
    torus_2d,
)
from repro.topologies.debruijn import de_bruijn

__all__ = ["main", "build_parser", "OPTIMIZE_FAMILIES"]

#: Topology families the ``optimize`` subcommand knows: family name →
#: (number of ``--size`` integers, builder).  One table so the argparse
#: choices and the dispatch cannot drift.
OPTIMIZE_FAMILIES = {
    "cycle": (1, cycle_graph),
    "path": (1, path_graph),
    "complete": (1, complete_graph),
    "hypercube": (1, hypercube),
    "grid": (2, grid_2d),
    "torus": (2, torus_2d),
    "debruijn": (2, de_bruijn),
}

#: Fault models the ``robustness`` subcommand knows (see repro.faults.models).
FAULT_MODELS = ("bernoulli", "crash", "adversarial")


def build_parser() -> argparse.ArgumentParser:
    """The argument parser for the ``repro-gossip`` entry point."""
    parser = argparse.ArgumentParser(
        prog="repro-gossip",
        description="Regenerate the tables of 'Lower bounds on systolic gossip'.",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="stream telemetry (spans, counters, events) as JSONL to PATH; "
        f"the {telemetry.TRACE_ENV_VAR} environment variable is the fallback",
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="raise log verbosity: -v INFO, -vv DEBUG (telemetry records)",
    )
    parser.add_argument(
        "-q",
        "--quiet",
        action="store_true",
        help="silence logging below ERROR",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("fig4", help="general systolic lower bound (Fig. 4)")
    sub.add_parser("fig5", help="separator-refined systolic bounds (Fig. 5)")
    sub.add_parser("fig6", help="non-systolic bounds per topology (Fig. 6)")
    sub.add_parser("fig8", help="full-duplex bounds (Fig. 8)")
    sub.add_parser("structure", help="delay-matrix structure (Figs. 1-3 and 7)")
    sandwich = sub.add_parser(
        "sandwich", help="certified lower bounds vs. measured gossip times"
    )
    sandwich.add_argument(
        "--unroll-periods",
        type=_positive,
        default=3,
        help="periods to unroll when building delay digraphs (default 3)",
    )
    _add_engine_flag(sandwich)
    broadcast = sub.add_parser(
        "broadcast", help="batched multi-source broadcast sweep per topology"
    )
    _add_engine_flag(broadcast)
    _add_metrics_flag(broadcast)
    search = sub.add_parser(
        "search", help="synthesized schedules vs. certified bounds per topology"
    )
    search.add_argument("--seed", type=_natural, default=0, help="search RNG seed (default 0)")
    search.add_argument(
        "--iterations",
        type=_positive,
        default=150,
        help="local-search proposals per driver run (default 150)",
    )
    _add_engine_flag(search)
    optimize = sub.add_parser(
        "optimize",
        help="synthesize a systolic schedule for one instance and certify its gap",
    )
    _add_instance_flags(optimize)
    optimize.add_argument(
        "--strategy",
        choices=STRATEGIES,
        default="anneal",
        help="local-search driver (default anneal)",
    )
    optimize.add_argument(
        "--objective",
        choices=OBJECTIVES,
        default="gossip_rounds",
        help="score to minimise (default gossip_rounds)",
    )
    optimize.add_argument("--seed", type=_natural, default=0, help="search RNG seed (default 0)")
    optimize.add_argument(
        "--iterations",
        type=_positive,
        default=300,
        help="local-search proposals per driver run (default 300)",
    )
    optimize.add_argument(
        "--restarts",
        type=_natural,
        default=1,
        help="extra passes restarted from the best state: annealing reheats, "
        "or repeated hill-climb walks (default 1)",
    )
    optimize.add_argument(
        "--fault-p",
        type=_probability,
        default=0.1,
        help="Bernoulli call-failure probability behind the "
        "robust_gossip_rounds objective (default 0.1; ignored otherwise)",
    )
    optimize.add_argument(
        "--fault-trials",
        type=_positive,
        default=8,
        help="fault trials per candidate for the robust_gossip_rounds "
        "objective (default 8; ignored otherwise)",
    )
    optimize.add_argument(
        "--incremental",
        action="store_true",
        help="evaluate candidates incrementally: resume engine checkpoints "
        "across candidates sharing a period prefix (bit-identical results, "
        "fewer simulated rounds per evaluation)",
    )
    optimize.add_argument(
        "--workers",
        type=_positive,
        default=None,
        metavar="N",
        help="run the multi-process island search with N worker processes "
        "(results are deterministic for a fixed seed regardless of N; "
        "default: single-process portfolio search)",
    )
    _add_engine_flag(optimize)
    _add_metrics_flag(optimize)
    robustness = sub.add_parser(
        "robustness",
        help="Monte-Carlo fault-injection analysis of one instance's schedule",
    )
    _add_instance_flags(robustness)
    robustness.add_argument(
        "--model",
        choices=FAULT_MODELS,
        default="bernoulli",
        help="fault model to inject (default bernoulli)",
    )
    robustness.add_argument(
        "--p",
        type=_probability,
        default=0.1,
        help="per-call failure probability for --model bernoulli (default 0.1)",
    )
    robustness.add_argument(
        "--k",
        type=_natural,
        default=1,
        help="crashed vertices (crash) or deleted activations per period "
        "(adversarial); default 1",
    )
    robustness.add_argument(
        "--trials",
        type=_positive,
        default=200,
        help="Monte-Carlo trials (default 200; adversarial analysis is "
        "deterministic and ignores this)",
    )
    robustness.add_argument("--seed", type=_natural, default=0, help="fault RNG seed (default 0)")
    robustness.add_argument(
        "--max-rounds",
        type=_positive,
        default=None,
        help="per-trial round budget (default: 3x the fault-free gossip time)",
    )
    _add_engine_flag(robustness)
    _add_metrics_flag(robustness)
    stats = sub.add_parser(
        "stats", help="summarise a JSONL telemetry trace written by --trace"
    )
    stats.add_argument("trace_path", help="path to a --trace / REPRO_TRACE JSONL file")
    stats.add_argument(
        "--chrome",
        metavar="OUT.json",
        default=None,
        help="also convert the trace to Chrome trace-event JSON "
        "(loadable in Perfetto / chrome://tracing)",
    )
    report = sub.add_parser(
        "report", help="summarise the persistent run ledger and flag perf anomalies"
    )
    report.add_argument(
        "--section", default=None, help="restrict to one benchmark section"
    )
    report.add_argument(
        "--last",
        type=_positive,
        default=5,
        help="recorded runs to show per section (default 5)",
    )
    _add_ledger_flag(report)
    compare = sub.add_parser(
        "compare", help="compare two recorded revisions in the run ledger"
    )
    compare.add_argument("rev1", help="baseline revision (as recorded in the ledger)")
    compare.add_argument("rev2", help="revision to compare against the baseline")
    compare.add_argument(
        "--section", default=None, help="restrict to one benchmark section"
    )
    _add_ledger_flag(compare)
    everything = sub.add_parser("all", help="run every experiment (EXPERIMENTS.md source)")
    _add_engine_flag(everything)
    return parser


def _bounded(cast: type, low: float, high: float, what: str) -> Callable[[str], float]:
    """An argparse type: ``cast(text)`` within ``[low, high]``, else a usage error."""

    def parse(text: str) -> float:
        try:
            value = cast(text)
        except ValueError:
            value = None
        if value is None or not low <= value <= high:
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
        return value

    return parse


_positive = _bounded(int, 1, math.inf, "a positive integer")
_natural = _bounded(int, 0, math.inf, "a non-negative integer")
_probability = _bounded(float, 0.0, 1.0, "a probability in [0, 1]")


def _add_instance_flags(parser: argparse.ArgumentParser) -> None:
    """``--family``/``--size``/``--mode``: the instance ``_build_instance`` resolves."""
    parser.add_argument(
        "--family",
        choices=sorted(OPTIMIZE_FAMILIES),
        required=True,
        help="topology family to build the instance from",
    )
    parser.add_argument(
        "--size",
        required=True,
        help="instance size: one integer (cycle/path/complete/hypercube) or "
        "two separated by 'x' or ',' (grid/torus/debruijn), e.g. 12 or 4x4",
    )
    parser.add_argument(
        "--mode",
        choices=("half-duplex", "full-duplex"),
        default="half-duplex",
        help="communication mode (default half-duplex)",
    )


def _add_engine_flag(parser: argparse.ArgumentParser) -> None:
    """``--engine`` with the registered backends (plus automatic selection)."""
    parser.add_argument(
        "--engine",
        choices=(AUTO_ENGINE, *available_engines()),
        default=AUTO_ENGINE,
        help="simulation engine to use (default: auto)",
    )


def _add_ledger_flag(parser: argparse.ArgumentParser) -> None:
    """``--ledger``: the sqlite run-ledger path (REPRO_LEDGER-aware default)."""
    parser.add_argument(
        "--ledger",
        default=None,
        help="run-ledger database (default: REPRO_LEDGER or .repro/ledger.db)",
    )


def _add_metrics_flag(parser: argparse.ArgumentParser) -> None:
    """``--metrics``: record telemetry in memory and print the run-stats table."""
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="collect run telemetry in memory and print the counter/span "
        "table after the command output (results are unchanged)",
    )


def _parse_size(family: str, size: str) -> tuple[int, ...]:
    """``--size`` values: '12', '4x4' or '2,3' depending on the family."""
    parts = size.replace("x", ",").split(",")
    try:
        values = tuple(int(p) for p in parts if p != "")
    except ValueError:
        raise SystemExit(f"invalid --size {size!r}: expected integers") from None
    expected, _ = OPTIMIZE_FAMILIES[family]
    if len(values) != expected:
        raise SystemExit(
            f"family {family!r} expects {expected} size value(s), got {len(values)} "
            f"from --size {size!r}"
        )
    return values


def _build_instance(args: argparse.Namespace):
    """Resolve ``--family``/``--size``/``--mode`` into (graph, mode)."""
    from repro.exceptions import TopologyError
    from repro.gossip.model import Mode

    _, builder = OPTIMIZE_FAMILIES[args.family]
    try:
        graph = builder(*_parse_size(args.family, args.size))
    except TopologyError as exc:
        raise SystemExit(f"invalid --size {args.size!r} for {args.family}: {exc}") from None
    mode = Mode.FULL_DUPLEX if args.mode == "full-duplex" else Mode.HALF_DUPLEX
    return graph, mode


def _run_optimize(args: argparse.Namespace) -> int:
    """The ``optimize`` subcommand: synthesize one schedule, certify its gap."""
    from repro.faults import BernoulliArcFaults
    from repro.search import RobustnessSpec, certified_gap, synthesize_schedule

    graph, mode = _build_instance(args)
    robustness = None
    if args.objective == "robust_gossip_rounds":
        robustness = RobustnessSpec(
            BernoulliArcFaults(args.fault_p), trials=args.fault_trials, seed=args.seed
        )
    with telemetry.span(
        "cli.synthesize", graph=graph.name, strategy=args.strategy
    ):
        result = synthesize_schedule(
            graph,
            mode,
            strategy=args.strategy,
            objective=args.objective,
            seed=args.seed,
            max_iters=args.iterations,
            restarts=args.restarts,
            engine=args.engine,
            robustness=robustness,
            incremental=args.incremental,
            workers=args.workers,
        )
    with telemetry.span("cli.certify", graph=graph.name):
        report = certified_gap(
            result.schedule, found=result.found_rounds, engine=args.engine
        )
    print(
        format_table(
            [
                {
                    "graph": report.graph_name,
                    "n": report.n,
                    "mode": report.mode,
                    "period": report.period,
                    "found": report.found,
                    "lower_bound": report.lower_bound,
                    "gap": report.gap,
                    "certified_rounds": report.certified_rounds,
                    "diameter_bound": report.diameter_bound,
                    "evaluations": result.evaluations,
                    "engine": result.objective.engine_name,
                }
            ]
        )
    )
    print(f"winner: {result.schedule.name} (seeded from {result.seed_name})")
    print(f"(found, lower_bound, gap) = ({report.found}, {report.lower_bound}, {report.gap})")
    if result.found_rounds is None:
        print("warning: the synthesized schedule never completed gossip")
        return 1
    return 0


def _run_robustness(args: argparse.Namespace) -> int:
    """The ``robustness`` subcommand: fault-injection analysis of one instance.

    Stress-tests the instance's edge-colouring schedule (the constructive
    baseline every search run starts from) under the selected fault model.
    """
    from repro.faults import (
        BernoulliArcFaults,
        CrashFaults,
        expected_gossip_time,
        gossip_time_quantile,
        monte_carlo,
        reachability_degradation,
        worst_case_gossip_time,
    )
    from repro.gossip.engines import resolve_engine
    from repro.gossip.engines.base import RoundProgram
    from repro.gossip.simulation import gossip_time
    from repro.search import edge_coloring_seed

    graph, mode = _build_instance(args)
    schedule = edge_coloring_seed(graph, mode)

    if args.model == "adversarial":
        # Resolve once against the nominal program so the table reports the
        # backend that actually ran instead of echoing a raw "auto".
        resolved = resolve_engine(
            args.engine, RoundProgram.from_schedule(schedule)
        )
        nominal = gossip_time(schedule, engine=resolved)
        report = worst_case_gossip_time(schedule, args.k, engine=resolved)
        print(
            format_table(
                [
                    {
                        "graph": graph.name,
                        "n": graph.n,
                        "mode": mode.value,
                        "k": args.k,
                        "nominal": nominal,
                        "worst_case": report.rounds,
                        "exact": report.exact,
                        "evaluations": report.evaluations,
                        "engine": resolved.name,
                    }
                ]
            )
        )
        for slot, arc in report.deletion:
            print(f"deleted: round slot {slot + 1}, arc {arc!r}")
        if report.rounds is None:
            print("warning: the worst-case deletion prevents gossip completion")
        return 0

    if args.model == "bernoulli":
        model = BernoulliArcFaults(args.p)
    else:
        model = CrashFaults(args.k)
    result = monte_carlo(
        schedule,
        model,
        trials=args.trials,
        seed=args.seed,
        max_rounds=args.max_rounds,
        engine=args.engine,
    )
    # The driver already ran the fault-free protocol when it derived the
    # default horizon; only an explicit --max-rounds leaves it unmeasured.
    nominal = (
        result.nominal_rounds
        if result.nominal_rounds is not None
        else gossip_time(schedule, engine=args.engine)
    )
    reach = reachability_degradation(result)
    mean = expected_gossip_time(result)
    print(
        format_table(
            [
                {
                    "graph": graph.name,
                    "n": graph.n,
                    "mode": mode.value,
                    "model": result.model_name,
                    "trials": result.trials,
                    "horizon": result.horizon,
                    "nominal": nominal,
                    "completion_rate": result.completion_rate,
                    "mean_rounds": mean,
                    "p50": gossip_time_quantile(result, 0.5),
                    "p90": gossip_time_quantile(result, 0.9),
                    "min_reach": float(reach.min()),
                    "engine": result.engine_name,
                }
            ]
        )
    )
    return 0


def _run_stats(args: argparse.Namespace) -> int:
    """The ``stats`` subcommand: validate + summarise a JSONL telemetry trace."""
    from repro.telemetry.trace import TraceError, read_stats, write_chrome_trace

    try:
        stats = read_stats(args.trace_path)
    except TraceError as exc:
        print(f"invalid trace: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"cannot read trace: {exc}", file=sys.stderr)
        return 1
    print(stats.format_table())
    if args.chrome is not None:
        count = write_chrome_trace(args.trace_path, args.chrome)
        print(f"wrote {count} Chrome trace event(s) to {args.chrome}")
    return 0


def _run_report(args: argparse.Namespace) -> int:
    """The ``report`` subcommand: per-section ledger history + anomalies."""
    from repro.telemetry.ledger import Ledger, LedgerError
    from repro.telemetry.regress import analyze_ledger

    try:
        with Ledger(args.ledger, read_only=True) as ledger:
            sections = (
                [args.section] if args.section is not None else ledger.sections()
            )
            if not sections:
                print(f"ledger {ledger.path}: no recorded runs yet")
                return 0
            for name in sections:
                rows = ledger.runs(section=name, last=args.last)
                if not rows:
                    print(f"section {name}: no recorded runs")
                    continue
                print(f"section {name}")
                print(f"  {'date':<12}{'rev':<12}{'seconds':>10}  counters")
                for row in rows:
                    seconds = "-" if row.seconds is None else f"{row.seconds:.4f}"
                    print(
                        f"  {row.date:<12}{row.rev:<12}{seconds:>10}"
                        f"  {len(row.counters)}"
                    )
                print()
            findings = analyze_ledger(ledger, section=args.section)
    except LedgerError as exc:
        print(f"ledger error: {exc}", file=sys.stderr)
        return 1
    if findings:
        for finding in findings:
            print(finding.format())
    else:
        print("no anomalies detected")
    return 0


def _run_compare(args: argparse.Namespace) -> int:
    """The ``compare`` subcommand: latest rows of two revisions, side by side."""
    from repro.telemetry.ledger import Ledger, LedgerError
    from repro.telemetry.regress import COUNTER_THRESHOLD

    try:
        with Ledger(args.ledger, read_only=True) as ledger:
            known = ledger.revisions()
            for rev in (args.rev1, args.rev2):
                if rev not in known:
                    print(
                        f"revision {rev!r} has no recorded runs in {ledger.path}"
                        + (f" (known: {', '.join(known)})" if known else " (empty ledger)"),
                        file=sys.stderr,
                    )
                    return 1
            sections = (
                [args.section] if args.section is not None else ledger.sections()
            )
            compared = 0
            for name in sections:
                left_rows = ledger.runs(section=name, rev=args.rev1, last=1)
                right_rows = ledger.runs(section=name, rev=args.rev2, last=1)
                if not left_rows or not right_rows:
                    continue
                left, right = left_rows[0], right_rows[0]
                compared += 1
                print(f"section {name}")
                if left.seconds and right.seconds:
                    ratio = right.seconds / left.seconds
                    print(
                        f"  seconds: {left.seconds:.4f} -> {right.seconds:.4f}"
                        f"  ({ratio:.2f}x)"
                    )
                for counter in sorted(set(left.counters) & set(right.counters)):
                    before, after = left.counters[counter], right.counters[counter]
                    if before and after and (
                        after / before > COUNTER_THRESHOLD
                        or before / after > COUNTER_THRESHOLD
                    ):
                        print(
                            f"  {counter}: {before} -> {after}"
                            f"  ({after / before:.2f}x)"
                        )
                print()
    except LedgerError as exc:
        print(f"ledger error: {exc}", file=sys.stderr)
        return 1
    if not compared:
        print(
            f"no section recorded under both {args.rev1!r} and {args.rev2!r}",
            file=sys.stderr,
        )
        return 1
    return 0


def _configure_logging(args: argparse.Namespace) -> None:
    """Map ``-q``/``-v``/``-vv`` onto the stdlib root logger (stderr)."""
    if args.quiet:
        level = logging.ERROR
    elif args.verbose >= 2:
        level = logging.DEBUG
    elif args.verbose == 1:
        level = logging.INFO
    else:
        level = logging.WARNING
    logging.basicConfig(
        level=level, stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s"
    )


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    _configure_logging(args)
    if args.command == "stats":
        return _run_stats(args)
    if args.command == "report":
        return _run_report(args)
    if args.command == "compare":
        return _run_compare(args)

    trace_path = args.trace or telemetry.trace_path_from_env()
    wants_metrics = getattr(args, "metrics", False)
    if trace_path is not None:
        recorder: telemetry.Recorder | None = telemetry.JsonlRecorder(trace_path)
    elif wants_metrics:
        recorder = telemetry.StatsRecorder()
    else:
        recorder = None

    # A library error is bad input, not a crash: one line and exit code 2.
    try:
        if recorder is None:
            return _dispatch(args)
        with recorder, telemetry.recording(recorder):
            with telemetry.span("cli.command", command=args.command):
                code = _dispatch(args)
    except ReproError as exc:
        print(f"repro-gossip: error: {exc}", file=sys.stderr)
        return 2
    if wants_metrics and recorder.stats is not None:
        print(recorder.stats.format_table())
    return code


def _dispatch(args: argparse.Namespace) -> int:
    """Run one parsed subcommand; returns a process exit code."""
    command = args.command

    if command == "fig4":
        print(
            format_table(
                fig4_table(),
                ["period_label", "lambda_star", "coefficient", "paper_coefficient", "deviation"],
            )
        )
    elif command == "fig5":
        print(
            format_table(
                fig5_table(),
                [
                    "family",
                    "degree",
                    "period",
                    "coefficient",
                    "general_coefficient",
                    "improves_on_general",
                    "paper_coefficient",
                ],
            )
        )
    elif command == "fig6":
        print(
            format_table(
                fig6_table(),
                [
                    "family",
                    "degree",
                    "coefficient",
                    "general_coefficient",
                    "diameter_coefficient",
                    "improves_on_general",
                    "paper_coefficient",
                ],
            )
        )
    elif command == "fig8":
        print(
            format_table(
                fig8_table(),
                [
                    "family",
                    "degree",
                    "period_label",
                    "coefficient",
                    "general_coefficient",
                    "improves_on_general",
                ],
            )
        )
    elif command == "structure":
        report = structure_report()
        print(f"local protocol {report.local_protocol.activation_word()}  λ = {report.lam}")
        print("Mx(λ):")
        print(render_matrix(report.mx))
        print("Nx(λ):")
        print(render_matrix(report.nx))
        print("Ox(λ):")
        print(render_matrix(report.ox))
        print(f"Lemma 4.2: {report.lemma42}")
        print(f"Lemma 4.3: {report.lemma43}")
        print(f"Lemma 6.1: {report.lemma61}")
    elif command == "sandwich":
        print(
            format_table(
                sandwich_table(unroll_periods=args.unroll_periods, engine=args.engine),
                [
                    "graph",
                    "n",
                    "mode",
                    "period",
                    "certified_lower_bound",
                    "analytic_lower_bound",
                    "measured_gossip_time",
                    "consistent",
                    "engine",
                ],
            )
        )
    elif command == "broadcast":
        print(format_table(broadcast_sweep_table(engine=args.engine), BROADCAST_COLUMNS))
    elif command == "search":
        print(
            format_table(
                search_gaps_table(
                    engine=args.engine, seed=args.seed, max_iters=args.iterations
                ),
                SEARCH_GAP_COLUMNS,
            )
        )
    elif command == "optimize":
        return _run_optimize(args)
    elif command == "robustness":
        return _run_robustness(args)
    elif command == "all":
        print(run_all(engine=args.engine))
    else:  # pragma: no cover - argparse enforces the choices
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
