"""Per-layer metrics of a traced loop: span self times plus the counters the
program already emits through ``repro.telemetry``."""

from __future__ import annotations

import re
import statistics
from collections import defaultdict

from perfbench.stats import Span, self_times, untraced_ns
from perfbench.tracing import JOB, LAYER_OF
from perfbench.workloads import SECTIONS

BACKENDS = ("reference", "vectorized", "frontier", "hybrid")

#: Instance names of the optimize workload, as they appear in metric names.
REGRET_INSTANCES = ("C16", "C64", "Grid8x8", "Q6", "DB2-6", "C256")

#: Every per-layer metric: (name, unit, better).  A metric whose layer does
#: no work on a workload reads 0 there.
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("startup.import_s", "s", "lower"),
    ("startup.warmup_s", "s", "lower"),
    ("engines.calls", "count", "lower"),
    ("engines.self_s", "s", "lower"),
    ("engines.rounds", "count", "lower"),
    ("engines.us_per_round", "us", "lower"),
    *((f"engines.calls.{name}", "count", "lower") for name in BACKENDS),
    ("engines.snapshots", "count", "lower"),
    ("engines.auto_regret", "ratio", "lower"),
    *((f"engines.auto_regret.{name}", "ratio", "lower") for name in REGRET_INSTANCES),
    *((f"engines.auto_best.{name}", "count", "higher") for name in BACKENDS),
    ("search.evaluations", "count", "lower"),
    ("search.evals_per_s", "1/s", "higher"),
    ("search.driver.self_s", "s", "lower"),
    ("search.moves.calls", "count", "lower"),
    ("search.moves.self_s", "s", "lower"),
    ("search.constructors.self_s", "s", "lower"),
    ("search.gap.self_s", "s", "lower"),
    ("search.checkpoint_hit_ratio", "ratio", "higher"),
    ("search.reused_rounds", "count", "higher"),
    ("search.cutoff_truncations", "count", "higher"),
    ("search.memo_hits", "count", "higher"),
    ("search.bound_rejects", "count", "higher"),
    ("core.certify.calls", "count", "lower"),
    ("core.certify.self_s", "s", "lower"),
    ("core.bounds.self_s", "s", "lower"),
    ("core.roots.calls", "count", "lower"),
    ("core.roots.self_s", "s", "lower"),
    ("topologies.self_s", "s", "lower"),
    ("faults.sample.self_s", "s", "lower"),
    ("faults.montecarlo.self_s", "s", "lower"),
    ("faults.stacked.self_s", "s", "lower"),
    ("faults.trials", "count", "higher"),
    ("faults.trials_per_s", "1/s", "higher"),
    ("faults.batches", "count", "lower"),
    ("faults.exact_replays", "count", "lower"),
    ("faults.compactions", "count", "lower"),
    ("faults.metrics.self_s", "s", "lower"),
    ("experiments.self_s", "s", "lower"),
    *((f"experiments.section_s.{name}", "s", "lower") for name in SECTIONS),
    ("untraced_s", "s", "lower"),
    ("telemetry.overhead", "ratio", "lower"),
)


def instance_key(name: str) -> str:
    """``"DB(2,6)"`` → ``"DB2-6"``: a graph name as a metric-name part."""
    return re.sub(r"[^A-Za-z0-9-]", "", name.replace(",", "-"))


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _outermost(spans: list[Span], by_id: dict[int, Span], layer: str) -> list[Span]:
    """Spans of ``layer`` not nested in another span of the same layer."""
    out = []
    for span in spans:
        if LAYER_OF.get(span.name) != layer:
            continue
        parent = by_id.get(span.parent) if span.parent is not None else None
        if parent is None or LAYER_OF.get(parent.name) != layer:
            out.append(span)
    return out


def layer_metrics(
    spans: list[Span],
    counters: dict[str, dict[str, int]],
    *,
    snapshots: int,
    traced_s: float,
    untraced_loop_s: float,
    startup: dict[str, float],
    regret: list | None,
) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric's value for one traced loop.

    ``traced_s`` and ``untraced_loop_s`` are the summed job times of the
    traced loop and of the untraced loop over the same jobs; ``regret`` is
    the optimize workload's auto-vs-backends table (``None`` elsewhere).
    """
    by_id = {span.id: span for span in spans}
    own = self_times(spans)
    self_s: dict[str, float] = defaultdict(float)
    inclusive_s: dict[str, float] = defaultdict(float)
    for span in spans:
        layer = LAYER_OF.get(span.name)
        if layer is not None:
            self_s[layer] += own[span.id] / 1e9
            inclusive_s[span.name] += span.duration_ns / 1e9

    def outer(layer: str) -> list[Span]:
        return _outermost(spans, by_id, layer)

    def outer_s(layer: str) -> float:
        return sum(span.duration_ns for span in outer(layer)) / 1e9

    def count(component: str, name: str) -> int:
        return counters.get(component, {}).get(name, 0)

    m: dict[str, float] = {
        "startup.import_s": startup["import_s"],
        "startup.warmup_s": startup["warmup_s"],
    }

    engine_calls = outer("engines")
    rounds = sum(c.get("rounds_simulated", 0) for k, c in counters.items() if k.startswith("engine."))
    m["engines.calls"] = len(engine_calls)
    m["engines.self_s"] = self_s["engines"]
    m["engines.rounds"] = rounds
    m["engines.us_per_round"] = _ratio(self_s["engines"] * 1e6, rounds)
    for name in BACKENDS:
        prefix = f"repro.gossip.engines.{name}:"
        m[f"engines.calls.{name}"] = sum(1 for s in engine_calls if s.name.startswith(prefix))
    m["engines.snapshots"] = snapshots
    rows = {instance_key(row.instance): row for row in regret or ()}
    unknown = set(rows) - set(REGRET_INSTANCES)
    if unknown:
        raise ValueError(f"auto_regret instances missing from REGRET_INSTANCES: {sorted(unknown)}")
    m["engines.auto_regret"] = (
        statistics.geometric_mean(row.ratio for row in rows.values()) if rows else 0.0
    )
    for key in REGRET_INSTANCES:
        m[f"engines.auto_regret.{key}"] = rows[key].ratio if key in rows else 0.0
    for name in BACKENDS:
        m[f"engines.auto_best.{name}"] = sum(1 for row in rows.values() if row.best == name)

    drivers = ("search.hill_climb", "search.simulated_annealing")
    evaluations = sum(count(d, "evaluations") for d in drivers)
    hits = count("search.incremental", "checkpoint_hits")
    misses = count("search.incremental", "checkpoint_misses")
    m["search.evaluations"] = evaluations
    m["search.evals_per_s"] = _ratio(evaluations, outer_s("search.driver"))
    m["search.driver.self_s"] = self_s["search.driver"]
    m["search.moves.calls"] = len(outer("search.moves"))
    m["search.moves.self_s"] = self_s["search.moves"]
    m["search.constructors.self_s"] = self_s["search.constructors"]
    m["search.gap.self_s"] = self_s["search.gap"]
    m["search.checkpoint_hit_ratio"] = _ratio(hits, hits + misses)
    for name in ("reused_rounds", "cutoff_truncations", "memo_hits", "bound_rejects"):
        m[f"search.{name}"] = count("search.incremental", name)

    m["core.certify.calls"] = len(outer("core.certify"))
    m["core.certify.self_s"] = self_s["core.certify"]
    m["core.bounds.self_s"] = self_s["core.bounds"]
    m["core.roots.calls"] = len(outer("core.roots"))
    m["core.roots.self_s"] = self_s["core.roots"]
    m["topologies.self_s"] = self_s["topologies"]

    kernels = ("faults.montecarlo", "faults.montecarlo_stacked")
    trials = sum(count(k, "trials") for k in kernels)
    m["faults.sample.self_s"] = self_s["faults.sample"]
    m["faults.montecarlo.self_s"] = self_s["faults.montecarlo"]
    m["faults.stacked.self_s"] = self_s["faults.stacked"]
    m["faults.trials"] = trials
    m["faults.trials_per_s"] = _ratio(trials, outer_s("faults.montecarlo") + outer_s("faults.stacked"))
    for name in ("batches", "exact_replays", "compactions"):
        m[f"faults.{name}"] = sum(count(k, name) for k in kernels)
    m["faults.metrics.self_s"] = self_s["faults.metrics"]

    m["experiments.self_s"] = self_s["experiments"]
    for section, (module, fn, _) in SECTIONS.items():
        m[f"experiments.section_s.{section}"] = inclusive_s[f"repro.experiments.{module}:{fn}"]

    m["untraced_s"] = untraced_ns(spans, JOB) / 1e9
    m["telemetry.overhead"] = _ratio(traced_s, untraced_loop_s)
    mismatch = set(m) ^ {name for name, _, _ in PER_LAYER}
    if mismatch:
        raise RuntimeError(f"per-layer metrics out of step with PER_LAYER: {sorted(mismatch)}")
    return m
