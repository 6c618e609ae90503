"""Spans around the calls into each ``repro`` layer, recorded from outside.

The program is not edited: :class:`Tracer` replaces each target function or
method with a timing wrapper for the duration of the traced loop.  Modules
bind functions with ``from … import``, so a function is replaced under every
name that any loaded ``repro`` module binds it to; methods
are replaced on their class.  Spans are kept in memory and written out once,
when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from pathlib import Path

from perfbench.stats import Span
from perfbench.workloads import SECTIONS

#: Span name of one benchmark job (the root of every layer span).
JOB = "job"

#: Layer → the ``module:qualname`` targets whose calls it is timed by.
LAYER_TARGETS: dict[str, tuple[str, ...]] = {
    "engines": tuple(
        f"repro.gossip.engines.{module}:{cls}.{method}"
        for module, cls in (
            ("reference", "ReferenceEngine"),
            ("vectorized", "VectorizedEngine"),
            ("frontier", "FrontierEngine"),
            ("hybrid", "HybridEngine"),
        )
        for method in ("run", "run_checkpointed")
    ),
    "search.driver": (
        "repro.search.local_search:synthesize_schedule",
        "repro.search.local_search:hill_climb",
        "repro.search.local_search:simulated_annealing",
    ),
    "search.moves": ("repro.search.moves:Neighborhood.propose",),
    "search.constructors": (
        "repro.search.constructors:edge_coloring_seed",
        "repro.search.constructors:greedy_frontier_schedule",
    ),
    "search.gap": ("repro.search.gap:certified_gap",),
    "core.certify": ("repro.core.certificates:certify_protocol",),
    "core.bounds": (
        "repro.core.general_bound:general_lower_bound",
        "repro.core.full_duplex:full_duplex_general_bound",
        "repro.core.separator_bound:separator_lower_bound",
    ),
    "core.roots": (
        "repro.core.roots:solve_unit_root",
        "repro.core.roots:bisection_root",
        "repro.core.separator_bound:optimize_separator_objective",
    ),
    "topologies": (
        "repro.topologies.properties:diameter",
        "repro.topologies.properties:all_pairs_distances",
        "repro.topologies.classic:path_graph",
        "repro.topologies.classic:cycle_graph",
        "repro.topologies.classic:complete_graph",
        "repro.topologies.classic:hypercube",
        "repro.topologies.classic:grid_2d",
        "repro.topologies.classic:torus_2d",
        "repro.topologies.classic:complete_dary_tree",
        "repro.topologies.debruijn:de_bruijn",
        "repro.topologies.debruijn:de_bruijn_digraph",
        "repro.topologies.butterfly:wrapped_butterfly",
        "repro.topologies.kautz:kautz_digraph",
    ),
    "faults.sample": (
        "repro.faults.models:BernoulliArcFaults.sample",
        "repro.faults.models:CrashFaults.sample",
        "repro.faults.models:AdversarialArcFaults.sample",
        "repro.faults.models:AdversarialArcFaults.worst_deletion",
    ),
    "faults.montecarlo": ("repro.faults.montecarlo:monte_carlo",),
    "faults.stacked": ("repro.faults.montecarlo:monte_carlo_stacked",),
    "faults.metrics": tuple(
        f"repro.faults.metrics:{name}"
        for name in (
            "completion_probability",
            "completion_curve",
            "expected_gossip_time",
            "gossip_time_quantile",
            "reachability_degradation",
            "worst_case_gossip_time",
        )
    ),
    "experiments": tuple(
        f"repro.experiments.{module}:{fn}" for module, fn, _ in SECTIONS.values()
    ),
}

LAYER_OF: dict[str, str] = {
    target: layer for layer, targets in LAYER_TARGETS.items() for target in targets
}


def resolve(target: str) -> tuple[object, str, object]:
    """``module:qualname`` → (owner, attribute, current value)."""
    module_name, qualname = target.split(":")
    owner: object = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for name in path:
        owner = getattr(owner, name)
    return owner, attr, getattr(owner, attr)


class Tracer:
    """Records spans around patched calls; one instance per traced loop."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.snapshots = 0
        self._stack: list[int] = []
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    def _open(self) -> tuple[int, int | None]:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        return span_id, parent

    def _close(self, span_id: int, name: str, parent: int | None, start: int) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        self.spans.append(Span(span_id, name, parent, start, end))

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        span_id, parent = self._open()
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self._close(span_id, name, parent, start)

    def _wrap(self, name: str, fn: Callable) -> Callable:
        counts_snapshots = name.endswith(".run_checkpointed")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id, parent = self._open()
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span_id, name, parent, start)
            if counts_snapshots:
                self.snapshots += len(result.checkpoints)
            return result

        return wrapper

    def install(self, targets) -> None:
        """Wrap every target under every name a loaded module binds it to."""
        for target in targets:
            owner, attr, original = resolve(target)
            wrapper = self._wrap(target, original)
            if isinstance(owner, type):
                self._patch(owner, attr, original, wrapper)
                continue
            for module in list(sys.modules.values()):
                if not getattr(module, "__name__", "").startswith("repro"):
                    continue
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, original, wrapper)

    def _patch(self, owner: object, name: str, original: object, wrapper: object) -> None:
        setattr(owner, name, wrapper)
        self._patches.append((owner, name, original))

    def restore(self) -> None:
        """Put every original back (in reverse order of patching)."""
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def calls(self) -> Counter:
        """Calls recorded per span name."""
        return Counter(span.name for span in self.spans)

    def write(self, path: Path, header: dict) -> None:
        """Write the spans as JSON lines: a header, then one span per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            out.write(json.dumps(header) + "\n")
            for span in self.spans:
                out.write(
                    json.dumps([span.id, span.name, span.parent, span.start_ns, span.end_ns])
                    + "\n"
                )


def dead_wrappers(calls: Counter, expected: tuple[str, ...]) -> list[str]:
    """Entries of ``expected`` (targets, or layers meaning any of their
    targets) that recorded no call."""
    dead = []
    for entry in expected:
        targets = LAYER_TARGETS.get(entry, (entry,))
        if not any(calls[target] for target in targets):
            dead.append(entry)
    return dead
