"""Experiment UPPER — sandwiching the lower bounds with constructive protocols.

For a battery of concrete instances we compute three numbers:

* the **certified lower bound** — Theorem 4.1 applied to the delay matrix of
  the instance's systolic schedule (``λ`` optimised per schedule);
* the **analytic lower bound** — the leading term ``e(s)·log₂(n)`` of the
  general bound for the schedule's period and mode (reported for context;
  the ``−O(log log n)`` slack means it need not be met on small instances);
* the **measured gossip time** of the schedule, from exact simulation.

The invariant every row must satisfy is ``certified ≤ measured``; the
benchmark asserts it and the EXPERIMENTS.md table reports the margins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.certificates import certify_protocol
from repro.core.full_duplex import full_duplex_general_bound
from repro.core.general_bound import general_lower_bound
from repro.exceptions import BoundComputationError
from repro.gossip.engines import resolve_engine
from repro.gossip.engines.base import RoundProgram
from repro.gossip.model import Mode, SystolicSchedule
from repro.gossip.simulation import gossip_time
from repro.protocols.complete import complete_graph_schedule
from repro.protocols.cycle import cycle_systolic_schedule
from repro.protocols.generic import coloring_systolic_schedule
from repro.protocols.grid import grid_systolic_schedule
from repro.protocols.hypercube import hypercube_dimension_exchange
from repro.protocols.path import path_systolic_schedule
from repro.protocols.tree import tree_systolic_schedule
from repro.topologies.butterfly import wrapped_butterfly
from repro.topologies.debruijn import de_bruijn
from repro.topologies.kautz import kautz
from repro.topologies.properties import diameter

__all__ = ["SANDWICH_COLUMNS", "SandwichRow", "sandwich_table", "default_instances"]

#: Column order of the sandwich table in run_all; the CLI's ``sandwich``
#: command appends the resolved ``engine``.
SANDWICH_COLUMNS = (
    "graph",
    "n",
    "mode",
    "period",
    "certified_lower_bound",
    "analytic_lower_bound",
    "measured_gossip_time",
    "consistent",
)


@dataclass(frozen=True)
class SandwichRow:
    """Certified lower bound vs. measured gossip time for one instance."""

    name: str
    graph: str
    n: int
    mode: str
    period: int
    certified_lower_bound: int
    analytic_coefficient: float | None
    analytic_lower_bound: float | None
    measured_gossip_time: int
    norm_at_lambda: float | None
    lam: float | None
    engine: str

    @property
    def consistent(self) -> bool:
        """The inequality the theory guarantees on every instance."""
        return self.certified_lower_bound <= self.measured_gossip_time

    @property
    def gap_ratio(self) -> float:
        """Measured time divided by certified bound (≥ 1 when consistent)."""
        if self.certified_lower_bound == 0:
            return math.inf
        return self.measured_gossip_time / self.certified_lower_bound


def default_instances() -> list[SystolicSchedule]:
    """The standard battery of instances used by the sandwich benchmark."""
    return [
        hypercube_dimension_exchange(4, Mode.FULL_DUPLEX),
        hypercube_dimension_exchange(4, Mode.HALF_DUPLEX),
        complete_graph_schedule(16, Mode.FULL_DUPLEX),
        complete_graph_schedule(16, Mode.HALF_DUPLEX),
        path_systolic_schedule(12, Mode.HALF_DUPLEX),
        path_systolic_schedule(12, Mode.FULL_DUPLEX),
        cycle_systolic_schedule(12, Mode.HALF_DUPLEX),
        grid_systolic_schedule(4, 4, Mode.HALF_DUPLEX),
        tree_systolic_schedule(2, 3, Mode.HALF_DUPLEX),
        coloring_systolic_schedule(de_bruijn(2, 4), Mode.HALF_DUPLEX),
        coloring_systolic_schedule(wrapped_butterfly(2, 3), Mode.HALF_DUPLEX),
        coloring_systolic_schedule(kautz(2, 3), Mode.HALF_DUPLEX),
    ]


def _analytic_bound(mode: Mode, period: int, n: int) -> tuple[float | None, float | None]:
    try:
        if mode is Mode.FULL_DUPLEX:
            bound = full_duplex_general_bound(period)
        else:
            bound = general_lower_bound(period)
    except BoundComputationError:
        # Periods 1-2 fall outside the logarithmic regime (the paper's s <= 2
        # remark); the sandwich table simply has no analytic column there.
        return None, None
    return bound.coefficient, bound.lower_bound(n)


def sandwich_row(
    schedule: SystolicSchedule, *, unroll_periods: int = 3, engine: str = "auto"
) -> SandwichRow:
    """Build the sandwich comparison for one systolic schedule.

    Periods 1-2 fall outside Theorem 4.1 (``certify_protocol`` refuses
    them); those rows fall back to the digraph diameter — a valid lower
    bound on any gossip protocol (an item needs ``dist(x, y)`` rounds to
    travel, one arc per round) — and report no λ/norm, mirroring the
    missing analytic column.  This matches the fallback
    :func:`repro.search.gap.certified_gap` applies to the same schedules.
    """
    try:
        certificate = certify_protocol(
            schedule, optimize_lambda=True, unroll_periods=unroll_periods
        )
        certified, norm, lam = certificate.certified_rounds, certificate.norm, certificate.lam
    except BoundComputationError:
        certified, norm, lam = diameter(schedule.graph), None, None
    # Resolve against the schedule's own program so the row records the
    # backend that actually ran (never a literal "auto").
    resolved = resolve_engine(engine, RoundProgram.from_schedule(schedule))
    measured = gossip_time(schedule, engine=resolved)
    coefficient, analytic = _analytic_bound(schedule.mode, schedule.period, schedule.graph.n)
    return SandwichRow(
        name=schedule.name,
        graph=schedule.graph.name,
        n=schedule.graph.n,
        mode=schedule.mode.value,
        period=schedule.period,
        certified_lower_bound=certified,
        analytic_coefficient=coefficient,
        analytic_lower_bound=analytic,
        measured_gossip_time=measured,
        norm_at_lambda=norm,
        lam=lam,
        engine=resolved.name,
    )


def sandwich_table(
    instances: list[SystolicSchedule] | None = None,
    *,
    unroll_periods: int = 3,
    engine: str = "auto",
) -> list[SandwichRow]:
    """Certified-vs-measured comparison for a battery of instances.

    ``engine`` selects the simulation backend for the measured gossip times.
    """
    schedules = default_instances() if instances is None else instances
    return [
        sandwich_row(schedule, unroll_periods=unroll_periods, engine=engine)
        for schedule in schedules
    ]
