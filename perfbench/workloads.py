"""The three workloads: their jobs, set-up, warm-up and output checks.

Every workload is a closed loop with one client: the runner issues a job,
waits for it, and issues the next.  A run is a whole number of *cycles*;
one cycle holds every job shape of the workload once, so the job mix, and
with it the median and tail, is the same in every run.  The workload seed
only picks the per-job search and fault seeds.

Jobs call the program's public functions through module attributes looked
up at call time, so the traced run's wrappers see them.  Nothing here
imports ``repro`` at module import time: importing it is part of set-up.
"""

from __future__ import annotations

import importlib
import math
import random
import re
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

#: A run holds at least this many jobs, so a tail percentile with ten jobs
#: beyond it exists (see :func:`perfbench.stats.tail_percentile`).
MIN_JOBS = 20


@dataclass(frozen=True)
class Job:
    """One job: ``index`` picks the instance, ``variant`` the strategy,
    fault model or section, ``seed`` the search or fault seed."""

    label: str
    index: int
    variant: str
    seed: int


def job_rng(workload: str, seed: int) -> random.Random:
    """The per-run stream every per-job seed is drawn from."""
    return random.Random(f"perfbench:{workload}:{seed}")


class Workload:
    """Interface of a workload; see the subclasses."""

    name: str
    #: Seconds one cycle took at the commit that defined the benchmark (on a
    #: shared 2-core x86-64 VM): ``--seconds`` is turned into a fixed
    #: number of cycles with it, so parent and child run identical jobs.
    nominal_cycle_s: float
    #: Wrappers (targets, or layers meaning any of their targets) that must
    #: record calls in the traced loop.
    live: tuple[str, ...]

    def import_entry_points(self) -> None:
        raise NotImplementedError

    def build(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def cycle(self, rng: random.Random, seed: int) -> list[Job]:
        """One job of every shape; per-job seeds come from ``rng``."""
        raise NotImplementedError

    def run(self, job: Job) -> object:
        raise NotImplementedError

    def check(self, job: Job, outcome: object) -> str | None:
        """``None`` when ``outcome`` is right, else what is wrong with it."""
        raise NotImplementedError

    def cycles(self, seconds: float) -> int:
        """Cycles in a run of ``seconds`` at the defining commit (built first)."""
        per_cycle = len(self.cycle(random.Random(0), 0))
        return max(math.ceil(MIN_JOBS / per_cycle), round(seconds / self.nominal_cycle_s))

    def jobs(self, seed: int, cycles: int) -> list[Job]:
        rng = job_rng(self.name, seed)
        return [job for _ in range(cycles) for job in self.cycle(rng, seed)]


# --------------------------------------------------------------------------
# optimize: synthesize a schedule and certify its gap
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class OptimizeOutcome:
    schedule: object
    found: int | None
    gap: int | None


@dataclass(frozen=True)
class RegretRow:
    """``auto``'s time on one instance next to every registered backend's."""

    instance: str
    auto_pick: str
    auto_s: float
    backend_s: dict[str, float]

    @property
    def best(self) -> str:
        return min(self.backend_s, key=self.backend_s.__getitem__)

    @property
    def ratio(self) -> float:
        return self.auto_s / self.backend_s[self.best]


def _median_time(fn, repeats: int) -> float:
    fn()  # warm
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Optimize(Workload):
    """``repro-gossip optimize --incremental`` minus argparse and printing."""

    name = "optimize"
    nominal_cycle_s = 10.5
    strategies = ("anneal", "hill")
    max_iters = 40
    warm_iters = 4
    live = (
        "engines",
        "repro.search.local_search:synthesize_schedule",
        "repro.search.local_search:simulated_annealing",
        "repro.search.local_search:hill_climb",
        "repro.search.moves:Neighborhood.propose",
        "repro.search.constructors:edge_coloring_seed",
        "repro.search.constructors:greedy_frontier_schedule",
        "repro.search.gap:certified_gap",
        "repro.core.certificates:certify_protocol",
        "repro.core.general_bound:general_lower_bound",
        "repro.core.roots:solve_unit_root",
        "repro.topologies.properties:diameter",
    )

    def import_entry_points(self) -> None:
        import repro.search  # noqa: F401
        import repro.topologies.debruijn  # noqa: F401

    def build(self) -> None:
        from repro.topologies.classic import cycle_graph, grid_2d, hypercube
        from repro.topologies.debruijn import de_bruijn

        self.graphs = [
            cycle_graph(16),
            cycle_graph(64),
            grid_2d(8, 8),
            hypercube(6),
            de_bruijn(2, 6),
            cycle_graph(256),
        ]

    def warm_up(self) -> None:
        for strategy in self.strategies:
            self._solve(self.graphs[0], strategy, 0, self.warm_iters)

    def cycle(self, rng: random.Random, seed: int) -> list[Job]:
        return [
            Job(f"{g.name}/{strategy}", i, strategy, rng.getrandbits(31))
            for i, g in enumerate(self.graphs)
            for strategy in self.strategies
        ]

    def run(self, job: Job) -> OptimizeOutcome:
        return self._solve(self.graphs[job.index], job.variant, job.seed, self.max_iters)

    @staticmethod
    def _solve(graph, strategy: str, seed: int, max_iters: int) -> OptimizeOutcome:
        from repro.gossip.model import Mode
        from repro.search import certified_gap, synthesize_schedule

        result = synthesize_schedule(
            graph,
            Mode.HALF_DUPLEX,
            strategy=strategy,
            seed=seed,
            max_iters=max_iters,
            incremental=True,
            engine="auto",
        )
        report = certified_gap(result.schedule, found=result.found_rounds)
        return OptimizeOutcome(result.schedule, result.found_rounds, report.gap)

    def check(self, job: Job, outcome: OptimizeOutcome) -> str | None:
        from repro.gossip.simulation import gossip_time

        if outcome.found is None:
            return "the winner never completed gossip"
        if outcome.gap is None or outcome.gap < 0:
            return f"gap {outcome.gap} is negative"
        reference = gossip_time(outcome.schedule, engine="reference")
        if reference != outcome.found:
            return f"found_rounds {outcome.found} != reference gossip time {reference}"
        return None

    def auto_regret(self, repeats: int = 5) -> list[RegretRow]:
        """Time one run of each instance's seed program on every backend and
        on ``auto`` as search resolves it (incremental, gossip rounds)."""
        from repro.gossip.engines import available_engines, get_engine
        from repro.gossip.engines.base import RoundProgram
        from repro.gossip.model import Mode
        from repro.search import edge_coloring_seed
        from repro.search.objective import resolve_objective_engine

        rows = []
        for graph in self.graphs:
            seed = edge_coloring_seed(graph, Mode.HALF_DUPLEX)
            program = RoundProgram.from_schedule(seed)
            rounds = tuple(seed.base_rounds)

            def auto():
                engine = resolve_objective_engine("auto", graph, rounds, incremental=True)
                engine.run(program, track_history=False)
                return engine.name

            backend_s = {
                name: _median_time(
                    lambda engine=get_engine(name): engine.run(program, track_history=False),
                    repeats,
                )
                for name in available_engines()
            }
            rows.append(RegretRow(graph.name, auto(), _median_time(auto, repeats), backend_s))
        return rows


# --------------------------------------------------------------------------
# robustness: stress schedules under faults
# --------------------------------------------------------------------------


#: Variant prefix of the stacked (portfolio) jobs of the robustness workload.
STACKED = "stacked:"


@dataclass(frozen=True)
class TrialRecord:
    """What the check needs of one :class:`FaultTrialResult`."""

    nominal: int | None
    horizon: int
    replayed: tuple[int | None, ...]
    mean: float | None
    p50: int | None
    p90: int | None
    min_reach: float


class Robustness(Workload):
    """``repro-gossip robustness`` (solo Monte-Carlo plus the CLI's
    summaries), interleaved with stacked jobs over per-instance portfolios."""

    name = "robustness"
    nominal_cycle_s = 4.8
    trials = 64
    #: Leading trials each check replays through the looped reference path;
    #: trial ``t``'s faults depend only on ``(seed, t)``, so a prefix of the
    #: sample is the same trials.
    replayed = 1
    live = (
        "engines",
        "repro.faults.montecarlo:monte_carlo",
        "repro.faults.montecarlo:monte_carlo_stacked",
        "repro.faults.models:BernoulliArcFaults.sample",
        "repro.faults.models:CrashFaults.sample",
        "repro.faults.metrics:expected_gossip_time",
        "repro.faults.metrics:gossip_time_quantile",
        "repro.faults.metrics:reachability_degradation",
    )

    def import_entry_points(self) -> None:
        import repro.faults  # noqa: F401
        import repro.search  # noqa: F401

    def build(self) -> None:
        from repro.faults import BernoulliArcFaults, CrashFaults
        from repro.gossip.model import Mode
        from repro.protocols.cycle import cycle_systolic_schedule
        from repro.protocols.grid import grid_systolic_schedule
        from repro.protocols.hypercube import hypercube_dimension_exchange
        from repro.search import edge_coloring_seed, greedy_frontier_schedule
        from repro.topologies.classic import cycle_graph, grid_2d, hypercube

        half = Mode.HALF_DUPLEX
        graphs = [cycle_graph(256), grid_2d(16, 16), hypercube(8), cycle_graph(512)]
        protocols = [
            cycle_systolic_schedule(256, half),
            grid_systolic_schedule(16, 16, half),
            hypercube_dimension_exchange(8, half),
            cycle_systolic_schedule(512, half),
        ]
        self.names = [g.name for g in graphs]
        self.schedules = [edge_coloring_seed(g, half) for g in graphs]
        self.portfolios = [
            [coloring, greedy_frontier_schedule(g, half), protocol]
            for g, coloring, protocol in zip(graphs, self.schedules, protocols)
        ]
        self.models = {
            m.name: m for m in (BernoulliArcFaults(0.05), BernoulliArcFaults(0.2), CrashFaults(2))
        }
        self._reference_nominal: dict[int, int] = {}

    def warm_up(self) -> None:
        smallest = self.names.index("Q(8)")
        for model in self.models.values():
            self._simulate([self.schedules[smallest]], model, 4, 0, stacked=False)
            self._simulate(self.portfolios[smallest], model, 4, 0, stacked=True)

    def cycle(self, rng: random.Random, seed: int) -> list[Job]:
        models = list(self.models)
        jobs = []
        for i, name in enumerate(self.names):
            for model in models:
                jobs.append(Job(f"{name}/{model}", i, model, rng.getrandbits(31)))
            stacked = models[i % len(models)]
            jobs.append(Job(f"{name}/stacked/{stacked}", i, STACKED + stacked, rng.getrandbits(31)))
        return jobs

    def _target(self, job: Job):
        """(fault model, schedules, stacked?) of a job."""
        stacked = job.variant.startswith(STACKED)
        model = self.models[job.variant.removeprefix(STACKED)]
        schedules = self.portfolios[job.index] if stacked else [self.schedules[job.index]]
        return model, schedules, stacked

    def run(self, job: Job) -> tuple[TrialRecord, ...]:
        model, schedules, stacked = self._target(job)
        return self._simulate(schedules, model, self.trials, job.seed, stacked=stacked)

    def _simulate(self, schedules, model, trials: int, seed: int, *, stacked: bool):
        from repro.faults import monte_carlo, monte_carlo_stacked

        if stacked:
            results = monte_carlo_stacked(schedules, model, trials=trials, seed=seed)
        else:
            results = [monte_carlo(schedules[0], model, trials=trials, seed=seed)]
        return tuple(self._summarise(result) for result in results)

    def _summarise(self, result) -> TrialRecord:
        from repro.faults import (
            expected_gossip_time,
            gossip_time_quantile,
            reachability_degradation,
        )

        return TrialRecord(
            nominal=result.nominal_rounds,
            horizon=result.horizon,
            replayed=tuple(result.completion_rounds[: self.replayed]),
            mean=expected_gossip_time(result),
            p50=gossip_time_quantile(result, 0.5),
            p90=gossip_time_quantile(result, 0.9),
            min_reach=float(reachability_degradation(result).min()),
        )

    def check(self, job: Job, outcome: tuple[TrialRecord, ...]) -> str | None:
        from repro.faults import monte_carlo
        from repro.gossip.simulation import gossip_time

        model, schedules, _ = self._target(job)
        if len(outcome) != len(schedules):
            return f"{len(outcome)} results for {len(schedules)} schedules"
        for k, (schedule, record) in enumerate(zip(schedules, outcome)):
            key = id(schedule)
            if key not in self._reference_nominal:
                self._reference_nominal[key] = gossip_time(schedule, engine="reference")
            if record.nominal != self._reference_nominal[key]:
                return f"schedule {k}: nominal {record.nominal} != reference {self._reference_nominal[key]}"
            if record.mean is not None and record.mean < record.nominal:
                return f"schedule {k}: mean {record.mean} below nominal {record.nominal}"
            if None not in (record.p50, record.p90) and record.p50 > record.p90:
                return f"schedule {k}: p50 {record.p50} > p90 {record.p90}"
            if not 0.0 <= record.min_reach <= 1.0:
                return f"schedule {k}: reachability {record.min_reach} outside [0, 1]"
            replay = monte_carlo(
                schedule,
                model,
                trials=self.replayed,
                seed=job.seed,
                max_rounds=record.horizon,
                method="looped",
                engine="reference",
            )
            if tuple(replay.completion_rounds) != record.replayed:
                return (
                    f"schedule {k}: completion rounds {record.replayed} != looped "
                    f"reference replay {tuple(replay.completion_rounds)}"
                )
        return None


# --------------------------------------------------------------------------
# all: the sections of `repro-gossip all`
# --------------------------------------------------------------------------

#: Section → (module, function) as ``run_all`` calls them, and the title
#: token of the section's block in EXPERIMENTS.md.
SECTIONS = {
    "fig4": ("fig4", "fig4_table", "FIG4"),
    "fig5": ("fig5", "fig5_table", "FIG5"),
    "fig6": ("fig6", "fig6_table", "FIG6"),
    "fig8": ("fig8", "fig8_table", "FIG8"),
    "structure": ("structure", "structure_report", "FIG1-3/7"),
    "broadcast": ("broadcast_sweep", "broadcast_sweep_table", "BROADCAST"),
    "search": ("search_gaps", "search_gaps_table", "SEARCH"),
    "robustness": ("robustness", "robustness_table", "ROBUSTNESS"),
    "sandwich": ("sandwich", "sandwich_table", "SANDWICH"),
}

#: Sections whose output depends on the seed; EXPERIMENTS.md holds seed 0.
SEEDED_SECTIONS = ("search", "robustness")

#: The regenerated report the section outputs are compared with.
REPORT = Path(__file__).resolve().parents[1] / "EXPERIMENTS.md"

#: The column ROADMAP records as stale in EXPERIMENTS.md; never compared.
STALE_COLUMN = "engine"


def parse_report(text: str) -> dict[str, list[str]]:
    """Title token → lines of each ``== TITLE: … ==`` block of a report."""
    blocks: dict[str, list[str]] = {}
    current: list[str] | None = None
    for line in text.splitlines():
        if line.startswith("```"):
            current = None
            continue
        match = re.match(r"^== (\S+): .* ==$", line)
        if match:
            current = blocks.setdefault(match.group(1), [])
        elif current is not None:
            current.append(line)
    for lines in blocks.values():
        while lines and not lines[-1].strip():
            lines.pop()
    return blocks


def drop_column(lines: list[str], column: str) -> tuple[list[str], list[str]]:
    """(columns of the table without ``column``, its lines cut before it).

    ``column`` must be the last one, which holds for every table with an
    engine column: the widths of the columns before it do not depend on it.
    """
    header = lines[0]
    columns = header.split()
    if column not in columns:
        return columns, [line.rstrip() for line in lines]
    if columns[-1] != column:
        raise ValueError(f"column {column!r} is not the last one of {columns}")
    cut = header.rindex(column)
    return columns[:-1], [line[:cut].rstrip() for line in lines]


def render_structure(report) -> list[str]:
    """The structure block exactly as ``run_all`` prints it."""
    from repro.experiments.structure import render_matrix

    lines = [f"local protocol: {report.local_protocol.activation_word()}  λ = {report.lam}"]
    for label, matrix in (("Mx", report.mx), ("Nx", report.nx), ("Ox", report.ox)):
        lines.append(f"{label}(λ):")
        lines.extend(render_matrix(matrix).splitlines())
    lines.append(f"Lemma 4.2 check: {report.lemma42}")
    lines.append(f"Lemma 4.3 check: {report.lemma43}")
    lines.append(f"Lemma 6.1 check: {report.lemma61}")
    return lines


def compare_section(section: str, outcome, expected: list[str]) -> str | None:
    """``None`` when ``outcome`` renders to ``expected`` (stale column aside)."""
    from repro.experiments.runner import format_table

    if section == "structure":
        rendered, wanted = render_structure(outcome), [line.rstrip() for line in expected]
    else:
        columns, wanted = drop_column(expected, STALE_COLUMN)
        rendered = format_table(outcome, columns).splitlines()
    rendered = [line.rstrip() for line in rendered]
    if rendered == wanted:
        return None
    for i, (got, want) in enumerate(zip(rendered, wanted)):
        if got != want:
            return f"line {i + 1} differs from EXPERIMENTS.md: {got!r} != {want!r}"
    return f"{len(rendered)} lines rendered, EXPERIMENTS.md has {len(wanted)}"


class All(Workload):
    """``repro-gossip all``, one section per job, through the section
    functions ``run_all`` calls."""

    name = "all"
    nominal_cycle_s = 10.0
    live = (
        "engines",
        *(f"repro.experiments.{module}:{fn}" for module, fn, _ in SECTIONS.values()),
        "repro.search.local_search:synthesize_schedule",
        "repro.search.local_search:simulated_annealing",
        "repro.search.moves:Neighborhood.propose",
        "repro.search.constructors:edge_coloring_seed",
        "repro.search.gap:certified_gap",
        "repro.core.certificates:certify_protocol",
        "repro.core.general_bound:general_lower_bound",
        "repro.core.full_duplex:full_duplex_general_bound",
        "repro.core.separator_bound:separator_lower_bound",
        "repro.core.roots:solve_unit_root",
        "repro.core.separator_bound:optimize_separator_objective",
        "repro.topologies.properties:diameter",
        "repro.topologies.classic:cycle_graph",
        "repro.faults.montecarlo:monte_carlo",
        "repro.faults.models:BernoulliArcFaults.sample",
        "repro.faults.metrics:expected_gossip_time",
        "repro.faults.models:AdversarialArcFaults.worst_deletion",
    )

    def __init__(self) -> None:
        self._expected: dict[str, list[str]] | None = None

    def import_entry_points(self) -> None:
        import repro.experiments.runner  # noqa: F401

    def build(self) -> None:
        pass  # the sections build their own instances

    def warm_up(self) -> None:
        from repro.experiments import (
            broadcast_sweep_table,
            fig4_table,
            fig5_table,
            fig6_table,
            fig8_table,
            robustness_table,
            sandwich_table,
            search_gaps_table,
            structure_report,
        )
        from repro.gossip.model import Mode
        from repro.protocols.cycle import cycle_systolic_schedule
        from repro.topologies.classic import cycle_graph

        fig4_table(periods=(3,))
        fig5_table(families=("DB",), degrees=(2,), periods=(3,))
        fig6_table(families=("DB",), degrees=(2,))
        fig8_table(families=("K",), degrees=(2,), periods=(3,))
        structure_report()
        broadcast_sweep_table(instances=[cycle_graph(4)])
        search_gaps_table(instances=[(cycle_graph(4), None)], max_iters=4)
        robustness_table(instances=[cycle_graph(4)], trials=4, search_iters=4, search_trials=2)
        sandwich_table([cycle_systolic_schedule(4, Mode.HALF_DUPLEX)])

    def cycle(self, rng: random.Random, seed: int) -> list[Job]:
        # The seeded sections take the workload seed itself, so seed 0 is
        # the seed EXPERIMENTS.md was generated with.
        return [Job(section, i, section, seed) for i, section in enumerate(SECTIONS)]

    def run(self, job: Job):
        module, fn, _ = SECTIONS[job.variant]
        section = getattr(importlib.import_module(f"repro.experiments.{module}"), fn)
        if job.variant in SEEDED_SECTIONS:
            return section(seed=job.seed)
        return section()

    def expected(self) -> dict[str, list[str]]:
        if self._expected is None:
            self._expected = parse_report(REPORT.read_text(encoding="utf-8"))
        return self._expected

    def check(self, job: Job, outcome) -> str | None:
        if isinstance(outcome, list):
            bad = [i for i, row in enumerate(outcome) if not getattr(row, "consistent", True)]
            if bad:
                return f"rows {bad} are not consistent"
        if job.variant in SEEDED_SECTIONS and job.seed != 0:
            return None
        title = SECTIONS[job.variant][2]
        return compare_section(job.variant, outcome, self.expected()[title])


WORKLOADS = {"optimize": Optimize, "robustness": Robustness, "all": All}
