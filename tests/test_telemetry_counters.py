"""Counter names are a checked contract.

Every engine declares its ``engine.<name>`` counter keys once, as its
``counter_names`` class attribute, and the shared run driver flushes exactly
those keys; the search and fault-injection layers declare theirs as module
constants next to their flushes.  This suite runs every registered engine
under a :class:`~repro.telemetry.StatsRecorder` — plain, tracked and resumed
runs, plus a run that takes the frontier/hybrid fixed-point early exit — and
both search drivers, island search and all three Monte-Carlo paths, and
asserts that the emitted keys equal the declared ones.  It also holds the
package docstrings' and the ROADMAP "Telemetry" section's counter
vocabulary to the declarations, so the documented names cannot drift from
the code again.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

import repro.faults
import repro.search
from repro import telemetry
from repro.faults import BernoulliArcFaults, monte_carlo, monte_carlo_stacked
from repro.faults.montecarlo import MONTECARLO_COUNTERS, STACKED_COUNTERS
from repro.gossip import engines
from repro.gossip.builders import edge_coloring_schedule
from repro.gossip.engines import available_engines, get_engine
from repro.gossip.engines.base import RoundProgram
from repro.gossip.model import Mode, SystolicSchedule
from repro.search import local_search, run_island_search
from repro.search.islands import ISLAND_COUNTERS
from repro.search.local_search import DRIVER_COUNTERS
from repro.search.objective import INCREMENTAL_COUNTERS
from repro.topologies.classic import cycle_graph, path_graph

ENGINES = available_engines()

ROADMAP = Path(__file__).resolve().parents[1] / "ROADMAP.md"

#: Component → declared counter names, in flush order.
DECLARED = {
    **{f"engine.{name}": get_engine(name).counter_names for name in ENGINES},
    "search.incremental": INCREMENTAL_COUNTERS,
    "search.<hill_climb|simulated_annealing>": DRIVER_COUNTERS,
    "search.islands": ISLAND_COUNTERS,
    "faults.montecarlo": MONTECARLO_COUNTERS,
    "faults.montecarlo_stacked": STACKED_COUNTERS,
}


def _cycle_program() -> RoundProgram:
    return RoundProgram.from_schedule(
        edge_coloring_schedule(cycle_graph(10), Mode.HALF_DUPLEX)
    )


def _saturating_program() -> RoundProgram:
    # Forward-only arcs on a path: knowledge saturates without completing,
    # so the sparse engines prove a fixed point and synthesize the tail.
    n = 7
    rounds = [[(i, i + 1)] for i in range(n - 1)]
    schedule = SystolicSchedule(path_graph(n), rounds, mode=Mode.DIRECTED)
    return RoundProgram.from_schedule(schedule, 120)


def _recorded(call):
    """``call()``'s return value and the stats recorded while it ran."""
    recorder = telemetry.StatsRecorder()
    with telemetry.recording(recorder):
        value = call()
    return value, recorder.stats


def _assert_declared_keys(stats: telemetry.RunStats, engine) -> dict[str, int]:
    component = f"engine.{engine.name}"
    assert set(stats.counters) == {component}
    emitted = stats.counters[component]
    assert list(emitted) == list(engine.counter_names)
    assert f"{component}.rounds" in stats.histograms
    assert any(span.name == "engine.run" for span in stats.spans)
    return emitted


RUNS = {
    "plain": {"track_history": False},
    "history": {"track_history": True},
    "tracked": {"track_item_completion": True, "track_arrivals": True},
}


@pytest.mark.parametrize("options", list(RUNS.values()), ids=list(RUNS))
@pytest.mark.parametrize("name", ENGINES)
def test_emitted_counters_equal_declared(name, options):
    engine = get_engine(name)
    program = _cycle_program()
    _, stats = _recorded(lambda: engine.run(program, **options))
    emitted = _assert_declared_keys(stats, engine)
    assert emitted["runs"] == 1
    assert emitted["rounds_simulated"] > 0


@pytest.mark.parametrize("name", ENGINES)
def test_resumed_run_counters_equal_declared(name):
    engine = get_engine(name)
    program = _cycle_program()
    state = engine.checkpoint(program, 3, track_history=True)
    result, stats = _recorded(lambda: engine.resume(state, program, track_history=True))
    emitted = _assert_declared_keys(stats, engine)
    assert emitted["runs"] == 1
    # Only the rounds after the resume point are simulated.
    assert emitted["rounds_simulated"] == result.rounds_executed - 3


@pytest.mark.parametrize("name", ["frontier", "hybrid"])
def test_fixed_point_exit_counters_equal_declared(name):
    engine = get_engine(name)
    program = _saturating_program()
    _, stats = _recorded(lambda: engine.run(program, track_history=True))
    emitted = _assert_declared_keys(stats, engine)
    assert emitted["early_exit_round"] > 0
    assert emitted["rounds_synthesized"] == program.max_rounds - emitted["early_exit_round"]
    assert emitted["rounds_simulated"] == emitted["early_exit_round"]


@pytest.mark.parametrize("name", ENGINES)
def test_vocabulary_documents_every_declared_counter(name):
    for counter in get_engine(name).counter_names:
        assert f"``{counter}``" in engines.__doc__, (name, counter)


# --------------------------------------------------------------------- #
# Search and fault-injection counters


def _layer_counters(stats: telemetry.RunStats, layer: str) -> dict[str, list[str]]:
    """Emitted key lists of every ``<layer>.*`` counter component."""
    return {
        component: list(counts)
        for component, counts in stats.counters.items()
        if component.startswith(f"{layer}.")
    }


@pytest.mark.parametrize("driver", ["hill_climb", "simulated_annealing"])
def test_search_driver_counters_equal_declared(driver):
    schedule = edge_coloring_schedule(cycle_graph(10), Mode.HALF_DUPLEX)
    walk = getattr(local_search, driver)
    _, stats = _recorded(lambda: walk(schedule, seed=0, max_iters=12, incremental=True))
    assert _layer_counters(stats, "search") == {
        f"search.{driver}": list(DRIVER_COUNTERS),
        "search.incremental": list(INCREMENTAL_COUNTERS),
    }


def test_island_counters_equal_declared():
    _, stats = _recorded(
        lambda: run_island_search(
            cycle_graph(8), strategy="hill", max_iters=4, islands=2, generations=2
        )
    )
    assert _layer_counters(stats, "search")["search.islands"] == list(ISLAND_COUNTERS)


@pytest.mark.parametrize(
    "method, declared",
    [("batched", MONTECARLO_COUNTERS), ("looped", MONTECARLO_COUNTERS[:4])],
)
def test_montecarlo_counters_equal_declared(method, declared):
    schedule = edge_coloring_schedule(cycle_graph(8), Mode.HALF_DUPLEX)
    _, stats = _recorded(
        lambda: monte_carlo(schedule, BernoulliArcFaults(0.2), trials=4, method=method)
    )
    assert _layer_counters(stats, "faults") == {"faults.montecarlo": list(declared)}


def test_stacked_montecarlo_counters_equal_declared():
    schedules = [
        edge_coloring_schedule(cycle_graph(8), mode)
        for mode in (Mode.HALF_DUPLEX, Mode.FULL_DUPLEX)
    ]
    _, stats = _recorded(
        lambda: monte_carlo_stacked(schedules, BernoulliArcFaults(0.2), trials=4)
    )
    assert _layer_counters(stats, "faults") == {
        "faults.montecarlo_stacked": list(STACKED_COUNTERS)
    }


# --------------------------------------------------------------------- #
# Documented vocabularies


def _roadmap_vocabulary() -> dict[str, list[str]]:
    """Component → counter names, from the ROADMAP "Telemetry" bullets
    (``- `component`: `name`, `name`, ...``)."""
    text = ROADMAP.read_text(encoding="utf-8")
    section = text.split("\n## Telemetry", 1)[1].split("\n## ", 1)[0]
    vocabulary = {}
    for bullet in section.split("\n- ")[1:]:
        match = re.match(r"`([^`]+)`: (.*)", bullet.split("\n\n")[0], re.S)
        if match:
            vocabulary[match.group(1)] = re.findall(r"`([^`]+)`", match.group(2))
    return vocabulary


@pytest.mark.parametrize("component", list(DECLARED))
def test_roadmap_vocabulary_matches_declarations(component):
    assert _roadmap_vocabulary().get(component) == list(DECLARED[component])


@pytest.mark.parametrize(
    "package, component",
    [
        (repro.search, "search.incremental"),
        (repro.search, "search.<hill_climb|simulated_annealing>"),
        (repro.search, "search.islands"),
        (repro.faults, "faults.montecarlo"),
        (repro.faults, "faults.montecarlo_stacked"),
    ],
)
def test_package_docstring_documents_every_declared_counter(package, component):
    assert f"``{component}``" in package.__doc__
    for counter in DECLARED[component]:
        assert f"``{counter}``" in package.__doc__, (component, counter)
