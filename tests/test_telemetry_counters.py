"""Engine counter names are a checked contract.

Every engine declares its ``engine.<name>`` counter keys once, as its
``counter_names`` class attribute, and the shared run driver flushes exactly
those keys.  This suite runs every registered engine under a
:class:`~repro.telemetry.StatsRecorder` — plain, tracked and resumed runs,
plus a run that takes the frontier/hybrid fixed-point early exit — and
asserts that the emitted keys equal the declared ones.  It also holds the
package docstring's counter vocabulary to the declarations, so the
documented names cannot drift from the code again.
"""

from __future__ import annotations

import pytest

from repro import telemetry
from repro.gossip import engines
from repro.gossip.builders import edge_coloring_schedule
from repro.gossip.engines import available_engines, get_engine
from repro.gossip.engines.base import RoundProgram
from repro.gossip.model import Mode, SystolicSchedule
from repro.topologies.classic import cycle_graph, path_graph

ENGINES = available_engines()


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
