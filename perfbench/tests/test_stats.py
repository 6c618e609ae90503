"""The benchmark's arithmetic: tail selection, self time, untraced time,
error rate and the per-layer roll-up."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from perfbench import stats
from perfbench.layers import PER_LAYER, layer_metrics
from perfbench.stats import Span
from perfbench.tracing import JOB

ENGINE_RUN = "repro.gossip.engines.reference:ReferenceEngine.run"
ENGINE_CHECKPOINTED = "repro.gossip.engines.reference:ReferenceEngine.run_checkpointed"
DRIVER = "repro.search.local_search:synthesize_schedule"
MOVES = "repro.search.moves:Neighborhood.propose"


@pytest.mark.parametrize(
    ("n", "expected"),
    [(20, 50), (21, 52), (24, 58), (27, 62), (40, 75), (64, 84), (100, 90), (1000, 99), (5000, 99)],
)
def test_tail_percentile_is_highest_with_ten_jobs_beyond(n, expected):
    p = stats.tail_percentile(n)
    assert p == expected
    assert stats.jobs_beyond(n, p) >= 10
    if p < 99:
        assert stats.jobs_beyond(n, p + 1) < 10


@pytest.mark.parametrize("n", [0, 1, 10, 19])
def test_tail_percentile_needs_twenty_jobs(n):
    with pytest.raises(ValueError):
        stats.tail_percentile(n)


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(10, 0, -1)]
    assert stats.percentile(values, 50) == 5.0
    assert stats.percentile(values, 58) == 6.0
    assert stats.percentile(values, 90) == 9.0
    assert stats.percentile(values, 100) == 10.0
    # 24 jobs at p58: rank 14, leaving exactly ten above it.
    assert stats.percentile(range(1, 25), 58) == 14


def _tree() -> list[Span]:
    """job 0..100 ⊃ a 10..40 ⊃ c 15..25;  job ⊃ b 50..90 ⊃ d 55..60, e 60..80."""
    return [
        Span(2, "c", 1, 15, 25),
        Span(1, "a", 0, 10, 40),
        Span(4, "d", 3, 55, 60),
        Span(5, "e", 3, 60, 80),
        Span(3, "b", 0, 50, 90),
        Span(0, JOB, None, 0, 100),
    ]


def test_self_time_with_nested_and_sibling_spans():
    own = stats.self_times(_tree())
    assert own == {0: 30, 1: 20, 2: 10, 3: 15, 4: 5, 5: 20}
    assert sum(own.values()) == 100


def test_untraced_is_the_remainder_of_every_job():
    second = [Span(6, JOB, None, 200, 260), Span(7, "f", 6, 210, 250)]
    # 30 of the first job and 20 of the second are covered by no layer span.
    assert stats.untraced_ns(_tree() + second, JOB) == 50
    assert stats.untraced_ns([Span(0, JOB, None, 0, 7)], JOB) == 7


def test_error_rate():
    assert stats.error_rate(0, 24) == 0.0
    assert stats.error_rate(3, 12) == 0.25
    with pytest.raises(ValueError):
        stats.error_rate(0, 0)


def test_layer_metrics_count_outermost_calls_and_split_self_time():
    spans = [
        Span(0, JOB, None, 0, 1000),
        Span(1, DRIVER, 0, 100, 900),
        Span(2, MOVES, 1, 150, 200),
        Span(3, ENGINE_RUN, 1, 200, 600),
        Span(4, ENGINE_CHECKPOINTED, 3, 210, 590),
    ]
    counters = {
        "engine.reference": {"rounds_simulated": 40},
        "search.simulated_annealing": {"evaluations": 4},
        "search.incremental": {"checkpoint_hits": 3, "checkpoint_misses": 1},
    }
    m = layer_metrics(
        spans,
        counters,
        snapshots=2,
        traced_s=1e-6,
        untraced_loop_s=0.5e-6,
        startup={"import_s": 0.3, "warmup_s": 0.4},
        regret=None,
    )
    assert set(m) == {name for name, _, _ in PER_LAYER}
    assert m["engines.calls"] == 1 and m["engines.calls.reference"] == 1
    assert m["engines.self_s"] == pytest.approx(400e-9)
    assert m["engines.us_per_round"] == pytest.approx(400e-9 * 1e6 / 40)
    assert m["search.driver.self_s"] == pytest.approx(350e-9)
    assert m["search.moves.self_s"] == pytest.approx(50e-9)
    assert m["search.evals_per_s"] == pytest.approx(4 / 800e-9)
    assert m["search.checkpoint_hit_ratio"] == 0.75
    assert m["untraced_s"] == pytest.approx(200e-9)
    assert m["telemetry.overhead"] == 2.0
    assert m["faults.trials_per_s"] == 0.0


def test_benchmark_json_names_every_metric():
    from perfbench.run import END_TO_END

    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(PER_LAYER)


def test_auto_regret_is_auto_over_the_best_backend():
    from perfbench.workloads import RegretRow

    regret = [
        RegretRow("C(16)", "vectorized", 4.0, {"reference": 1.0, "vectorized": 4.0}),
        RegretRow("DB(2,6)", "vectorized", 2.0, {"reference": 4.0, "vectorized": 2.0}),
    ]
    m = layer_metrics(
        [], {}, snapshots=0, traced_s=1.0, untraced_loop_s=1.0,
        startup={"import_s": 0.0, "warmup_s": 0.0}, regret=regret,
    )
    assert m["engines.auto_regret.C16"] == 4.0
    assert m["engines.auto_regret.DB2-6"] == 1.0
    assert m["engines.auto_regret.C256"] == 0.0
    assert m["engines.auto_regret"] == pytest.approx(2.0)
    assert (m["engines.auto_best.reference"], m["engines.auto_best.vectorized"]) == (1, 1)
