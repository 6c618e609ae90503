"""Benchmark FAULTS — batched Monte-Carlo fault injection vs looped runs.

Two views of the :mod:`repro.faults` subsystem, recorded in the session
report (and, when ``BENCH_FAULTS_JSON`` points at a file, dumped as JSON so
CI can upload it alongside the engine and search timings):

* **speedup** — the acceptance gate: the batched ``(n, trials, W)`` tensor
  kernel must beat ``trials`` independent single-run simulations (the
  looped fallback on the vectorized engine — each trial paying its own
  round compilation and per-round dispatch) by at least
  ``SPEEDUP_FLOOR``× at n = 1024, trials = 256, on identical seeded fault
  realisations.  Both paths consume the same sample, so the run doubles as
  a full-scale bit-exactness check.
* **model throughput** — batched trials/second per fault model, the number
  robustness studies are budgeted from.
* **stacked speedup** — the candidate-stacking gate: one
  ``(n, candidates·trials, W)`` :func:`repro.faults.monte_carlo_stacked`
  tensor over a mixed candidate portfolio must beat scoring each candidate
  with its own looped Monte-Carlo run by at least ``STACKED_FLOOR``×, on
  identical seeded fault realisations (so the run doubles as a full-scale
  bit-exactness check of the stacking kernel).
"""

from __future__ import annotations

import time

from repro.experiments.runner import format_table
from repro.faults import (
    BernoulliArcFaults,
    CrashFaults,
    monte_carlo,
    monte_carlo_stacked,
)
from repro.gossip.model import Mode
from repro.gossip.simulation import gossip_time
from repro.protocols.cycle import cycle_systolic_schedule
from repro.protocols.generic import coloring_systolic_schedule
from repro.topologies.classic import grid_2d

#: Instance and trial count of the speedup gate (the acceptance criterion).
SPEEDUP_N = 1024
SPEEDUP_TRIALS = 256

#: Per-call failure probability of the gate: low enough that trials
#: complete (so both paths do the full completion-detection work), high
#: enough that every round carries real fault plumbing.
SPEEDUP_P = 0.02

#: Minimum batched-over-looped speedup (measured ≈ 26× on the dev box; the
#: floor leaves headroom for slower shared CI runners).
SPEEDUP_FLOOR = 5.0

#: Portfolio shape of the candidate-stacking gate: a robust-search-sized
#: batch (the `robust_gossip_rounds` batch path stacks exactly like this)
#: of mixed same-n schedules at a moderate instance size.
STACKED_N = 256
STACKED_CANDIDATES = 8
STACKED_TRIALS = 64

#: Minimum stacked-over-looped-per-candidate speedup (measured ≈ 26× on
#: the dev box; the conservative floor absorbs shared-runner noise while
#: still catching a stacking collapse back to per-candidate dispatch).
STACKED_FLOOR = 3.0


def test_batched_montecarlo_speedup(report_sink, bench_json):
    """Batched tensor kernel ≥ 5× over trials× single-run loops, bit-exact."""
    schedule = cycle_systolic_schedule(SPEEDUP_N, Mode.HALF_DUPLEX)
    model = BernoulliArcFaults(SPEEDUP_P)

    start = time.perf_counter()
    batched = monte_carlo(
        schedule, model, trials=SPEEDUP_TRIALS, seed=0, method="batched"
    )
    batched_seconds = time.perf_counter() - start

    start = time.perf_counter()
    looped = monte_carlo(
        schedule,
        model,
        trials=SPEEDUP_TRIALS,
        seed=0,
        engine="vectorized",
        method="looped",
    )
    looped_seconds = time.perf_counter() - start

    assert looped.completion_rounds == batched.completion_rounds
    assert looped.knowledge == batched.knowledge

    speedup = looped_seconds / batched_seconds
    rows = [
        {
            "instance": f"C({SPEEDUP_N})",
            "model": model.name,
            "trials": SPEEDUP_TRIALS,
            "horizon": batched.horizon,
            "completion_rate": batched.completion_rate,
            "batched_seconds": batched_seconds,
            "looped_seconds": looped_seconds,
            "speedup": speedup,
        }
    ]
    report_sink(
        f"FAULTS: batched Monte-Carlo vs {SPEEDUP_TRIALS}x single-run loop "
        f"on C({SPEEDUP_N})",
        format_table(
            rows,
            [
                "instance",
                "model",
                "trials",
                "horizon",
                "completion_rate",
                "batched_seconds",
                "looped_seconds",
                "speedup",
            ],
        ),
    )
    bench_json("montecarlo_speedup", rows, env_var="BENCH_FAULTS_JSON")

    assert speedup >= SPEEDUP_FLOOR, (
        f"batched Monte-Carlo path only {speedup:.1f}x over the looped path "
        f"(floor {SPEEDUP_FLOOR}x) at n={SPEEDUP_N}, trials={SPEEDUP_TRIALS}"
    )


def test_fault_model_throughput(report_sink, bench_json):
    """Batched trials/second per fault model (budgeting numbers, no gate)."""
    schedule = cycle_systolic_schedule(SPEEDUP_N, Mode.HALF_DUPLEX)
    nominal = gossip_time(schedule, engine="vectorized")
    rows = []
    for model in (BernoulliArcFaults(0.05), CrashFaults(8)):
        start = time.perf_counter()
        result = monte_carlo(
            schedule, model, trials=SPEEDUP_TRIALS, seed=1, method="batched"
        )
        elapsed = time.perf_counter() - start
        assert all(
            rounds is None or rounds >= nominal for rounds in result.completion_rounds
        ), "faults can only delay gossip (arc monotonicity)"
        rows.append(
            {
                "model": model.name,
                "trials": result.trials,
                "horizon": result.horizon,
                "completion_rate": result.completion_rate,
                "seconds": elapsed,
                "trials_per_second": result.trials / elapsed,
            }
        )
    report_sink(
        f"FAULTS: batched Monte-Carlo throughput per model on C({SPEEDUP_N})",
        format_table(
            rows,
            [
                "model",
                "trials",
                "horizon",
                "completion_rate",
                "seconds",
                "trials_per_second",
            ],
        ),
    )
    bench_json("model_throughput", rows, env_var="BENCH_FAULTS_JSON")


def test_stacked_montecarlo_speedup(report_sink, bench_json):
    """Candidate-stacked kernel ≥ 3× over per-candidate loops, bit-exact.

    Eight same-n candidates — the C(256) systolic schedule and the 16×16
    grid colouring schedule in both duplex modes, twice over — evaluated
    once through the ``(n, candidates·trials, W)`` stacked tensor and once
    by looping ``monte_carlo(method="looped")`` over the candidates.  Both
    paths draw each candidate's fault realisation from the same seed, so
    every per-candidate result must agree bit for bit before the timing
    ratio is checked.
    """
    half, full = Mode.HALF_DUPLEX, Mode.FULL_DUPLEX
    grid = grid_2d(16, 16)
    candidates = [
        cycle_systolic_schedule(STACKED_N, half),
        cycle_systolic_schedule(STACKED_N, full),
        coloring_systolic_schedule(grid, half),
        coloring_systolic_schedule(grid, full),
    ] * (STACKED_CANDIDATES // 4)
    model = BernoulliArcFaults(SPEEDUP_P)

    start = time.perf_counter()
    stacked = monte_carlo_stacked(
        candidates, model, trials=STACKED_TRIALS, seed=0
    )
    stacked_seconds = time.perf_counter() - start

    start = time.perf_counter()
    looped = [
        monte_carlo(
            candidate,
            model,
            trials=STACKED_TRIALS,
            seed=0,
            engine="vectorized",
            method="looped",
        )
        for candidate in candidates
    ]
    looped_seconds = time.perf_counter() - start

    for one, other in zip(stacked, looped):
        assert one.completion_rounds == other.completion_rounds
        assert one.knowledge == other.knowledge

    speedup = looped_seconds / stacked_seconds
    rows = [
        {
            "instance": f"C({STACKED_N}) + grid 16x16",
            "model": model.name,
            "candidates": len(candidates),
            "trials": STACKED_TRIALS,
            "stacked_seconds": stacked_seconds,
            "looped_seconds": looped_seconds,
            "speedup": speedup,
        }
    ]
    report_sink(
        f"FAULTS: stacked Monte-Carlo over {len(candidates)} candidates x "
        f"{STACKED_TRIALS} trials vs per-candidate loops (n={STACKED_N})",
        format_table(
            rows,
            [
                "instance",
                "model",
                "candidates",
                "trials",
                "stacked_seconds",
                "looped_seconds",
                "speedup",
            ],
        ),
    )
    bench_json("stacked_speedup", rows, env_var="BENCH_FAULTS_JSON")

    assert speedup >= STACKED_FLOOR, (
        f"stacked Monte-Carlo only {speedup:.1f}x over per-candidate loops "
        f"(floor {STACKED_FLOOR}x) at {len(candidates)} candidates x "
        f"{STACKED_TRIALS} trials"
    )
