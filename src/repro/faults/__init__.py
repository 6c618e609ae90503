"""Fault injection & robustness: stress-testing gossip schedules.

The paper (and everything the repo synthesizes from it) assumes every
scheduled call succeeds.  This package asks the opposite question — *how
does a schedule degrade when calls fail?* — with the three standard fault
classes of the fault-tolerant broadcasting literature and the machinery to
answer it at scale:

* :mod:`repro.faults.models` — composable per-round arc perturbations
  behind one :class:`~repro.faults.models.FaultModel` protocol:
  :class:`~repro.faults.models.BernoulliArcFaults` (independent random call
  failures), :class:`~repro.faults.models.CrashFaults` (fail-stop vertex
  crashes) and :class:`~repro.faults.models.AdversarialArcFaults`
  (worst-case per-period link deletion, exact for small budgets, greedy
  beyond);
* :mod:`repro.faults.montecarlo` — the trial driver: one
  ``(n, candidates·trials, W)`` bitset tensor kernel advancing *all*
  trials one round per NumPy pass — one candidate for
  :func:`~repro.faults.montecarlo.monte_carlo`, a whole portfolio for
  :func:`~repro.faults.montecarlo.monte_carlo_stacked` (how robust batch
  search amortises its trials) — plus the looped per-engine oracle; both
  consume the same seeded fault realisation, so results are bit-identical
  across paths and engines;
* :mod:`repro.faults.metrics` — completion probability vs round budget,
  expected/quantile gossip times, per-vertex reachability degradation, and
  :func:`~repro.faults.metrics.worst_case_gossip_time`.

Quick start::

    from repro.faults import BernoulliArcFaults, monte_carlo, completion_probability
    from repro.protocols.cycle import cycle_systolic_schedule
    from repro.gossip.model import Mode

    schedule = cycle_systolic_schedule(64, Mode.HALF_DUPLEX)
    result = monte_carlo(schedule, BernoulliArcFaults(0.1), trials=500, seed=0)
    print(result.completion_rate, completion_probability(result, 2 * 64))

The search subsystem consumes the same machinery: the
``"robust_gossip_rounds"`` objective (:mod:`repro.search.objective`) scores
candidates by their mean behaviour over a fixed seeded fault sample, so
``synthesize_schedule`` can trade nominal rounds for fault tolerance; the
``repro-gossip robustness`` CLI subcommand and
:mod:`repro.experiments.robustness` expose the whole pipeline.

Telemetry counters
------------------
Each entry point flushes one counter group per call, under the names
declared in :mod:`repro.faults.montecarlo` (``MONTECARLO_COUNTERS``,
``STACKED_COUNTERS``):

* ``faults.montecarlo`` (:func:`~repro.faults.montecarlo.monte_carlo`):
  ``runs``, ``trials``, ``completed``, ``horizon``, and from the tensor
  kernel ``batches``, ``exact_replays``, ``compactions``;
* ``faults.montecarlo_stacked``
  (:func:`~repro.faults.montecarlo.monte_carlo_stacked`): ``runs``,
  ``candidates``, ``trials``, ``completed``, ``horizon``, ``batches``,
  ``exact_replays``, ``compactions``.
"""

from __future__ import annotations

from repro.faults.metrics import (
    completion_curve,
    completion_probability,
    expected_gossip_time,
    gossip_time_quantile,
    reachability_degradation,
    worst_case_gossip_time,
)
from repro.faults.models import (
    AdversarialArcFaults,
    AdversarialReport,
    BernoulliArcFaults,
    CrashFaults,
    FaultModel,
    FaultSample,
)
from repro.faults.montecarlo import (
    METHODS,
    FaultTrialResult,
    default_horizon,
    monte_carlo,
    monte_carlo_stacked,
)

__all__ = [
    "FaultModel",
    "FaultSample",
    "BernoulliArcFaults",
    "CrashFaults",
    "AdversarialArcFaults",
    "AdversarialReport",
    "FaultTrialResult",
    "METHODS",
    "monte_carlo",
    "monte_carlo_stacked",
    "default_horizon",
    "completion_probability",
    "completion_curve",
    "expected_gossip_time",
    "gossip_time_quantile",
    "reachability_degradation",
    "worst_case_gossip_time",
]
