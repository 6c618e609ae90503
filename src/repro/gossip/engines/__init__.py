"""Pluggable simulation engines and their registry.

Four backends ship with the library:

* ``"reference"`` — the pure-Python arbitrary-precision-integer loop
  (:mod:`repro.gossip.engines.reference`), the semantic oracle;
* ``"vectorized"`` — the packed ``uint64`` NumPy bitset kernel
  (:mod:`repro.gossip.engines.vectorized`), with L2-tiled gather/scatter;
  typically 10-100× faster than the reference on instances with thousands
  of vertices;
* ``"frontier"`` — the sparse frontier-propagation engine
  (:mod:`repro.gossip.engines.frontier`), which transmits only
  newly-learned (vertex, item) pairs each round;
* ``"hybrid"`` — the active-word engine
  (:mod:`repro.gossip.engines.hybrid`), which keeps the vectorized
  kernel's packed matrix but routes only the uint64 words that changed
  since each slot's arcs last fired, with per-slot windows pre-split at
  production time and a dense-path fallback above a tunable active
  fraction.

All four run through one shared driver,
:class:`~repro.gossip.engines.checkpoint.EngineRun`, and differ only in
state layout, slot compilation, round loop and delta accounting.

Selection
---------
Every simulation entry point (:func:`repro.gossip.simulation.simulate` and
friends) takes an ``engine`` keyword: an engine *name*, an engine
*instance*, or ``"auto"`` (the default).  Names are matched
case-insensitively.  The choice is recorded on
``SimulationResult.engine_name`` so a fallback can never go unnoticed.
The ``REPRO_SIM_ENGINE`` environment
variable overrides ``"auto"`` globally (explicitly named engines win over
the environment), which lets benchmarks and CI pin a backend without
threading a flag through every call site.

``"auto"`` heuristics: selection is *workload-aware*.  Entry points pass
the compiled :class:`RoundProgram` and the tracking flags to
:func:`resolve_engine`, and a coded decision function
(:func:`select_engine_name`) reproduces the measured crossover table in
ROADMAP.md from cheap statistics — ``n``, the packed matrix size, the mean
arc degree, cyclicity:

* *finite (aperiodic) programs* → **vectorized**: every sparse-path firing
  would be a first firing, so frontier/active-word windows never pay off.
* *tracked cyclic runs* (``track_arrivals`` or ``track_item_completion``)
  → the dense kernel always loses (its per-round rescans cost 3–13× at
  n = 4096): **frontier** when news is item-thin (mean arc degree ≤ 3 —
  cycles, paths, trees), **hybrid** when word-thick (grids and denser).
* *plain cyclic runs* → **vectorized** while the packed matrix is
  cache-resident (≤ 4 MiB, i.e. n ≲ 4–6k), **hybrid** past the cache
  crossover (measured from n ≈ 4096 on paths, n ≈ 8192 on cycles and
  elongated grids).

``"auto"`` never picks **reference**, the differential oracle.

Callers that resolve without a program (``resolve_engine()`` bare) keep
the historical pick — the vectorized kernel, whose dense gather/scatter
is never pathological.  Explicit names and ``REPRO_SIM_ENGINE`` always
win over the decision function, and the resolved backend — never the
literal ``"auto"`` — is what lands in ``engine_name``, so a misprediction
is visible in every result.  Dispatch can only change speed, never
results: the registry-parametrized differential and fuzz suites certify
all backends bit-identical.

Batched Monte-Carlo vs looped single runs
-----------------------------------------
Fault-injected trial ensembles (:mod:`repro.faults.montecarlo`) add a
*many-runs-of-one-program* axis to the choice above.  Use the **batched**
tensor path (``monte_carlo(..., method="batched")``, the default under
``engine="auto"``) whenever you run tens of trials or more of the same
program: it stacks all trials into one ``(n, trials, W)`` tensor, compiles
each round slot once for the whole ensemble, and advances every trial per
NumPy pass — measured ≈ 26× over 256 independent runs at n = 1024.  Prefer
**looped single runs** (``method="looped"`` with any engine above) when
trials are few, when you need a non-default backend's strengths (e.g. the
frontier engine on a huge sparse instance that dwarfs the trial count), or
when certifying a new backend against the batched kernel — the looped path
replays the identical fault realisation, so disagreement is a bug, never
noise.

NumPy (≥ 2.0, for ``np.bitwise_count``) is a hard dependency declared in
``pyproject.toml``, so all four backends are always registered.

Checkpoint/resume
-----------------
All four registered engines implement the checkpoint/resume protocol
(:mod:`repro.gossip.engines.checkpoint`): ``run_checkpointed`` captures
:class:`EngineState` snapshots after requested rounds,
``checkpoint``/``resume`` are the single-state conveniences, and
:func:`supports_checkpointing` probes a backend (third-party registrations
may still lack the protocol).

The determinism contract: resuming a state on a program whose executed
prefix matches the producing run's returns a result **bit-identical to the
cold run** — final knowledge, completion round, coverage history, item
completion and arrival matrices all agree exactly, for any program suffix.
States are stored in the canonical integer encoding, so they are portable
across backends (checkpoint on vectorized, resume on hybrid, and vice
versa).  This is what lets incremental schedule search
(:mod:`repro.search.incremental`) re-simulate only the rounds a move
changed while provably visiting the same walk as full re-evaluation —
``engine="auto"`` stays on the dense vectorized kernel inside untracked
incremental searches (pass ``incremental=True`` to
:func:`select_engine_name` / :func:`resolve_engine`), since resumed
suffixes are too short for the sparse engines' windows to warm up.

Telemetry
---------
Every backend self-reports through :mod:`repro.telemetry` when a recorder
is active (``--trace PATH`` / ``REPRO_TRACE`` stream JSONL; ``--metrics``
prints the in-memory roll-up; both install a recorder around the run).
With the default ``NullRecorder`` the whole layer costs one context-variable
read per run — counters are plain local ints, flushed once at run end by
the shared driver (:meth:`~repro.gossip.engines.checkpoint.EngineRun.finish`),
never per-slot.

Counter vocabulary (component ``engine.<name>``).  Each engine declares its
counter names once, as its ``counter_names`` class attribute, and the
driver flushes exactly those keys (``tests/test_telemetry_counters.py``
holds code, declarations and this list together):

* ``runs`` — engine invocations (every engine);
* ``rounds_simulated`` — rounds actually executed by the loop (every
  engine);
* ``slots_fired`` — non-empty rounds applied (reference);
* ``batches`` / ``replayed_rounds`` — the doubling batches and
  post-completion replay rounds of the untracked fast path (vectorized);
* ``rounds_synthesized`` — rounds *not* executed because the engine proved
  a fixed point (its ``idle >= s`` early exit) and synthesized the
  remainder (frontier, hybrid);
* ``early_exit_round`` — the round at which the fixed point was detected,
  0 when the run never early-exited (frontier, hybrid);
* ``slots_fired_sparse`` / ``slots_fired_dense`` — slot firings by path
  (frontier, hybrid; "dense" means first firings, plus over-threshold
  fallbacks, which the hybrid engine also counts in ``dense_fallbacks``);
* ``window_elements_routed`` — sparse-path routing volume: (vertex, item)
  pairs for the frontier engine, pending window words for the hybrid one;
* ``pairs_delivered`` — (vertex, item) pairs learned during the run
  (frontier);
* ``dense_fallbacks`` — sparse-capable firings whose window exceeded the
  dense threshold (hybrid).

Each run also records an ``engine.run`` span (wall time, attributed to the
enclosing CLI/search span), an ``engine.<name>.rounds`` histogram of
``rounds_simulated``, and attaches a :class:`repro.telemetry.RunStats` to
``SimulationResult.run_stats``.
Engine *resolution* emits an ``engine.resolve`` event carrying the resolved
name, the source (``explicit`` / ``env`` / ``auto-program`` / ``auto-bare``)
and — for workload-aware picks — the rationale string from
:func:`explain_engine_selection` saying which statistic crossed which
threshold.  Telemetry can only change what is *recorded*, never results:
the neutrality suite (``tests/test_telemetry.py``) certifies recorded runs
bit-identical to telemetry-off runs for every registered backend.

Adding a fifth backend
----------------------
The minimum is the :class:`~repro.gossip.engines.base.SimulationEngine`
protocol (a ``name`` attribute plus a ``run(program, ...)`` method
returning a :class:`~repro.gossip.engines.base.SimulationResult`) and a
:func:`register_engine` call.  To get checkpoint/resume, telemetry and
result assembly for free, subclass
:class:`~repro.gossip.engines.checkpoint.CheckpointingMixin` (which
provides ``run``, ``checkpoint`` and ``resume``) and write only
``run_checkpointed``: build an
:class:`~repro.gossip.engines.checkpoint.EngineRun` from the options, pack
its canonical ``start`` rows into your layout, seed tracking from its
canonical seeds (``history``, ``item_rounds``, ``arrival_matrix()``), run
your round loop — calling ``run.capture`` when a round equals
``run.due`` and ``run.fixed_point`` if you can prove a fixed point — and
return ``run.finish(...)`` with an ``export`` callable that yields
canonical knowledge rows and arrivals, plus your own counters (declare
their names in ``counter_names``).  Run ``tests/test_engines_differential.py``,
the randomized fuzz suite ``tests/test_engines_fuzz.py`` and
``tests/test_engines_resume.py`` with your engine registered to certify
bit-for-bit agreement with the reference engine and the resume contract —
all three iterate over the registry, so new backends get coverage for
free.
"""

from __future__ import annotations

import os

from repro import telemetry
from repro.exceptions import SimulationError
from repro.gossip.engines.base import (
    ArrivalRounds,
    RoundProgram,
    SimulationEngine,
    SimulationResult,
)
from repro.gossip.engines.checkpoint import (
    CheckpointableEngine,
    CheckpointedRun,
    EngineState,
    supports_checkpointing,
)
from repro.gossip.engines.frontier import FrontierEngine
from repro.gossip.engines.hybrid import HybridEngine
from repro.gossip.engines.layout import (
    mean_arc_degree,
    packed_matrix_bytes,
    workload_summary,
)
from repro.gossip.engines.reference import ReferenceEngine
from repro.gossip.engines.vectorized import VectorizedEngine

__all__ = [
    "ArrivalRounds",
    "RoundProgram",
    "SimulationEngine",
    "SimulationResult",
    "CheckpointableEngine",
    "CheckpointedRun",
    "EngineState",
    "supports_checkpointing",
    "ReferenceEngine",
    "VectorizedEngine",
    "FrontierEngine",
    "HybridEngine",
    "ENGINE_ENV_VAR",
    "AUTO_ENGINE",
    "register_engine",
    "get_engine",
    "available_engines",
    "engine_override",
    "is_auto_spec",
    "select_engine_name",
    "explain_engine_selection",
    "resolve_engine",
]

#: Environment variable that overrides ``engine="auto"`` globally.
ENGINE_ENV_VAR = "REPRO_SIM_ENGINE"

#: The sentinel name meaning "pick the best available backend".
AUTO_ENGINE = "auto"

_REGISTRY: dict[str, SimulationEngine] = {}


def register_engine(engine: SimulationEngine, *, replace: bool = False) -> SimulationEngine:
    """Add ``engine`` to the registry under ``engine.name``.

    Registering a name that already exists raises unless ``replace=True``,
    so a typo cannot silently shadow a shipped backend.
    """
    name = engine.name
    if name == AUTO_ENGINE:
        raise SimulationError(f"engine name {AUTO_ENGINE!r} is reserved for automatic selection")
    if name in _REGISTRY and not replace:
        raise SimulationError(f"an engine named {name!r} is already registered")
    _REGISTRY[name] = engine
    return engine


def available_engines() -> tuple[str, ...]:
    """Names of the registered engines, sorted."""
    return tuple(sorted(_REGISTRY))


def get_engine(name: str, *, source: str | None = None) -> SimulationEngine:
    """Look up a registered engine by name (case-insensitive).

    ``source`` names where a bad spelling came from (e.g. the
    ``REPRO_SIM_ENGINE`` environment variable) so the error identifies the
    knob to fix, not just the value.
    """
    normalized = name.strip().casefold()
    try:
        return _REGISTRY[normalized]
    except KeyError:
        origin = f" (from {source})" if source else ""
        raise SimulationError(
            f"unknown simulation engine {name!r}{origin}; available: "
            f"{', '.join(available_engines()) or '(none)'}"
        ) from None


def engine_override() -> str | None:
    """The ``REPRO_SIM_ENGINE`` value in effect, or ``None`` when unset.

    A non-empty override is a *specific engine request* — it beats the
    automatic decision function everywhere ``"auto"`` would apply (the
    batched Monte-Carlo dispatch honours this too).
    """
    return os.environ.get(ENGINE_ENV_VAR, "").strip() or None


def is_auto_spec(spec: str | SimulationEngine | None) -> bool:
    """Does ``spec`` ask for automatic selection (``None`` or ``"auto"``,
    case-insensitively)?"""
    return spec is None or (
        isinstance(spec, str) and spec.strip().casefold() == AUTO_ENGINE
    )


#: Tracked-workload crossover: at or below this mean arc degree each
#: round's news stays item-thin and the frontier engine's per-pair routing
#: wins (cycles and paths are 2.0); above it knowledge words are shared by
#: enough items that the hybrid active-word windows win (a 16×256 grid is
#: ≈ 3.87).  From the measured table in ROADMAP.md.
_TRACKED_DEGREE_CROSSOVER = 3.0

#: Plain-run cache crossover: once the packed ``(n, W)`` matrix outgrows
#: this many bytes the dense kernel's full re-streams turn DRAM-bound and
#: the hybrid engine overtakes it.  4 MiB puts the flip between the
#: measured n = 4096 (2 MiB, vectorized wins cycles/grids) and n = 8192
#: (8 MiB, hybrid wins everywhere).
_PLAIN_CACHE_CROSSOVER_BYTES = 4 << 20


def select_engine_name(
    program: RoundProgram,
    *,
    track_history: bool = False,
    track_item_completion: bool = False,
    track_arrivals: bool = False,
    incremental: bool = False,
) -> str:
    """The coded decision function behind workload-aware ``"auto"``.

    Reproduces the measured crossover table (ROADMAP.md) from statistics
    that cost O(1) to read: whether the program is cyclic, the packed
    matrix footprint, and the mean arc degree.  Returns a registered
    engine *name* — callers wanting an instance go through
    :func:`resolve_engine`, which also applies the env override.

    ``track_history`` does not influence the pick today (coverage history
    is maintained incrementally by every candidate backend); it is
    accepted so call sites can forward their full tracking signature and
    future refinements need no threading changes.

    ``incremental=True`` declares that the runs will be checkpoint-resumed
    suffixes (incremental schedule search).  All four backends checkpoint,
    so correctness never constrains the pick; but a resumed sparse engine
    treats the resume point like a program start — every slot's first
    post-resume firing is dense — and resumed evaluations rarely outlive
    that warm-up period, so on untracked workloads the plain cache
    crossover does not apply and the dense kernel is picked outright.
    """
    return explain_engine_selection(
        program,
        track_history=track_history,
        track_item_completion=track_item_completion,
        track_arrivals=track_arrivals,
        incremental=incremental,
    )[0]


def explain_engine_selection(
    program: RoundProgram,
    *,
    track_history: bool = False,
    track_item_completion: bool = False,
    track_arrivals: bool = False,
    incremental: bool = False,
) -> tuple[str, str]:
    """:func:`select_engine_name` plus its rationale, as ``(name, why)``.

    The rationale string names the statistic that decided the pick and the
    threshold it was compared against; the telemetry ``engine.resolve``
    event carries it so a trace explains every automatic dispatch.
    """
    del track_history  # accepted for signature parity; does not affect the pick
    if not program.cyclic:
        # Finite programs never reuse a round slot, so the sparse engines'
        # windows never pay off: every firing would take the dense path
        # anyway, with extra bookkeeping on top.
        return (
            VectorizedEngine.name,
            "finite (aperiodic) program: sparse windows never pay off",
        )
    if incremental and not (track_item_completion or track_arrivals):
        # Checkpoint-resumed evaluations execute short suffixes: the sparse
        # engines' first post-resume firing of every slot is dense (resume
        # is treated like a program start), and an incremental-search run
        # seldom outlives that first period, so the windows that justify
        # them past the cache crossover never engage.
        return (
            VectorizedEngine.name,
            "incremental (checkpoint-resumed) untracked runs: sparse windows "
            "stay cold across short resumed suffixes",
        )
    if track_item_completion or track_arrivals:
        degree = mean_arc_degree(program.graph)
        if (
            degree <= _TRACKED_DEGREE_CROSSOVER
            and FrontierEngine.name in _REGISTRY
        ):
            return (
                FrontierEngine.name,
                f"tracked cyclic run with mean_arc_degree {degree:.2f} <= "
                f"{_TRACKED_DEGREE_CROSSOVER:g} (item-thin news)",
            )
        if HybridEngine.name in _REGISTRY:
            return (
                HybridEngine.name,
                f"tracked cyclic run with mean_arc_degree {degree:.2f} > "
                f"{_TRACKED_DEGREE_CROSSOVER:g} (word-thick news)",
            )
        return VectorizedEngine.name, "tracked cyclic run; no sparse backend registered"
    matrix_bytes = packed_matrix_bytes(program.graph.n)
    if (
        matrix_bytes > _PLAIN_CACHE_CROSSOVER_BYTES
        and HybridEngine.name in _REGISTRY
    ):
        return (
            HybridEngine.name,
            f"plain cyclic run with packed_matrix_bytes {matrix_bytes} > "
            f"{_PLAIN_CACHE_CROSSOVER_BYTES} (past cache crossover)",
        )
    return (
        VectorizedEngine.name,
        f"plain cyclic run with packed_matrix_bytes {matrix_bytes} <= "
        f"{_PLAIN_CACHE_CROSSOVER_BYTES} (cache-resident)",
    )


def resolve_engine(
    spec: str | SimulationEngine | None = None,
    program: RoundProgram | None = None,
    *,
    track_history: bool = False,
    track_item_completion: bool = False,
    track_arrivals: bool = False,
    incremental: bool = False,
) -> SimulationEngine:
    """Resolve an ``engine=`` argument to a concrete engine instance.

    ``None`` and ``"auto"`` consult the ``REPRO_SIM_ENGINE`` environment
    variable first and then fall back to automatic selection: when the
    caller supplies the ``program`` it is about to run (plus its tracking
    flags), selection is workload-aware (:func:`select_engine_name`);
    without a program it keeps the historical program-blind pick (the
    vectorized kernel).  Explicit names — matched case-insensitively —
    always win over both.  An unknown name raises
    :class:`~repro.exceptions.SimulationError` naming the environment
    variable when that is where the bad name came from, rather than
    silently running a different backend.
    """
    if spec is not None and not isinstance(spec, str):
        return spec
    telem = telemetry.get_recorder().enabled
    if not is_auto_spec(spec):
        engine = get_engine(spec)
        if telem:
            telemetry.event(
                "engine.resolve",
                resolved=engine.name,
                source="explicit",
                rationale=f"caller named engine {spec!r}",
            )
        return engine
    override = engine_override()
    if override is not None:
        engine = get_engine(override, source=f"the {ENGINE_ENV_VAR} environment variable")
        if telem:
            telemetry.event(
                "engine.resolve",
                resolved=engine.name,
                source="env",
                rationale=f"{ENGINE_ENV_VAR}={override!r} overrides auto selection",
            )
        return engine
    if program is not None:
        name, rationale = explain_engine_selection(
            program,
            track_history=track_history,
            track_item_completion=track_item_completion,
            track_arrivals=track_arrivals,
            incremental=incremental,
        )
        if telem:
            telemetry.event(
                "engine.resolve",
                resolved=name,
                source="auto-program",
                rationale=rationale,
                tracked=bool(track_item_completion or track_arrivals),
                **workload_summary(program.graph),
            )
        return _REGISTRY[name]
    engine = _REGISTRY[VectorizedEngine.name]
    if telem:
        telemetry.event(
            "engine.resolve",
            resolved=engine.name,
            source="auto-bare",
            rationale="no program supplied; historical program-blind pick",
        )
    return engine


register_engine(ReferenceEngine())
register_engine(VectorizedEngine())
register_engine(FrontierEngine())
register_engine(HybridEngine())
