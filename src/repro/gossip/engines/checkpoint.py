"""Checkpoint/resume layer of the engine protocol.

A *checkpoint* freezes a run mid-program: :class:`EngineState` is the
engine-agnostic snapshot of everything a backend needs to continue the run
— the exact knowledge bitsets after round ``r`` plus the prefixes of every
tracked analysis (coverage history, per-item completion, the first-arrival
matrix) and the option signature the run was started with.  ``resume``
continues a state on a program whose executed rounds ``1 … r`` match the
ones that produced the state, and returns a result **bit-identical to the
cold run** of that program.

Determinism contract
--------------------
Resume correctness is guaranteed *by construction*, not by replaying
history:

* the snapshot is canonical (plain Python integers, exactly the
  ``SimulationResult.knowledge`` encoding), so a state captured by one
  backend can be resumed by any other — the differential resume suite
  (``tests/test_engines_resume.py``) checks every ordered engine pair;
* every incremental counter an engine keeps (coverage, target-mask totals,
  per-item counts) is recomputed from the snapshot at resume time — the
  union of knowledge bits is time-invariant (bits only spread, never
  appear), so derived quantities like the reachable-bit set are identical
  to the cold run's;
* the sparse engines (frontier, hybrid) treat the resume point like a
  program start: for the first ``s`` rounds after round ``r`` every slot
  fires through the dense full-knowledge path (it has no delta window
  yet), after which windows built purely from post-resume deltas take
  over.  The induction that justifies window transmission therefore never
  references pre-resume history, which is what makes resume exact for
  *any* program suffix — including a suffix the original run never saw,
  the case incremental schedule search exercises on every move.

The caller owns the prefix contract: resuming a state on a program whose
rounds ``1 … r`` differ from the producing run's is undetected and returns
garbage.  The search layer (:mod:`repro.search.incremental`) keys cached
states by the candidate period and only reuses a state below the first
modified round.

Surface
-------
Checkpointable engines implement :class:`CheckpointableEngine`:

``run_checkpointed(program, checkpoint_rounds=..., resume_from=...)``
    The one primitive: run (or resume) a program, capturing a state after
    each requested round, and return a :class:`CheckpointedRun`.
    Checkpoint rounds that the run never reaches (it completed earlier)
    are silently skipped; rounds inside a fixed-point early-exit region
    are synthesized exactly.
``checkpoint(program, at, **options) -> EngineState``
    Convenience: run until round ``at`` and return that one state.
``resume(state, program, from_round=None, **options) -> SimulationResult``
    Convenience: continue ``state`` to the end of ``program``'s budget.

All four registered engines — reference, vectorized, frontier and hybrid —
support checkpointing (via :class:`CheckpointingMixin`); use
:func:`supports_checkpointing` to probe a backend, e.g. when iterating the
registry, since third-party registrations may not implement the protocol.

Shared run driver
-----------------
Every registered engine's ``run_checkpointed`` is a thin shell around
:class:`EngineRun`, which owns everything the backends have in common:
start-state resolution and resume validation, the canonical seeds of the
tracked prefixes, checkpoint capture, fixed-point synthesis, the telemetry
flush and result assembly.  A backend supplies only its state packing,
slot compilation, round loop and delta accounting.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import reduce
from operator import and_
from typing import Protocol, runtime_checkable

import numpy as np

from repro import telemetry
from repro.exceptions import SimulationError
from repro.gossip.engines.base import (
    ArrivalRounds,
    RoundProgram,
    SimulationResult,
    check_initial,
    full_mask,
    initial_knowledge,
    iter_set_bits,
)

__all__ = [
    "EngineState",
    "CheckpointedRun",
    "CheckpointableEngine",
    "CheckpointingMixin",
    "EngineRun",
    "supports_checkpointing",
]


@dataclass(frozen=True)
class EngineState:
    """Engine-agnostic snapshot of a run after ``round`` rounds.

    ``knowledge`` uses the canonical arbitrary-precision-integer encoding
    (bit ``j`` of entry ``v`` set iff vertex ``v`` knows item ``j``), so the
    state is backend-portable by construction.  ``target_mask`` and the
    three tracking flags record the option signature of the producing run;
    resume validates them against the requested options, because a state
    captured without (say) arrival tracking cannot seed a tracked
    continuation.

    ``completion_round`` is almost always ``None`` — engines stop at
    completion, so a mid-run snapshot is incomplete by construction; the
    only states carrying a completion are those captured exactly at the
    completing round (or at round 0 of an initially complete program), and
    resuming one short-circuits to the finished result.

    Tracked prefixes: ``coverage_history`` has ``round + 1`` entries when
    history tracking was on; ``item_completion`` / ``arrivals`` mirror the
    corresponding :class:`~repro.gossip.engines.base.SimulationResult`
    encodings (``None`` for not-yet events), restricted to what had
    happened by ``round``.
    """

    round: int
    knowledge: tuple[int, ...]
    completion_round: int | None
    target_mask: int
    track_history: bool
    track_item_completion: bool
    track_arrivals: bool
    coverage_history: tuple[int, ...] | None = None
    item_completion: tuple[int | None, ...] | None = None
    arrivals: tuple[tuple[int | None, ...], ...] | None = None
    engine_name: str | None = None

    @property
    def n(self) -> int:
        """Vertex count of the program the state belongs to."""
        return len(self.knowledge)


@dataclass(frozen=True)
class CheckpointedRun:
    """A simulation result plus the states captured along the way.

    ``checkpoints`` is ordered by round and contains exactly the requested
    rounds the run reached (a run completing at round ``c`` yields no state
    beyond ``c``; synthesized fixed-point rounds *are* reachable).
    """

    result: SimulationResult
    checkpoints: tuple[EngineState, ...]


def _resolved_mask(program: RoundProgram, target_mask: int | None) -> int:
    return full_mask(program.graph.n) if target_mask is None else target_mask


def check_resume_state(
    state: EngineState,
    program: RoundProgram,
    *,
    target_mask: int | None,
    track_history: bool,
    track_item_completion: bool,
    track_arrivals: bool,
) -> None:
    """Validate that ``state`` can seed a run of ``program`` under these options.

    Catches signature mismatches (vertex count, target mask, tracking
    flags) and budgets that end before the resume point.  The round-prefix
    contract — ``program``'s rounds ``1 … state.round`` must equal the
    producing run's — is the caller's responsibility and is *not* checked
    here (doing so would require storing the whole executed prefix).
    """
    n = program.graph.n
    if state.n != n:
        raise SimulationError(
            f"cannot resume: state snapshots {state.n} vertices, program has {n}"
        )
    if state.round < 0:
        raise SimulationError(f"cannot resume from negative round {state.round}")
    if state.round > program.max_rounds:
        raise SimulationError(
            f"cannot resume at round {state.round}: the program budget is only "
            f"{program.max_rounds} rounds"
        )
    if state.target_mask != _resolved_mask(program, target_mask):
        raise SimulationError(
            "cannot resume: the state was captured under a different target mask"
        )
    wanted = (track_history, track_item_completion, track_arrivals)
    have = (state.track_history, state.track_item_completion, state.track_arrivals)
    if wanted != have:
        raise SimulationError(
            f"cannot resume: the state was captured with tracking flags "
            f"(history, items, arrivals) = {have}, the resumed run asks for {wanted}"
        )
    if track_history and (
        state.coverage_history is None or len(state.coverage_history) != state.round + 1
    ):
        raise SimulationError(
            "cannot resume: the state's coverage-history prefix does not cover "
            "its own round"
        )


def normalize_checkpoint_rounds(checkpoint_rounds, base: int) -> list[int]:
    """Sorted unique checkpoint rounds at or after the run's start round."""
    wanted = sorted({int(r) for r in checkpoint_rounds})
    if wanted and wanted[0] < 0:
        raise SimulationError(f"checkpoint rounds must be >= 0, got {wanted[0]}")
    return [r for r in wanted if r >= base]


@runtime_checkable
class CheckpointableEngine(Protocol):
    """The engine protocol extended with checkpoint/resume support."""

    name: str

    def run(self, program: RoundProgram, **options) -> SimulationResult: ...

    def run_checkpointed(
        self,
        program: RoundProgram,
        *,
        checkpoint_rounds=(),
        resume_from: EngineState | None = None,
        **options,
    ) -> CheckpointedRun: ...

    def checkpoint(self, program: RoundProgram, at: int, **options) -> EngineState: ...

    def resume(
        self,
        state: EngineState,
        program: RoundProgram,
        *,
        from_round: int | None = None,
        **options,
    ) -> SimulationResult: ...


def supports_checkpointing(engine) -> bool:
    """``True`` iff ``engine`` implements the checkpoint/resume protocol."""
    return isinstance(engine, CheckpointableEngine)




def encode_arrivals(rows) -> tuple[tuple[int | None, ...], ...]:
    """Canonical nested-tuple arrival encoding from an int64 matrix (``-1`` =
    never arrived) or from nested ``int | None`` lists."""
    if hasattr(rows, "tolist"):
        rows = rows.tolist()
    return tuple(tuple(x if x is None or x >= 0 else None for x in row) for row in rows)


class EngineRun:
    """The backend-independent half of one ``run_checkpointed`` call.

    Construction resolves the start state — a resumed :class:`EngineState`
    or the initial knowledge — into canonical Python-int rows (``start``),
    the start round ``base``, the target mask ``full`` and the start
    ``completion``, and seeds the tracked prefixes in the canonical
    encoding: ``history`` (coverage counts, empty when untracked),
    ``item_rounds`` (``int | None`` per item, ``None`` when untracked) and
    the arrival seed (:meth:`arrival_lists` / :meth:`arrival_matrix`).

    A backend packs ``start`` into its own layout, runs its round loop
    (appending to ``history``, stamping ``item_rounds``), and reports its
    state through an ``export`` callable returning ``(knowledge_rows,
    arrivals)`` in public vertex order — ``knowledge_rows`` a tuple of
    Python ints, ``arrivals`` nested ``int | None`` lists or an int64
    matrix (``-1`` = not yet), or ``None`` when untracked.  The loop calls
    :meth:`capture` whenever the round it just finished equals ``due``,
    :meth:`fixed_point` when it proves no round can change the state, and
    :meth:`finish` once at the end, which flushes exactly the engine's
    declared ``counter_names`` and assembles the result.
    """

    __slots__ = (
        "engine", "program", "n", "state", "start", "base", "full",
        "default_start", "track_history", "track_item_completion",
        "track_arrivals", "completion", "history", "item_rounds",
        "due", "synthesized", "early_exit", "_wanted", "_captured",
        "_recorder", "_t0",
    )

    def __init__(
        self,
        engine,
        program: RoundProgram,
        *,
        checkpoint_rounds=(),
        resume_from: EngineState | None = None,
        initial: list[int] | None = None,
        target_mask: int | None = None,
        track_history: bool = True,
        track_item_completion: bool = False,
        track_arrivals: bool = False,
    ) -> None:
        self._recorder = telemetry.get_recorder()
        self._t0 = time.perf_counter_ns() if self._recorder.enabled else 0
        self.engine = engine
        self.program = program
        n = self.n = program.graph.n
        state = self.state = resume_from
        if state is not None:
            if initial is not None:
                raise SimulationError(
                    "resume_from and initial are mutually exclusive "
                    "(the state carries the knowledge vector)"
                )
            check_resume_state(
                state,
                program,
                target_mask=target_mask,
                track_history=track_history,
                track_item_completion=track_item_completion,
                track_arrivals=track_arrivals,
            )
            start, base = list(state.knowledge), state.round
        else:
            start = list(initial) if initial is not None else initial_knowledge(n)
            base = 0
        check_initial(start, n)
        self.start, self.base = start, base
        self.default_start = state is None and initial is None
        full = self.full = full_mask(n) if target_mask is None else target_mask
        self.track_history = track_history
        self.track_item_completion = track_item_completion
        self.track_arrivals = track_arrivals

        if state is not None:
            self.completion = state.completion_round
            self.history = list(state.coverage_history) if track_history else []
            self.item_rounds = list(state.item_completion) if track_item_completion else None
        else:
            self.completion = 0 if all(v & full == full for v in start) else None
            self.history = [sum(v.bit_count() for v in start)] if track_history else []
            self.item_rounds = None
            if track_item_completion:
                self.item_rounds = [None] * n
                for j in iter_set_bits(reduce(and_, start) & full_mask(n)):
                    self.item_rounds[j] = 0

        self._wanted = normalize_checkpoint_rounds(checkpoint_rounds, base)[::-1]
        self._captured: list[EngineState] = []
        self.synthesized = self.early_exit = 0
        self._advance()

    def _advance(self) -> None:
        # ``due`` is the next requested round; past the budget when none is left.
        self.due = self._wanted.pop() if self._wanted else self.program.max_rounds + 1

    def _initial_arrivals(self):
        """(vertex, item) pairs known at round 0 (vertex-originated items only)."""
        items = full_mask(self.n)
        for v, bits in enumerate(self.start):
            for j in iter_set_bits(bits & items):
                yield v, j

    def arrival_lists(self) -> list[list[int | None]]:
        """The arrival seed as mutable nested lists (the reference engine)."""
        if self.state is not None:
            return [list(row) for row in self.state.arrivals]
        rows: list[list[int | None]] = [[None] * self.n for _ in range(self.n)]
        for v, j in self._initial_arrivals():
            rows[v][j] = 0
        return rows

    def arrival_matrix(self):
        """The arrival seed as an ``(n, n)`` int64 matrix, ``-1`` = not yet."""
        if self.state is not None:
            return np.array(
                [[-1 if r is None else r for r in row] for row in self.state.arrivals],
                dtype=np.int64,
            ).reshape(self.n, self.n)
        matrix = np.full((self.n, self.n), -1, dtype=np.int64)
        for v, j in self._initial_arrivals():
            matrix[v, j] = 0
        return matrix

    def start_capture(self, export) -> None:
        """Capture the start state when its round was requested."""
        if self.due == self.base:
            self.capture(self.base, self.completion, export)

    def capture(self, round_number: int, completion: int | None, export) -> None:
        """Snapshot the run after ``round_number`` rounds and advance ``due``."""
        knowledge, arrivals = export()
        self._captured.append(
            EngineState(
                round=round_number,
                knowledge=knowledge,
                completion_round=completion,
                target_mask=self.full,
                track_history=self.track_history,
                track_item_completion=self.track_item_completion,
                track_arrivals=self.track_arrivals,
                coverage_history=(
                    tuple(self.history[: round_number + 1]) if self.track_history else None
                ),
                item_completion=None if self.item_rounds is None else tuple(self.item_rounds),
                arrivals=None if arrivals is None else encode_arrivals(arrivals),
                engine_name=self.engine.name,
            )
        )
        self._advance()

    def fixed_point(self, round_number: int, export) -> int:
        """Synthesize the rounds after ``round_number`` of a fixed-point state.

        No remaining round can change the state, so the rest of the budget
        is recorded as executed no-ops — history, and every requested
        checkpoint inside the budget, included — and the new executed round
        count (the budget) is returned.
        """
        end = self.program.max_rounds
        self.early_exit = round_number
        self.synthesized = end - round_number
        if self.track_history:
            self.history.extend([self.history[-1]] * self.synthesized)
        while self.due <= end:
            self.capture(self.due, None, export)
        return end

    def finish(
        self, executed: int, completion: int | None, export, counts=None
    ) -> CheckpointedRun:
        """The run's result: flush telemetry, assemble the checkpointed run.

        ``counts`` holds the engine's own counters; ``runs``,
        ``rounds_simulated``, ``rounds_synthesized`` and
        ``early_exit_round`` are filled in here.
        """
        knowledge, arrivals = export()
        name = self.engine.name
        run_stats = None
        if self._recorder.enabled:
            component = f"engine.{name}"
            every = {
                "runs": 1,
                "rounds_simulated": executed - self.base - self.synthesized,
                "rounds_synthesized": self.synthesized,
                "early_exit_round": self.early_exit,
                **(counts or {}),
            }
            flushed = {key: every[key] for key in self.engine.counter_names}
            hist = telemetry.Histogram.of(flushed["rounds_simulated"])
            self._recorder.counters(component, flushed)
            self._recorder.histogram(f"{component}.rounds", hist)
            telemetry.record_span(
                "engine.run", self._t0, engine=name, n=self.n, resumed_round=self.base
            )
            run_stats = telemetry.RunStats.single(component, flushed)
            run_stats.add_histogram(f"{component}.rounds", hist)
        result = SimulationResult(
            graph=self.program.graph,
            rounds_executed=executed,
            completion_round=completion,
            knowledge=knowledge,
            coverage_history=tuple(self.history),
            item_completion_rounds=None if self.item_rounds is None else tuple(self.item_rounds),
            arrival_rounds=None if arrivals is None else ArrivalRounds(arrivals),
            engine_name=name,
            run_stats=run_stats,
        )
        return CheckpointedRun(result, tuple(self._captured))


class CheckpointingMixin:
    """``run`` and the ``checkpoint``/``resume`` conveniences, all on top of
    the engine's ``run_checkpointed``.

    ``counter_names`` declares the engine's ``engine.<name>`` telemetry
    counters; :meth:`EngineRun.finish` flushes exactly those keys.
    """

    counter_names: tuple[str, ...]

    def run(
        self,
        program: RoundProgram,
        *,
        initial: list[int] | None = None,
        target_mask: int | None = None,
        track_history: bool = True,
        track_item_completion: bool = False,
        track_arrivals: bool = False,
    ) -> SimulationResult:
        """Execute ``program`` (see :class:`~repro.gossip.engines.base.SimulationEngine`)."""
        return self.run_checkpointed(
            program,
            initial=initial,
            target_mask=target_mask,
            track_history=track_history,
            track_item_completion=track_item_completion,
            track_arrivals=track_arrivals,
        ).result

    def checkpoint(self, program: RoundProgram, at: int, **options) -> EngineState:
        """The state of ``program``'s run after round ``at``.

        Raises when the run ends (completes) before round ``at`` — there is
        no state to capture there.
        """
        run = self.run_checkpointed(program, checkpoint_rounds=(at,), **options)
        for state in run.checkpoints:
            if state.round == at:
                return state
        raise SimulationError(
            f"cannot checkpoint round {at}: the run ended at round "
            f"{run.result.rounds_executed} "
            f"(completion {run.result.completion_round})"
        )

    def resume(
        self,
        state: EngineState,
        program: RoundProgram,
        *,
        from_round: int | None = None,
        **options,
    ) -> SimulationResult:
        """Continue ``state`` to the end of ``program``'s round budget.

        ``from_round`` is accepted for call-site clarity and must equal
        ``state.round`` (a state can only be resumed at the round it
        snapshots).
        """
        if from_round is not None and from_round != state.round:
            raise SimulationError(
                f"from_round={from_round} does not match the state's round "
                f"{state.round}"
            )
        return self.run_checkpointed(program, resume_from=state, **options).result
