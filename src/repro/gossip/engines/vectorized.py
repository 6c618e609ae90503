"""Vectorized NumPy engine: packed ``uint64`` bitset kernel.

Layout
------
Knowledge is a ``(n, W)`` ``uint64`` matrix ``K`` with ``W = ceil(B / 64)``
words per vertex (``B`` is ``n`` unless a caller-supplied initial state or
target mask uses higher bits): bit ``j`` of vertex ``i``'s knowledge set
lives in ``K[i, j // 64]`` at position ``j % 64`` (little-endian word order,
so row ``i`` reinterpreted as little-endian bytes equals the reference
engine's Python integer exactly).

Kernel
------
Each distinct round is precompiled once into ``(tails, heads)`` ``int64``
index arrays — for a cyclic (systolic) program this happens once per
*period*, no matter how many times the schedule repeats.  Applying a round
is then a bulk gather + scatter-OR::

    vals = K[tails]                    # pre-round snapshot of the senders
    K[heads] |= vals                   # heads unique (any valid matching)
    np.bitwise_or.at(K, heads, vals)   # unbuffered fallback otherwise

Gathering ``vals`` before the scatter preserves the paper's snapshot
semantics (all arcs of a round act simultaneously on the pre-round state)
even for structurally invalid rounds where a head also appears as a tail.

Tiling
------
Above n ≈ 4096 the knowledge matrix exceeds L2 and the kernel becomes
DRAM-bandwidth-bound.  The irregular-round gather path therefore processes
arcs in *row tiles* sized from the packed row width so that one tile's
gather temporary plus its target rows fit the L2 budget
(``_TILE_TARGET_BYTES``); the completion test is chunked the same way, which
additionally lets it exit at the first incomplete row instead of scanning
the whole matrix.  The strided-segment fast path stays untiled (it operates
on copy-free views and allocates no temporary), and the non-disjoint
snapshot path must stay untiled for correctness: a later tile's gather would
observe an earlier tile's writes.

Completion detection
--------------------
When no per-round history is requested, rounds are executed in batches of
doubling size (capped): the completion test — an O(n·W) comparison against
the target mask — runs once per batch, and when a batch ends complete the
engine rolls back to the saved pre-batch state and replays it round by
round to pin down the *exact* completion round.  This keeps the steady-state
per-round cost at a single gather/scatter pair, which is what makes the
engine an order of magnitude faster than the reference loop on instances
with thousands of vertices.  Coverage counts use the hardware popcount
(``np.bitwise_count``).

Checkpoint/resume
-----------------
The engine implements the checkpoint/resume protocol
(:mod:`repro.gossip.engines.checkpoint`).  Snapshots are canonical: capture
unpermutes the internal row order and unpacks the ``uint64`` matrix back to
Python-int knowledge rows, so a state captured here resumes on any backend
(and vice versa — resume re-packs the state's rows under this engine's row
permutation).  The batched fast path treats requested checkpoint rounds as
forced batch boundaries, so captures are exact without giving up the
doubling-batch completion scan; resume restarts the doubling from the
resume point.  ``run_checkpointed`` accepts the same caller-owned
``slot_cache`` dict as the sparse engines; because compiled index arrays
are expressed in the internal row order — a function of the first
non-empty round's head set — entries are additionally keyed by that anchor
round's identity, so a search walk that changes the permutation can never
reuse a stale compilation.
"""

from __future__ import annotations

import numpy as np

from repro.gossip.engines.base import RoundProgram, iter_set_bits
from repro.gossip.engines._bitops import (
    WORD_BYTES as _WORD_BYTES,
    compiled_slots as _compiled_slots,
    pack_int as _pack_int,
    pack_rows as _pack_rows,
    packed_width as _packed_width,
    popcount_total as _popcount_total,
    set_bit_positions as _set_bit_positions,
    unpack_rows as _unpack_rows,
    unpack_words as _unpack_words,
)
from repro.gossip.engines.checkpoint import CheckpointedRun, CheckpointingMixin, EngineRun
from repro.gossip.engines.layout import (
    row_locality_permutation as _row_permutation,
)
from repro.gossip.model import Round
from repro.topologies.base import Digraph

__all__ = ["VectorizedEngine"]

#: Largest batch of rounds executed between two completion checks.
_BATCH_CAP = 128

#: Cache budget one row tile should fit in (a conservative L2 size).  The
#: row count of a tile is derived from the packed row width: gather source
#: tile + target rows ≈ 2 resident copies per tile.
_TILE_TARGET_BYTES = 1 << 20

_SEGMENT_LIMIT = 32


def _ap_segments(
    tails: np.ndarray, heads: np.ndarray
) -> list[tuple[slice | np.ndarray, slice]] | None:
    """Decompose a head-sorted round into a few arithmetic-progression runs.

    Rounds produced by edge colourings of regular topologies (cycles, paths,
    grids) activate arcs at fixed strides, except for a handful of wrap-around
    arcs.  Each returned ``(tail_part, head_slice)`` segment is applied as a
    strided-view ufunc (``tail_part`` degrades to an index array only when the
    run's tails are not an increasing progression), which runs at streaming
    memory bandwidth instead of paying gather/scatter costs.  Returns ``None``
    when the round is irregular (more than ``_SEGMENT_LIMIT`` runs), in which
    case the caller falls back to the generic gather path.  Segments may share
    a boundary arc; re-applying an arc is a no-op because set union is
    idempotent and the round's rows are vertex-disjoint.
    """
    m = len(heads)
    if m == 1:
        return [(tails.copy(), slice(int(heads[0]), int(heads[0]) + 1))]
    dh = np.diff(heads)
    dt = np.diff(tails)
    run_starts_arr = np.flatnonzero((dh[1:] != dh[:-1]) | (dt[1:] != dt[:-1])) + 1
    if run_starts_arr.size + 1 > _SEGMENT_LIMIT:
        return None
    run_starts = [0, *run_starts_arr.tolist()]
    run_ends = [*(s - 1 for s in run_starts_arr.tolist()), m - 2]
    segments: list[tuple[slice | np.ndarray, slice]] = []
    for first_diff, last_diff in zip(run_starts, run_ends):
        first_arc, last_arc = first_diff, last_diff + 1
        step_h = int(dh[first_diff])
        step_t = int(dt[first_diff])
        head_slice = slice(int(heads[first_arc]), int(heads[last_arc]) + 1, step_h)
        if step_t > 0:
            tail_part: slice | np.ndarray = slice(
                int(tails[first_arc]), int(tails[last_arc]) + 1, step_t
            )
        else:
            tail_part = tails[first_arc : last_arc + 1].copy()
        segments.append((tail_part, head_slice))
    return segments


def _compile_round(
    graph: Digraph, arcs: Round, old_to_new: np.ndarray
) -> tuple[np.ndarray, np.ndarray, bool, list[tuple[slice | np.ndarray, slice]] | None]:
    """Precompile a round: index arrays plus the fast-path metadata.

    Indices are expressed in the engine's internal (permuted) row order.
    Returns ``(tails, heads, disjoint, segments)`` where ``disjoint`` means
    no vertex is both a head and a tail and every head is distinct — true for
    every valid matching — which licenses in-place application without a
    pre-round snapshot copy, and ``segments`` is the strided decomposition of
    :func:`_ap_segments` (``None`` for irregular rounds).
    """
    index = graph.index
    m = len(arcs)
    tails = old_to_new[
        np.fromiter((index(t) for t, _ in arcs), dtype=np.int64, count=m)
    ]
    heads = old_to_new[
        np.fromiter((index(h) for _, h in arcs), dtype=np.int64, count=m)
    ]
    if m > 1:
        # Arcs within a round commute (each head ORs the pre-round snapshots
        # of its tails), so sorting by head index is semantics-preserving and
        # exposes the strided structure of regular topologies' rounds.
        order = np.argsort(heads, kind="stable")
        heads = heads[order]
        tails = tails[order]
    head_set = set(heads.tolist())
    disjoint = len(head_set) == m and not head_set.intersection(tails.tolist())
    segments = _ap_segments(tails, heads) if disjoint and m else None
    return tails, heads, disjoint, segments


def _tile_rows(words: int) -> int:
    """Rows per tile so gather temp + target rows fit ``_TILE_TARGET_BYTES``."""
    return max(32, _TILE_TARGET_BYTES // (2 * words * _WORD_BYTES))


def _apply_round(
    knowledge: np.ndarray,
    compiled: tuple[np.ndarray, np.ndarray, bool, list[tuple[slice | np.ndarray, slice]] | None],
    tile_rows: int,
) -> None:
    """One round: bulk OR of the senders' rows into the receivers' rows."""
    tails, heads, disjoint, segments = compiled
    if not tails.size:
        return
    if disjoint:
        # Rows are vertex-disjoint (any valid matching), so the elementwise
        # update cannot observe this round's own writes: slice segments index
        # as copy-free views, and only irregular rounds pay for a gather.
        if segments is not None:
            for tail_part, head_slice in segments:
                targets = knowledge[head_slice]
                sources = (
                    knowledge[tail_part]
                    if isinstance(tail_part, slice)
                    else knowledge.take(tail_part, axis=0)
                )
                np.bitwise_or(targets, sources, out=targets)
        elif len(heads) > tile_rows:
            # Irregular round on a large instance: bound the gather temporary
            # to one L2-sized tile so the gathered rows are ORed into their
            # targets while still cache-resident.  Disjointness makes tile
            # order irrelevant (no head row aliases any tail row).
            for start in range(0, len(heads), tile_rows):
                stop = start + tile_rows
                knowledge[heads[start:stop]] |= knowledge.take(tails[start:stop], axis=0)
        else:
            knowledge[heads] |= knowledge.take(tails, axis=0)
    else:
        # A head also appears as a tail (or twice as a head): gather the
        # pre-round snapshot first and use the unbuffered scatter so the
        # paper's all-arcs-act-simultaneously semantics is preserved.  This
        # path must NOT be tiled: a later tile's gather would observe an
        # earlier tile's writes and break the snapshot semantics.
        np.bitwise_or.at(knowledge, heads, knowledge.take(tails, axis=0))


def _is_complete(knowledge: np.ndarray, mask: np.ndarray, tile_rows: int) -> bool:
    """Does every row contain every bit of ``mask``?

    Past one tile the scan is chunked, which keeps each comparison temporary
    inside L2 and — more importantly on incomplete states, which is every
    check but the last — returns at the first incomplete chunk instead of
    touching the whole matrix.
    """
    if knowledge.shape[0] <= tile_rows:
        return bool(np.all((knowledge & mask) == mask))
    for start in range(0, knowledge.shape[0], tile_rows):
        block = knowledge[start : start + tile_rows]
        if not np.all((block & mask) == mask):
            return False
    return True


class VectorizedEngine(CheckpointingMixin):
    """Bulk gather/scatter over a packed ``(n, ceil(n/64)) uint64`` matrix.

    The irregular-round gather path and the completion scan are blocked to
    the ``_TILE_TARGET_BYTES`` L2 budget.  Supports the checkpoint/resume
    protocol (see the module docstring for how captures interact with the
    batched fast path).
    """

    name = "vectorized"
    counter_names = ("runs", "rounds_simulated", "batches", "replayed_rounds")

    def run_checkpointed(
        self, program: RoundProgram, *, slot_cache: dict | None = None, **options
    ) -> CheckpointedRun:
        """Run or resume ``program``; ``options`` are :class:`EngineRun`'s."""
        run = EngineRun(self, program, **options)
        graph = program.graph
        # Word width: enough for the n item bits, widened if a caller-supplied
        # initial state or target mask carries higher bits.
        words = _packed_width(run.n, run.full, run.start)
        # Rows live in an internal permuted order chosen for memory locality;
        # item bit columns keep the public vertex indexing throughout.
        new_to_old, old_to_new = _row_permutation(graph, program.rounds)
        knowledge = _pack_rows(run.start, words)[new_to_old]
        mask = _pack_int(run.full, words)
        anchor = next((arcs for arcs in program.rounds if arcs), None)
        compiled = _compiled_slots(
            program.rounds,
            lambda arcs: _compile_round(graph, arcs, old_to_new),
            slot_cache,
            anchor,
        )
        arrivals = run.arrival_matrix() if run.track_arrivals else None

        def export():
            # Canonical snapshot: unpermute the rows, unpack to Python ints.
            return _unpack_rows(knowledge[old_to_new]), arrivals

        run.start_capture(export)
        counts = {"batches": 0, "replayed_rounds": 0}
        completion = run.completion
        executed = run.base
        if completion is None:
            tracked = run.track_history or run.item_rounds is not None or arrivals is not None
            if tracked or not compiled:
                executed, completion = self._run_tracked(
                    run, compiled, knowledge, mask, arrivals, new_to_old, export
                )
            else:
                executed, completion = self._run_fast(
                    run, compiled, knowledge, mask, counts, export
                )
        return run.finish(executed, completion, export, counts)

    # ------------------------------------------------------------------ #
    def _run_tracked(
        self, run: EngineRun, compiled, knowledge, mask, arrivals, new_to_old, export
    ) -> tuple[int, int | None]:
        """Round-by-round loop recording coverage, item completion, arrivals."""
        program = run.program
        n = run.n
        s = len(compiled)
        tile_rows = _tile_rows(knowledge.shape[1])
        history, item_rounds = run.history, run.item_rounds
        track_history = run.track_history
        receivers: list | None = None
        if arrivals is not None:
            # Each round can only change its receiver rows; resolve them (and
            # the public vertices they hold, the arrival matrix's rows) once
            # per distinct compiled round, not once per executed round.
            receivers = []
            for c in compiled:
                rows = np.unique(c[1]) if c[1].size else None
                receivers.append(None if rows is None else (rows, new_to_old[rows]))
        known_by_all = None
        if item_rounds is not None:
            # Recomputed from the (possibly resumed) snapshot: the already-
            # complete items carry their rounds in ``item_rounds``, so fresh
            # detection below can never double-stamp them.
            known_by_all = np.bitwise_and.reduce(knowledge, axis=0)

        completion: int | None = None
        executed = run.base
        for round_number in range(run.base + 1, program.max_rounds + 1):
            if s:
                k = (round_number - 1) % s if program.cyclic else round_number - 1
                rows = receivers[k] if receivers is not None else None
                if rows is not None:
                    # Only this round's receiver rows can change: snapshot
                    # them, apply, and record the freshly set bits (word
                    # scan + expansion of the nonzero words only).
                    before = knowledge[rows[0]]
                    _apply_round(knowledge, compiled[k], tile_rows)
                    fresh = knowledge[rows[0]] & ~before
                    hit, cols = _set_bit_positions(fresh)
                    if hit.size:
                        vertex_items = cols < n
                        arrivals[rows[1][hit[vertex_items]], cols[vertex_items]] = round_number
                else:
                    _apply_round(knowledge, compiled[k], tile_rows)
            executed = round_number
            if track_history:
                history.append(_popcount_total(knowledge))
            if item_rounds is not None:
                now_known = np.bitwise_and.reduce(knowledge, axis=0)
                fresh = now_known & ~known_by_all
                if fresh.any():
                    for j in iter_set_bits(_unpack_words(fresh)):
                        if j < n:
                            item_rounds[j] = round_number
                known_by_all = now_known
            if _is_complete(knowledge, mask, tile_rows):
                completion = round_number
            if round_number == run.due:
                run.capture(round_number, completion, export)
            if completion is not None:
                break
        return executed, completion

    def _run_fast(
        self, run: EngineRun, compiled, knowledge, mask, counts, export
    ) -> tuple[int, int | None]:
        """Batched loop: completion checked per batch, replayed for exactness.

        Executes rounds in batches of doubling size (capped at
        ``_BATCH_CAP``).  When a batch ends with the target reached, the
        engine restores the saved pre-batch state and replays that batch
        round by round to find the exact completion round, so results are
        indistinguishable from the reference engine's.

        Requested checkpoint rounds are forced batch boundaries: a batch is
        clipped so it never crosses the next due round, and the capture
        happens on the exact post-batch state — the doubling sequence is
        otherwise unchanged, so runs without checkpoints execute the exact
        same batches as before.
        """
        max_rounds = run.program.max_rounds
        s = len(compiled)
        step = (lambda r: compiled[r % s]) if run.program.cyclic else compiled.__getitem__
        tile_rows = _tile_rows(knowledge.shape[1])
        executed = run.base
        batch = 1
        while executed < max_rounds:
            size = min(batch, max_rounds - executed, run.due - executed)
            saved = knowledge.copy()
            counts["batches"] += 1
            for r in range(executed, executed + size):
                _apply_round(knowledge, step(r), tile_rows)
            if _is_complete(knowledge, mask, tile_rows):
                # Roll back (in place: ``export`` reads this matrix) and
                # replay to pin down the exact round.
                np.copyto(knowledge, saved)
                for r in range(executed, executed + size):
                    _apply_round(knowledge, step(r), tile_rows)
                    counts["replayed_rounds"] += 1
                    if _is_complete(knowledge, mask, tile_rows):
                        if r + 1 == run.due:
                            run.capture(r + 1, r + 1, export)
                        return r + 1, r + 1
            executed += size
            if executed == run.due:
                run.capture(executed, None, export)
            batch = min(batch * 2, _BATCH_CAP)
        return executed, None
