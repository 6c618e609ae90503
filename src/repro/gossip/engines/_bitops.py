"""Packed-bitset utilities shared by the NumPy-backed engines.

Every packed engine (vectorized, frontier, hybrid, and the batched
fault-injection kernel in :mod:`repro.faults.montecarlo`) stores knowledge
as an ``(n, W) uint64`` matrix in little-endian word order (bit ``j`` of a
row lives in word ``j // 64`` at position ``j % 64``), so that a row
reinterpreted as little-endian bytes equals the reference engine's Python
integer exactly.  The helpers here convert between that layout and Python
integers and expand packed words into bit coordinates, and
:class:`HeadGroups` / :func:`dense_apply_grouped` hold the one copy of the
head-grouped gather/``reduceat``/diff slot core (whose snapshot-semantics
subtleties — gather every tail row before any head row is written — live
here once); :func:`compiled_slots` and :func:`tail_filter_groups` are the
shared per-slot compile cache and pre-split window grouping.  Any future
packed-bitset backend should build on these rather than reaching into
another engine's internals.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "WORD_BITS",
    "WORD_BYTES",
    "WORD_SHIFT",
    "WORD_MASK",
    "BIT_LUT",
    "packed_width",
    "pack_int",
    "pack_rows",
    "unpack_words",
    "unpack_rows",
    "popcount_total",
    "set_bit_positions",
    "expand_delta_words",
    "HeadGroups",
    "compile_head_groups",
    "dense_apply_grouped",
    "tail_filter_groups",
    "compiled_slots",
]

WORD_BITS = 64
WORD_BYTES = 8
WORD_SHIFT = 6  # log2(64): item -> packed word
WORD_MASK = 63

#: ``BIT_LUT[k] == 1 << k`` — bit masks without per-call shift dtype casts.
BIT_LUT = np.uint64(1) << np.arange(WORD_BITS, dtype=np.uint64)


def packed_width(n: int, target: int, start: list[int]) -> int:
    """Words per row for ``n`` item bits plus any caller-supplied high bits.

    Every packed-bitset engine must agree on this width: the ``n``
    vertex-item bits always fit, and a custom initial state or target mask
    carrying higher bits widens the rows so no knowledge is truncated.
    """
    max_bits = max([n, target.bit_length(), *(v.bit_length() for v in start)])
    return max(1, (max_bits + WORD_BITS - 1) // WORD_BITS)


def pack_int(value: int, words: int) -> np.ndarray:
    """Pack a non-negative Python integer into ``words`` little-endian uint64s."""
    return np.frombuffer(value.to_bytes(words * WORD_BYTES, "little"), dtype="<u8").copy()


def pack_rows(values, words: int) -> np.ndarray:
    """Pack Python integers into a writable ``(len(values), words)`` matrix."""
    data = bytearray(b"".join(v.to_bytes(words * WORD_BYTES, "little") for v in values))
    return np.frombuffer(data, dtype="<u8").reshape(len(values), words)


def unpack_words(row: np.ndarray) -> int:
    """One little-endian uint64 array back into a Python integer."""
    return int.from_bytes(np.ascontiguousarray(row, dtype="<u8").tobytes(), "little")


def unpack_rows(matrix: np.ndarray) -> tuple[int, ...]:
    """Reverse of :func:`pack_int`, one Python integer per row."""
    rows, words = matrix.shape
    data = np.ascontiguousarray(matrix, dtype="<u8").tobytes()
    stride = words * WORD_BYTES
    return tuple(
        int.from_bytes(data[i * stride : (i + 1) * stride], "little") for i in range(rows)
    )


def popcount_total(matrix: np.ndarray) -> int:
    """Total number of set bits in the knowledge matrix."""
    return int(np.bitwise_count(matrix).sum())


def set_bit_positions(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(row, bit) coordinates of every set bit of a packed uint64 matrix.

    Scans at word granularity first and expands only the nonzero words, so
    the cost is O(rows·W) words + O(set words · 64) rather than allocating
    the full (rows, W·64) unpacked bit matrix.
    """
    rows_w, cols_w = np.nonzero(matrix)
    if rows_w.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    words = matrix[rows_w, cols_w]
    bits = (words[:, None] & BIT_LUT[None, :]) != 0
    flat = np.nonzero(bits)
    return rows_w[flat[0]], cols_w[flat[0]] * WORD_BITS + flat[1]


class HeadGroups:
    """Head-grouped layout of one round's arc list.

    The dense full-knowledge transmission path used by the frontier and
    hybrid engines (and the batched fault-injection kernel) applies a round
    by gathering the pre-round tail rows, OR-ing them per receiving head,
    and diffing against the heads' current rows.  This object is the
    precompiled layout that makes that a handful of bulk NumPy calls:
    sources sorted by head so each head's tails form one contiguous group
    (a single ``bitwise_or.reduceat`` when heads repeat).

    Attributes
    ----------
    m:
        Number of arcs (0 for an empty round — every other attribute is
        ``None`` then).
    src_tails:
        Tail row indices in head-sorted arc order.
    uheads:
        The distinct head row indices, sorted.
    group_starts:
        Start offset of each head's contiguous tail group in ``src_tails``.
    heads_distinct:
        ``True`` when every head is distinct (any valid matching), in which
        case the ``reduceat`` aggregation is skipped entirely.
    arc_order:
        Permutation from the round's original arc order into the head-sorted
        order of ``src_tails`` (consumers that carry per-arc side data — the
        fault kernel's per-trial arc masks — apply it to stay aligned).
    """

    __slots__ = ("m", "src_tails", "uheads", "group_starts", "heads_distinct", "arc_order")

    def __init__(self, m, src_tails, uheads, group_starts, heads_distinct, arc_order):
        self.m = m
        self.src_tails = src_tails
        self.uheads = uheads
        self.group_starts = group_starts
        self.heads_distinct = heads_distinct
        self.arc_order = arc_order


def compile_head_groups(graph, arcs) -> HeadGroups:
    """Precompile one round's arcs into the head-grouped dense layout.

    ``graph`` provides the vertex → row index mapping; ``arcs`` is the
    round's ``(tail, head)`` label pairs in schedule order.
    """
    m = len(arcs)
    if m == 0:
        return HeadGroups(0, None, None, None, True, None)
    index = graph.index
    tails = np.fromiter((index(t) for t, _ in arcs), dtype=np.int64, count=m)
    heads = np.fromiter((index(h) for _, h in arcs), dtype=np.int64, count=m)
    order = np.argsort(heads, kind="stable")
    uheads, group_starts = np.unique(heads[order], return_index=True)
    return HeadGroups(m, tails[order], uheads, group_starts, uheads.size == m, order)


def dense_apply_grouped(
    knowledge: np.ndarray, groups: HeadGroups
) -> tuple[np.ndarray, np.ndarray] | None:
    """Full-knowledge transmission of one round, returning the word delta.

    Gathers the pre-round tail rows first (snapshot semantics hold even when
    a head also appears as a tail), ORs them per head, and writes back only
    the changed receiver rows.  Returns the delta in *row form* —
    ``(receivers, sub)`` where ``sub`` holds the freshly set bits of each
    changed receiver row — or ``None`` when the round learned nothing.
    """
    if groups.m == 0:
        return None
    src = knowledge.take(groups.src_tails, axis=0)
    if groups.heads_distinct:
        agg = src
    else:
        agg = np.bitwise_or.reduceat(src, groups.group_starts, axis=0)
    new = agg & ~knowledge[groups.uheads]
    changed = np.flatnonzero(new.any(axis=1))
    if changed.size == 0:
        return None
    sub = np.ascontiguousarray(new[changed])
    receivers = groups.uheads[changed]
    knowledge[receivers] |= sub
    return receivers, sub


def expand_delta_words(words: np.ndarray, word_cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(element, item) coordinates of the set bits of a flat delta-word list.

    ``words`` is a 1-D uint64 array of (typically nonzero) delta words and
    ``word_cols`` their word-column indices.  Returns ``(elements, items)``
    where ``elements`` indexes back into ``words`` (so callers can map each
    item to its producing row) and ``items`` is the absolute bit position
    ``word_cols[element] * 64 + bit``.  This is the word-level engines' way
    of lowering word-granular deltas to (vertex, item) events only when an
    analysis actually needs them.
    """
    bits = (words[:, None] & BIT_LUT[None, :]) != 0
    elements, offsets = np.nonzero(bits)
    return elements, word_cols[elements] * WORD_BITS + offsets


def tail_filter_groups(masks) -> list[tuple[np.ndarray | None, list[int]]]:
    """Group slot indices by identical tail masks for pre-split windows.

    ``masks[k]`` is slot ``k``'s boolean is-a-tail vector, or ``None`` for a
    slot that never takes a sparse window.  Returns ``[(mask, members),
    ...]`` with ``mask`` ``None`` when it is all-``True`` (every produced
    delta entry is relevant, no filter needed).  Grouping means each round's
    delta pays one boolean gather per *distinct* tail set instead of one
    per slot; members share the filtered array by reference.
    """
    groups: list[tuple[np.ndarray | None, list[int]]] = []
    by_key: dict[bytes, int] = {}
    for k, mask in enumerate(masks):
        if mask is None:
            continue
        key = mask.tobytes()
        gi = by_key.get(key)
        if gi is None:
            gi = by_key[key] = len(groups)
            groups.append((None if mask.all() else mask, []))
        groups[gi][1].append(k)
    return groups


#: Compiled-slot caches are cleared past this size so a long search walk
#: cannot grow one without bound (distinct rounds accumulate with every
#: insert/mutate move).
SLOT_CACHE_LIMIT = 4096


def compiled_slots(rounds, compile_slot, slot_cache: dict | None, anchor=None) -> list:
    """``compile_slot(arcs)`` per round, memoized in ``slot_cache`` when given.

    The cache is keyed by round *identity* — ``make_round`` interns rounds,
    so one search walk sees the same tuple objects over and over, and the
    identity key avoids re-hashing a whole arc tuple per slot per run.  A
    compilation that also depends on another round (the vectorized
    kernel's row order is a function of the first non-empty round) passes
    it as ``anchor``, which joins the key.  Each entry holds strong
    references to its round and anchor, which keeps their ids stable for
    the entry's lifetime.  The dict is opaque to callers and must not be
    shared across graphs or engines.
    """
    if slot_cache is None:
        return [compile_slot(arcs) for arcs in rounds]
    slots = []
    for arcs in rounds:
        key = (id(arcs), id(anchor))
        entry = slot_cache.get(key)
        if entry is None:
            if len(slot_cache) >= SLOT_CACHE_LIMIT:
                slot_cache.clear()
            entry = slot_cache[key] = (arcs, anchor, compile_slot(arcs))
        slots.append(entry[2])
    return slots
