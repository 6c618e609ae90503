"""Delay digraphs and delay matrices of concrete protocols (Definitions 3.3, 3.4).

Given an s-systolic gossip protocol ``⟨A₁, …, A_t⟩`` the *delay digraph*
``DG`` has one node per arc activation ``(x, y, i)`` (arc ``(x, y)`` active at
round ``i``) and an arc from ``(x, y, i)`` to ``(y, z, j)`` whenever
``1 ≤ j − i < s`` — the weight ``j − i`` is the delay an item incurs when it
crosses ``(x, y)`` at round ``i`` and then ``(y, z)`` at round ``j``.  The
*delay matrix* ``M(λ)`` carries ``λ^{j-i}`` in the corresponding entry.

After grouping rows by the head vertex and columns by the tail vertex of the
middle endpoint, ``M(λ)`` is block diagonal with one block ``Mx(λ)`` per
vertex ``x`` (the paper's "local protocol at x"), so
``‖M(λ)‖ = max_x ‖Mx(λ)‖`` — the computation this module exposes.

Only a block's values depend on ``λ``, not its exponents ``j − i``, so
:class:`DelayDigraph` compiles the exponent blocks once, keeps one copy of
each distinct block, and per ``λ`` indexes the table ``[0, λ, …, λ^{s-1}]``
with them and runs one batched SVD per block shape.  The table holds Python's
``λ**k``, batched SVD makes the same LAPACK call per matrix as
``np.linalg.norm(·, 2)`` and duplicates cannot change a maximum, so the norms
are bit-identical to building and measuring each block in turn.

The same construction applies verbatim to full-duplex protocols; only the
analytic bound on the block norms changes (Section 6).  The idealised
full-duplex local matrix of Fig. 7 is provided by
:func:`full_duplex_local_matrix`.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.core.norms import euclidean_norm
from repro.exceptions import BoundComputationError
from repro.gossip.model import GossipProtocol
from repro.topologies.base import Arc, Vertex

__all__ = ["ActivationNode", "DelayDigraph", "full_duplex_local_matrix"]


@dataclass(frozen=True, order=True)
class ActivationNode:
    """A node ``(x, y, i)`` of the delay digraph: arc ``(x, y)`` active at round ``i``."""

    round: int
    tail_index: int
    head_index: int


class DelayDigraph:
    """Delay digraph of an explicit protocol, with delay-matrix utilities.

    Parameters
    ----------
    protocol:
        The explicit protocol ``⟨A₁, …, A_t⟩``.
    period:
        The systolic period ``s`` used for the delay window ``j - i < s``.
        Defaults to the protocol's minimal period.  The paper only needs the
        window to cover one period because activations repeat after ``s``
        rounds; passing a larger value only adds arcs (and cannot decrease
        the matrix norm), which is occasionally useful in experiments.
    """

    def __init__(self, protocol: GossipProtocol, period: int | None = None) -> None:
        s = protocol.minimal_period() if period is None else period
        if s < 1:
            raise BoundComputationError(f"period must be positive, got {s}")
        if period is not None and not protocol.is_systolic(period):
            raise BoundComputationError(
                f"protocol {protocol.name!r} is not {period}-systolic; "
                f"its minimal period is {protocol.minimal_period()}"
            )
        self.protocol = protocol
        self.period = s
        graph = protocol.graph
        nodes: list[ActivationNode] = []
        for round_number, round_arcs in enumerate(protocol.rounds, start=1):
            for tail, head in round_arcs:
                nodes.append(
                    ActivationNode(
                        round=round_number,
                        tail_index=graph.index(tail),
                        head_index=graph.index(head),
                    )
                )
        nodes.sort()
        self.nodes: tuple[ActivationNode, ...] = tuple(nodes)
        self._node_index = {node: i for i, node in enumerate(self.nodes)}
        # Group activations by head vertex (rows of the local blocks) and by
        # tail vertex (columns): the block of vertex x pairs the activations
        # of arcs *into* x with the activations of arcs *out of* x.
        self._incoming: dict[int, list[ActivationNode]] = {}
        self._outgoing: dict[int, list[ActivationNode]] = {}
        for node in self.nodes:
            self._incoming.setdefault(node.head_index, []).append(node)
            self._outgoing.setdefault(node.tail_index, []).append(node)

    # ------------------------------------------------------------------ #
    # structure
    # ------------------------------------------------------------------ #
    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    def node_label(self, node: ActivationNode) -> tuple[Vertex, Vertex, int]:
        """Human-readable form ``(x, y, i)`` of a node."""
        graph = self.protocol.graph
        return (graph.vertex(node.tail_index), graph.vertex(node.head_index), node.round)

    def arcs(self) -> list[tuple[ActivationNode, ActivationNode, int]]:
        """All delay arcs ``((x, y, i), (y, z, j), j - i)`` with ``1 ≤ j - i < s``."""
        result: list[tuple[ActivationNode, ActivationNode, int]] = []
        for first in self.nodes:
            successors = self._outgoing.get(first.head_index, ())
            for second in successors:
                delta = second.round - first.round
                if 1 <= delta < self.period:
                    result.append((first, second, delta))
        return result

    def num_arcs(self) -> int:
        return len(self.arcs())

    # ------------------------------------------------------------------ #
    # delay matrices
    # ------------------------------------------------------------------ #
    def delay_matrix(self, lam: float) -> np.ndarray:
        """The full ``|V'| × |V'|`` delay matrix ``M(λ)`` (dense).

        Row/column order follows :attr:`nodes`.  Intended for small instances
        and cross-checks; large protocols should use :meth:`norm`, which
        exploits the block-diagonal structure.
        """
        self._check_lambda(lam)
        size = self.num_nodes
        matrix = np.zeros((size, size), dtype=float)
        for first, second, delta in self.arcs():
            matrix[self._node_index[first], self._node_index[second]] = lam**delta
        return matrix

    def vertices_with_activity(self) -> list[Vertex]:
        """Vertices that have at least one incoming and one outgoing activation."""
        graph = self.protocol.graph
        indices = sorted(set(self._incoming) & set(self._outgoing))
        return [graph.vertex(i) for i in indices]

    def local_block(self, vertex: Vertex, lam: float) -> np.ndarray:
        """The block ``Mx(λ)`` of vertex ``x``: incoming activations × outgoing activations.

        Rows are the activations of arcs into ``x`` (sorted by round), columns
        the activations of arcs out of ``x``; the entry is ``λ^{j-i}`` when
        ``1 ≤ j - i < s`` and 0 otherwise.
        """
        self._check_lambda(lam)
        return _powers(lam, self.period)[self._exponents[self.protocol.graph.index(vertex)]]

    @cached_property
    def _exponents(self) -> dict[int, np.ndarray]:
        """Every vertex's λ-independent exponent block, compiled on first use."""
        blocks = {}
        for x in range(self.protocol.graph.n):
            rows = [node.round for node in self._incoming.get(x, ())]
            cols = [node.round for node in self._outgoing.get(x, ())]
            blocks[x] = _window_exponents(rows, cols, self.period)
        return blocks

    @cached_property
    def _exponent_stacks(self) -> list[np.ndarray]:
        """The distinct non-empty exponent blocks, one ``(k, rows, cols)`` stack per shape."""
        groups: dict[tuple[int, ...], dict[bytes, np.ndarray]] = {}
        for block in self._exponents.values():
            if block.size:
                groups.setdefault(block.shape, {}).setdefault(block.tobytes(), block)
        return [np.stack(list(blocks.values())) for blocks in groups.values()]

    def local_norm(self, vertex: Vertex, lam: float) -> float:
        """``‖Mx(λ)‖`` for one vertex."""
        return euclidean_norm(self.local_block(vertex, lam))

    def norm(self, lam: float) -> float:
        """``‖M(λ)‖ = max_x ‖Mx(λ)‖`` (norm property 8 of Section 2)."""
        self._check_lambda(lam)
        powers = _powers(lam, self.period)
        tops = [
            np.linalg.svd(powers[stack], compute_uv=False).max() for stack in self._exponent_stacks
        ]
        return float(max(tops, default=0.0))

    @staticmethod
    def _check_lambda(lam: float) -> None:
        if not 0.0 <= lam < 1.0:
            raise BoundComputationError(f"λ must lie in [0, 1), got {lam!r}")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DelayDigraph(protocol={self.protocol.name!r}, s={self.period}, "
            f"nodes={self.num_nodes})"
        )


def full_duplex_local_matrix(s: int, rounds: int, lam: float) -> np.ndarray:
    """The idealised full-duplex local matrix of Fig. 7.

    In the full-duplex mode every round activates, at each busy vertex, an
    incoming arc together with the opposite outgoing arc, so the local matrix
    indexed by rounds ``1 … rounds`` (both for rows and columns) carries
    ``λ^{j-i}`` for ``1 ≤ j - i ≤ s - 1`` and 0 elsewhere — a banded Toeplitz
    matrix whose row sums are ``λ + λ² + … + λ^{s-1}`` (Lemma 6.1).
    """
    if s < 2:
        raise BoundComputationError(f"full-duplex period must be >= 2, got {s}")
    if rounds < 1:
        raise BoundComputationError(f"number of rounds must be positive, got {rounds}")
    if not 0.0 <= lam < 1.0:
        raise BoundComputationError(f"λ must lie in [0, 1), got {lam!r}")
    return _powers(lam, s)[_window_exponents(range(rounds), range(rounds), s)]


def _window_exponents(rows: Sequence[int], cols: Sequence[int], period: int) -> np.ndarray:
    """``j − i`` for row rounds ``i`` × column rounds ``j`` in ``1 ≤ j − i < period``, else 0."""
    delta = np.asarray(cols, dtype=np.intp) - np.asarray(rows, dtype=np.intp)[:, None]
    return np.where((delta >= 1) & (delta < period), delta, 0)


def _powers(lam: float, period: int) -> np.ndarray:
    """``[0, λ, …, λ^{period-1}]`` by Python's ``**``, as a per-entry build computes them."""
    return np.array([0.0] + [lam**k for k in range(1, period)])
