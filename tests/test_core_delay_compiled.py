"""Differential tests: the compiled delay norm against a per-vertex block builder.

``DelayDigraph.norm`` compiles every vertex's exponent block ``j − i`` once
and evaluates ``λ`` by table lookup plus one batched SVD per block shape.
The oracle below is the direct construction it replaced: build each vertex's
block entry by entry with ``λ**(j − i)`` and take the largest spectral norm.
Every comparison is exact (``==``), because certificates must not move by a
single ulp.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.certificates import certify_protocol
from repro.core.delay import DelayDigraph, full_duplex_local_matrix
from repro.gossip.builders import random_systolic_schedule
from repro.gossip.model import GossipProtocol, Mode
from repro.search import edge_coloring_seed, greedy_frontier_schedule
from repro.topologies.classic import (
    complete_graph,
    cycle_graph,
    grid_2d,
    hypercube,
    path_graph,
)
from repro.topologies.debruijn import de_bruijn, de_bruijn_digraph
from repro.topologies.kautz import kautz, kautz_digraph

EDGE_LAMBDAS = (0.0, 1e-9, 0.3, 0.5, 0.6216240355089699, 0.6823278038280193, 1.0 - 1e-9)


# --------------------------------------------------------------------------- #
# oracle: the per-vertex double-loop block builder
# --------------------------------------------------------------------------- #


def _activations(delay: DelayDigraph):
    incoming: dict[int, list] = {}
    outgoing: dict[int, list] = {}
    for node in delay.nodes:
        incoming.setdefault(node.head_index, []).append(node)
        outgoing.setdefault(node.tail_index, []).append(node)
    return incoming, outgoing


def oracle_block(rows, cols, period: int, lam: float) -> np.ndarray:
    block = np.zeros((len(rows), len(cols)), dtype=float)
    for r, first in enumerate(rows):
        for c, second in enumerate(cols):
            delta = second.round - first.round
            if 1 <= delta < period:
                block[r, c] = lam**delta
    return block


def oracle_norm(delay: DelayDigraph, lam: float) -> float:
    incoming, outgoing = _activations(delay)
    best = 0.0
    for x in set(incoming) & set(outgoing):
        block = oracle_block(incoming[x], outgoing[x], delay.period, lam)
        value = float(np.linalg.norm(block, ord=2))
        if value > best:
            best = value
    return best


def assert_matches_oracle(delay: DelayDigraph, lam: float) -> None:
    assert delay.norm(lam) == oracle_norm(delay, lam)
    incoming, outgoing = _activations(delay)
    graph = delay.protocol.graph
    for x in range(graph.n):
        expected = oracle_block(incoming.get(x, []), outgoing.get(x, []), delay.period, lam)
        actual = delay.local_block(graph.vertex(x), lam)
        assert actual.shape == expected.shape
        assert np.array_equal(actual, expected)


# --------------------------------------------------------------------------- #
# property: random schedules in every mode
# --------------------------------------------------------------------------- #

GRAPHS_BY_MODE = {
    Mode.HALF_DUPLEX: (cycle_graph(7), de_bruijn(2, 3), grid_2d(2, 3)),
    Mode.FULL_DUPLEX: (cycle_graph(6), de_bruijn(2, 3), path_graph(5)),
    Mode.DIRECTED: (de_bruijn_digraph(2, 3), kautz_digraph(2, 2)),
}

lambdas = st.one_of(
    st.sampled_from(EDGE_LAMBDAS),
    st.floats(min_value=1e-9, max_value=1.0 - 1e-9, allow_nan=False),
)


@given(
    mode=st.sampled_from(list(GRAPHS_BY_MODE)),
    graph_choice=st.integers(min_value=0, max_value=2),
    period=st.integers(min_value=1, max_value=12),
    unroll=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=10**6),
    lam=lambdas,
)
@settings(max_examples=120, deadline=None)
def test_norm_equals_oracle_on_random_schedules(mode, graph_choice, period, unroll, seed, lam):
    graphs = GRAPHS_BY_MODE[mode]
    graph = graphs[graph_choice % len(graphs)]
    schedule = random_systolic_schedule(graph, period, mode, seed=seed)
    delay = DelayDigraph(schedule.unroll(unroll * period), period=period)
    assert_matches_oracle(delay, lam)


@given(
    mode=st.sampled_from(list(GRAPHS_BY_MODE)),
    period=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=10**6),
    lams=st.lists(lambdas, min_size=2, max_size=6),
)
@settings(max_examples=30, deadline=None)
def test_compiled_blocks_are_reused_across_lambdas(mode, period, seed, lams):
    schedule = random_systolic_schedule(GRAPHS_BY_MODE[mode][0], period, mode, seed=seed)
    delay = DelayDigraph(schedule.unroll(2 * period), period=period)
    for lam in lams:
        assert delay.norm(lam) == oracle_norm(delay, lam)


# --------------------------------------------------------------------------- #
# fixed zoo: constructive schedules on the paper's families
# --------------------------------------------------------------------------- #

ZOO_GRAPHS = (
    cycle_graph(9),
    path_graph(6),
    grid_2d(3, 4),
    hypercube(3),
    de_bruijn(2, 3),
    kautz(2, 2),
    complete_graph(5),
)


def _zoo():
    for graph in ZOO_GRAPHS:
        for mode in (Mode.HALF_DUPLEX, Mode.FULL_DUPLEX):
            yield pytest.param(
                edge_coloring_seed(graph, mode), id=f"{graph.name}-color-{mode.value}"
            )
            yield pytest.param(
                greedy_frontier_schedule(graph, mode), id=f"{graph.name}-greedy-{mode.value}"
            )


@pytest.mark.parametrize("schedule", list(_zoo()))
@pytest.mark.parametrize("unroll", [1, 3])
def test_norm_equals_oracle_on_zoo(schedule, unroll):
    delay = DelayDigraph(schedule.unroll(unroll * schedule.period), period=schedule.period)
    for lam in EDGE_LAMBDAS:
        assert_matches_oracle(delay, lam)


@pytest.mark.parametrize("s", [2, 3, 5, 8])
@pytest.mark.parametrize("rounds", [1, 4, 9])
@pytest.mark.parametrize("lam", EDGE_LAMBDAS)
def test_full_duplex_local_matrix_equals_loop(s, rounds, lam):
    expected = np.zeros((rounds, rounds), dtype=float)
    for i in range(rounds):
        for j in range(i + 1, min(i + s, rounds)):
            expected[i, j] = lam ** (j - i)
    assert np.array_equal(full_duplex_local_matrix(s, rounds, lam), expected)


def test_norm_without_relay_vertex_is_zero():
    # Vertex 1 only receives: no vertex has both an incoming and an outgoing
    # activation, so every block is empty and the norm is 0.
    protocol = GossipProtocol(path_graph(3), [[(0, 1)], [(2, 1)]])
    delay = DelayDigraph(protocol, period=2)
    assert delay.norm(0.5) == oracle_norm(delay, 0.5) == 0.0
    assert_matches_oracle(delay, 0.5)


# --------------------------------------------------------------------------- #
# pinned certificates: the optimize benchmark's six instances
# --------------------------------------------------------------------------- #

# (lam, norm, certified_rounds) of certify_protocol(optimize_lambda=True) on
# each instance's half-duplex edge-colouring schedule, recorded with the
# per-vertex block builder before the compiled norm replaced it.
PINNED_CERTIFICATES = {
    "C(16)": (cycle_graph, (16,), 0.6823278038280193, 1.0, 4),
    "C(64)": (cycle_graph, (64,), 0.6823278038280193, 1.0, 5),
    "Grid(8x8)": (grid_2d, (8, 8), 0.6287784741874087, 1.0, 5),
    "Q(6)": (hypercube, (6,), 0.6216240355089699, 1.0, 5),
    "DB(2,6)": (de_bruijn, (2, 6), 0.6565287912406175, 1.0, 5),
    "C(256)": (cycle_graph, (256,), 0.6823278038280193, 1.0, 7),
}


@pytest.mark.parametrize("name", list(PINNED_CERTIFICATES))
def test_optimized_certificates_are_pinned(name):
    builder, args, lam, norm, rounds = PINNED_CERTIFICATES[name]
    graph = builder(*args)
    assert graph.name == name
    certificate = certify_protocol(
        edge_coloring_seed(graph, Mode.HALF_DUPLEX), optimize_lambda=True
    )
    assert (certificate.lam, certificate.norm, certificate.certified_rounds) == (
        lam,
        norm,
        rounds,
    )
