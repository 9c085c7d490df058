import math
import random
import time

import pytest

from paleyfq.errors import SolverTimeout, VertexOutOfRange
from paleyfq.graphs import GenericGraph, build_paley, strong_power
from paleyfq.rings import RingSpec, make_ring
from paleyfq.solver import max_independent_set, verify_independent

from util import exhaustive_mis_size, random_graph, random_directed_graph


def ring(q, s=1):
    return make_ring(RingSpec.field(q, s))


def test_c7():
    G = build_paley(ring(7), 3)
    cert = max_independent_set(G)
    assert cert.size == 3
    assert verify_independent(G, cert.vertices)


def test_paley2_f13():
    G = build_paley(ring(13), 2)
    brute = exhaustive_mis_size(list(G.to_generic().rows), 13)
    cert = max_independent_set(G)
    assert cert.size == brute == 3


def test_paley2_known_independence_numbers():
    from paleyfq.rings import factor_prime_power

    # q = 17 is small enough to cross-check exhaustively; 25 and 29 are
    # pinned to their well-known values
    for q, want in ((17, 3), (25, 5), (29, 4)):
        G = build_paley(ring(*factor_prime_power(q)), 2)
        got = max_independent_set(G).size
        assert got == want
        if q <= 18:
            assert exhaustive_mis_size(list(G.to_generic().rows), q) == want


def test_complete_graph():
    G = build_paley(ring(7), 5)
    assert max_independent_set(G).size == 1


def test_solver_vs_exhaustive_small_random():
    rng = random.Random(2024)
    for _ in range(60):
        n = rng.randint(1, 16)
        G = random_graph(rng, n, rng.uniform(0.1, 0.9))
        assert max_independent_set(G).size == exhaustive_mis_size(list(G.rows), n)


def test_solver_directed_symmetrizes():
    rng = random.Random(99)
    for _ in range(40):
        n = rng.randint(2, 12)
        G = random_directed_graph(rng, n, rng.uniform(0.1, 0.6))
        sym = list(G.rows)
        for i in range(n):
            r = G.rows[i]
            while r:
                j = (r & -r).bit_length() - 1
                sym[j] |= 1 << i
                r &= r - 1
        assert max_independent_set(G).size == exhaustive_mis_size(sym, n)


def test_certificate_deterministic():
    G = strong_power(build_paley(ring(7), 3), 2)
    a = max_independent_set(G)
    b = max_independent_set(G)
    assert a == b
    assert a.graph_fingerprint == b.graph_fingerprint


def test_vertex_transitive_flag_agrees():
    G = strong_power(build_paley(ring(7), 3), 2)
    fast = max_independent_set(G)  # auto-detected vertex-transitive
    g = G.to_generic()
    slow = max_independent_set(GenericGraph(g.n, g.rows))  # no factors: unrooted
    assert fast.size == slow.size == 10


def test_timeout_carries_incumbent():
    G = strong_power(build_paley(ring(11), 5), 2)
    with pytest.raises(SolverTimeout) as exc:
        max_independent_set(G, budget_s=1e-9)
    inc = exc.value.incumbent
    assert inc.size >= 1
    assert verify_independent(G, inc.vertices)


def test_timeout_before_search_carries_greedy_set_and_zero_nodes():
    # the deadline starts on entry: 1e-9 s expires before the search, and
    # the incumbent is the first greedy start
    G = strong_power(build_paley(ring(7), 3), 2)
    with pytest.raises(SolverTimeout) as exc:
        max_independent_set(G, budget_s=1e-9)
    assert exc.value.nodes == 0
    assert exc.value.incumbent.size >= 1
    assert verify_independent(G, exc.value.incumbent.vertices)


def test_timeout_during_search_counts_nodes():
    # a node of the search on C_7^5 (16,807 vertices) costs milliseconds,
    # and the deadline is read on entry to every node, so a 1 s budget
    # stops within one node of it, well inside 5 s of wall time
    G = strong_power(build_paley(ring(7), 3), 5)
    stats = {}
    start = time.monotonic()
    with pytest.raises(SolverTimeout) as exc:
        max_independent_set(G, budget_s=1.0, stats=stats)
    assert time.monotonic() - start < 5.0
    assert exc.value.nodes > 0
    assert stats["nodes"] == exc.value.nodes
    assert verify_independent(G, exc.value.incumbent.vertices)


@pytest.mark.parametrize("budget", [0, -1.0, math.nan, math.inf])
def test_budget_must_be_positive_and_finite(budget):
    with pytest.raises(ValueError):
        max_independent_set(build_paley(ring(7), 3), budget_s=budget)


def test_alpha_c11_squared_node_guard():
    # deterministic perf guard: the root-fixed search without orbit
    # pruning expands 243218 nodes here
    stats = {}
    cert = max_independent_set(strong_power(build_paley(ring(11), 5), 2), stats=stats)
    assert cert.size == 27
    assert stats["root_fixed"]
    assert stats["nodes"] <= 140_000
    assert stats["orbit_pruned"] > 0


def test_alpha_c11_squared_unit_propagation_node_guard():
    # deterministic perf guard: without unit propagation this search
    # expands 134539 nodes
    stats = {}
    cert = max_independent_set(strong_power(build_paley(ring(11), 5), 2), stats=stats)
    assert cert.size == 27
    assert stats["nodes"] <= 60_000
    assert stats["up_pruned"] > 0


def test_alpha_c11_squared_failed_literal_node_guard():
    # deterministic perf guard: with unit propagation alone this search
    # expands 50978 nodes
    stats = {}
    cert = max_independent_set(strong_power(build_paley(ring(11), 5), 2), stats=stats)
    assert cert.size == 27
    assert stats["nodes"] <= 5_000
    assert stats["up_pruned"] > 0


def test_alpha_c11_squared_slab_node_guard():
    # deterministic perf guard: without the slab bound this search
    # expands 4016 nodes
    stats = {}
    cert = max_independent_set(strong_power(build_paley(ring(11), 5), 2), stats=stats)
    assert cert.size == 27
    assert stats["nodes"] <= 1_000
    assert stats["slab_pruned"] > 0


def test_verify_independent():
    G = build_paley(ring(7), 3)
    assert verify_independent(G, [0, 2, 4])
    assert not verify_independent(G, [0, 1])
    with pytest.raises(VertexOutOfRange):
        verify_independent(G, [0, 9])


def test_empty_and_singleton():
    g0 = GenericGraph(n=1, rows=(0,))
    assert max_independent_set(g0).size == 1
