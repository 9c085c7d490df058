"""Exactness of depth-1 orbit pruning under the stabilizer of vertex 0.

Every case is a Cayley graph or a strong product of Cayley graphs.  The
pruned search must give the same independence number as the unrooted
search and as networkx (an independent solver, run on the complement),
and the same certificate as the root-fixed search without orbits; every
generator root_stabilizer returns must fix 0 and be an automorphism.
Random connection sets make the u*S = S checks matter, mixed products
the per-factor strides, and products of equal rings with unequal
connection sets the factor-swap condition.
"""

import random

import networkx as nx
import numpy as np
import pytest

from paleyfq.graphs import (
    CayleyGraph,
    GenericGraph,
    _rows_symmetric,
    build_paley,
    root_stabilizer,
    strong_power,
    strong_product,
)
import paleyfq.solver as solver
from paleyfq.rings import RingSpec, make_ring
from paleyfq.solver import max_independent_set, verify_independent


def F(p, s=1):
    return make_ring(RingSpec.field(p, s))


def Z(m):
    return make_ring(RingSpec.zmod(m))


paley = build_paley


def comp(R, k):
    return build_paley(R, k).complement_cayley()


def random_cayley(R, seed, symmetric=True):
    """Cayley graph on a random connection set (k = 2 names the candidate
    multipliers, which generally do not keep such a set)."""
    rng = random.Random(seed)
    conn = set()
    for x in range(1, R.order):
        if rng.random() < 0.4:
            conn.add(x)
            if symmetric:
                conn.add(R.neg(x))
    return CayleyGraph(ring=R, k=2, connection=frozenset(conn))


CASES = {
    # F_p
    "F13-k2": lambda: paley(F(13), 2),
    "F37-k2": lambda: paley(F(37), 2),
    "F61-k2": lambda: paley(F(61), 2),
    "F101-k2": lambda: paley(F(101), 2),
    "F31-k3": lambda: paley(F(31), 3),
    "F43-k3": lambda: paley(F(43), 3),
    "F41-k4": lambda: paley(F(41), 4),
    "F29-k4-directed": lambda: paley(F(29), 4),
    "F7-k3-squared": lambda: strong_power(paley(F(7), 3), 2),
    # F_4, F_8, F_9 and larger prime powers, where Frobenius applies
    "F4-k3-cubed": lambda: strong_power(paley(F(2, 2), 3), 3),
    "F8-k7-squared": lambda: strong_power(paley(F(2, 3), 7), 2),
    "F9-k2-squared": lambda: strong_power(paley(F(3, 2), 2), 2),
    "F9-k4-squared": lambda: strong_power(paley(F(3, 2), 4), 2),
    "F25-k3": lambda: paley(F(5, 2), 3),
    "F49-k2": lambda: paley(F(7, 2), 2),
    "F64-k3": lambda: paley(F(2, 6), 3),
    "F81-k4": lambda: paley(F(3, 4), 4),
    # Z/m
    "Z15-k2": lambda: paley(Z(15), 2),
    "Z21-k2": lambda: paley(Z(21), 2),
    "Z21-k3": lambda: paley(Z(21), 3),
    "Z65-k2": lambda: paley(Z(65), 2),
    # directed squares
    "F19-k2-squared": lambda: strong_power(paley(F(19), 2), 2),
    "F23-k2-squared": lambda: strong_power(paley(F(23), 2), 2),
    # complement powers
    "comp-F7-k3-squared": lambda: strong_power(comp(F(7), 3), 2),
    "comp-F13-k3-squared": lambda: strong_power(comp(F(13), 3), 2),
    "comp-F9-k4-squared": lambda: strong_power(comp(F(3, 2), 4), 2),
    "comp-F4-k3-cubed": lambda: strong_power(comp(F(2, 2), 3), 3),
    # mixed products: unequal orders, equal rings with unequal connections
    "F5xF13": lambda: strong_product(paley(F(5), 2), paley(F(13), 2)),
    "F7-k3-x-comp": lambda: strong_product(paley(F(7), 3), comp(F(7), 3)),
    "Z15xF5": lambda: strong_product(paley(Z(15), 2), paley(F(5), 2)),
    "Z21xF4": lambda: strong_product(paley(Z(21), 2), paley(F(2, 2), 3)),
    # random connection sets
    "rnd-Z16": lambda: random_cayley(Z(16), 2),
    "rnd-Z12-squared": lambda: strong_power(random_cayley(Z(12), 1), 2),
    "rnd-F9-squared": lambda: strong_power(random_cayley(F(3, 2), 3), 2),
    "rnd-F8-directed-squared": lambda: strong_power(
        random_cayley(F(2, 3), 4, symmetric=False), 2),
    "rnd-F25": lambda: random_cayley(F(5, 2), 6),
    "rnd-F27-directed": lambda: random_cayley(F(3, 3), 7, symmetric=False),
}


def networkx_alpha(G) -> int:
    """Independence number as the clique number of the complement of the
    symmetrized graph, by networkx's exact max_weight_clique."""
    g = G.to_generic()
    H = nx.Graph()
    H.add_nodes_from(range(g.n))
    H.add_edges_from((i, j) for i in range(g.n) for j in range(i + 1, g.n)
                     if not (g.rows[i] >> j & 1 or g.rows[j] >> i & 1))
    return nx.max_weight_clique(H, weight=None)[1]


def adjacency(G) -> np.ndarray:
    g = G.to_generic()
    bits = np.array([[r >> j & 1 for j in range(g.n)] for r in g.rows], dtype=bool)
    return bits.reshape(g.n, g.n)


@pytest.mark.parametrize("name", sorted(CASES))
def test_orbit_pruning_matches_unpruned_and_networkx(name, monkeypatch):
    G = CASES[name]()
    stats = {}
    cert = max_independent_set(G, stats=stats)
    assert stats["root_fixed"]
    assert verify_independent(G, cert.vertices)
    g = G.to_generic()
    # a factor-free copy has no stabilizer and is searched unrooted
    assert cert.size == max_independent_set(GenericGraph(g.n, g.rows)).size
    # plain root fixing, no orbits
    monkeypatch.setattr(solver, "root_stabilizer", lambda G: [])
    assert cert == max_independent_set(G)
    assert cert.size == networkx_alpha(G)


@pytest.mark.parametrize("name", sorted(CASES))
def test_unit_propagation_keeps_certificate_and_cuts_nodes(name, monkeypatch):
    # the same search with solver._refutes never refuting: the same
    # independence number and certificate, and never fewer nodes
    G = CASES[name]()
    stats = {}
    cert = max_independent_set(G, stats=stats)
    monkeypatch.setattr(solver, "_refutes", lambda adj, classes, k, P: False)
    plain = {}
    assert max_independent_set(G, stats=plain) == cert
    assert plain["up_pruned"] == 0
    assert stats["nodes"] <= plain["nodes"]
    assert stats["orbit_pruned"] == plain["orbit_pruned"]


@pytest.mark.parametrize("name", sorted(CASES))
def test_root_stabilizer_generators_are_automorphisms_fixing_0(name):
    G = CASES[name]()
    gens = root_stabilizer(G)
    A = adjacency(G)
    # the derived symmetric flag, on the graph and its generic form
    g = G.to_generic()
    assert G.symmetric == g.symmetric == _rows_symmetric(g.n, g.rows)
    n = A.shape[0]
    for perm in gens:
        assert perm[0] == 0
        assert np.array_equal(np.sort(perm), np.arange(n))
        assert np.array_equal(A[np.ix_(perm, perm)], A)


def test_generator_sets_use_each_symmetry():
    # F_9 square: per factor a multiplier and Frobenius, plus one swap
    assert len(root_stabilizer(strong_power(paley(F(3, 2), 4), 2))) == 5
    # the swap needs equal connection sets; different orders get none
    assert len(root_stabilizer(strong_product(paley(F(7), 3), comp(F(7), 3)))) == 2
    assert len(root_stabilizer(strong_product(paley(F(5), 2), paley(F(13), 2)))) == 2
    # Z/15: unit squares {1, 4}; Z/21 unit squares {1, 4, 16} = <4>
    assert len(root_stabilizer(paley(Z(15), 2))) == 1
    assert len(root_stabilizer(paley(Z(21), 2))) == 1
    # a random connection set on F_8 is kept by neither x -> g x nor x^2
    assert root_stabilizer(random_cayley(F(2, 3), 4, symmetric=False)) == []


@pytest.mark.parametrize("name", ["F101-k2", "F43-k3", "C5-cubed",
                                  "comp-F13-k3-squared", "F5xF13", "Z65-k2"])
def test_orbit_pruning_cuts_nodes(name, monkeypatch):
    # C_5^3 stays out of CASES: its unpruned and networkx solves take 40 s
    G = strong_power(paley(F(5), 2), 3) if name == "C5-cubed" else CASES[name]()
    pruned, plain = {}, {}
    max_independent_set(G, stats=pruned)
    monkeypatch.setattr(solver, "root_stabilizer", lambda G: [])
    max_independent_set(G, stats=plain)
    assert pruned["depth1_orbits"] > 0
    assert pruned["orbit_pruned"] > 0
    assert pruned["nodes"] < plain["nodes"]
    assert plain["depth1_orbits"] == plain["orbit_pruned"] == 0


def test_generic_graph_root_fixing_without_orbits(monkeypatch):
    g = paley(F(13), 2).to_generic()
    assert root_stabilizer(g) is None
    stats = {}
    with monkeypatch.context() as m:
        m.setattr(solver, "root_stabilizer", lambda G: [])
        cert = max_independent_set(GenericGraph(n=g.n, rows=g.rows), stats=stats)
    assert cert.size == 3
    assert stats["root_fixed"] and stats["depth1_orbits"] == 0
    auto = {}
    max_independent_set(g, stats=auto)
    assert auto["root_fixed"] is False
