"""Exactness of depth-1 orbit pruning under the stabilizer of vertex 0.

Every case is a Cayley graph or a strong product of Cayley graphs.  The
pruned search must give the same independence number as the unrooted
search and as networkx (an independent solver, run on the complement),
and the same certificate as the root-fixed search without orbits; every
generator root_stabilizer returns must fix 0 and be an automorphism.
Random connection sets make the u*S = S checks matter, mixed products
the per-factor strides, and products of equal rings with unequal
connection sets the factor-swap condition.

The same graphs check the slab bound on strong products: the search
with it gives the certificate of the search without it, and on seeded
random vertex sets the bound is never below the brute-force
independence number.

Each solve of the suite is also pinned, by a SHA-256 over the stabilizer
generators, the solver counters, the certificate and the symmetric flag.
"""

import hashlib
import json
import random

import numpy as np
import pytest

from paleyfq.graphs import (
    CayleyGraph,
    GenericGraph,
    build_paley,
    root_stabilizer,
    strong_power,
    strong_product,
    symmetrized_rows,
)
import paleyfq.graphs as graph_layer
import paleyfq.solver as solver
from paleyfq.rings import RingSpec, make_ring
from paleyfq.solver import max_independent_set, verify_independent

from util import (
    CASES,
    F,
    Z,
    comp,
    exhaustive_mis_size,
    networkx_alpha,
    random_cayley,
    random_connection_set,
    random_directed_graph,
    random_graph,
    ref_multipliers,
    ref_symmetrize,
    unit_orbit,
)


paley = build_paley


# sha256 of pin(G, stats, cert) for the first solve of each case
PINS = {
    "F101-k2": "eff664c76dc4a4dea1037c8a6fbef1b05a360751c4f81e66c3de65a46cc7f613",
    "F13-k2": "ea9e9191d8f1f8c6204cb565124f536aaec2766ba73340649b578a38a53dc8f4",
    "F19-k2-squared": "a609019d4fddbf0fcc093cbfe625896ee1dfdcb634855a7d316490ec4a0750c3",
    "F23-k2-squared": "d2793d117d86c732433da1daf09954df6a232922e68fc602448933315fd53c32",
    "F25-k3": "b260dfcf416652be512e9bd93ac5c935348765277a936d0f83d327929bb55b45",
    "F29-k4-directed": "a55e2f7232074cc0cf584f51b953f01725e3963a151dbdbc20249de1c52f76f5",
    "F31-k3": "15704fa10b83a7ba201ce436b7d6b9e117509914f620032de9de92f8904c51e1",
    "F37-k2": "831bf7c275d8c267b83d3f72e803d1ab532ad60c858f8b8482018582fe23abc1",
    "F4-k3-cubed": "2aa5c23745f66562a3c5d851c28a7a8cbd6b3fb10e5aca712f2d0c0ba60b6945",
    "F41-k4": "6a2607d21dc646edd8cd9e437ace5c0891d4577dcfe9e574684131582b5a0415",
    "F43-k3": "0c8d003137ffae9ca824e0457b4c675df6a08b859b806a0c326f1dd269b68cbc",
    "F49-k2": "1c8ca7ecca3b6516f88ec4d5ca0cd2efadeed99e586a0cb4411653f754794d1b",
    "F5xF13": "16eeb4d0c0b08d1f99b2e370b9d05287059f9c86b5027b8c033cbf168a06fe86",
    "F61-k2": "d99080e4b1d944447f4b4c06020c07e1b42111aa7c3df53bd1f15932e625b744",
    "F64-k3": "68055f08ff3fd9f9eada76bcae1621430b3614081d7f5cd61e8f41b51339f687",
    "F7-k3-squared": "78ac290880577d25f8922d357ee4b3e8dc2bdd40363e83c2b5830ebc5c902566",
    "F7-k3-x-comp": "dbcb11630edc0ecd8fe60653fdfb2af6e9b5529a837ae6c001fea0972df35e71",
    "F8-k7-squared": "b19588e906b8e6d6da44676f3bad21a5a5d95f36835a164062e69c0bb64ceb22",
    "F81-k4": "edbb541591820af702d85dceb9689beac619b01ee4bc66f2284c4110dc73c332",
    "F9-k2-squared": "278169781fb1eed05e4054e2c373b7c9c3afd7339cf37561e2b6508e1c44d096",
    "F9-k4-squared": "cf2a8ae1400e402e573e5109442373fd6a63740e69d52177cda6bea8cc048598",
    "Z15-k2": "d2bebd344988c8e738e47c5cb40514e1410968687ce665cb0ce24ec37d298957",
    "Z15xF5": "e61d39a3065b7046350edf9112861f669f889b2bb560ff4c24436f55e2d9d06a",
    "Z21-k2": "4a17aa975a90a935a032dbad1421a854bf5f2469fc872e42f671a195953a105e",
    "Z21-k3": "1a86c7f5f04c855b28105b4b1df06ef925b0d746d99ba00fea136b907ef10cdc",
    "Z21xF4": "481fc80aec62e8ff7992bfc19b569e10d5719933702e1325a372cf8f1cbba464",
    "Z65-k2": "12eccaddbe7a3cf4c011e4b268641aea4aae0a442ea115343f3a36f553b19545",
    "comp-F13-k3-squared": "63e4327dbad300c84d04dbee8a3486014b2d099967f837dfb1eb2fdaa56c47f5",
    "comp-F4-k3-cubed": "b8655cda1e14b8db8f9a8bec078477cac516960c733979ec355986e5fcfafef9",
    "comp-F7-k3-squared": "7dc81e0254cbeeb653f3e0e17c1c13d8802decff70be9d425a30d5a9e601b60b",
    "comp-F9-k4-squared": "8c8969539b946ff4a8c5fe5ff13eedf0e7094876adb487a324b5904115cfb70e",
    "rnd-F25": "ff2502d112806a5d52095250eab5d99bd15dda1d51773919d4d5f74d09e9e728",
    "rnd-F27-directed": "c71c46bd0f0a3cc2d02ffbc23c1e9620ccce19243a04aaa3492a88b8f3976047",
    "rnd-F8-directed-squared": "d605149efd9c72e8ac36d8444df038cc8e90d65dfc87943faaee838e9868f392",
    "rnd-F9-squared": "25893b446f50548fb9d1668dea82ffd81cd258942712dbce05a7c5bb8e679cda",
    "rnd-Z12-squared": "47081db53edfe941737b25588656b09d3a060a7d74289c3d29a8b4f753661168",
    "rnd-Z16": "9bb5450f43c12f3a7eb7471518a807614b7d90ddd9bbfdf5b509ce3c835eff59",
}


def pin(G, stats: dict, cert) -> str:
    blob = json.dumps([[perm.tolist() for perm in root_stabilizer(G)], stats,
                       cert.to_json(), G.symmetric], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def no_slab(g, sym, deadline):
    return None


def adjacency(G) -> np.ndarray:
    g = G.to_generic()
    bits = np.array([[r >> j & 1 for j in range(g.n)] for r in g.rows], dtype=bool)
    return bits.reshape(g.n, g.n)


@pytest.mark.parametrize("name", sorted(CASES))
def test_orbit_pruning_matches_unpruned_and_networkx(name, monkeypatch):
    G = CASES[name]()
    stats = {}
    cert = max_independent_set(G, stats=stats)
    assert pin(G, stats, cert) == PINS[name]
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
def test_slab_bound_keeps_certificate_and_cuts_nodes(name, monkeypatch):
    # the same search with solver._slab_for giving no bound: the same
    # certificate, and never fewer nodes
    G = CASES[name]()
    stats = {}
    cert = max_independent_set(G, stats=stats)
    monkeypatch.setattr(solver, "_slab_for", no_slab)
    plain = {}
    assert max_independent_set(G, stats=plain) == cert
    assert plain["slab_pruned"] == 0
    assert stats["nodes"] <= plain["nodes"]
    assert stats["orbit_pruned"] == plain["orbit_pruned"]


def test_slab_bound_on_directed_squares():
    # both factors directed, so the family must come from mutual cliques
    G = strong_power(paley(F(7), 2), 2)
    assert not G.symmetric
    cert = max_independent_set(G)
    assert verify_independent(G, cert.vertices)
    assert cert.size == networkx_alpha(G) == 7
    # networkx takes about 20 s on Z/15^2, so the oracle here is the
    # unrooted search of a factor-free copy: no root, orbits or slab
    G = strong_power(paley(Z(15), 2), 2)
    assert not G.symmetric
    stats = {}
    cert = max_independent_set(G, stats=stats)
    assert stats["slab_pruned"] > 0
    assert verify_independent(G, cert.vertices)
    g = G.to_generic()
    assert cert.size == max_independent_set(GenericGraph(g.n, g.rows)).size == 15


@pytest.mark.parametrize("block", [8, graph_layer._TRANSPOSE_BLOCK])
def test_symmetrize_matches_the_edge_loop(block, monkeypatch):
    # the block transpose against the per-edge loop on every directed
    # graph of the suite (F_19^2 and F_23^2 among them) and on Z/15^2, in
    # one block of columns and in blocks of one byte of columns
    monkeypatch.setattr(graph_layer, "_TRANSPOSE_BLOCK", block)
    graphs = [CASES[name]() for name in sorted(CASES)]
    graphs.append(strong_power(paley(Z(15), 2), 2))
    directed = [G.to_generic() for G in graphs if not G.symmetric]
    assert len(directed) == 9
    for g in directed:
        assert symmetrized_rows(g.rows) == ref_symmetrize(g)


@pytest.mark.parametrize("block", [8, graph_layer._TRANSPOSE_BLOCK])
def test_derived_symmetric_flag_on_random_graphs(block, monkeypatch):
    # GenericGraph works symmetric out from the block transpose when it is
    # not given; the per-edge loop is the oracle, on orders around a byte
    monkeypatch.setattr(graph_layer, "_TRANSPOSE_BLOCK", block)
    rng = random.Random(20261019)
    directed = []
    for n in (0, 1, 7, 8, 9, 17):
        for make in (random_graph, random_directed_graph):
            for p in (0.2, 0.5):
                g = make(rng, n, p)
                assert g.symmetric == (ref_symmetrize(g) == list(g.rows))
                assert symmetrized_rows(g.rows) == ref_symmetrize(g)
                if make is random_graph:
                    assert g.symmetric
                else:
                    directed.append(g.symmetric)
    assert directed.count(False) >= 8


def test_slab_bound_is_off_over_the_cap(monkeypatch):
    # |H| = 21 is over solver.SLAB_CAP, so no table is built
    G = strong_power(paley(Z(21), 2), 2)
    made = []
    real = solver._slab_for

    def spy(*args):
        made.append(real(*args))
        return made[-1]

    monkeypatch.setattr(solver, "_slab_for", spy)
    stats = {}
    cert = max_independent_set(G, stats=stats)
    assert made == [None]
    assert stats["slab_pruned"] == 0
    assert verify_independent(G, cert.vertices)
    assert cert.size == 21


@pytest.mark.parametrize("name", ["C5-squared", "Z15-k2-squared", "F7-k2-squared",
                                  "F4-k3-cubed"])
def test_slab_bound_is_an_upper_bound(name):
    # B(P) >= alpha(P) on seeded random vertex sets P, some spread over
    # the graph and some inside a few fibres {a} x H, where the bound can
    # be tight
    G = {
        "C5-squared": lambda: strong_power(paley(F(5), 2), 2),
        "Z15-k2-squared": lambda: strong_power(paley(Z(15), 2), 2),
        "F7-k2-squared": lambda: strong_power(paley(F(7), 2), 2),
        "F4-k3-cubed": CASES["F4-k3-cubed"],
    }[name]()
    g = G.to_generic()
    sym = symmetrized_rows(g.rows)
    slab = solver._slab_for(g, sym, float("inf"))
    h = g.factors[-1].n
    rng = random.Random(20261019)
    tight = 0
    for trial in range(100):
        if trial % 2:
            pool = range(g.n)
        else:
            fibres = rng.sample(range(g.n // h), rng.randint(1, 3))
            pool = [a * h + x for a in fibres for x in range(h)]
        verts = rng.sample(pool, rng.randint(1, min(14, len(pool))))
        rows = [sum(1 << j for j, w in enumerate(verts) if sym[u] >> w & 1) for u in verts]
        alpha = exhaustive_mis_size(rows, len(verts))
        P = sum(1 << v for v in verts)
        assert slab.reaches(P, alpha)
        tight += not slab.reaches(P, alpha + 1)
    assert tight > 0


@pytest.mark.parametrize("name", sorted(CASES))
def test_root_stabilizer_generators_are_automorphisms_fixing_0(name):
    G = CASES[name]()
    gens = root_stabilizer(G)
    A = adjacency(G)
    # the derived symmetric flag, on the graph and its generic form
    g = G.to_generic()
    assert G.symmetric == g.symmetric == (ref_symmetrize(g) == list(g.rows))
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


def multipliers(G) -> list[int]:
    """The units u of the multipliers x -> u*x among the generators
    root_stabilizer gives the Cayley graph G; each other generator must be
    Frobenius x -> x^p, and every one must keep the connection set."""
    R = G.ring
    units = []
    for perm in root_stabilizer(G):
        assert set(perm[sorted(G.connection)].tolist()) == G.connection
        u = int(perm[1])
        if u == 1:
            assert R.spec.s > 1
            assert perm.tolist() == [R.pow_elem(x, R.spec.p) for x in range(R.order)]
        else:
            assert perm.tolist() == [R.mul(u, x) for x in range(R.order)]
            units.append(u)
    return units


@pytest.mark.parametrize("spec", [RingSpec.field(p, s) for p, s in (
    (7, 1), (2, 3), (3, 2), (13, 1), (5, 2), (3, 3), (7, 2))] + [
        RingSpec.zmod(m) for m in range(2, 65)],
    ids=lambda spec: f"F{spec.order}" if spec.kind == "fq" else f"Z{spec.m}")
def test_derived_multipliers_generate_the_stabilizer_of_S(spec):
    # the group the derived multipliers generate is {unit u : u*S = S},
    # on seeded random S (symmetric and not, half of them unions of the
    # orbits of a random unit) and on every Paley graph and its complement
    R = make_ring(spec)
    rng = random.Random(20261019 + R.order)
    sets = {random_connection_set(R, rng, symmetric=trial % 2 == 0) for trial in range(12)}
    for k in range(2, R.order + 1):
        G = paley(R, k)
        sets |= {G.connection, G.complement_cayley().connection}
    for S in sets:
        G = CayleyGraph(ring=R, connection=S)
        assert unit_orbit(R, 1, multipliers(G)) == ref_multipliers(R, S)


@pytest.mark.parametrize("name", ["F101-k2", "F43-k3", "C5-cubed",
                                  "comp-F13-k3-squared", "F5xF13", "Z65-k2"])
def test_orbit_pruning_cuts_nodes(name, monkeypatch):
    # C_5^3 stays out of CASES: its unpruned and networkx solves take 40 s.
    # The slab bound is off: on F_5 x F_13 it prunes every depth-1 branch
    monkeypatch.setattr(solver, "_slab_for", no_slab)
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
