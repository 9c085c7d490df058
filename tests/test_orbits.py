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
    "F101-k2": "da94b8d41bd9f0452754c5ae5522c729555a472de1f9cd920f27c11e40ffd3af",
    "F13-k2": "a80948bcac087af55c54b7d17a7cef796041dc1c433b391600870af880345c54",
    "F19-k2-squared": "55791c860e4d8e384911a791e8f818be4df61904018265ccd7e03bde01eed2bc",
    "F23-k2-squared": "fc52ec0e191c264cd4b4a4c362eae010fb2af767e8759f4a7bc9f5923818fecf",
    "F25-k3": "16578e13d82db5151e4357ed3cc87a6333c8dc17ae41472ae033b6966e0d31d0",
    "F29-k4-directed": "ad20216b41373ef70a76d903b24d6a1afe46afd140cc1b6b3ab145cbe923938e",
    "F31-k3": "ef07636f023b6aab8d130222e2b52d1d92eadfb752199bf3a4ebf3ad71ae80ed",
    "F37-k2": "bd7a81a2defe9dc0d3b97dee5723738de403bf811fd83c4319303996df34baf3",
    "F4-k3-cubed": "baf632a4bd9c7aa6eb6ba12bce0aaa23d1ae0838ff0be3046655f1432c91dd9d",
    "F41-k4": "8535146a6fef4aa953248d3a827579b967aa1344c45728362a8c65f9cccb28df",
    "F43-k3": "c3b17579a2fa539528a39750643d29535c52bb157e2ab633ab80ea55abb0b613",
    "F49-k2": "679113966500ebaa615c084325b96c7df7b759c154597b0e974ca14b1c883e79",
    "F5xF13": "edacee9cd977811d1be7c507aaa6b9ef72562f770483e0104442ddb256ab8ac3",
    "F61-k2": "83fbc1b8ae4619b8d26d1116e19dbf8e11f432e3a9505da09c8eeb7479aa82c8",
    "F64-k3": "1a9746ac3ec3d17e85af24fa165941f2d93d1fcaabfe42380271278f26ff9486",
    "F7-k3-squared": "bcd94d4520596e373cca298329f2780546c5e7087ab5b28651a3d6883a2aff6a",
    "F7-k3-x-comp": "647621a34e34ca4b6396237a58de3f781c1797ec01074bb93a25c7dd51b448c9",
    "F8-k7-squared": "bfddd097b56ee6165889ad2cc0f2a28bcc38e8ca3b2d87b90bd503895744dd46",
    "F81-k4": "da4cd5e4c5a99162c42f4c8401e4772221fe96e985fde7a02685b20599c369fc",
    "F9-k2-squared": "624e1fb9749bc4f2f060c6b85d4ffc1b5a239fab66414f75553282d0f127b92c",
    "F9-k4-squared": "dd17207b4d9c89dbe714f6f4e093896db62aef5c291a848bd838c3e94e1a0abf",
    "Z15-k2": "02accad7005681bd6eb0c2f187148e8fa69eecd45b8e05f610d6a14cc609290e",
    "Z15xF5": "90c4fa6e8bd7c365d4a62b369288f1c21406f5e3fbec63e26ae9722ce3198b1c",
    "Z21-k2": "ab93b3894e6bb225084371961771e749dfff0ecd69f7f9215fdc9ac19eca7298",
    "Z21-k3": "a1641637482ec9370c6ad00a5b2bfc222fcee14547c6458307556baa8ec5c58b",
    "Z21xF4": "46dcad8ade98b1493e9c16d6a973f8c16a09d2e0f6ac59ccf2edd155ed748834",
    "Z65-k2": "d682edeac878b3d92bb5d94f5240897326cd3b530898b75d50a778296a9854f6",
    "comp-F13-k3-squared": "f94f77559c80eef284580d34f0cd80b2de3997c9d6fe9b93bd65fb8425a0cecd",
    "comp-F4-k3-cubed": "42b008195bd09edf187784e242db7218eef193ba195db6b7d67750a568a8a599",
    "comp-F7-k3-squared": "9537c9db0ab8c6e44bece63d027014e4f772c3f36c85105a4f48f38a0658dd83",
    "comp-F9-k4-squared": "591a31d39e2f19443c1eff9e1f1be62a87335e00d16d17d2adcee377baa5652c",
    "rnd-F25": "9b02b43c28b1d67398c35653a1c0fede065e1a1e483c59420f7d02dab985cfb0",
    "rnd-F27-directed": "0a85a6b5db5e5a773a427705bbdc95049f34ab9a1e0096958175a5a184ac86af",
    "rnd-F8-directed-squared": "154f1db5027dcc2684b739746e35aa131315069185c3927193491fa1e17ab6ab",
    "rnd-F9-squared": "d40ea451f9d8c689c2ad69b208dea59bb6d6f84ffb2f6af5c21771e764b77895",
    "rnd-Z12-squared": "91390116ad8c8692b251b3980881b10b2853823b7b17dc225a98d66efde53ffe",
    "rnd-Z16": "4167e317d8a234abd61337bc9bbe017b07d09fef307927cfef74623f4ea7454b",
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
