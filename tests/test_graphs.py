import json
import math

import pytest

from paleyfq.errors import (
    DirectedUnsupported,
    NotCoprime,
    ProductTooLarge,
    VertexOutOfRange,
)
from paleyfq.graphs import (
    CayleyGraph,
    GenericGraph,
    build_paley,
    complement,
    crt_factor_check,
    export_dimacs,
    graph_fingerprint,
    import_dimacs,
    root_stabilizer,
    strong_power,
    strong_product,
)
from paleyfq.rings import RingSpec, make_ring
from paleyfq.solver import max_independent_set, verify_independent


def ring(q, s=1):
    return make_ring(RingSpec.field(q, s))


def zring(m):
    return make_ring(RingSpec.zmod(m))


def test_paley_c7():
    G = build_paley(ring(7), 3)
    assert G.n == 7
    assert G.connection == {1, 6}
    assert G.symmetric
    g = G.to_generic()
    assert all(g.degree(v) == 2 for v in range(7))
    assert g.has_edge(0, 1) and g.has_edge(0, 6) and not g.has_edge(0, 2)


def test_paley_complete_when_gcd_one():
    G = build_paley(ring(7), 5)
    assert len(G.connection) == 6
    g = G.to_generic()
    assert all(g.degree(v) == 6 for v in range(7))


def test_paley_directed_f7_k6():
    G = build_paley(ring(7), 6)
    assert G.connection == {1}
    assert not G.symmetric
    # built directly, the graph works out its directedness the same way,
    # and its certificate is independent in the symmetrized 7-cycle
    D = CayleyGraph(ring=ring(7), k=6, connection=frozenset({1}))
    assert not D.symmetric and not D.to_generic().symmetric
    cert = max_independent_set(D)
    assert cert.size == 3
    assert verify_independent(D, cert.vertices)


def test_paley_symmetry_criterion_against_negation_closure():
    for q, s in ((5, 1), (7, 1), (9, 2), (11, 1), (13, 1), (17, 1), (25, 2)):
        R = ring(q if s == 1 else {9: 3, 25: 5}[q], s)
        for k in range(2, 7):
            G = build_paley(R, k)
            assert G.symmetric == all(R.neg(x) in G.connection for x in G.connection)
            criterion = ((R.order - 1) // math.gcd(R.order - 1, k)) % 2 == 0
            assert G.symmetric == criterion


def test_paley_char2_always_symmetric():
    for s in (1, 2, 3):
        R = ring(2, s)
        for k in (2, 3, 5):
            assert build_paley(R, k).symmetric


def test_paley_degree_and_translation_automorphism():
    R = ring(13)
    G = build_paley(R, 3)
    g = G.to_generic()
    d = (13 - 1) // math.gcd(3, 12)
    assert all(g.degree(v) == d for v in range(13))
    for c in (1, 5, 9):
        for x in range(13):
            for y in range(13):
                assert g.has_edge(x, y) == g.has_edge((x + c) % 13, (y + c) % 13)


def test_complement_of_complete_is_edgeless():
    g = complement(build_paley(ring(7), 5))
    assert all(r == 0 for r in g.rows)


def test_complement_involution():
    G = build_paley(ring(7), 3).to_generic()
    assert complement(complement(G)).rows == G.rows


def test_paley2_f13_self_complementary_via_scaling():
    # x -> 2x maps the complement onto the graph (2 is a non-residue)
    G = build_paley(ring(13), 2).to_generic()
    H = complement(G)
    for x in range(13):
        for y in range(13):
            assert H.has_edge(x, y) == G.has_edge(2 * x % 13, 2 * y % 13)


def test_strong_product_of_cliques():
    K5 = build_paley(ring(5), 3)
    P = strong_product(K5, K5)
    assert P.n == 25
    assert all(P.degree(v) == 24 for v in range(25))


def test_strong_product_c7_degrees():
    C7 = build_paley(ring(7), 3)
    P = strong_power(C7, 2)
    assert P.n == 49
    assert all(P.degree(v) == 8 for v in range(49))


def test_strong_product_identity_with_k1():
    C7 = build_paley(ring(7), 3).to_generic()
    K1 = GenericGraph(n=1, rows=(0,))
    P = strong_product(C7, K1)
    assert P.n == 7
    assert [r for r in P.rows] == list(C7.rows)


def test_strong_product_tuple_indexing():
    C7 = build_paley(ring(7), 3)
    P = strong_power(C7, 2)
    for i in (0, 13, 48):
        assert P.index(P.label([i])[0]) == i
    assert P.label([13]) == ((1, 6),)
    # row-major over unequal orders: (a, b, c) sits at (a*5 + b)*3 + c
    M = strong_product(strong_product(C7, build_paley(ring(5), 2)),
                       build_paley(zring(3), 2))
    labels = M.label(range(M.n))
    assert labels == tuple((a, b, c) for a in range(7) for b in range(5) for c in range(3))
    assert all(type(c) is int for t in labels for c in t)
    assert [M.index(t) for t in labels] == list(range(M.n))
    assert [M.index(list(t)) for t in labels] == list(range(M.n))
    # a 3-factor power round-trips, and its certificate is plain JSON
    cube = strong_power(build_paley(ring(5), 2), 3)
    assert [cube.index(t) for t in cube.label(range(cube.n))] == list(range(125))
    cert = max_independent_set(cube)
    assert all(type(c) is int for t in cert.vertices for c in t)
    assert json.loads(json.dumps(cert.to_json()))["vertices"] == [list(t) for t in cert.vertices]
    assert verify_independent(cube, cert.vertices)
    # the first power keeps 1-tuple labels; a non-product keeps ints
    P1 = strong_power(C7, 1)
    assert P1.label([0, 6]) == ((0,), (6,)) and P1.index((6,)) == 6
    g = C7.to_generic()
    assert g.label([0, 6]) == (0, 6) and g.index(6) == 6
    with pytest.raises(VertexOutOfRange):
        g.index((1,))
    for bad in ((1,), (1, 2, 3), (7, 0), (0, -1)):
        with pytest.raises(ValueError):
            P.index(bad)
    for bad in (49, -1):
        with pytest.raises(VertexOutOfRange):
            P.index(bad)


def test_product_index_refuses_huge_and_negative_coordinates():
    # coordinates beyond int64 are out of range like any other, not a
    # numpy TypeError
    P = strong_power(build_paley(ring(7), 3), 2)
    for bad in ((10**30, 1), (1, 10**30), (-(10**30), 0), (-1, 0), (0, -7),
                [10**19, 0], (7, 7)):
        with pytest.raises(ValueError):
            P.index(bad)
    with pytest.raises(TypeError):
        P.index((1.0, 2))
    assert P.index((6, 6)) == 48 and P.index([1, 6]) == 13


def test_strong_product_directed_rule():
    # directed 3-cycle: 0->1->2->0 wait, edges x->y iff x-y=1: 1->0, 2->1, 0->2
    D = build_paley(zring(3), 2)
    assert not D.symmetric
    P = strong_product(D, D)
    # ordered rule: (a,b)->(c,d) iff each coordinate steps or stays
    assert P.has_edge(P.index((1, 1)), P.index((0, 0)))
    assert P.has_edge(P.index((1, 0)), P.index((0, 0)))
    assert not P.has_edge(P.index((0, 0)), P.index((1, 1)))


def test_product_cap():
    G = build_paley(zring(401), 2)
    with pytest.raises(ProductTooLarge):
        strong_product(G, G)  # 401^2 > 10^5, rejected before any rows build


def test_strong_power_checks_the_final_order_first(monkeypatch):
    import paleyfq.graphs as graphs

    def refuse(*args):
        raise AssertionError("strong_product called on an over-cap power")

    monkeypatch.setattr(graphs, "strong_product", refuse)
    G = build_paley(zring(47), 2)  # 47^2 fits the cap, 47^3 does not
    with pytest.raises(ProductTooLarge):
        strong_power(G, 3)


def test_crt_factor_check_true_cases():
    assert crt_factor_check(3, 5, 2)
    assert crt_factor_check(5, 13, 2)
    assert crt_factor_check(5, 13, 3)


def test_crt_factor_check_small_grid():
    for (m, n) in ((3, 5), (3, 7), (5, 7), (4, 9)):
        for k in range(2, 7):
            assert crt_factor_check(m, n, k)


def test_crt_factor_check_rejects_non_coprime():
    with pytest.raises(NotCoprime):
        crt_factor_check(6, 9, 2)
    with pytest.raises(NotCoprime):
        crt_factor_check(1, 5, 2)


def test_dimacs_roundtrip(tmp_path):
    C7 = build_paley(ring(7), 3)
    path = tmp_path / "c7.col"
    export_dimacs(C7, str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "p edge 7 7"
    assert len(lines) == 8
    back = import_dimacs(str(path))
    assert back.rows == C7.to_generic().rows

    K5 = build_paley(ring(5), 3)
    p5 = tmp_path / "k5.col"
    export_dimacs(K5, str(p5))
    assert len(p5.read_text().strip().splitlines()) == 11

    empty = GenericGraph(n=3, rows=(0, 0, 0))
    pe = tmp_path / "empty.col"
    export_dimacs(empty, str(pe))
    assert pe.read_text().strip().splitlines() == ["p edge 3 0"]

    # an undirected GenericGraph built from rows alone is exportable
    C5 = GenericGraph(n=5, rows=tuple(1 << (i + 1) % 5 | 1 << (i - 1) % 5
                                      for i in range(5)))
    assert C5.symmetric
    p5 = tmp_path / "c5.col"
    export_dimacs(C5, str(p5))
    assert p5.read_text().splitlines() == [
        "p edge 5 5", "e 1 2", "e 1 5", "e 2 3", "e 3 4", "e 4 5"]


@pytest.mark.parametrize("text,line,what", [
    ("p edge 3 1\ne 1 5\n", 2, "outside 1..3"),
    ("c a comment\np edge 3 1\ne 0 2\n", 3, "outside 1..3"),
    ("p edge 3 1\ne -1 2\n", 2, "outside 1..3"),
    ("c a comment\ne 1 2\np edge 3 1\n", 2, "before the p line"),
])
def test_dimacs_import_names_the_malformed_line(tmp_path, text, line, what):
    path = tmp_path / "bad.col"
    path.write_text(text)
    with pytest.raises(ValueError, match=f":{line}: .*{what}"):
        import_dimacs(str(path))


def test_dimacs_rejects_directed(tmp_path):
    D = build_paley(zring(3), 2)
    with pytest.raises(DirectedUnsupported):
        export_dimacs(D, str(tmp_path / "d.col"))


def test_fingerprint_distinguishes_graphs():
    a = graph_fingerprint(build_paley(ring(7), 3))
    b = graph_fingerprint(build_paley(ring(7), 2))
    assert a != b
    assert a == graph_fingerprint(build_paley(ring(7), 3))


def test_strong_power_of_a_power_is_flat():
    G = build_paley(ring(5), 2)
    nested = strong_power(strong_power(G, 2), 2)
    flat = strong_power(G, 4)
    assert nested.factors == flat.factors == (G,) * 4
    assert [f.n for f in nested.factors] == [f.n for f in flat.factors] == [5] * 4
    assert nested.rows == flat.rows
    assert root_stabilizer(nested) is not None
