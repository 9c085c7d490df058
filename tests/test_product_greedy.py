"""Differential tests: the strong-product rows and the multistart greedy
against the shift loop and the per-vertex greedy in util.py."""

import math
import random
import time

import numpy as np
import pytest

import paleyfq.solver as solver
from paleyfq.graphs import (
    GenericGraph,
    build_paley,
    graph_fingerprint,
    strong_power,
    strong_product,
    symmetrized_rows,
)
from paleyfq.indep import complement_power_graph
from paleyfq.rings import RingSpec, factor_prime_power, make_ring
from util import (
    random_directed_graph,
    random_graph,
    ref_multistart_greedy,
    ref_strong_product_rows,
)


def ring(spec):
    kind, _, value = spec.partition(":")
    if kind == "zmod":
        return make_ring(RingSpec.zmod(int(value)))
    return make_ring(RingSpec.field(*factor_prime_power(int(value))))


def paley(spec, k):
    return build_paley(ring(spec), k)


def is_symmetric(n, rows):
    if not n:
        return True
    nbytes = (n + 7) // 8
    buf = b"".join(r.to_bytes(nbytes, "little") for r in rows)
    M = np.unpackbits(np.frombuffer(buf, dtype=np.uint8).reshape(n, nbytes),
                      axis=1, bitorder="little")[:, :n]
    return bool((M == M.T).all())


def check_product(P, g, h, orders):
    """P's rows against the shift loop on the generic forms of its two
    factors, its symmetric flag against the rows, and its orders."""
    g, h = g.to_generic(), h.to_generic()
    rows = ref_strong_product_rows(g, h)
    assert list(P.rows) == rows
    assert P.symmetric == is_symmetric(P.n, rows)
    assert tuple(f.n for f in P.factors) == tuple(orders)


def random_generic(rng, n):
    p = rng.choice((0.0, 0.1, 0.3, 0.5, 0.8, 1.0))
    if rng.random() < 0.5:
        return random_directed_graph(rng, n, p)
    return random_graph(rng, n, p)


@pytest.mark.parametrize("seed", range(6))
def test_strong_product_matches_shift_loop_on_random_graphs(seed):
    rng = random.Random(seed)
    for _ in range(25):
        g = random_generic(rng, rng.randint(1, 30))
        h = random_generic(rng, rng.randint(1, 30))
        check_product(strong_product(g, h), g, h, (g.n, h.n))


@pytest.mark.parametrize("n", [1, 2, 7, 30])
def test_strong_product_matches_shift_loop_on_empty_and_complete(n):
    empty = GenericGraph(n=n, rows=(0,) * n)
    full = (1 << n) - 1
    complete = GenericGraph(n=n, rows=tuple(full ^ (1 << i) for i in range(n)))
    for g in (empty, complete):
        for h in (empty, complete, GenericGraph(n=3, rows=(0, 0, 0))):
            P = strong_product(g, h)
            check_product(P, g, h, (g.n, h.n))
    # the strong square of an edgeless graph is edgeless, of a clique a clique
    assert not any(strong_product(empty, empty).rows)
    K = strong_product(complete, complete)
    assert all(K.degree(v) == n * n - 1 for v in range(n * n))


CAYLEY = [("fq:5", 2), ("fq:7", 3), ("fq:9", 4), ("fq:8", 7), ("fq:11", 5),
          ("zmod:15", 2), ("fq:13", 3), ("fq:19", 2), ("fq:23", 2), ("zmod:12", 2)]


@pytest.mark.parametrize("spec,k", CAYLEY)
def test_cayley_squares_and_cubes_match_shift_loop(spec, k):
    G = paley(spec, k)
    square = strong_power(G, 2)
    check_product(square, G, G, (G.n,) * 2)
    assert square.symmetric == G.symmetric  # fq:19 and fq:23 are directed
    if G.n ** 3 <= 2000:
        cube = strong_power(G, 3)
        check_product(cube, square, G, (G.n,) * 3)


@pytest.mark.parametrize("spec,k", [("fq:7", 3), ("fq:9", 2), ("fq:8", 3), ("zmod:10", 2)])
def test_complement_cayley_powers_match_shift_loop(spec, k):
    C = paley(spec, k).complement_cayley()
    square = strong_power(C, 2)
    check_product(square, C, C, (C.n,) * 2)
    cube = strong_power(C, 3)
    check_product(cube, square, C, (C.n,) * 3)


def test_mixed_products_match_shift_loop():
    G = paley("fq:7", 3)
    D = random_directed_graph(random.Random(7), 6, 0.4)
    GD = strong_product(G, D)
    check_product(GD, G, D, (7, 6))
    DG = strong_product(D, G)
    check_product(DG, D, G, (6, 7))
    H = paley("fq:5", 2)
    GH = strong_product(G, H)
    square = strong_power(GH, 2)
    # a power of a product is flat: its factors are those of GH, twice
    check_product(square, GH, GH, (7, 5, 7, 5))


def test_product_fingerprints_are_pinned():
    P = strong_power(paley("fq:101", 2), 2)
    assert graph_fingerprint(P) == (
        "0b91e0b3413a644140b268657959828382d6eff04068789001461c4318477775")
    C = complement_power_graph(19, 3)
    assert tuple(f.n for f in C.factors) == (19, 19, 19)
    assert graph_fingerprint(C) == (
        "aea8c3a1d3f7783010b354f7a359b079c7d9126f98cb3168493ab25c86c3ec44")


# -- multistart greedy


def solver_closed(G):
    """Closed neighbourhoods of the symmetrized graph, as the solver seeds
    its greedy."""
    g = G.to_generic()
    return [r | (1 << i) for i, r in enumerate(symmetrized_rows(g.rows))]


def check_greedy(n, closed, deadline=math.inf):
    # the solver's greedy reads the loopless complement rows, the
    # reference the closed neighbourhoods
    full = (1 << n) - 1
    got = solver._multistart_greedy(n, [full & ~c for c in closed], deadline)
    assert got == ref_multistart_greedy(n, closed, deadline)
    return got


@pytest.mark.parametrize("seed", range(4))
def test_greedy_matches_reference_on_random_graphs(seed):
    rng = random.Random(1000 + seed)
    for _ in range(80):
        n = rng.randint(0, 60)
        g = random_generic(rng, n)
        check_greedy(n, solver_closed(g))


ALPHA_BNB = [
    ("fq:11", 5, 2), ("zmod:11", 5, 2), ("fq:11", 15, 2),
    ("fq:17", 2, 2), ("fq:17", 6, 2), ("fq:17", 10, 2),
    ("fq:5", 2, 3), ("zmod:5", 2, 3), ("zmod:15", 2, 2), ("zmod:15", 6, 2),
    ("fq:257", 2, 1), ("fq:241", 2, 1), ("fq:269", 2, 1),
    ("fq:127", 3, 1), ("fq:109", 3, 1),
    ("fq:9", 4, 3), ("fq:9", 12, 3), ("fq:8", 7, 3), ("fq:8", 14, 3),
    ("fq:19", 2, 2), ("fq:23", 2, 2),
    ("fq:7", 3, 2), ("fq:5", 2, 2), ("fq:9", 2, 2), ("fq:13", 2, 2),
]


@pytest.mark.parametrize("spec,k,power", ALPHA_BNB)
def test_greedy_matches_reference_on_alpha_bnb_graphs(spec, k, power):
    G = paley(spec, k)
    H = G if power == 1 else strong_power(G, power)
    check_greedy(H.n, solver_closed(H))


@pytest.mark.parametrize("spec,k", [("fq:61", 2), ("fq:53", 2)])
def test_greedy_matches_reference_on_clique_complements(spec, k):
    C = paley(spec, k).complement_cayley()
    check_greedy(C.n, solver_closed(C))


def one_start(n, closed, start):
    chosen, used = [], 0
    for v in list(range(start, n)) + list(range(start)):
        if not used >> v & 1:
            chosen.append(v)
            used |= closed[v]
    return chosen


def test_greedy_caps_starts_above_300_vertices():
    # on this graph start 300 and later give 72, above every capped start
    g = random_graph(random.Random(16), 420, 0.05)
    closed = solver_closed(g)
    got = check_greedy(420, closed)
    sets = [one_start(420, closed, s) for s in range(420)]
    assert max(map(len, sets[300:])) > len(got)
    assert got == max(sets[:300], key=len)  # max keeps the first of equal size


def test_greedy_with_expired_deadline_runs_only_the_first_start():
    G = strong_power(paley("fq:11", 5), 2)
    closed = solver_closed(G)
    got = check_greedy(G.n, closed, deadline=time.monotonic() - 1.0)
    assert got and got == one_start(G.n, closed, 0)
