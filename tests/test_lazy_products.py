"""Strong products derive their rows on demand.

A product made by strong_product or strong_power holds its factors' rows
and builds its own only when something reads `rows`.  Its fingerprint
before that is streamed from the same row generator, and
verify_independent tests it by coordinates on the factors.  These tests
check both against the rows: the library's own, once read, and the
reference shift loop of util.ref_strong_product_rows (util.ref_rows).
"""

import copy
import pickle
import random
import tracemalloc

import pytest

import paleyfq.graphs as graph_layer
from paleyfq.errors import OrderTooLarge, VertexOutOfRange
from paleyfq.graphs import (
    GenericGraph,
    build_paley,
    complement,
    graph_fingerprint,
    strong_power,
    strong_product,
)
from paleyfq.indep import beta_pair_set, complement_power_graph, diagonal_indep_set
from paleyfq.rings import field_spec, make_ring, non_kth_power
from paleyfq.solver import max_independent_set, verify_independent

from util import CASES, F, Z, ref_fingerprint, ref_rows

# every product of the suite, and squares of a directed factor, a Z/m
# factor and an F_{p^s} factor
PRODUCTS = {name: make for name, make in CASES.items() if isinstance(make(), GenericGraph)}
PRODUCTS.update({
    "F29-k4-directed-squared": lambda: strong_power(build_paley(F(29), 4), 2),
    "Z21-k3-squared": lambda: strong_power(build_paley(Z(21), 3), 2),
    "F25-k3-squared": lambda: strong_power(build_paley(F(5, 2), 3), 2),
})


def ref_edge_among(rows, idx) -> bool:
    return any(a != b and rows[a] >> b & 1 for a in idx for b in idx)


@pytest.fixture
def made(monkeypatch):
    """Counts the rows the product row-block generator hands out: one
    entry per row of each block, so len(made) is the number of rows made."""
    count = []
    real = graph_layer._product_blocks

    def counted(parts):
        for block in real(parts):
            count.extend([1] * len(block))
            yield block

    monkeypatch.setattr(graph_layer, "_product_blocks", counted)
    return count


def test_the_suite_has_the_expected_products():
    assert len(CASES) == 37
    assert len(PRODUCTS) == 21


@pytest.mark.parametrize("name", sorted(PRODUCTS))
def test_streamed_fingerprint_equals_the_fingerprint_of_the_rows(name, made):
    P = PRODUCTS[name]()
    streamed = graph_fingerprint(P)
    assert len(made) == P.n  # one pass, nothing kept
    assert graph_fingerprint(P) == streamed
    assert len(made) == 2 * P.n
    rows = P.rows
    assert len(made) == 3 * P.n
    assert list(rows) == ref_rows(P)
    assert [P.degree(i) for i in range(P.n)] == [r.bit_count() for r in rows]
    assert graph_fingerprint(P) == streamed == ref_fingerprint(P.n, rows)
    assert len(made) == 3 * P.n  # held rows are hashed, not made again


@pytest.mark.parametrize("name", sorted(PRODUCTS))
def test_coordinate_check_equals_the_row_check(name, made):
    P = PRODUCTS[name]()
    rows = ref_rows(P)
    rng = random.Random(name)
    lists = [[], [rng.randrange(P.n)]]
    for _ in range(40):
        lists.append([rng.randrange(P.n) for _ in range(rng.randrange(2, 6))])
    for _ in range(20):  # a greedy independent set, with repeats, then one more vertex
        order = rng.sample(range(P.n), P.n)
        indep = []
        for v in order:
            if not any(rows[v] >> u & 1 or rows[u] >> v & 1 for u in indep):
                indep.append(v)
        indep += rng.choices(indep, k=3)
        rng.shuffle(indep)
        lists += [indep, indep + [rng.randrange(P.n)]]
    verdicts = []
    for idx in lists:
        labels = P.label(idx)
        want = not ref_edge_among(rows, idx)
        assert verify_independent(P, labels) == want, idx
        assert verify_independent(P, idx) == want, idx  # plain indices
        verdicts.append(want)
    assert True in verdicts and False in verdicts
    assert made == []  # no row of the product was built


@pytest.mark.parametrize("name", sorted(PRODUCTS))
def test_coordinate_check_refuses_bad_labels_as_the_row_check(name):
    P = PRODUCTS[name]()
    by_rows = GenericGraph(P.n, P.rows, factors=P.factors)  # rows given: row check
    orders = [f.n for f in P.factors]
    arity = len(orders)
    bad = [
        (0,) * (arity + 1), (0,) * (arity - 1), [0] * (arity + 1),
        (orders[0],) + (0,) * (arity - 1), (0,) * (arity - 1) + (-1,),
        (10**30,) + (0,) * (arity - 1), (1.5,) + (0,) * (arity - 1),
        ("1",) + (0,) * (arity - 1), P.n, -1,
    ]
    for label in bad:
        raised = []
        for G in (P, by_rows):
            with pytest.raises((ValueError, TypeError, VertexOutOfRange)) as info:
                verify_independent(G, [(0,) * arity, label])
            raised.append((info.type, str(info.value)))
        assert raised[0] == raised[1], label


def test_equality_hash_and_repr_do_not_depend_on_reading_rows():
    G = build_paley(F(7), 3)
    read, unread = strong_power(G, 2), strong_power(G, 2)
    before = repr(read), hash(read)
    read.rows
    assert (repr(read), hash(read)) == before == (repr(unread), hash(unread))
    assert read == unread and len({read, unread}) == 1
    assert read != strong_power(build_paley(F(7), 2), 2)
    plain = GenericGraph(read.n, read.rows)
    assert plain != read and plain == GenericGraph(read.n, tuple(read.rows))
    for P in (unread, plain):
        assert copy.copy(P) == P
        assert graph_fingerprint(pickle.loads(pickle.dumps(P))) == graph_fingerprint(P)
    with pytest.raises(AttributeError):
        unread.n = 1


def test_row_readers_build_a_product_once(made):
    P = strong_power(build_paley(F(5), 2), 3)
    assert P.degree(0) == 26
    assert made == []  # the degree comes from the factors
    complement(P)
    assert len(made) == 125
    graph_fingerprint(P)
    max_independent_set(P)
    assert len(made) == 125


def test_max_independent_set_makes_each_row_once(made):
    for P in (strong_power(build_paley(F(7), 3), 2),
              strong_product(build_paley(F(5), 2), build_paley(Z(9), 2))):
        made.clear()
        cert = max_independent_set(P)
        assert len(made) == P.n
        assert cert.graph_fingerprint == ref_fingerprint(P.n, ref_rows(P))


def _peak(fn, *args):
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("fn,q,k", [(beta_pair_set, 101, 2), (diagonal_indep_set, 19, 3)])
def test_explicit_sets_are_certified_without_the_product_rows(fn, q, k):
    # the rows of Paley_2(F_101)^2 are 10,201 ints of 1,388 bytes (14 MB)
    make_ring(field_spec(q))  # ring tables are not what this measures
    cert, peak = _peak(fn, q, k)
    assert peak < 3 << 20, peak
    if fn is beta_pair_set:
        P = strong_power(build_paley(make_ring(field_spec(q)), k), 2)
    else:
        P = complement_power_graph(q, k)
    by_rows = GenericGraph(P.n, P.rows, P.symmetric, factors=P.factors)
    assert cert.to_json() == fn(q, k, graph=by_rows).to_json()
    assert cert.size == q


def test_beta_pairs_over_the_cap_are_refused_before_any_row(made):
    R = make_ring(field_spec(197))
    assert non_kth_power(R, 2)  # the pairs exist; only the order is refused
    with pytest.raises(OrderTooLarge):
        beta_pair_set(197, 2)
    assert made == []
