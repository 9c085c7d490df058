"""The solver's floor set and ratio cap.

solver._floor_set is an explicit independent set on two Cayley factors
over one field, and solver._ratio_cap the product of the factors' ratio
bounds, an upper bound on alpha.  The search prunes against the floor and
stops at the cap, which must move its counters only: every certificate
of the graph suite and of the benchmark's search trees is the one the
search gives with both switched off.  On seeded random Cayley products,
directed ones included, the floor is independent and at most alpha and
the cap at least alpha, alpha from the exhaustive oracle or networkx.
A floor above alpha raises InvariantViolation, also under -O.
"""

import hashlib
import json
import math
import random

import pytest

import paleyfq.solver as solver
from paleyfq.errors import InvariantViolation, SolverTimeout
from paleyfq.graphs import CayleyGraph, build_paley, strong_power, strong_product
from paleyfq.indep import beta_pair_set
from paleyfq.rings import RingSpec, factor_prime_power, make_ring
from paleyfq.solver import max_independent_set, verify_independent
from paleyfq.theta import cayley_spectrum, lovasz_theta

from test_unit_propagation import SEARCH_TREES
from util import (
    CASES,
    F,
    Z,
    exhaustive_mis_size,
    networkx_alpha,
    random_connection_set,
    ref_symmetrize,
    run_child,
    unit_orbit,
)


def field(q):
    return make_ring(RingSpec.field(*factor_prime_power(q)))


def tree_graph(q, k, power):
    return strong_power(build_paley(field(q), k), power)


GRAPHS = {**CASES, **{f"tree-{q}-{k}-{power}": (lambda q=q, k=k, power=power:
                                                 tree_graph(q, k, power))
                      for q, k, power in SEARCH_TREES}}


def switch_off(monkeypatch):
    monkeypatch.setattr(solver, "_floor_set", lambda g: [])
    monkeypatch.setattr(solver, "_ratio_cap", lambda G: None)


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_floor_and_cap_keep_the_certificate(name, monkeypatch):
    G = GRAPHS[name]()
    stats = {}
    cert = max_independent_set(G, stats=stats)
    switch_off(monkeypatch)
    plain = {}
    assert max_independent_set(G, stats=plain) == cert
    assert (plain["floor"], plain["cap"]) == (0, None)
    assert stats["nodes"] <= plain["nodes"]
    assert stats["floor"] <= cert.size <= (stats["cap"] or G.n)


def test_paley_square_floor_is_the_beta_pair_set():
    # on Paley_k(F_q)^2 the least unit u with u*S and S disjoint is the
    # least non-k-th power
    for q, k in ((5, 2), (13, 2), (17, 2), (19, 2), (7, 3), (13, 3), (9, 4), (16, 3)):
        G = tree_graph(q, k, 2)
        floor = G.label(solver._floor_set(G.to_generic()))
        assert sorted(floor) == sorted(beta_pair_set(q, k, G).vertices)


def random_factor(rng, R):
    """A Cayley graph on R, undirected with probability 0.7: on a seeded
    random connection set, or (half the time) on the orbit of one random
    element under negation, which leaves room for a floor."""
    symmetric = rng.random() < 0.7
    if rng.random() < 0.5:
        conn = random_connection_set(R, rng, symmetric)
    else:
        conn = unit_orbit(R, rng.randrange(1, R.order), [R.neg(1)] if symmetric else [])
    return CayleyGraph(ring=R, connection=frozenset(conn))


def random_product(rng):
    """Two or three random Cayley factors (random_factor) on small rings,
    at most 64 vertices, often two on one field."""
    rings = [F(3), F(2, 2), F(5), F(7), F(2, 3), Z(6), Z(4)]
    while True:
        picks = [rng.choice(rings) for _ in range(rng.choice((2, 2, 3)))]
        if rng.random() < 0.7:
            picks[-1] = picks[0]
        if math.prod(R.order for R in picks) <= 64:
            break
    return [random_factor(rng, R) for R in picks]


def alpha(G) -> int:
    g = G.to_generic()
    if g.n <= 16:
        return exhaustive_mis_size(ref_symmetrize(g), g.n)
    return networkx_alpha(G)


def test_floor_and_cap_bracket_alpha_on_random_products():
    rng = random.Random(20261022)
    floors = caps = directed = 0
    for _ in range(40):
        factors = random_product(rng)
        G = factors[0]
        for f in factors[1:]:
            G = strong_product(G, f)
        a = alpha(G)
        floor = solver._floor_set(G.to_generic())
        cap = solver._ratio_cap(G)
        assert verify_independent(G, G.label(floor))
        assert len(floor) <= a
        assert (cap is None) == (not all(f.symmetric for f in factors))
        if cap is not None:
            assert cap >= a
        floors += bool(floor)
        caps += cap is not None
        directed += cap is None
        assert max_independent_set(G).size == a
    assert floors >= 10 and caps >= 10 and directed >= 5


@pytest.mark.parametrize("seed", range(8))
def test_cap_bounds_alpha_on_single_random_cayley_graphs(seed):
    rng = random.Random(seed)
    R = rng.choice([F(13), F(2, 4), F(3, 2), Z(15), Z(16)])
    G = CayleyGraph(ring=R, connection=random_connection_set(R, rng, True))
    assert solver._ratio_cap(G) >= alpha(G)


def test_the_cap_is_the_ratio_bound_theta_gives():
    # on an edge-transitive graph the ratio bound is theta, so the cap of
    # Paley_k(F_q)^n is floor(theta^n (1 + 1e-9))
    for q, k, power in ((17, 2, 2), (13, 2, 2), (5, 2, 3), (11, 5, 2), (9, 4, 3)):
        theta = lovasz_theta(build_paley(field(q), k)).value
        assert solver._ratio_cap(tree_graph(q, k, power)) == math.floor(
            theta**power * (1 + 1e-9))


def test_greedy_stops_at_the_cap_with_the_same_set():
    # the first start that meets cap >= alpha is the first largest set
    for G in (tree_graph(8, 7, 3), tree_graph(9, 4, 3), tree_graph(5, 2, 2)):
        g = G.to_generic()
        comp = solver.complement_rows(list(g.rows))
        cap = solver._ratio_cap(G)
        assert solver._multistart_greedy(g.n, comp, math.inf, cap) == \
            solver._multistart_greedy(g.n, comp, math.inf)
        stats = {}
        assert max_independent_set(G, stats=stats).size == cap
        assert stats["nodes"] == 0  # the greedy set meets the cap: no search


def test_a_one_nanosecond_budget_still_yields_the_floor():
    G = tree_graph(17, 2, 2)
    stats = {}
    with pytest.raises(SolverTimeout) as exc:
        max_independent_set(G, budget_s=1e-9, stats=stats)
    inc = exc.value.incumbent
    assert inc.size >= 17 == stats["floor"]
    assert verify_independent(G, inc.vertices)
    assert sorted(inc.vertices) == sorted(beta_pair_set(17, 2, G).vertices)


def test_a_floor_above_alpha_raises(monkeypatch):
    G = tree_graph(5, 2, 2)  # alpha = 5
    monkeypatch.setattr(solver, "_floor_set", lambda g: list(range(6)))
    with pytest.raises(InvariantViolation):
        max_independent_set(G)


def test_a_floor_above_alpha_raises_under_optimize_flag():
    code = """
import paleyfq.solver as solver
from paleyfq.errors import InvariantViolation
from paleyfq.graphs import build_paley, strong_power
from paleyfq.rings import RingSpec, make_ring
solver._floor_set = lambda g: list(range(18))
try:
    solver.max_independent_set(
        strong_power(build_paley(make_ring(RingSpec.field(17)), 2), 2))
except InvariantViolation:
    print("raised")
"""
    proc = run_child(code, "-O")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "raised"


def test_spectrum_extremes_are_the_sorted_ends():
    # theta reads its extremes off the kept sums: bit for bit the ends of
    # the sorted spectrum
    for q, k in ((13, 2), (64, 3), (81, 4), (125, 2), (1024, 3)):
        G = build_paley(field(q), k)
        lam = cayley_spectrum(G)
        assert cayley_spectrum(G, extremes=True) == (lam[0], lam[-1])
        report = lovasz_theta(G)
        assert (report.lambda_min, report.lambda_max) == (lam[0], lam[-1])
        assert report.value == q * (-lam[0]) / (lam[-1] - lam[0])
        assert type(report.lambda_min) is float and type(report.lambda_max) is float


def test_certificates_of_the_search_trees_are_unchanged(monkeypatch):
    # the pinned certificate digests hold with the bounds off as well
    switch_off(monkeypatch)
    for (q, k, power), (_, digest) in SEARCH_TREES.items():
        cert = max_independent_set(tree_graph(q, k, power))
        blob = json.dumps(cert.to_json(), sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest() == digest
