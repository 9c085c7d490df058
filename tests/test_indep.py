import math

import pytest

import paleyfq.indep
from paleyfq.errors import AllPowers
from paleyfq.graphs import build_paley, strong_power
from paleyfq.indep import (
    alpha_product,
    beta_pair_set,
    capacity_bounds,
    clique_number,
    cohen_bound,
    complement_power_graph,
    diagonal_indep_set,
)
from paleyfq.rings import RingSpec, generator, make_ring, non_kth_power
from paleyfq.solver import max_independent_set, verify_independent
from paleyfq.theta import lovasz_theta

from util import exhaustive_mis_size


def ring(p, s=1):
    return make_ring(RingSpec.field(p, s))


def test_alpha_product_c7():
    assert alpha_product(ring(7), 3, 2) == 10


def test_alpha_product_refuses_over_cap_power_before_building(monkeypatch):
    import paleyfq.indep as indep
    from paleyfq.errors import OrderTooLarge

    def refuse(*args):
        raise AssertionError("strong_power called on an over-cap order")

    monkeypatch.setattr(indep, "strong_power", refuse)
    with pytest.raises(OrderTooLarge):
        alpha_product(ring(197), 2, 2)


def test_alpha_product_r22():
    assert alpha_product(ring(5), 2, 2) == 5
    assert alpha_product(ring(3, 2), 2, 2) == 9


def test_alpha_product_n1():
    assert alpha_product(ring(13), 2, 1) == 3


def test_diagonal_indep_set():
    for q, k in ((5, 2), (7, 3)):
        G = complement_power_graph(q, k)
        s = diagonal_indep_set(q, k, graph=G)
        assert s.size == q
        assert verify_independent(G, s.vertices)


def test_diagonal_values_f7():
    s = diagonal_indep_set(7, 3)
    beta = generator(ring(7))
    assert beta == 3
    assert set(s.vertices) == {(x, 3 * x % 7, 2 * x % 7) for x in range(7)}


def test_beta_pair_set_f5():
    s = beta_pair_set(5, 2)
    assert set(s.vertices) == {(0, 0), (1, 2), (2, 4), (3, 1), (4, 3)}


def test_beta_pair_set_f7_f9():
    s7 = beta_pair_set(7, 3)
    assert s7.size == 7
    assert non_kth_power(ring(7), 3) == 2
    s9 = beta_pair_set(9, 2)
    assert s9.size == 9
    with pytest.raises(AllPowers):
        beta_pair_set(7, 5)  # gcd(5,6)=1


def test_clique_numbers():
    assert clique_number(build_paley(ring(7), 3)) == 2
    assert clique_number(build_paley(ring(5), 3)) == 5  # complete
    G13 = build_paley(ring(13), 2)
    assert clique_number(G13) == 3 == max_independent_set(G13).size


def test_clique_le_alpha_for_k_above_2():
    for q, k in ((7, 3), (13, 3), (13, 4), (11, 5)):
        G = build_paley(ring(q), k)
        if not G.symmetric or math.gcd(k, q - 1) == 1:
            continue
        assert clique_number(G) <= max_independent_set(G).size


def test_odd_cycle_alpha_meets_sparse_bound():
    # Paley_k(F_{2k+1}) is the (2k+1)-cycle with alpha = k; the advertised
    # rate q^(1-log2/log q) equals q/2 = k + 1/2 exactly, so alpha attains
    # it only up to the half-integer gap
    for k in (2, 3, 5, 6, 8):
        q = 2 * k + 1
        from paleyfq.rings import is_prime

        if not is_prime(q):
            continue
        G = build_paley(ring(q), k)
        assert sorted(G.connection) == [1, q - 1]
        a = max_independent_set(G).size
        assert a == k
        rate = q ** (1 - math.log(2) / math.log(q))
        assert abs(rate - (k + 0.5)) < 1e-9
        assert a >= rate - 0.5 - 1e-9


def test_superadditivity():
    G5 = build_paley(ring(5), 2)
    a1 = max_independent_set(G5).size
    a2 = max_independent_set(strong_power(G5, 2)).size
    a3 = max_independent_set(strong_power(G5, 3)).size
    assert a2 >= a1 * a1
    assert a3 >= a2 * a1
    G7 = build_paley(ring(7), 3)
    b1 = max_independent_set(G7).size
    b2 = max_independent_set(strong_power(G7, 2)).size
    assert b2 >= b1 * b1


def test_product_alpha_at_least_product_of_alphas(monkeypatch):
    from paleyfq.graphs import strong_product

    for (q1, k1), (q2, k2) in (((5, 2), (7, 3)), ((7, 3), (13, 2))):
        G, H = build_paley(ring(q1), k1), build_paley(ring(q2), k2)
        ag = max_independent_set(G).size
        ah = max_independent_set(H).size
        # plain root fixing, no orbits
        with monkeypatch.context() as m:
            m.setattr("paleyfq.solver.root_stabilizer", lambda G: [])
            ap = max_independent_set(strong_product(G, H)).size
        assert ap >= ag * ah


def test_exhaustive_probe_on_cycle_power():
    P = strong_power(build_paley(ring(5), 2), 2)
    assert max_independent_set(P).size == exhaustive_mis_size(list(P.rows), 25)


def test_cohen_bound():
    assert cohen_bound(7, 3) == 1.0  # raw value negative, clamped
    val = cohen_bound(121, 2)
    assert val >= 1.0
    # monotone in q along prime fields with fixed d = 2
    vals = [cohen_bound(q, 2) for q in (101, 149, 197)]
    assert vals == sorted(vals)
    # unclamped at large q (formula only, far above the solver cap)
    assert cohen_bound(1000003, 2) > 1.0


def test_capacity_bounds_pentagon():
    cb = capacity_bounds(ring(5), 2, 2)
    assert abs(cb.lower - math.sqrt(5)) < 1e-12
    assert abs(cb.upper - math.sqrt(5)) < 1e-12
    assert cb.n_used == 2


def test_capacity_bounds_c7():
    cb = capacity_bounds(ring(7), 3, 2)
    assert abs(cb.lower - math.sqrt(10)) < 1e-12
    assert abs(cb.upper - lovasz_theta(build_paley(ring(7), 3)).value) < 1e-12
    assert cb.lower <= cb.upper


def test_capacity_bounds_complement_uses_diagonal_seed(monkeypatch):
    monkeypatch.setattr(paleyfq.indep, "SOLVER_VERTEX_CAP", 40)
    cb = capacity_bounds(ring(7), 3, 3, use_complement=True)
    assert cb.lower >= 7 ** (1 / 3) - 1e-9
    assert cb.lower <= cb.upper + 1e-9


def test_alpha_le_theta_on_solved_instances():
    for q, k in ((5, 2), (13, 2), (7, 3), (13, 3), (17, 2)):
        G = build_paley(ring(q), k)
        assert max_independent_set(G).size <= lovasz_theta(G).value + 1e-6
