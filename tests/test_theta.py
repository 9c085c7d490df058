import json
import math

import pytest

from paleyfq.errors import (
    DirectedFactor,
    DirectedUnsupported,
    NotEdgeTransitive,
    NotSquarefree,
)
from paleyfq.graphs import CayleyGraph, build_paley
from paleyfq.rings import RingSpec, make_ring
from paleyfq.solver import max_independent_set
from paleyfq.theta import (
    SPECTRUM_CAP,
    cayley_spectrum,
    lovasz_theta,
    lovasz_theta_complement,
    ruzsa_bound_check,
    theta_zmod,
)

from util import run_child


def ring(p, s=1):
    return make_ring(RingSpec.field(p, s))


def zring(m):
    return make_ring(RingSpec.zmod(m))


def test_spectrum_c7():
    lam = cayley_spectrum(build_paley(ring(7), 3))
    oracle = sorted(2 * math.cos(2 * math.pi * j / 7) for j in range(7))
    assert all(abs(a - b) < 1e-9 for a, b in zip(lam, oracle))
    assert abs(lam[-1] - 2) < 1e-12


def test_spectrum_k5():
    lam = cayley_spectrum(build_paley(ring(5), 3))
    assert abs(lam[-1] - 4) < 1e-12
    assert all(abs(x + 1) < 1e-9 for x in lam[:4])


def test_spectrum_conference_f13():
    lam = cayley_spectrum(build_paley(ring(13), 2))
    r = math.sqrt(13)
    expected = sorted([6.0] + [(-1 + r) / 2] * 6 + [(-1 - r) / 2] * 6)
    assert all(abs(a - b) < 1e-9 for a, b in zip(lam, expected))


def test_spectrum_moments_all_graphs():
    cases = [(ring(5), 2), (ring(13), 2), (ring(7), 3), (ring(3, 2), 2),
             (ring(5, 2), 2), (ring(2, 4), 3), (zring(65), 2), (zring(21), 3)]
    for R, k in cases:
        G = build_paley(R, k)
        if not G.symmetric:
            continue
        lam = cayley_spectrum(G)
        n, d = R.order, len(G.connection)
        assert abs(sum(lam)) < 1e-6 * max(1, n)
        assert abs(sum(x * x for x in lam) - n * d) < 1e-6 * n * d


def test_spectrum_rejects_directed():
    with pytest.raises(DirectedUnsupported):
        cayley_spectrum(build_paley(ring(7), 6))


def test_theta_conference_is_sqrt_q():
    for p, s in ((5, 1), (13, 1), (17, 1), (5, 2)):
        G = build_paley(ring(p, s), 2)
        q = p**s
        assert abs(lovasz_theta(G).value - math.sqrt(q)) < 1e-9 * math.sqrt(q)


def test_theta_c7_odd_cycle_closed_form():
    got = lovasz_theta(build_paley(ring(7), 3)).value
    oracle = 7 * math.cos(math.pi / 7) / (1 + math.cos(math.pi / 7))
    assert abs(got - oracle) < 1e-9


def test_theta_complete_graph():
    assert abs(lovasz_theta(build_paley(ring(7), 5)).value - 1) < 1e-12


def test_theta_rejects_directed_and_composite():
    with pytest.raises(DirectedUnsupported):
        lovasz_theta(build_paley(ring(7), 6))
    with pytest.raises(NotEdgeTransitive):
        lovasz_theta(build_paley(zring(65), 2))


def test_theta_rejects_complement_connection():
    # the ratio bound is not tight on complements; route through the
    # closed form instead of silently returning the loose value
    with pytest.raises(NotEdgeTransitive):
        lovasz_theta(build_paley(ring(13), 3).complement_cayley())
    # an undirected connection set that is not the power set, with k = 2:
    # its ratio value 2.8206 is not theta = 13 / theta(C_13) = 2.0299
    with pytest.raises(NotEdgeTransitive):
        lovasz_theta(CayleyGraph(ring(13), 2, frozenset(range(2, 12))))


def test_theta_product_identity_self_complementary():
    # k = 2: the complement is isomorphic to the graph, so the ratio bound
    # on the complement connection is itself an exact oracle
    from paleyfq.theta import _ratio_theta

    for q in (5, 13, 17):
        G = build_paley(ring(q), 2)
        ratio_comp = _ratio_theta(G.complement_cayley()).value
        assert abs(lovasz_theta(G).value * ratio_comp - q) < 1e-6 * q


def test_theta_complement_closed_form():
    G = build_paley(ring(13), 3)
    a = lovasz_theta(G).value
    b = lovasz_theta_complement(G).value
    assert abs(a * b - 13) < 1e-6 * 13
    # ratio bound on the complement spectrum is strictly looser here
    from paleyfq.theta import _ratio_theta

    loose = _ratio_theta(G.complement_cayley()).value
    assert loose > b + 0.1


def test_theta_upper_bound_when_minus_one_power():
    for q, k in ((13, 2), (13, 3), (17, 2), (25, 2), (7, 3)):
        p, s = (5, 2) if q == 25 else (q, 1)
        G = build_paley(ring(p, s), k)
        assert G.symmetric
        assert lovasz_theta(G).value <= q ** (1 - 1 / k) + 1e-6


def test_theta_zmod_65():
    rep = theta_zmod(65, 2)
    assert abs(rep.value - math.sqrt(65)) < 1e-9
    assert rep.method == "product"
    assert len(rep.factors) == 2
    assert abs(rep.factors[0].value - math.sqrt(5)) < 1e-9
    assert abs(rep.factors[1].value - math.sqrt(13)) < 1e-9


def test_theta_zmod_prime_same_as_field():
    a = theta_zmod(13, 2)
    assert a.method == "ratio"
    assert abs(a.value - math.sqrt(13)) < 1e-9


def test_theta_zmod_15_k3():
    # p=3 factor is complete (gcd(3,2)=1, theta 1); p=5 is complete too
    rep = theta_zmod(15, 3)
    expected = lovasz_theta(build_paley(zring(5), 3)).value
    assert abs(rep.value - 1.0 * expected) < 1e-9


def test_theta_zmod_rejects():
    with pytest.raises(NotSquarefree):
        theta_zmod(12, 2)
    with pytest.raises(DirectedFactor):
        theta_zmod(21, 2)  # 3 != 1 mod 4: Paley_2(Z/3) is directed


def test_ruzsa_65():
    chk = ruzsa_bound_check(65, 2)
    assert chk.applicable
    assert abs(chk.bound - 65**0.5) < 1e-12
    assert chk.alpha_status == "exact"
    assert chk.alpha < chk.bound
    assert chk.alpha == 7


def test_ruzsa_odd_k():
    chk = ruzsa_bound_check(21, 3)
    assert chk.applicable
    assert abs(chk.bound - 21 ** (2 / 3)) < 1e-12
    assert chk.alpha == 3


def test_ruzsa_not_squarefree():
    assert not ruzsa_bound_check(12, 2).applicable


def test_ruzsa_prime_condition():
    # k = 2 means s = 1 and the primes must be 1 mod 4; 21 = 3 * 7 fails
    assert not ruzsa_bound_check(21, 2).applicable


def test_alpha_le_theta_zmod():
    for m, k in ((65, 2), (85, 2), (21, 3)):
        G = build_paley(zring(m), k)
        a = max_independent_set(G).size
        assert a <= theta_zmod(m, k).value + 1e-6


def test_spectrum_invariant_survives_optimize_flag():
    # {1} in F_7 is not closed under negation; the graph is made to claim
    # otherwise.
    # With the independence check forced to fail, the explicit diagonal
    # tuples must be refused; with r_{k,2} forced far above the method
    # limit, the rate ledger must be refused.
    code = """
import paleyfq.bounds
import paleyfq.indep
from paleyfq.errors import InvariantViolation
from paleyfq.graphs import CayleyGraph
from paleyfq.rings import RingSpec, make_ring
from paleyfq.theta import cayley_spectrum
G = CayleyGraph(ring=make_ring(RingSpec.field(7)), k=6,
                connection=frozenset({1}))
object.__setattr__(G, "symmetric", True)
paleyfq.indep.verify_independent = lambda graph, vertices: False
paleyfq.bounds.alpha_product = lambda *args, **kwargs: 10**6
for check in (lambda: cayley_spectrum(G),
              lambda: paleyfq.indep.diagonal_indep_set(7, 3),
              lambda: paleyfq.bounds.bounds_report(7, 3, 6)):
    try:
        check()
        print(__debug__, "returned")
    except InvariantViolation:
        print(__debug__, "raised")
"""
    proc = run_child(code, "-O")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "raised"] * 3


def test_theta_at_spectrum_cap_fits_in_2gb():
    # theta at the largest admitted order, with address space capped so a
    # dense n x |S| temporary fails fast instead of swapping
    code = f"""
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from paleyfq.cli import main
ring = "fq:{SPECTRUM_CAP}"
codes = [main(["theta", "--ring", ring, "--k", "3"]),
         main(["theta", "--ring", ring, "--k", "3", "--complement"])]
sys.exit(max(codes))
"""
    proc = run_child(code)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    plain, comp = (json.loads(line)["theta"] for line in proc.stdout.splitlines())
    q = SPECTRUM_CAP
    assert abs(plain["value"] * comp["value"] - q) < 1e-9 * q
    # the complement is (q-1-d)-regular, d = (q-1)/3, and theta never
    # exceeds the ratio bound of its spectrum
    assert comp["lambda_max"] == q - 1 - (q - 1) // 3
    lo, hi = comp["lambda_min"], comp["lambda_max"]
    assert comp["value"] <= q * -lo / (hi - lo) * (1 + 1e-9)
