"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line when its assertions hold (run with
pytest -s to see them); any assertion failure marks the criterion FAILED.
Tolerances are pinned in the assertions.
"""

import contextlib
import functools
import io
import json
import math
import random
import time

from paleyfq.bounds import bounds_report, minimize_rate
from paleyfq.cli import main as cli_main
from paleyfq.graphs import build_paley, crt_factor_check, strong_power
from paleyfq.indep import (
    alpha_product,
    complement_power_graph,
    diagonal_indep_set,
)
from paleyfq.polys import decode_poly, kth_root
from paleyfq.powerfree import (
    ConstructionParams,
    construct_power,
    greedy_difference_free,
    monomial,
    pigeonhole_upper,
    verify_no_F_difference,
)
from paleyfq.rings import RingSpec, make_ring
from paleyfq.solver import max_independent_set, verify_independent
from paleyfq.theta import (
    cayley_spectrum,
    lovasz_theta,
    lovasz_theta_complement,
    ruzsa_bound_check,
    theta_zmod,
)

from util import exhaustive_mis_size, random_graph


def criterion(num: int):
    """Print one PASS/FAIL line per criterion (the test returns its detail)."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException as exc:
                print(f"criterion {num:2d}: FAIL  {type(exc).__name__}: {exc}")
                raise
            print(f"criterion {num:2d}: PASS  {detail}")

        return wrapper

    return deco


def _ring(q):
    from paleyfq.rings import factor_prime_power

    return make_ring(RingSpec.field(*factor_prime_power(q)))


def _cli(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(list(argv))
    return code, json.loads(buf.getvalue())


def _prime_powers(limit):
    from paleyfq.rings import factorize

    return [q for q in range(2, limit + 1) if len(factorize(q)) == 1]


@criterion(1)
def test_criterion_01_alpha_c7_squared_via_cli():
    t0 = time.monotonic()
    code, payload = _cli("alpha", "--ring", "fq:7", "--k", "3", "--power", "2")
    dt = time.monotonic() - t0
    assert code == 0
    assert payload["alpha"] == 10
    assert dt < 5.0
    return f"alpha(C7 x C7) = 10 via CLI in {dt:.2f}s (< 5s)"


@criterion(2)
def test_criterion_02_hales_values():
    t0 = time.monotonic()
    expected = {2: 5, 3: 10, 5: 27}
    for k, want in expected.items():
        q = 2 * k + 1
        got = alpha_product(_ring(q), k, 2, budget_s=300.0)
        assert got == want == k * k + k // 2
    dt = time.monotonic() - t0
    return f"r_k2(F_2k+1) = k^2 + floor(k/2) for k in 2,3,5 ({dt:.1f}s)"


@criterion(3)
def test_criterion_03_r22_equals_q():
    for q in (5, 9, 13):
        R = _ring(q)
        P = strong_power(build_paley(R, 2), 2)
        cert = max_independent_set(P, budget_s=300.0)
        assert cert.size == q
        assert verify_independent(P, cert.vertices)
    return "r_22(F_q) = q with verified certificates for q in 5, 9, 13"


@criterion(4)
def test_criterion_04_theta_conference_and_product_identity():
    for q in (5, 13, 17, 25):
        G = build_paley(_ring(q), 2)
        th = lovasz_theta(G).value
        assert abs(th - math.sqrt(q)) <= 1e-9 * math.sqrt(q)
        comp = lovasz_theta_complement(G).value
        assert abs(th * comp - q) <= 1e-6 * q
    G = build_paley(_ring(13), 3)
    prod = lovasz_theta(G).value * lovasz_theta_complement(G).value
    assert abs(prod - 13) <= 1e-6 * 13
    return "theta(Paley_2(F_q)) = sqrt(q) and theta * theta-bar = q"


@criterion(5)
def test_criterion_05_theta_bound_sweep_q200():
    checked = 0
    for q in _prime_powers(200):
        R = _ring(q)
        for k in range(2, 7):
            G = build_paley(R, k)
            if not G.symmetric:
                continue  # undirected iff -1 is a k-th power
            th = lovasz_theta(G).value
            assert th <= q ** (1 - 1 / k) + 1e-6
            comp = lovasz_theta_complement(G).value
            assert comp >= q ** (1 / k) - 1e-6
            checked += 1
    assert checked > 100
    return f"theta bounds hold on {checked} undirected (q, k) pairs, q <= 200"


@criterion(6)
def test_criterion_06_constructions_verified():
    t0 = time.monotonic()
    sizes = {}
    for q, k, n, want in ((3, 2, 4, 27), (5, 2, 4, 125), (7, 3, 6, 24010)):
        R = _ring(q)
        params = ConstructionParams(ring=R, k=k, n=n, F=monomial(R, k),
                                    variant="power")
        A = construct_power(params, budget_s=300.0)
        assert A.size == want
        if (q, k, n) == (7, 3, 6):
            assert len(A.allowed) == 10
        assert verify_no_F_difference(A)
        sizes[(q, k, n)] = A.size
    dt = time.monotonic() - t0
    assert dt < 60.0
    return f"constructions 27 / 125 / 24010 all verified in {dt:.1f}s (< 60s)"


@criterion(7)
def test_criterion_07_bounds_ledger():
    led = bounds_report(7, 3, 6, gamma=4 / 9, budget_s=300.0)
    assert abs(led.lower_thm_base - 5.0613) <= 1e-3
    assert abs(led.lower_improved - 5.3716) <= 1e-3
    refined = minimize_rate(7, 4 / 9).value
    assert abs(refined - 6.903) <= 1e-3
    assert abs(led.refined_rate - refined) <= 1e-12
    return "ledger bases 5.0613 / 5.3716 and refined upper 6.903 within 1e-3"


@criterion(8)
def test_criterion_08_ruzsa_composite():
    chk = ruzsa_bound_check(65, 2, budget_s=300.0)
    assert chk.applicable
    assert chk.alpha_status == "exact"
    assert chk.alpha < 65**0.5
    tz = theta_zmod(65, 2).value
    assert abs(tz - 8.0623) <= 1e-3
    return f"alpha(Paley_2(Z/65)) = {chk.alpha} < sqrt(65); theta_zmod = {tz:.4f}"


@criterion(9)
def test_criterion_09_crt_isomorphism():
    for m, n, k in ((3, 5, 2), (5, 13, 2), (5, 13, 3)):
        assert crt_factor_check(m, n, k)
    return "CRT adjacency isomorphism exact for (3,5,2), (5,13,2), (5,13,3)"


@criterion(10)
def test_criterion_10_diagonal_sets():
    for q, k in ((5, 2), (7, 3), (13, 3)):
        G = complement_power_graph(q, k)
        s = diagonal_indep_set(q, k, graph=G)
        assert s.size == q
        assert verify_independent(G, s.vertices)
    return "diagonal sets independent with size q for (5,2), (7,3), (13,3)"


@criterion(11)
def test_criterion_11_greedy_baseline():
    R2 = make_ring(RingSpec.field(2))
    greedy = greedy_difference_free(R2, 5, 2)
    assert len(greedy) >= 4
    bound = pigeonhole_upper(2, 5, 2)
    assert bound == 8
    assert len(greedy) <= bound
    # exact optimum on the 32-element space via the solver
    powers = set()
    for code in range(2**3):
        w = decode_poly(R2, code) ** 2
        if not w.is_zero() and w.degree < 5:
            powers.add(sum(c << i for i, c in enumerate(w.coeffs)))
    rows = [0] * 32
    for x in range(32):
        for s in powers:
            rows[x] |= 1 << (x ^ s)
    from paleyfq.graphs import generic_graph

    opt = max_independent_set(generic_graph(32, rows)).size
    assert len(greedy) <= opt
    return f"greedy size {len(greedy)} in [4, 8], solver optimum {opt} >= greedy"


@criterion(12)
def test_criterion_12_property_suites():
    # k-th root roundtrip, 10^4 random cases
    rng = random.Random(20240801)
    fields = [make_ring(RingSpec.field(p, s))
              for p, s in ((2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2))]
    failures = 0
    for _ in range(10_000):
        R = rng.choice(fields)
        k = rng.randint(2, 6)
        b = decode_poly(R, rng.randrange(R.order**3))
        u = b**k
        r = kth_root(u, k)
        if r is None or r**k != u:
            failures += 1
    assert failures == 0

    # solver equals exhaustive enumeration on 200 random graphs, <= 18 vertices
    rng2 = random.Random(987)
    for _ in range(200):
        n = rng2.randint(4, 18)
        G = random_graph(rng2, n, rng2.uniform(0.15, 0.85))
        assert max_independent_set(G).size == exhaustive_mis_size(list(G.rows), n)

    # spectrum moment identities on every constructed symmetric Cayley graph
    graphs = []
    for q in _prime_powers(60):
        R = _ring(q)
        for k in range(2, 7):
            G = build_paley(R, k)
            if G.symmetric:
                graphs.append(G)
    for m in (15, 21, 65, 85, 105):
        R = make_ring(RingSpec.zmod(m))
        for k in (2, 3):
            G = build_paley(R, k)
            if G.symmetric:
                graphs.append(G)
    for G in graphs:
        lam = cayley_spectrum(G)
        n, d = G.ring.order, len(G.connection)
        assert abs(sum(lam)) <= 1e-6 * max(n, 1)
        assert abs(sum(x * x for x in lam) - n * d) <= 1e-6 * max(n * d, 1)
    return (f"10^4 root roundtrips, 200 solver-vs-exhaustive graphs, "
            f"{len(graphs)} spectra moment checks")
