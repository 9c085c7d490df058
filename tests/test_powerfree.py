import pytest

from paleyfq.errors import (
    AllPowers,
    BadDegree,
    BadN,
    NotApplicable,
    NotMonomial,
    VerificationTooLarge,
)
from paleyfq.polys import decode_poly, poly
from paleyfq.powerfree import (
    ConstructionParams,
    DifferenceFreeSet,
    construct,
    construct_general,
    construct_power,
    greedy_difference_free,
    greedy_lower_bound,
    monomial,
    pigeonhole_upper,
    VERIFY_CAP,
    verify_no_F_difference,
)
from paleyfq.rings import RingSpec, factorize, make_ring
from paleyfq.solver import max_independent_set

from util import exhaustive_mis_size

R2 = make_ring(RingSpec.field(2))
R3 = make_ring(RingSpec.field(3))
R5 = make_ring(RingSpec.field(5))
R7 = make_ring(RingSpec.field(7))


def params(R, k, n, variant, F=None):
    return ConstructionParams(
        ring=R, k=k, n=n, F=F if F is not None else monomial(R, k), variant=variant
    )


def test_general_c7():
    A = construct_general(params(R7, 3, 6, "general"))
    assert len(A.allowed) == 3  # alpha(C_7)
    assert A.size == 3**2 * 7**4 == 21609
    assert (0,) in A.allowed  # re-rooted through 0
    assert A.contains(poly(R7, ()))


def test_general_f3_k2():
    A = construct_general(params(R3, 2, 4, "general"))
    assert len(A.allowed) == 1  # alpha of the symmetrized triangle
    assert A.size == 9


def test_general_errors():
    with pytest.raises(BadDegree):
        construct_general(params(R7, 3, 6, "general", F=monomial(R7, 2)))
    with pytest.raises(AllPowers):
        construct_general(params(R7, 5, 10, "general"))  # gcd(5,6)=1
    with pytest.raises(BadN):
        construct_general(params(R7, 3, 7, "general"))


def test_power_sizes():
    A3 = construct_power(params(R3, 2, 4, "power"))
    assert A3.size == 27 == 3 ** (4 * 3 // 4)  # q^(n(1-1/2k))
    A5 = construct_power(params(R5, 2, 4, "power"))
    assert A5.size == 125
    A7 = construct_power(params(R7, 3, 6, "power"))
    assert len(A7.allowed) == 10
    assert A7.size == 24010


def test_power_scaling_by_leading_coefficient():
    F = poly(R5, (0, 0, 3))  # 3 T^2
    A = construct_power(params(R5, 2, 4, "power", F=F))
    assert A.size == 125
    base = construct_power(params(R5, 2, 4, "power"))
    assert A.allowed == {(3 * a % 5, 3 * b % 5) for a, b in base.allowed}
    assert verify_no_F_difference(A)


def test_power_errors():
    with pytest.raises(BadN):
        construct_power(params(R3, 2, 6, "power"))
    with pytest.raises(NotMonomial):
        construct_power(params(R3, 2, 4, "power", F=poly(R3, (1, 0, 1))))


def test_pairing_partitions_indices():
    A = construct_power(params(R7, 3, 6, "power"))
    n, k = 6, 3
    pairs = [(i, n - k - i) for i in range(0, n // 2, k)]
    flat = sorted(x for p in pairs for x in p)
    assert flat == sorted(range(0, n - k + 1, k))
    assert all(i != j for i, j in pairs)


def test_membership_counts_match_size():
    for variant in ("general", "power"):
        A = construct(params(R3, 2, 4, variant))
        members = [u for u in _all_polys(R3, 4) if A.contains(u)]
        assert len(members) == A.size
        listed = list(A)
        assert len(listed) == A.size
        assert set(listed) == set(members)


def _all_polys(R, n):
    return [decode_poly(R, c) for c in range(R.order**n)]


def test_verifier_accepts_constructions():
    assert verify_no_F_difference(construct_power(params(R3, 2, 4, "power")))
    assert verify_no_F_difference(construct_general(params(R7, 3, 6, "general")))


def test_verifier_rejects_full_space():
    full = DifferenceFreeSet(
        params(R3, 2, 4, "general"), frozenset((c,) for c in range(3))
    )
    assert full.size == 81
    assert not verify_no_F_difference(full)


def test_verifier_rejects_planted_bad_pair():
    good = construct_power(params(R3, 2, 4, "power"))
    assert (0, 0) in good.allowed
    # adding (1, 0) admits members differing by the constant 1 = 1^2
    bad = DifferenceFreeSet(
        good.params, good.allowed | {(1, 0)}
    )
    assert not verify_no_F_difference(bad)


def _planted(pair):
    good = construct_power(params(R3, 2, 4, "power"))
    return lambda: DifferenceFreeSet(good.params, good.allowed | {pair})


@pytest.mark.parametrize("build, clean", [
    (lambda: construct_power(params(R3, 2, 4, "power")), True),
    (lambda: construct_general(params(R3, 2, 4, "general")), True),
    (lambda: construct_power(params(R5, 2, 4, "power", F=poly(R5, (0, 0, 3)))), True),
    (_planted((1, 0)), False),
    # (2, 2) clashes only with (1, 2) and itself, not with the first pair
    (_planted((2, 2)), False),
], ids=["3-2-4-power", "3-2-4-general", "5-2-4-power-3T2", "planted-bad",
        "planted-bad-late"])
def test_verifier_matches_pairwise_bruteforce(build, clean):
    # oracle vs oracle: all member pairs, difference tested against every
    # shift F(w) of degree < n
    from paleyfq.polys import compose, enumerate_polynomials

    A = build()
    p = A.params
    shifts = {compose(p.F, w) for w in enumerate_polynomials(p.ring, p.n)}
    shifts = {d for d in shifts if not d.is_zero() and d.degree < p.n}
    members = list(A)
    pairwise = not any(u - v in shifts for u in members for v in members)
    assert verify_no_F_difference(A) == pairwise == clean


def test_verifier_cap():
    R = make_ring(RingSpec.field(11))
    A = DifferenceFreeSet(
        params(R, 2, 8, "general"), frozenset((c,) for c in range(4))
    )
    with pytest.raises(VerificationTooLarge):
        verify_no_F_difference(A)


def test_verifier_cap_counts_the_scan_not_the_members():
    # 16 beta pairs on F_16: |A| * q^depth = 16^5 * 16^2 > 10^8, but the
    # scan is 16 patterns times 16^2 shifts
    R16 = make_ring(RingSpec.field(2, 4))
    A = construct_power(params(R16, 3, 6, "power"), budget_s=1e-9)
    assert A.source == "beta_pairs" and A.size == 16**5
    assert verify_no_F_difference(A)


def test_verifier_cap_admits_every_set_the_member_bound_admitted():
    # the earlier cap bounded |A| * q^depth by 10^8; every set it admitted
    # scans |allowed|^blocks * q^depth = |A| * q^depth / q^free <= 10^6.
    # |allowed| is at most q (general) or q^2 (power).  The ranges hold
    # every (q, k, n) with q^(free + depth) <= 10^8: that needs q <= 10^4,
    # free >= k - 1 and free >= n/2
    largest = 0
    for q in (q for q in range(2, 10**4 + 1) if len(factorize(q)) == 1):
        for k in range(2, 28):
            for width, step in ((1, k), (2, 2 * k)):
                for n in range(step, 28 * step, step):
                    blocks = n // step
                    depth, free = (n - 1) // k + 1, n - n // k
                    if q ** (free + depth) > 10**8:
                        break
                    a = 1
                    while a <= q**width and a**blocks * q ** (free + depth) <= 10**8:
                        largest = max(largest, a**blocks * q**depth)
                        a += 1
    assert largest <= VERIFY_CAP


def test_greedy_f2():
    g5 = greedy_difference_free(R2, 5, 2)
    assert len(g5) >= greedy_lower_bound(2, 5, 2) == 4
    g3 = greedy_difference_free(R2, 3, 2)
    assert len(g3) >= greedy_lower_bound(2, 3, 2) == 2


def test_greedy_output_is_difference_free():
    from paleyfq.polys import kth_root

    for n, k in ((5, 2), (4, 2), (6, 3)):
        chosen = greedy_difference_free(R2, n, k)
        for u in chosen:
            for v in chosen:
                d = u - v
                assert d.is_zero() or kth_root(d, k) is None


def test_greedy_difference_free_outside_negation_closure():
    # squares mod 3 are not negation-closed (-1 = 2 is a non-square), so
    # both difference orders must be screened; the output still has no
    # k-th power difference in either order
    from paleyfq.polys import kth_root

    chosen = greedy_difference_free(R3, 3, 2)
    assert len(chosen) >= 1
    for u in chosen:
        for v in chosen:
            d = u - v
            assert d.is_zero() or kth_root(d, 2) is None


def test_greedy_vs_exact_optimum_tiny():
    # exact maximum over P_{2,n} via the Cayley graph on nonzero squares
    for n in (3, 4):
        R = R2
        depth = (n - 1) // 2 + 1
        powers = set()
        for code in range(2**depth):
            u = decode_poly(R, code)
            w = u * u
            if 0 <= (w.degree if w.degree != float("-inf") else -1) < n:
                if not w.is_zero():
                    powers.add(sum(c << i for i, c in enumerate(w.coeffs)))
        rows = [0] * (2**n)
        for x in range(2**n):
            for s in powers:
                rows[x] |= 1 << (x ^ s)
        opt = exhaustive_mis_size(rows, 2**n)
        greedy = len(greedy_difference_free(R, n, 2))
        assert greedy <= opt
        from paleyfq.graphs import GenericGraph

        solved = max_independent_set(GenericGraph(n=2**n, rows=tuple(rows))).size
        assert solved == opt


def test_monotone_embedding():
    A = construct_power(params(R3, 2, 4, "power"))
    # members remain difference-free inside P_{q,5}: reuse verifier at n+1
    # by re-checking all shifts of degree < 5 against the fixed member list
    from paleyfq.polys import compose, enumerate_polynomials

    members = list(A)
    member_set = set(members)
    for u in enumerate_polynomials(R3, 3):
        d = compose(A.params.F, u)
        if d.is_zero() or d.degree >= 5:
            continue
        for a in members:
            assert (a + d) not in member_set or d.is_zero()


def test_pigeonhole():
    assert pigeonhole_upper(2, 5, 2) == 8
    assert pigeonhole_upper(3, 4, 3) == 27
    with pytest.raises(NotApplicable):
        pigeonhole_upper(7, 6, 3)
    assert pigeonhole_upper(2, 5, 2) >= len(greedy_difference_free(R2, 5, 2))


def test_size_closed_forms():
    # |A| = |U|^(n/2k) q^(n - n/k); monomial case collapses to q^(n(1-1/2k))
    A = construct_power(params(R5, 2, 4, "power"))
    assert A.size == 5 ** (4 * 3 // 4)  # q^(n(1-1/(2k)))
    B = construct_general(params(R7, 3, 6, "general"))
    assert B.size == len(B.allowed) ** 2 * 7**4
