import random

import pytest

from paleyfq.errors import ContextMismatch, EnumerationTooLarge
from paleyfq.polys import (
    PolyFq,
    compose,
    decode_poly,
    encode_poly,
    enumerate_polynomials,
    kth_root,
    parse_poly,
    poly,
)
from paleyfq.rings import RingSpec, factor_prime_power, factorize, make_ring
from util import ref_compose, ref_kth_root, ref_poly_mul, ref_poly_pow

R2 = make_ring(RingSpec.field(2))
R3 = make_ring(RingSpec.field(3))
R7 = make_ring(RingSpec.field(7))
R4 = make_ring(RingSpec.field(2, 2))


def test_add_sub():
    u = poly(R3, (1, 1))  # T + 1
    assert (u - u).is_zero()
    assert (u - u).degree == float("-inf")
    assert (u + u).coeffs == (2, 2)


def test_mul_f3():
    u = poly(R3, (1, 1))
    assert (u * u).coeffs == (1, 2, 1)  # T^2 + 2T + 1


def test_square_char2_is_frobenius():
    u = poly(R2, (1, 1))
    assert (u * u).coeffs == (1, 0, 1)  # T^2 + 1


def test_degree_laws():
    rng = random.Random(1)
    for _ in range(200):
        a = decode_poly(R7, rng.randrange(7**4))
        b = decode_poly(R7, rng.randrange(7**4))
        if a.is_zero() or b.is_zero():
            assert (a * b).is_zero()
        else:
            assert (a * b).degree == a.degree + b.degree
            assert (a + b).degree <= max(a.degree, b.degree)


def test_context_mismatch():
    with pytest.raises(ContextMismatch):
        poly(R3, (1,)) + poly(R7, (1,))


def test_compose():
    F = poly(R7, (0, 0, 0, 1))  # T^3
    b = poly(R7, (1, 1))
    assert compose(F, b) == b**3
    assert compose(F, b).coeffs == (1, 3, 3, 1)
    const = poly(R7, (4,))
    assert compose(const, b) == const
    assert compose(F, poly(R7, (2,))).coeffs == (1,)  # 2^3 = 1 mod 7
    # zero, constant and seeded random F and u, every pair of them, against
    # Horner's rule on the schoolbook product
    for q in (2, 7, 13, 4, 8, 9, 25):
        R = make_ring(RingSpec.field(*factor_prime_power(q)))
        rng = random.Random(2000 + q)

        def rand_polys(max_len):
            return [poly(R, ()), poly(R, (rng.randrange(1, q),))] + [
                poly(R, [rng.randrange(q) for _ in range(rng.randrange(2, max_len))])
                for _ in range(20)]

        for F in rand_polys(9):
            for u in rand_polys(6):
                assert compose(F, u) == ref_compose(F, u), (q, F, u)


def test_kth_root_roundtrip_examples():
    assert kth_root(poly(R3, (1, 2, 1)), 2) == poly(R3, (1, 1))
    assert kth_root(poly(R2, (1, 0, 1)), 2) == poly(R2, (1, 1))
    assert kth_root(poly(R2, (1, 1, 1)), 2) is None


def test_kth_root_none_matches_bruteforce():
    # every candidate root of suitable degree, tested exhaustively
    for k in (2, 3):
        for code in range(3**3):
            u = decode_poly(R3, code)
            got = kth_root(u, k)
            brute = None
            for bc in range(3**2):
                b = decode_poly(R3, bc)
                if b**k == u:
                    brute = b
                    break
            assert (got is None) == (brute is None)
            if got is not None:
                assert got**k == u


def test_kth_root_char_divides_k():
    # over F_4 with k = 2 every polynomial with only even exponents is a square
    for code in range(4**2):
        w = decode_poly(R4, code)
        u = PolyFq(R4, sum(([c, 0] for c in w.coeffs), []))  # spread to even slots
        r = kth_root(u, 2)
        assert r is not None and r**2 == u


def test_kth_root_canonical_choice_least_leading_index():
    # squares mod 7: both b and -b are roots; returned leading coeff is least
    u = poly(R7, (0, 0, 1))  # T^2
    r = kth_root(u, 2)
    assert r is not None and r**2 == u
    assert r.coeffs[-1] == min(r.coeffs[-1], R7.neg(r.coeffs[-1]))


def test_kth_root_random_roundtrip_small():
    rng = random.Random(42)
    for _ in range(500):
        R = rng.choice((R2, R3, R7, R4))
        k = rng.randint(2, 6)
        b = decode_poly(R, rng.randrange(R.order**3))
        u = b**k
        r = kth_root(u, k)
        assert r is not None
        assert r**k == u


def test_enumerate_order_and_count():
    assert [u.coeffs for u in enumerate_polynomials(R2, 2)] == [
        (), (1,), (0, 1), (1, 1)
    ]
    assert [u.coeffs for u in enumerate_polynomials(R3, 1)] == [(), (1,), (2,)]
    assert [u.coeffs for u in enumerate_polynomials(R3, 0)] == [()]  # the zero polynomial
    assert sum(1 for _ in enumerate_polynomials(R3, 4)) == 81


def test_enumerate_cap():
    with pytest.raises(EnumerationTooLarge):
        list(enumerate_polynomials(R7, 20))


def test_encode_decode_roundtrip():
    for code in range(7**3):
        assert encode_poly(decode_poly(R7, code)) == code


def test_text_encoding():
    u = parse_poly(R7, "1,0,3")
    assert u.coeffs == (1, 0, 3)
    assert parse_poly(R7, "0,0").is_zero()
    with pytest.raises(ValueError):
        parse_poly(R7, "9")


def test_pow_edge_cases():
    one, zero = poly(R7, (1,)), poly(R7, ())
    u = poly(R7, (1, 0, 3))
    assert u**0 == one and zero**0 == one
    assert u**1 == u and zero**1 == zero
    assert zero**5 == zero
    with pytest.raises(ValueError):
        u**-1


ROOT_FIELDS = [q for q in range(2, 50) if len(factorize(q)) == 1]


@pytest.mark.parametrize("q", ROOT_FIELDS)
def test_kth_root_matches_top_down_reference(q):
    # true powers, random polynomials, and powers with a low-degree
    # perturbation (these pass the degree and lead tests, then fail the check)
    R = make_ring(RingSpec.field(*factor_prime_power(q)))
    rng = random.Random(q)

    def rand_poly(deg):
        return poly(R, [rng.randrange(q) for _ in range(deg)] + [rng.randrange(1, q)])

    for k in range(2, 10):
        inputs = []
        for _ in range(25):
            w = rand_poly(rng.randrange(5)) ** k
            inputs += [w, rand_poly(rng.randrange(3 * k)),
                       w + rand_poly(rng.randrange(max(w.degree, 1)))]
        for u in inputs:
            assert kth_root(u, k) == ref_kth_root(u, k), (q, k, u)


@pytest.mark.parametrize("q", ROOT_FIELDS)
def test_mul_and_pow_match_schoolbook_reference(q):
    R = make_ring(RingSpec.field(*factor_prime_power(q)))
    rng = random.Random(1000 + q)
    us = [poly(R, ())] + [decode_poly(R, rng.randrange(q ** rng.randrange(1, 7)))
                          for _ in range(20)]
    for a, b in zip(us, us[1:] + us[:1]):
        assert a * b == ref_poly_mul(a, b), (q, a, b)
    for a in us:
        for e in range(10):
            assert a**e == ref_poly_pow(a, e), (q, a, e)


@pytest.mark.parametrize("q", [7, 9])
def test_kth_root_of_a_constant_with_a_huge_k(q):
    # a constant is answered by its least field root, in O(log k) work;
    # the reference tries every nonzero y
    R = make_ring(RingSpec.field(*factor_prime_power(q)))
    p = R.spec.p
    big = 10**9 + 7
    for k in (big, 2 * big, p * big):
        for c in range(1, q):
            u = poly(R, (c,))
            r = kth_root(u, k)
            least = next((y for y in range(1, q) if R.pow_elem(y, k) == c), None)
            assert r == (None if least is None else poly(R, (least,))), (q, k, c)
            if r is not None:
                assert r**k == u, (q, k, c)
        assert kth_root(poly(R, (1, 1)), k) is None  # degree 1 < k


@pytest.mark.parametrize("q,ks", [(4, (2, 3, 4, 5, 6, 8, 12)), (9, (2, 4, 6))])
def test_kth_root_lead_cache_ignores_call_order(q, ks):
    # k values that share k0 (1 for 2, 4, 8 and 3 for 3, 6, 12 over F_4;
    # 2 for 2, 6 over F_9) share the cached lead set-up, and k0 = 5 over
    # F_4 and 4 over F_9 sit beside them under the same leads: one batch
    # run forwards on a fresh ring and backwards on a second fresh ring of
    # the same spec gives the same roots, and the roots of the reference
    spec = RingSpec.field(*factor_prime_power(q))
    R1, R2 = make_ring(spec), make_ring(spec)
    rng = random.Random(q)
    batch = []
    for _ in range(150):
        k = rng.choice(ks)
        b = decode_poly(R1, rng.randrange(q**4))
        u = b**k
        batch += [(u, k), (u + poly(R1, (rng.randrange(1, q),)), k)]
    forwards = [kth_root(u, k) for u, k in batch]
    backwards = [kth_root(PolyFq(R2, u.coeffs), k) for u, k in reversed(batch)][::-1]
    assert R1._root_leads and R1._root_leads.keys() == R2._root_leads.keys()
    for (u, k), a, b in zip(batch, forwards, backwards):
        assert a == b == ref_kth_root(u, k), (q, k, u)
