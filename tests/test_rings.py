import hashlib
import json
import math

import pytest

from paleyfq.errors import AllPowers, BadModulus, NotAField, NotPrime, OrderTooLarge
from paleyfq.rings import (
    RingSpec,
    crt_combine,
    crt_map,
    crt_split,
    factorize,
    generator,
    is_kth_power,
    is_prime,
    kth_power_set,
    make_ring,
    non_kth_power,
)
from util import ref_power_sets


def test_is_prime_matches_trial_division():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))

    for n in [*range(-2, 5001), 1_048_573, 1_048_575]:
        assert is_prime(n) == trial(n), n
    assert is_prime(1_048_573) and not is_prime(1_048_575)  # 2^20 - 3, 2^20 - 1


def test_make_ring_prime_field():
    R = make_ring(RingSpec.field(7))
    assert R.order == 7
    assert R.add(5, 4) == 2
    assert R.mul(3, 5) == 1
    assert R.inv(3) == 5


def test_make_ring_f9_modulus_is_smallest_irreducible():
    R = make_ring(RingSpec.field(3, 2))
    assert R.order == 9
    # enumerate monic quadratics over F_3 in encoding order, keep the first
    # with no root (degree 2: irreducible iff rootless)
    expected = None
    for code in range(9):
        c0, c1 = code % 3, code // 3
        if all((x * x + c1 * x + c0) % 3 for x in range(3)):
            expected = (c0, c1, 1)
            break
    assert R.modulus == expected == (1, 0, 1)


def test_make_ring_zmod():
    R = make_ring(RingSpec.zmod(65))
    assert R.order == 65
    assert R.mul(13, 5) == 0
    assert R.inv(2) == 33


def test_make_ring_errors():
    with pytest.raises(NotPrime):
        make_ring(RingSpec.field(6))
    with pytest.raises(BadModulus):
        make_ring(RingSpec.zmod(1))
    with pytest.raises(OrderTooLarge):
        make_ring(RingSpec.field(2, 21))


# sha256 over json [q, modulus, exp, log] of every field of order <= 1024:
# pins the least modulus, the least generator and the tables built from
# them against any change to the table build
TABLES_UP_TO_1024 = "ee3683f3182f441d191e3b2147931f3e124fbf8e59a14fc5ba482dec20172862"


def test_field_tables_pinned_up_to_1024():
    h = hashlib.sha256()
    for q in range(2, 1025):
        fac = factorize(q)
        if len(fac) == 1:
            R = make_ring(RingSpec.field(*fac[0]))
            h.update(json.dumps([q, R.modulus, R.exp, R.log]).encode())
    assert h.hexdigest() == TABLES_UP_TO_1024


def test_field_arithmetic_f9_exhaustive():
    R = make_ring(RingSpec.field(3, 2))
    # associativity and distributivity spot-checked exhaustively at q=9
    for a in R.elements():
        for b in R.elements():
            assert R.add(a, b) == R.add(b, a)
            assert R.mul(a, b) == R.mul(b, a)
            for c in R.elements():
                assert R.mul(a, R.add(b, c)) == R.add(R.mul(a, b), R.mul(a, c))


def test_exp_log_roundtrip():
    for spec in (RingSpec.field(13), RingSpec.field(3, 2), RingSpec.field(2, 4)):
        R = make_ring(spec)
        q = R.order
        assert sorted(R.exp) == list(range(1, q))  # bijection onto nonzero
        for x in range(1, q):
            assert R.exp[R.log[x]] == x


def test_kth_power_set_f7_cubes():
    R = make_ring(RingSpec.field(7))
    assert kth_power_set(R, 3) == {0, 1, 6}


def test_kth_power_set_f13_squares():
    R = make_ring(RingSpec.field(13))
    oracle = {z * z % 13 for z in range(13)}
    got = kth_power_set(R, 2)
    assert got == oracle == {0, 1, 3, 4, 9, 10, 12}
    assert len(got) == 7 == 1 + 12 // 2


def test_kth_power_set_gcd_one_is_everything():
    R = make_ring(RingSpec.field(7))
    assert kth_power_set(R, 5) == set(range(7))


def test_kth_power_set_size_formula():
    for p, s in ((5, 1), (7, 1), (13, 1), (3, 2), (2, 4), (5, 2)):
        R = make_ring(RingSpec.field(p, s))
        q = R.order
        for k in range(2, 9):
            assert len(kth_power_set(R, k)) == 1 + (q - 1) // math.gcd(k, q - 1)


def test_is_kth_power_matches_enumeration():
    # F_2 and F_4 take the generator search with no prime factor of q - 1
    # to test (F_2) or one (F_4); k runs past q - 1 so every gcd occurs
    for spec in (RingSpec.field(2), RingSpec.field(2, 2), RingSpec.field(7),
                 RingSpec.field(3, 2), RingSpec.zmod(65), RingSpec.zmod(36)):
        R = make_ring(spec)
        for k, oracle in ref_power_sets(R, R.order + 1).items():
            assert kth_power_set(R, k) == oracle, (R, k)
            assert [is_kth_power(R, x, k) for x in R.elements()] == [
                x in oracle for x in R.elements()], (R, k)


def test_non_kth_power_is_the_least_non_power():
    for q in range(2, 33):
        if len(factorize(q)) != 1:
            continue
        R = make_ring(RingSpec.field(*factorize(q)[0]))
        for k, oracle in ref_power_sets(R, q + 1).items():
            outside = [x for x in R.elements() if x not in oracle]
            if outside:
                assert non_kth_power(R, k) == outside[0], (q, k)
            else:
                with pytest.raises(AllPowers):
                    non_kth_power(R, k)


def test_is_kth_power_examples():
    R7 = make_ring(RingSpec.field(7))
    assert not is_kth_power(R7, 2, 3)
    assert is_kth_power(R7, 0, 3)
    R65 = make_ring(RingSpec.zmod(65))
    oracle = {z * z % 65 for z in range(65)}
    assert is_kth_power(R65, 14, 2) == (14 in oracle)


def test_non_kth_power():
    assert non_kth_power(make_ring(RingSpec.field(5)), 2) == 2
    assert non_kth_power(make_ring(RingSpec.field(7)), 3) == 2
    assert non_kth_power(make_ring(RingSpec.field(7)), 6) == 2
    with pytest.raises(AllPowers):
        non_kth_power(make_ring(RingSpec.field(7)), 5)
    with pytest.raises(NotAField):
        non_kth_power(make_ring(RingSpec.zmod(15)), 2)


def test_generator():
    assert generator(make_ring(RingSpec.field(7))) == 3
    assert generator(make_ring(RingSpec.field(5))) == 2
    assert generator(make_ring(RingSpec.field(2))) == 1
    with pytest.raises(NotAField):
        generator(make_ring(RingSpec.zmod(15)))


def test_generator_has_full_order():
    for spec in (RingSpec.field(13), RingSpec.field(3, 3), RingSpec.field(17)):
        R = make_ring(spec)
        g = generator(R)
        seen = set()
        acc = 1
        for _ in range(R.order - 1):
            acc = R.mul(acc, g)
            seen.add(acc)
        assert len(seen) == R.order - 1


def test_crt_split():
    assert crt_split(15) == [3, 5]
    assert crt_split(65) == [5, 13]
    assert crt_split(360) == [8, 9, 5]


def test_crt_roundtrip_z105():
    factors = crt_split(105)
    for x in range(105):
        assert crt_combine(crt_map(x, factors), factors) == x
    assert crt_map(7, [3, 5]) == (1, 2)


def test_crt_is_ring_homomorphism():
    for m in (60, 105):
        factors = crt_split(m)
        for x in range(m):
            cx = crt_map(x, factors)
            for y in range(m):
                cy = crt_map(y, factors)
                assert crt_map((x + y) % m, factors) == tuple(
                    (a + b) % f for a, b, f in zip(cx, cy, factors)
                )
                assert crt_map(x * y % m, factors) == tuple(
                    a * b % f for a, b, f in zip(cx, cy, factors)
                )
