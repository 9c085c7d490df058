"""The packed polynomial kernels of F_p (rings._ResidueRing.poly_pow and
poly_compose) against the schoolbook references of util.py, at and
around the slot bound, on both sides of the gate that picks the packed
route over the chain of convolve products, and with a slot one bit
short of the bound, which must give wrong coefficients."""

import math
import random

import pytest

from paleyfq import rings
from paleyfq.polys import PolyFq, compose, decode_poly, kth_root, poly
from paleyfq.rings import RingSpec, factorize, make_ring, split_digits
from util import ref_compose, ref_kth_root, ref_poly_pow, run_child

PRIMES = [p for p in range(2, 32) if factorize(p) == [(p, 1)]]
DIGIT = rings._DIGIT


def field(p):
    return make_ring(RingSpec.field(p))


def pow_slot(L, e, p):
    """The slot width the packed power must use: the bit length of the
    largest coefficient an L-term power can have over the integers."""
    return (L ** (e - 1) * (p - 1) ** e).bit_length()


def pow_packs(L, e, p):
    """Whether the L-term power to e takes the packed route: an integer
    of n result slots costs about ceil(n*s/DIGIT)^log2(3) digit products
    to square up to, against n^2 coefficient products for the chain.
    The kernel first tries s = e, a lower bound on s save for (1,) over
    F_2, which then packs only up to e = DIGIT."""
    n = e * (L - 1) + 1

    def pays(s):
        return math.ceil(n * s / DIGIT) ** math.log2(3) <= n * n

    return L > 0 and e > 0 and pays(e) and pays(pow_slot(L, e, p))


def compose_slot(f, L, p):
    return (f[0] + sum(c * L ** (i - 1) * (p - 1) ** i
                       for i, c in enumerate(f) if i)).bit_length()


def last_packed_e(L, p):
    """The largest e <= 200 whose L-term power takes the packed route."""
    return max(e for e in range(1, 201) if pow_packs(L, e, p))


def reference_pow(u, e):
    """ref_poly_pow where it is cheap, else the chain of convolve products
    (which ref_poly_pow checks on the cheap cases)."""
    if e * len(u.coeffs) <= 200:
        return ref_poly_pow(u, e)
    return PolyFq(u.ring, rings.power(u.ring.convolve, u.coeffs, e))


@pytest.fixture
def slots(monkeypatch):
    """Records the slot width of every packed call; with shift = -1 the
    kernels pack and unpack with slots one bit narrower than they chose."""
    seen = []
    pack, unpack = rings._pack, rings._unpack_mod

    class Spy:
        shift = 0

    def spy_pack(a, s):
        seen.append(s)
        return pack(a, s + Spy.shift)

    def spy_unpack(x, n, s, m):
        return unpack(x, n, s + Spy.shift, m)

    monkeypatch.setattr(rings, "_pack", spy_pack)
    monkeypatch.setattr(rings, "_unpack_mod", spy_unpack)
    Spy.seen = seen
    return Spy


@pytest.mark.parametrize("p", PRIMES)
def test_power_matches_the_schoolbook_reference(p, slots):
    # every length 1..40, all-(p-1) coefficients (the largest the slot
    # must hold) at the last packed exponent, the first chained one (where
    # the chain is cheap) and e = 2, where they meet the bound with
    # equality, and a seeded polynomial to a seeded e in 0..70
    R = field(p)
    rng = random.Random(p)
    for L in range(1, 41):
        top = last_packed_e(L, p)
        full = PolyFq(R, [p - 1] * L)
        rand = PolyFq(R, [rng.randrange(p) for _ in range(L - 1)] + [rng.randrange(1, p)])
        cases = [(full, top), (full, 2), (rand, rng.randrange(min(70, 400 // L) + 1))]
        if (top + 1) * L <= 400:
            cases.append((full, top + 1))
        for u, e in cases:
            del slots.seen[:]
            got = u**e
            packs = pow_packs(L, e, p)
            assert slots.seen == ([pow_slot(L, e, p)] if packs else []), (p, L, e)
            if packs or e * L <= 200:  # a chained power where ref_poly_pow is cheap
                assert got == reference_pow(u, e), (p, L, e)


def test_the_power_gate_sees_both_sides(slots):
    # small powers pack, and so does (1,)^e over F_2 up to one digit's e;
    # a constant or a binomial to a large power takes the chain
    R7, R2 = field(7), field(2)
    assert last_packed_e(4, 7) == 19 and not pow_packs(4, 20, 7)
    b = poly(R7, (3, 1, 4, 1))
    assert b**19 == ref_poly_pow(b, 19) and slots.seen == [pow_slot(4, 19, 7)]
    assert b**20 == ref_poly_pow(b, 20) and len(slots.seen) == 1
    assert poly(R2, (1,)) ** DIGIT == poly(R2, (1,)) and slots.seen[1:] == [1]
    assert poly(R2, (1,)) ** (10**9 + 7) == poly(R2, (1,))
    assert poly(R7, (3,)) ** (10**9 + 7) == poly(R7, (pow(3, 10**9 + 7, 7),))
    assert poly(R7, (3, 1)) ** 701 == reference_pow(poly(R7, (3, 1)), 701)
    assert len(slots.seen) == 2


@pytest.mark.parametrize("p", PRIMES)
def test_compose_matches_the_schoolbook_reference(p, slots):
    # zero and constant F and u, all-(p-1) u, and seeded F of degree up
    # to 12 with u of length up to 40, on both sides of the gate
    R = field(p)
    rng = random.Random(100 + p)

    def rand(n):
        if not n:
            return PolyFq(R, ())
        return PolyFq(R, [rng.randrange(p) for _ in range(n - 1)] + [rng.randrange(1, p)])

    cases = [(rand(0), rand(3)), (rand(3), rand(0)), (rand(1), rand(5)), (rand(4), rand(1))]
    for L in range(1, 41):
        full = PolyFq(R, [p - 1] * L)
        cases += [(rand(rng.randrange(1, 14)), full), (rand(rng.randrange(1, 14)), rand(L)),
                  (PolyFq(R, [p - 1] * rng.randrange(1, 6)), full)]
    sides = set()
    for F, u in cases:
        if len(F.coeffs) * len(u.coeffs) * len(u.coeffs) > 20000:
            continue  # keep the reference cheap
        del slots.seen[:]
        assert compose(F, u) == ref_compose(F, u), (p, F, u)
        f = F.coeffs
        packed = bool(f and u.coeffs) and len(f) - 1 <= DIGIT \
            and compose_slot(f, len(u.coeffs), p) <= DIGIT
        assert slots.seen == ([compose_slot(f, len(u.coeffs), p)] if packed else []), (p, F, u)
        sides.add(packed)
    assert sides == {True, False}


@pytest.mark.parametrize("p", PRIMES)
def test_a_slot_one_bit_short_gives_wrong_coefficients(p, slots):
    # e = 2 and F = (p-1)T^2 on an all-(p-1) u of L >= 2 terms meet the
    # bound with equality: coefficient L-1 is L(p-1)^2 (times p-1); so a
    # slot one bit narrower than the bound's bit length cannot hold it
    R = field(p)
    slots.shift = -1
    F = poly(R, (0, 0, p - 1))
    for L in range(2, 41):
        u = PolyFq(R, [p - 1] * L)
        assert pow_packs(L, 2, p)
        assert u**2 != ref_poly_pow(u, 2), (p, L)
        assert compose(F, u) != ref_compose(F, u), (p, L)
    assert slots.seen  # the packed route ran, one bit short


@pytest.mark.parametrize("p", PRIMES)
def test_kth_root_matches_the_reference_for_k_divisible_by_p(p):
    R = field(p)
    rng = random.Random(200 + p)
    for k in (p, 2 * p, 3 * p, p * p):
        for _ in range(6):
            b = decode_poly(R, rng.randrange(p ** rng.randrange(1, 4)))
            w = b**k
            for u in (w, w + poly(R, (1,)), w + poly(R, (0, 1))):
                assert kth_root(u, k) == ref_kth_root(u, k), (p, k, u)


@pytest.mark.parametrize("k0", [64, 701, 1000])
@pytest.mark.parametrize("D", [1, 2])
def test_kth_root_at_large_k0(k0, D, slots):
    # the check b^k0 = w takes the chain here (its slot is far wider than
    # a digit), and the root is the one with the least leading index
    R = field(7)
    rng = random.Random(k0 + D)
    b = poly(R, [rng.randrange(7) for _ in range(D)] + [rng.randrange(1, 7)])
    w = b**k0
    assert len(w.coeffs) == k0 * D + 1
    r = kth_root(w, k0)
    assert r is not None and r**k0 == w
    assert r.coeffs[-1] == min(y for y in range(1, 7) if R.pow_elem(y, k0) == w.coeffs[-1])
    assert kth_root(w + poly(R, (1,)), k0) is None
    assert not slots.seen
    if k0 == 64 and D == 1:
        assert w == ref_poly_pow(b, k0)


def test_polyfq_refuses_coefficients_outside_the_field():
    R7, R9 = field(7), make_ring(RingSpec.field(3, 2))
    for R, bad in ((R9, (-1, 1)), (R9, (10, 1)), (R9, (9,)), (R7, (-1, 1)), (R7, (1, 7))):
        with pytest.raises(ValueError):
            PolyFq(R, bad)
        with pytest.raises(ValueError):
            poly(R, bad)
    assert poly(R9, (8, 1)) ** 2 == ref_poly_pow(poly(R9, (8, 1)), 2)
    assert poly(R7, (6, 1)).coeffs == (6, 1) and poly(R7, (0, 0)).is_zero()


def test_split_digits_refuses_a_negative_number():
    assert split_digits(0, 7) == [] and split_digits(7, 7, 3) == [0, 1, 0]
    # a regression would append digits until memory runs out, so it runs
    # in a child with a memory limit and a timeout
    code = (
        "import resource\n"
        "from paleyfq.polys import decode_poly\n"
        "from paleyfq.rings import RingSpec, make_ring, split_digits\n"
        "R = make_ring(RingSpec.field(7))\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "for call in (lambda: split_digits(-1, 7), lambda: decode_poly(R, -1),\n"
        "             lambda: R.digits(-5)):\n"
        "    try:\n"
        "        call()\n"
        "    except ValueError:\n"
        "        print('refused')\n"
    )
    proc = run_child(code, timeout=20)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["refused"] * 3
