"""Differential tests: the vectorized ring tables, scalar ring arithmetic,
Cayley adjacency and FFT spectra against the reference oracles in util.py."""

import json
import math
import random
import sys

import numpy as np
import pytest

from paleyfq.errors import DirectedUnsupported
from paleyfq.graphs import CayleyGraph, build_paley
from paleyfq.rings import RingSpec, factor_prime_power, factorize, make_ring
from paleyfq.theta import cayley_spectrum
from util import (
    peak_traced,
    ref_add,
    ref_cayley_rows,
    ref_digits,
    ref_field_tables,
    ref_mul,
    ref_neg,
    ref_pow_table,
    ref_spectrum,
)

FIELDS = (2, 3, 4, 8, 9, 25, 32, 49, 81, 125, 256, 729, 1024, 13, 97)
# odd s, and a chunk width w that does not divide s: F_2^7 (w = 3),
# F_2^11 (w = 5), F_3^7 (w = 3), F_5^5 (w = 2)
UNEVEN_FIELDS = (128, 2048, 2187, 3125)
# p^2 > 2^16, so a chunk is one digit and the addition table has q entries
ONE_DIGIT_CHUNKS = (257 * 257,)
MODULI = (2, 8, 15, 21, 65, 100, 221)
KS = range(2, 7)
FULL_ROWS_UP_TO = 256  # larger rings compare a fixed sample of rows
SAMPLE_ROWS = 40


def field(q):
    return make_ring(RingSpec.field(*factor_prime_power(q)))


RINGS = [pytest.param(field, q, id=f"fq:{q}") for q in FIELDS] + [
    pytest.param(lambda m: make_ring(RingSpec.zmod(m)), m, id=f"zmod:{m}")
    for m in MODULI
]


def graphs_of(R):
    """Paley_k(R) for k = 2..6 and each complement."""
    for k in KS:
        G = build_paley(R, k)
        yield G
        yield G.complement_cayley()


@pytest.mark.parametrize("q", FIELDS + UNEVEN_FIELDS)
def test_field_tables_match_oracle(q):
    R = field(q)
    exp, log, digits = ref_field_tables(R)
    assert R.exp.tolist() == exp
    assert R.log.tolist() == log
    assert [R.digits(x) for x in range(q)] == digits


@pytest.mark.parametrize("make,order", RINGS)
def test_additive_layout_matches_oracle(make, order):
    R = make(order)
    n = R.order
    assert math.prod(R.shape) == n
    assert set(R.shape) == {R.radix}
    xs = list(range(n))
    digits = [ref_digits(R, x) for x in xs]
    assert [R.digits(x) for x in xs] == digits
    assert [R.from_digits(d) for d in digits] == xs
    assert [R.from_digits(R.digits(x)) for x in xs] == xs
    # addition and negation are digit-wise mod radix
    rng = np.random.default_rng(n)
    x, y = rng.integers(0, n, 500), rng.integers(0, n, 500)
    assert (R.add_array(x, y) == ref_add(R, x, y)).all()
    assert (R.neg_array(x) == ref_neg(R, x)).all()


@pytest.mark.parametrize("make,order", RINGS + [
    pytest.param(field, q, id=f"fq:{q}") for q in UNEVEN_FIELDS + ONE_DIGIT_CHUNKS])
def test_index_kernel_broadcasts_column_by_row(make, order):
    R = make(order)
    n = R.order
    if n <= FULL_ROWS_UP_TO:  # every pair, so F_2 and Z/2 in full
        col, row = np.arange(n)[:, None], np.arange(n)[None, :]
    else:
        rng = np.random.default_rng(n)
        col = np.concatenate(([0, 1, n - 1], rng.integers(0, n, SAMPLE_ROWS)))[:, None]
        row = np.concatenate(([0, n - 1], rng.integers(0, n, 3 * SAMPLE_ROWS)))[None, :]
    got = R.add_array(col, row)
    assert got.shape == (col.size, row.size)
    assert (got == ref_add(R, col, row)).all()
    assert (R.add_array(row, col) == got).all()
    neg = R.neg_array(row)
    assert neg.shape == row.shape
    assert (neg == ref_neg(R, row)).all()
    assert (R.add_array(row, neg) == 0).all()
    assert int(R.add_array(n - 1, 1)) == int(ref_add(R, n - 1, 1))


@pytest.mark.parametrize("q", UNEVEN_FIELDS)
def test_uneven_fields_split_unevenly(q):
    # s is odd, so the generator's span joins halves of s // 2 and
    # s - s // 2 digits, and the chunk width w does not divide s, so the
    # top chunk of the addition kernel has fewer digits than the others
    R = field(q)
    p, s = R.spec.p, R.spec.s
    P = R._chunk
    w = round(math.log(P, p))
    assert s % 2 == 1 and s % w
    assert P == p**w and P * P <= min(1 << 16, q) < P * P * p * p


@pytest.mark.parametrize("make,order", RINGS)
def test_to_generic_rows_match_oracle(make, order):
    R = make(order)
    n = R.order
    if n <= FULL_ROWS_UP_TO:
        xs = list(range(n))
    else:
        rng = random.Random(n)
        xs = sorted({0, 1, n - 1} | set(rng.sample(range(n), SAMPLE_ROWS)))
    empty = CayleyGraph(ring=R, connection=frozenset())
    full = CayleyGraph(ring=R, connection=frozenset(range(1, n)))
    for G in [*graphs_of(R), empty, full]:
        g = G.to_generic()
        assert len(g.rows) == n
        assert [g.rows[x] for x in xs] == ref_cayley_rows(G, xs)
        assert g.symmetric == ({R.neg(s) for s in G.connection} == G.connection)
    assert not any(empty.to_generic().rows)
    assert full.to_generic().rows == tuple((1 << n) - 1 ^ 1 << x for x in range(n))


@pytest.mark.parametrize("spec,k", [
    (RingSpec.zmod(3003), 2), (RingSpec.field(3, 7), 2), (RingSpec.field(2, 10), 3)],
    ids=["zmod:3003-k2", "fq:2187-k2", "fq:1024-k3"])
def test_to_generic_peak_is_about_its_rows(spec, k):
    # each row is translated from an earlier one, so besides the rows the
    # call holds O(n) bits; a (rows x |S|) index block would show here
    G = build_paley(make_ring(spec), k)
    g, peak = peak_traced(G.to_generic)
    assert peak <= 1.25 * sum(map(sys.getsizeof, g.rows))


@pytest.mark.parametrize("make,order", RINGS)
def test_spectrum_matches_oracle(make, order):
    R = make(order)
    for G in graphs_of(R):
        if not G.symmetric:
            with pytest.raises(DirectedUnsupported):
                cayley_spectrum(G)
            continue
        got = cayley_spectrum(G)
        want = ref_spectrum(G)
        assert len(got) == len(want)
        assert max(abs(a - b) for a, b in zip(got, want)) < 1e-9
    # the empty connection set: n zeros, none of them -0.0
    empty = cayley_spectrum(CayleyGraph(ring=R, connection=frozenset()))
    assert json.dumps(empty) == json.dumps([0.0] * R.order)


# -- scalar arithmetic: every pair on small rings, seeded pairs on large ones

SMALL_FIELDS = [q for q in range(2, 257) if len(factorize(q)) == 1]
SMALL_MODULI = range(2, 65)
LARGE_FIELDS = (1024, 3125, 65536)
LARGE_PAIRS = 3000


def _table(op, n):
    return np.array([[op(x, y) for y in range(n)] for x in range(n)], dtype=np.int64)


def _check_every_pair(R):
    n = R.order
    xs = np.arange(n)
    X, Y = xs[:, None], xs[None, :]
    add = ref_add(R, X, Y)
    neg = ref_neg(R, xs)
    mul = ref_mul(R, X, Y)
    assert (_table(R.add, n) == add).all()
    assert [R.neg(x) for x in range(n)] == neg.tolist()
    assert (_table(R.sub, n) == ref_add(R, X, neg[None, :])).all()
    assert (_table(R.mul, n) == mul).all()
    assert (_table(R.pow_elem, n) == ref_pow_table(R)).all()
    for x in range(n):
        units = np.flatnonzero(mul[x] == 1)
        if len(units):
            assert R.inv(x) == units[0]
            assert R.pow_elem(x, -2) == mul[units[0], units[0]]
            continue
        for op in (R.inv, lambda y: R.pow_elem(y, -1)):
            with pytest.raises(ZeroDivisionError if R.is_field else ValueError):
                op(x)


@pytest.mark.parametrize("q", SMALL_FIELDS)
def test_field_arithmetic_every_pair(q):
    _check_every_pair(field(q))


@pytest.mark.parametrize("m", SMALL_MODULI)
def test_zmod_arithmetic_every_pair(m):
    _check_every_pair(make_ring(RingSpec.zmod(m)))


@pytest.mark.parametrize("q", LARGE_FIELDS)
def test_large_field_arithmetic_random_pairs(q):
    R = field(q)
    rng = np.random.default_rng(q)
    xs = rng.integers(0, q, LARGE_PAIRS)
    ys = rng.integers(0, q, LARGE_PAIRS)
    es = rng.integers(0, 4 * q, LARGE_PAIRS)
    xs[:20] = 0  # zero operands and x + (-x) = 0 reach the special cases
    ys[20:40] = 0
    ys[40:80] = ref_neg(R, xs[40:80])
    pairs = list(zip(xs.tolist(), ys.tolist()))
    assert [R.add(x, y) for x, y in pairs] == ref_add(R, xs, ys).tolist()
    assert [R.sub(x, y) for x, y in pairs] == ref_add(R, xs, ref_neg(R, ys)).tolist()
    assert [R.neg(x) for x in xs.tolist()] == ref_neg(R, xs).tolist()
    assert [R.mul(x, y) for x, y in pairs] == ref_mul(R, xs, ys).tolist()
    inv = [R.inv(x) for x in ys.tolist() if x]
    assert (ref_mul(R, ys[ys != 0], inv) == 1).all()
    want = np.ones(LARGE_PAIRS, dtype=np.int64)  # square-and-multiply
    base, e = xs.copy(), es.copy()
    while e.any():
        odd = (e & 1).astype(bool)
        want[odd] = ref_mul(R, want[odd], base[odd])
        base = ref_mul(R, base, base)
        e >>= 1
    assert [R.pow_elem(x, e) for x, e in zip(xs.tolist(), es.tolist())] == want.tolist()
    with pytest.raises(ZeroDivisionError):
        R.inv(0)
