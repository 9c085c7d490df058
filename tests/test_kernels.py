"""Differential tests: the vectorized ring tables, Cayley adjacency and FFT
spectra against the per-element reference oracles in util.py."""

import random

import pytest

from paleyfq.errors import DirectedUnsupported
from paleyfq.graphs import build_paley
from paleyfq.rings import RingSpec, factor_prime_power, make_ring
from paleyfq.theta import cayley_spectrum
from util import ref_cayley_rows, ref_field_tables, ref_spectrum

FIELDS = (2, 3, 4, 8, 9, 25, 32, 49, 81, 125, 256, 729, 1024, 13, 97)
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


@pytest.mark.parametrize("q", FIELDS)
def test_field_tables_match_oracle(q):
    R = field(q)
    exp, log, digits = ref_field_tables(R)
    assert R.exp == exp
    assert R.log == log
    assert [R.digits(x) for x in range(q)] == digits


@pytest.mark.parametrize("make,order", RINGS)
def test_to_generic_rows_match_oracle(make, order):
    R = make(order)
    n = R.order
    if n <= FULL_ROWS_UP_TO:
        xs = list(range(n))
    else:
        rng = random.Random(n)
        xs = sorted({0, 1, n - 1} | set(rng.sample(range(n), SAMPLE_ROWS)))
    for G in graphs_of(R):
        rows = G.to_generic().rows
        assert len(rows) == n
        assert [rows[x] for x in xs] == ref_cayley_rows(G, xs)


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
