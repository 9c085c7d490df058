"""Shared test helpers, including brute-force oracles kept independent of
the library's own search code."""

from __future__ import annotations

import random

import numpy as np

from paleyfq.graphs import GenericGraph, generic_graph
from paleyfq.rings import _pmod, _pmul, factorize


def exhaustive_mis_size(rows: list[int], n: int) -> int:
    """Maximum independent set size by enumerating all vertex subsets."""
    best = 0
    for mask in range(1 << n):
        if mask.bit_count() <= best:
            continue
        m = mask
        ok = True
        while m:
            v = (m & -m).bit_length() - 1
            if rows[v] & mask:
                ok = False
                break
            m &= m - 1
        if ok:
            best = mask.bit_count()
    return best


def random_graph(rng: random.Random, n: int, p: float) -> GenericGraph:
    rows = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return generic_graph(n, rows)


def random_directed_graph(rng: random.Random, n: int, p: float) -> GenericGraph:
    rows = [0] * n
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < p:
                rows[i] |= 1 << j
    return generic_graph(n, rows)


# -- per-element reference oracles for the vectorized ring/graph/spectrum
# kernels; each follows the definition one element at a time


def _ref_digits(x: int, p: int, s: int) -> tuple[int, ...]:
    d = []
    for _ in range(s):
        d.append(x % p)
        x //= p
    return tuple(d)


def ref_field_tables(R) -> tuple[list[int], list[int], list[tuple[int, ...]]]:
    """(exp, log, digits) of the field R computed element by element:
    digits by repeated division, the least generator by square-and-multiply
    over residue polynomials, and exp by multiplying by that generator one
    step at a time."""
    p, s, q = R.spec.p, R.spec.s, R.order

    def from_digits(d):
        x = 0
        for c in reversed(d):
            x = x * p + c
        return x

    table = [_ref_digits(x, p, s) for x in range(q)]

    def mul(x, y):
        return from_digits(_pmod(_pmul(table[x], table[y], p), R.modulus, p))

    def power(x, e):
        r = 1
        while e:
            if e & 1:
                r = mul(r, x)
            x = mul(x, x)
            e >>= 1
        return r

    g = 1
    if q > 2:
        primes = [r for r, _ in factorize(q - 1)]
        g = next(x for x in range(1, q)
                 if all(power(x, (q - 1) // r) != 1 for r in primes))
    exp = [0] * (q - 1)
    log = [0] * q
    acc = 1
    for i in range(q - 1):
        exp[i] = acc
        log[acc] = i
        acc = mul(acc, g)
    assert acc == 1
    return exp, log, table


def ref_cayley_rows(G, xs=None) -> list[int]:
    """Adjacency rows of a Cayley graph by the R.sub loop over the
    connection set, for the vertices xs (all by default)."""
    R = G.ring
    rows = []
    for x in range(R.order) if xs is None else xs:
        m = 0
        for s in G.connection:
            m |= 1 << R.sub(x, s)
        rows.append(m)
    return rows


def ref_spectrum(G) -> list[float]:
    """Sorted eigenvalues of an undirected Cayley graph from the n x |S|
    matrix of additive characters evaluated on the connection set."""
    R = G.ring
    n = R.order
    conn = sorted(G.connection)
    if not conn:
        return [0.0] * n
    if R.spec.kind == "zmod":
        m = R.spec.m
        phases = np.multiply.outer(np.arange(n), np.array(conn)) % m
        vals = np.exp(2j * np.pi / m * phases).sum(axis=1)
    else:
        p, s = R.spec.p, R.spec.s
        digits = np.array([_ref_digits(x, p, s) for x in range(n)], dtype=np.int64)
        cdig = digits[conn]
        phases = (digits @ cdig.T) % p
        vals = np.exp(2j * np.pi / p * phases).sum(axis=1)
    assert np.abs(vals.imag).max() < 1e-9
    return sorted(float(v) for v in vals.real)
