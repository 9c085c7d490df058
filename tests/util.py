"""Shared test helpers, including brute-force oracles kept independent of
the library's own search code."""

from __future__ import annotations

import hashlib
import math
import os
import random
import subprocess
import sys
import time
import tracemalloc

import numpy as np

import paleyfq
from paleyfq.graphs import (
    CayleyGraph,
    GenericGraph,
    build_paley,
    strong_power,
    strong_product,
)
from paleyfq.polys import PolyFq, decode_poly
from paleyfq.rings import RingSpec, factorize, make_ring


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


def networkx_alpha(G) -> int:
    """Independence number as the clique number of the complement of the
    symmetrized graph, by networkx's exact max_weight_clique."""
    import networkx as nx  # only the tests that call this need networkx

    g = G.to_generic()
    H = nx.Graph()
    H.add_nodes_from(range(g.n))
    H.add_edges_from((i, j) for i in range(g.n) for j in range(i + 1, g.n)
                     if not (g.rows[i] >> j & 1 or g.rows[j] >> i & 1))
    return nx.max_weight_clique(H, weight=None)[1]


def has_edge(g: GenericGraph, i: int, j: int) -> bool:
    """True iff row i of g has bit j set, the edge i -> j."""
    return bool(g.rows[i] >> j & 1)


def ref_symmetrize(g: GenericGraph) -> list[int]:
    """Rows of the symmetrized graph by the per-edge loop: each edge
    i -> j also sets bit i of row j."""
    rows = list(g.rows)
    for i in range(g.n):
        r = g.rows[i]
        while r:
            j = (r & -r).bit_length() - 1
            rows[j] |= 1 << i
            r &= r - 1
    return rows


def random_graph(rng: random.Random, n: int, p: float) -> GenericGraph:
    rows = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return GenericGraph(n=n, rows=tuple(rows))


def random_directed_graph(rng: random.Random, n: int, p: float) -> GenericGraph:
    rows = [0] * n
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < p:
                rows[i] |= 1 << j
    return GenericGraph(n=n, rows=tuple(rows))


# -- per-element reference oracles for the vectorized ring/graph/spectrum
# kernels; each follows the definition one element at a time


def _ref_digits(x: int, p: int, s: int) -> tuple[int, ...]:
    d = []
    for _ in range(s):
        d.append(x % p)
        x //= p
    return tuple(d)


def ref_digits(R, x: int) -> tuple[int, ...]:
    """Digits of x in the additive group: the coefficient vector for
    F_{p^s}, lowest degree first, and (x,) for Z/m."""
    return _ref_digits(x, R.spec.p, R.spec.s) if R.is_field else (x,)


def ref_field_tables(R) -> tuple[list[int], list[int], list[tuple[int, ...]]]:
    """(exp, log, digits) of the field R computed element by element:
    digits by repeated division, the least generator by square-and-multiply
    over residue polynomials (schoolbook product, then reduction modulo
    R.modulus from the top degree down), and exp by multiplying by that
    generator one step at a time."""
    p, s, q = R.spec.p, R.spec.s, R.order
    table = [_ref_digits(x, p, s) for x in range(q)]

    def mul(x, y):
        prod = [0] * (2 * s - 1)
        for i, a in enumerate(table[x]):
            for j, b in enumerate(table[y]):
                prod[i + j] += a * b
        for t in range(2 * s - 2, s - 1, -1):
            lead = prod[t] % p
            for i, c in enumerate(R.modulus):
                prod[t - s + i] -= lead * c
        x = 0
        for c in reversed(prod[:s]):
            x = x * p + c % p
        return x

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


def _ref_digit_array(xs, p: int, s: int) -> np.ndarray:
    """Digits of the indices xs along a new last axis, by repeated division."""
    xs = np.asarray(xs, dtype=np.int64)
    out = np.empty(xs.shape + (s,), dtype=np.int64)
    for i in range(s):
        out[..., i] = xs % p
        xs = xs // p
    return out


def _ref_encode(d: np.ndarray, p: int) -> np.ndarray:
    x = np.zeros(d.shape[:-1], dtype=np.int64)
    for i in reversed(range(d.shape[-1])):
        x = x * p + d[..., i]
    return x


def ref_add(R, x, y) -> np.ndarray:
    """x + y digit by digit mod p for fields, mod m for Z/m; x and y are
    index arrays that broadcast against each other."""
    if not R.is_field:
        return (np.asarray(x) + np.asarray(y)) % R.spec.m
    p, s = R.spec.p, R.spec.s
    return _ref_encode((_ref_digit_array(x, p, s) + _ref_digit_array(y, p, s)) % p, p)


def ref_neg(R, x) -> np.ndarray:
    """-x digit by digit mod p for fields, mod m for Z/m."""
    if not R.is_field:
        return -np.asarray(x) % R.spec.m
    p, s = R.spec.p, R.spec.s
    return _ref_encode(-_ref_digit_array(x, p, s) % p, p)


def ref_mul(R, x, y) -> np.ndarray:
    """x * y by schoolbook multiplication of the residue polynomials and
    reduction modulo R.modulus, top degree first (fields), or mod m."""
    if not R.is_field:
        return np.asarray(x) * np.asarray(y) % R.spec.m
    p, s = R.spec.p, R.spec.s
    dx, dy = _ref_digit_array(x, p, s), _ref_digit_array(y, p, s)
    dx, dy = np.broadcast_arrays(dx, dy)
    prod = np.zeros(dx.shape[:-1] + (2 * s - 1,), dtype=np.int64)
    for i in range(s):
        for j in range(s):
            prod[..., i + j] += dx[..., i] * dy[..., j]
    mod = np.array(R.modulus, dtype=np.int64)
    for t in range(2 * s - 2, s - 1, -1):
        lead = prod[..., t] % p
        prod[..., t - s:t + 1] -= lead[..., None] * mod
    return _ref_encode(prod[..., :s] % p, p)


def ref_pow_table(R) -> np.ndarray:
    """T[x, e] = x^e for every element x and 0 <= e < |R|, by repeated
    ref_mul (0^0 = 1)."""
    n = R.order
    xs = np.arange(n)
    table = np.empty((n, n), dtype=np.int64)
    table[:, 0] = 1
    for e in range(1, n):
        table[:, e] = ref_mul(R, table[:, e - 1], xs)
    return table


def ref_power_sets(R, top: int) -> dict[int, set[int]]:
    """{k: {z^k : z in R}} for 2 <= k <= top, by repeated ref_mul."""
    xs = col = np.arange(R.order)
    out = {}
    for k in range(2, top + 1):
        col = ref_mul(R, col, xs)
        out[k] = set(col.tolist())
    return out


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


def ref_units(R) -> list[int]:
    """The units of R in index order: every nonzero element of a field,
    the residues prime to m in Z/m."""
    return [u for u in range(1, R.order) if R.is_field or math.gcd(u, R.order) == 1]


def ref_multipliers(R, S) -> set[int]:
    """The multipliers of the connection set S: {unit u : u*S = S}, by
    multiplying S out by every unit."""
    S = set(S)
    return {u for u in ref_units(R) if {R.mul(u, s) for s in S} == S}


def unit_orbit(R, x: int, gens) -> set[int]:
    """x times the group the units gens generate: the closure of {x}
    under multiplication by each of gens."""
    orbit, todo = {x}, [x]
    while todo:
        y = todo.pop()
        for u in gens:
            z = R.mul(y, u)
            if z not in orbit:
                orbit.add(z)
                todo.append(z)
    return orbit


def random_connection_set(R, rng: random.Random, symmetric: bool) -> frozenset[int]:
    """A seeded random connection set: a union of random orbits of the
    nonzero elements under the group generated by -1 (if symmetric) and,
    half the time, one random unit u, so that u keeps the set."""
    gens = [rng.choice(ref_units(R))] if rng.random() < 0.5 else []
    if symmetric:
        gens.append(R.neg(1))
    S: set[int] = set()
    for x in range(1, R.order):
        if x not in S and rng.random() < 0.4:
            S |= unit_orbit(R, x, gens)
    return frozenset(S)


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


def ref_poly_mul(u, v):
    """u * v by the schoolbook loop, one R.add and R.mul call per pair of
    nonzero coefficients."""
    R = u.ring
    if u.is_zero() or v.is_zero():
        return PolyFq(R, ())
    out = [0] * (len(u.coeffs) + len(v.coeffs) - 1)
    for i, a in enumerate(u.coeffs):
        if a:
            for j, b in enumerate(v.coeffs):
                if b:
                    out[i + j] = R.add(out[i + j], R.mul(a, b))
    return PolyFq(R, out)


def ref_poly_pow(u, e: int):
    """u^e by e repeated ref_poly_mul calls, starting from 1."""
    out = PolyFq(u.ring, (1,))
    for _ in range(e):
        out = ref_poly_mul(out, u)
    return out


def ref_compose(F, u):
    """F(u) by Horner's rule on ref_poly_mul, adding each coefficient of F
    to the constant term by R.add."""
    R = F.ring
    acc = PolyFq(R, ())
    for c in reversed(F.coeffs):
        prod = ref_poly_mul(acc, u).coeffs or (0,)
        acc = PolyFq(R, (R.add(prod[0], c),) + prod[1:])
    return acc


def ref_greedy_difference_free(R, n: int, k: int) -> list:
    """First fit over P_{q,n} in code order by pairwise differences: a
    candidate is kept iff neither cand - c nor c - cand is a nonzero k-th
    power for every c kept before it (powers by ref_poly_pow)."""
    depth = (n - 1) // k + 1
    powers = set()
    for code in range(R.order**depth):
        w = ref_poly_pow(decode_poly(R, code), k)
        if not w.is_zero() and w.degree < n:
            powers.add(w)
    chosen = []
    for code in range(R.order**n):
        cand = decode_poly(R, code)
        if all((cand - c) not in powers and (c - cand) not in powers
               for c in chosen):
            chosen.append(cand)
    return chosen


def ref_kth_root(u, k: int):
    """k-th root by top-down coefficient matching that recomputes the full
    power b^k0 once per coefficient (same p-part handling, lead-root
    choice and final check as the library, with powers by ref_poly_pow).
    The lead root is the least y with y^k0 = lead, found by trying every
    nonzero y, so the field must be small."""
    R = u.ring
    if u.is_zero():
        return PolyFq(R, ())
    p, s = R.spec.p, R.spec.s
    e, k0 = 0, k
    while k0 % p == 0:
        k0 //= p
        e += 1
    w = u
    if e:
        pe = p**e
        if any(c and (i % pe) for i, c in enumerate(u.coeffs)):
            return None
        inv_frob = p ** ((-e) % s)
        wc = [0] * (len(u.coeffs) // pe + 1)
        for i, c in enumerate(u.coeffs):
            if c:
                wc[i // pe] = R.pow_elem(c, inv_frob)
        w = PolyFq(R, wc)
    if k0 == 1:
        return w
    dw = w.degree
    if dw % k0:
        return None
    D = dw // k0
    assert R.order < 50, "the lead root is found by trying every element"
    lead_root = next((y for y in range(1, R.order)
                      if ref_poly_pow(PolyFq(R, (y,)), k0).coeffs == w.coeffs[-1:]),
                     None)
    if lead_root is None:
        return None
    b = [0] * (D + 1)
    b[D] = lead_root
    inv_pivot = R.inv(R.mul(k0 % p, R.pow_elem(b[D], k0 - 1)))
    for i in range(D - 1, -1, -1):
        cur = ref_poly_pow(PolyFq(R, b), k0)
        target = w.coeff((k0 - 1) * D + i)
        b[i] = R.mul(R.sub(target, cur.coeff((k0 - 1) * D + i)), inv_pivot)
    cand = PolyFq(R, b)
    return cand if ref_poly_pow(cand, k0) == w else None


def ref_strong_product_rows(g: GenericGraph, h: GenericGraph) -> list[int]:
    """Adjacency rows of the strong product of g and h by the shift loop:
    row (a, b) is the OR of closed_h[b] << x*|h| over x in N[a], with its
    own bit cleared."""
    n = g.n * h.n
    closed_h = [h.rows[b] | (1 << b) for b in range(h.n)]
    rows = [0] * n
    idx = 0
    for a in range(g.n):
        ca = g.rows[a] | (1 << a)
        segments = []
        while ca:
            x = (ca & -ca).bit_length() - 1
            segments.append(x * h.n)
            ca &= ca - 1
        for b in range(h.n):
            chb = closed_h[b]
            m = 0
            for shift in segments:
                m |= chb << shift
            rows[idx] = m & ~(1 << idx)
            idx += 1
    return rows


def ref_rows(P) -> list[int]:
    """The rows of the product P from its factors, folded left by the
    reference shift loop."""
    rows = None
    for f in P.factors:
        g = f.to_generic()
        rows = list(g.rows) if rows is None else ref_strong_product_rows(
            GenericGraph(len(rows), tuple(rows)), g)
    return rows


def ref_fingerprint(n: int, rows) -> str:
    """SHA-256 over str(n) and each row's ceil(n/8) little-endian bytes,
    one row at a time."""
    h = hashlib.sha256(str(n).encode())
    for r in rows:
        h.update(r.to_bytes((n + 7) // 8, "little"))
    return h.hexdigest()


def ref_multistart_greedy(n: int, closed: list[int], deadline: float) -> list[int]:
    """Index-order greedy from each of the first min(n, 300) offsets, one
    vertex per step in cyclic order, keeping the first largest set; the
    deadline is checked before every start but the first."""
    best: list[int] = []
    for start in range(min(n, 300)):
        if start and time.monotonic() >= deadline:
            break
        used = 0
        chosen: list[int] = []
        for off in range(n):
            v = start + off
            if v >= n:
                v -= n
            if not (used >> v) & 1:
                chosen.append(v)
                used |= closed[v]
        if len(chosen) > len(best):
            best = chosen
    return best


def ref_propagate(adj: list[int], xs: list[int], P: int = -1) -> list[int] | None:
    """Unit propagation over the classes xs cut to P: None on an empty
    class or two forced vertices not adjacent, else the classes of two or
    more vertices left once each forced vertex has cut the others to its
    neighbours."""
    open_ = []
    units = []
    for x in xs:
        x &= P
        if not x:
            return None
        if x & (x - 1):
            open_.append(x)
        else:
            units.append(x)
    while units:
        a = adj[units.pop().bit_length() - 1]
        if any(not u & a for u in units):
            return None
        cut = [x & a for x in open_]
        if 0 in cut:
            return None
        units += [x for x in cut if not x & (x - 1)]
        open_ = [x for x in cut if x & (x - 1)]
    return open_


def ref_refutes(adj: list[int], classes: list[int], k: int, P: int) -> bool:
    """The clique search's refutation test without its support filter:
    unit propagation over classes[:k] & P, then failed-literal probing of
    every vertex to the greatest fixpoint, which an emptied class ends."""
    open_ = ref_propagate(adj, classes[:k], P)
    if open_ is None:
        return True
    open_.sort(key=int.bit_count)
    i = quiet = 0
    while quiet < len(open_):
        i %= len(open_)
        x = open_[i]
        others = open_[:i] + open_[i + 1:]
        keep = rest = x
        while rest:
            b = rest & -rest
            rest ^= b
            if ref_propagate(adj, others, adj[b.bit_length() - 1]) is None:
                keep ^= b
        if keep == x:
            quiet += 1
        elif keep & (keep - 1):
            open_[i] = keep
            quiet = 1
        else:
            open_[i] = keep
            open_ = ref_propagate(adj, open_)
            if open_ is None:
                return True
            i = quiet = 0
            continue
        i += 1
    return False


def peak_traced(fn, *args):
    """(fn(*args), the peak bytes tracemalloc traced during the call)."""
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def run_child(code: str, *flags: str, timeout: float = 120) -> subprocess.CompletedProcess:
    """Run Python code in a fresh interpreter that imports this paleyfq;
    subprocess.TimeoutExpired after timeout seconds."""
    src = os.path.dirname(os.path.dirname(paleyfq.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1")
    return subprocess.run([sys.executable, *flags, "-c", code], env=env,
                          capture_output=True, text=True, timeout=timeout)


# -- the graph suite: Cayley graphs and strong products of them --------------
# Shared by the orbit, slab and lazy-product tests; test_orbits.PINS pins
# one solve of each case.

def F(p, s=1):
    return make_ring(RingSpec.field(p, s))


def Z(m):
    return make_ring(RingSpec.zmod(m))


def comp(R, k):
    return build_paley(R, k).complement_cayley()


def random_cayley(R, seed, symmetric=True):
    """Cayley graph on a random connection set, which multipliers other
    than 1 generally do not keep."""
    rng = random.Random(seed)
    conn = set()
    for x in range(1, R.order):
        if rng.random() < 0.4:
            conn.add(x)
            if symmetric:
                conn.add(R.neg(x))
    return CayleyGraph(ring=R, connection=frozenset(conn))


CASES = {
    # F_p
    "F13-k2": lambda: build_paley(F(13), 2),
    "F37-k2": lambda: build_paley(F(37), 2),
    "F61-k2": lambda: build_paley(F(61), 2),
    "F101-k2": lambda: build_paley(F(101), 2),
    "F31-k3": lambda: build_paley(F(31), 3),
    "F43-k3": lambda: build_paley(F(43), 3),
    "F41-k4": lambda: build_paley(F(41), 4),
    "F29-k4-directed": lambda: build_paley(F(29), 4),
    "F7-k3-squared": lambda: strong_power(build_paley(F(7), 3), 2),
    # F_4, F_8, F_9 and larger prime powers, where Frobenius applies
    "F4-k3-cubed": lambda: strong_power(build_paley(F(2, 2), 3), 3),
    "F8-k7-squared": lambda: strong_power(build_paley(F(2, 3), 7), 2),
    "F9-k2-squared": lambda: strong_power(build_paley(F(3, 2), 2), 2),
    "F9-k4-squared": lambda: strong_power(build_paley(F(3, 2), 4), 2),
    "F25-k3": lambda: build_paley(F(5, 2), 3),
    "F49-k2": lambda: build_paley(F(7, 2), 2),
    "F64-k3": lambda: build_paley(F(2, 6), 3),
    "F81-k4": lambda: build_paley(F(3, 4), 4),
    # Z/m
    "Z15-k2": lambda: build_paley(Z(15), 2),
    "Z21-k2": lambda: build_paley(Z(21), 2),
    "Z21-k3": lambda: build_paley(Z(21), 3),
    "Z65-k2": lambda: build_paley(Z(65), 2),
    # directed squares
    "F19-k2-squared": lambda: strong_power(build_paley(F(19), 2), 2),
    "F23-k2-squared": lambda: strong_power(build_paley(F(23), 2), 2),
    # complement powers
    "comp-F7-k3-squared": lambda: strong_power(comp(F(7), 3), 2),
    "comp-F13-k3-squared": lambda: strong_power(comp(F(13), 3), 2),
    "comp-F9-k4-squared": lambda: strong_power(comp(F(3, 2), 4), 2),
    "comp-F4-k3-cubed": lambda: strong_power(comp(F(2, 2), 3), 3),
    # mixed products: unequal orders, equal rings with unequal connections
    "F5xF13": lambda: strong_product(build_paley(F(5), 2), build_paley(F(13), 2)),
    "F7-k3-x-comp": lambda: strong_product(build_paley(F(7), 3), comp(F(7), 3)),
    "Z15xF5": lambda: strong_product(build_paley(Z(15), 2), build_paley(F(5), 2)),
    "Z21xF4": lambda: strong_product(build_paley(Z(21), 2), build_paley(F(2, 2), 3)),
    # random connection sets
    "rnd-Z16": lambda: random_cayley(Z(16), 2),
    "rnd-Z12-squared": lambda: strong_power(random_cayley(Z(12), 1), 2),
    "rnd-F9-squared": lambda: strong_power(random_cayley(F(3, 2), 3), 2),
    "rnd-F8-directed-squared": lambda: strong_power(
        random_cayley(F(2, 3), 4, symmetric=False), 2),
    "rnd-F25": lambda: random_cayley(F(5, 2), 6),
    "rnd-F27-directed": lambda: random_cayley(F(3, 3), 7, symmetric=False),
}
