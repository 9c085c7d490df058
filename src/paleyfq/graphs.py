"""Generalized Paley graphs, complements, strong products, and DIMACS I/O.

Adjacency is stored as one Python int bitmask per vertex (bit j of
rows[i] set iff there is an edge i -> j).  Graphs are immutable after
construction and safe to share.
"""

from __future__ import annotations

import hashlib
import math
import operator
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    DirectedUnsupported,
    InvariantViolation,
    NotCoprime,
    ProductTooLarge,
    VertexOutOfRange,
)
from .rings import RingCtx, RingSpec, kth_power_set, make_ring

PRODUCT_CAP = 10**5
_BLOCK_ELEMS = 1 << 20  # bound on the elements of each to_generic temporary


@dataclass(frozen=True)
class GenericGraph:
    """Plain adjacency-bitmask graph; no self-loops.

    symmetric (every edge has its reverse) is worked out from the rows;
    only the builders in this module, which know it exactly, pass it.
    factors is empty unless the graph is a strong product; then it holds
    the factor graphs (CayleyGraph or GenericGraph) and vertex i is the
    tuple of factor coordinates at row-major index i."""

    n: int
    rows: tuple[int, ...]
    symmetric: bool | None = None
    factors: tuple = ()

    def __post_init__(self):
        for i, r in enumerate(self.rows):
            if r >> i & 1:
                raise ValueError("self-loops are not allowed")
        if self.symmetric is None:
            object.__setattr__(self, "symmetric", _rows_symmetric(self.n, self.rows))

    def to_generic(self) -> "GenericGraph":
        return self

    def has_edge(self, i: int, j: int) -> bool:
        return bool(self.rows[i] >> j & 1)

    def degree(self, i: int) -> int:
        return self.rows[i].bit_count()

    def label(self, verts) -> tuple:
        """Labels of the vertex indices verts, as Python ints: the indices
        themselves, or on a product their factor-coordinate tuples."""
        if not self.factors:
            return tuple(verts)
        coords = np.unravel_index(np.asarray(verts, dtype=np.int64),
                                  [f.n for f in self.factors])
        return tuple(zip(*(c.tolist() for c in coords)))

    def index(self, v) -> int:
        """Index of the vertex labelled v: an int in range(n), or on a
        product a tuple (or list) of factor coordinates.  VertexOutOfRange
        for an int outside range(n) or a tuple on a non-product;
        ValueError for a tuple of the wrong arity or with a coordinate out
        of range, however large; TypeError for a non-integer coordinate."""
        if isinstance(v, (tuple, list)):
            if not self.factors:
                raise VertexOutOfRange("tuple vertex for a non-product graph")
            if len(v) != len(self.factors):
                raise ValueError(f"vertex {v!r} needs {len(self.factors)} coordinates")
            i = 0
            for c, f in zip(v, self.factors):
                c = operator.index(c)
                if not 0 <= c < f.n:
                    raise ValueError(f"coordinate {c} of vertex {v!r} out of range")
                i = i * f.n + c
            return i
        if not 0 <= v < self.n:
            raise VertexOutOfRange(f"vertex {v!r} out of range")
        return v


def _rows_symmetric(n: int, rows) -> bool:
    for i in range(n):
        r = rows[i]
        while r:
            j = (r & -r).bit_length() - 1
            if not rows[j] >> i & 1:
                return False
            r &= r - 1
    return True


@dataclass(frozen=True)
class CayleyGraph:
    """Cayley graph on the ring R: x -> y is an edge iff x - y lies in the
    connection set (nonzero elements).  build_paley makes Paley_k(R), whose
    set is the nonzero k-th powers; its complement keeps k.  symmetric is
    derived: True iff the connection set is closed under negation.
    """

    ring: RingCtx
    k: int
    connection: frozenset[int]
    symmetric: bool = field(init=False)

    def __post_init__(self):
        R, conn = self.ring, self.connection
        object.__setattr__(self, "symmetric", all(R.neg(s) in conn for s in conn))

    @property
    def n(self) -> int:
        return self.ring.order

    def to_generic(self) -> GenericGraph:
        """Row x has bit x - s set for each s in the connection set.  The
        index block x - s is formed for a block of rows at a time (digit-wise
        mod p for fields, mod m for Z/m) and packed into row ints."""
        R = self.ring
        n = R.order
        conn = np.fromiter(self.connection, dtype=np.int64, count=len(self.connection))
        if R.is_field:
            conn = R.digit_array(conn)
        step = max(1, _BLOCK_ELEMS // max(n, conn.size))
        rows = []
        for lo in range(0, n, step):
            xs = np.arange(lo, min(lo + step, n))
            if R.is_field:
                diff = (R.digit_array(xs)[:, None, :] - conn) % R.spec.p
                idx = R.from_digit_array(diff)
            else:
                idx = (xs[:, None] - conn) % R.spec.m
            block = np.zeros((len(xs), n), dtype=bool)
            np.put_along_axis(block, idx, True, axis=1)
            packed = np.packbits(block, axis=1, bitorder="little")
            rows.extend(int.from_bytes(r, "little") for r in packed)
        return GenericGraph(n=n, rows=tuple(rows), symmetric=self.symmetric)

    def complement_cayley(self) -> "CayleyGraph":
        """Cayley graph on the complementary connection set."""
        conn = frozenset(
            x for x in self.ring.elements() if x and x not in self.connection
        )
        return CayleyGraph(ring=self.ring, k=self.k, connection=conn)


def build_paley(R: RingCtx, k: int) -> CayleyGraph:
    """Construct Paley_k(R) from the k-th power set of R."""
    if k < 2:
        raise ValueError("k must be >= 2")
    G = CayleyGraph(ring=R, k=k, connection=frozenset(kth_power_set(R, k) - {0}))
    if R.is_field and R.spec.p != 2:
        # -1 is a k-th power iff (q-1)/gcd(q-1,k) is even; char 2 has -1 = 1
        q = R.order
        criterion = ((q - 1) // math.gcd(q - 1, k)) % 2 == 0
        if G.symmetric != criterion:
            raise InvariantViolation(
                f"negation closure of Paley_{k}(F_{q}) disagrees with the "
                "gcd criterion"
            )
    return G


def complement(G) -> GenericGraph:
    """Complement graph: (x, y) is an edge iff x != y and (x, y) was not."""
    g = G.to_generic()
    full = (1 << g.n) - 1
    rows = tuple((full & ~g.rows[i]) & ~(1 << i) for i in range(g.n))
    return GenericGraph(n=g.n, rows=rows, symmetric=g.symmetric)


def root_stabilizer(G) -> list[np.ndarray] | None:
    """Generators of a group of automorphisms of G that fix vertex 0, each
    an index permutation perm (vertex x maps to perm[x]); None when G is
    not known vertex-transitive.

    Cayley graphs and strong products of Cayley graphs are
    vertex-transitive by translation.  Their generators are, per factor,
    x -> u*x for the unit k-th powers u (one generator of the cyclic
    group for fields, a greedy generating set for Z/m) and, on F_{p^s}
    with s > 1, Frobenius x -> x^p, each kept only if it maps the
    connection set S onto itself, which makes it an automorphism fixing
    0; and the transposition of two adjacent factors with equal ring and
    connection set.  These also preserve the symmetrized graph."""
    factors = (G,) if isinstance(G, CayleyGraph) else G.factors
    if not factors or not all(isinstance(f, CayleyGraph) for f in factors):
        return None
    orders = [f.n for f in factors]
    grid = np.arange(math.prod(orders)).reshape(orders)
    gens = [np.take(grid, perm, axis=i).ravel()
            for i, f in enumerate(factors) for perm in _factor_stabilizer(f)]
    for i in range(len(factors) - 1):
        a, b = factors[i], factors[i + 1]
        if a.ring.spec == b.ring.spec and a.connection == b.connection:
            gens.append(np.swapaxes(grid, i, i + 1).ravel())
    return gens


def _factor_stabilizer(G: CayleyGraph) -> list[np.ndarray]:
    R = G.ring
    n = R.order
    conn = np.fromiter(G.connection, dtype=np.int64, count=len(G.connection))
    in_conn = np.zeros(n, dtype=bool)
    in_conn[conn] = True

    def keeps_conn(perm):
        return bool(in_conn[perm[conn]].all())

    if not R.is_field:
        return _zmod_multipliers(R.spec.m, G.k, keeps_conn)
    exp, log = np.array(R.exp), np.array(R.log)

    def log_map(f):  # x -> exp[f(log x)] on units, 0 -> 0
        perm = np.zeros(n, dtype=np.int64)
        perm[1:] = exp[f(log[1:]) % (n - 1)]
        return perm

    d = math.gcd(G.k, n - 1)
    cands = [log_map(lambda e: e + d)] if d < n - 1 else []
    if R.spec.s > 1:
        cands.append(log_map(lambda e: e * R.spec.p))
    return [perm for perm in cands if keeps_conn(perm)]


def _zmod_multipliers(m: int, k: int, keeps_conn) -> list[np.ndarray]:
    """Multiplications by unit k-th powers of Z/m that keep the connection
    set, chosen greedily: a power is taken only when it lies outside the
    group generated so far."""
    xs = np.arange(m)
    reached = np.zeros(m, dtype=bool)
    reached[1] = True
    gens = []
    for u in sorted({pow(z, k, m) for z in range(1, m) if math.gcd(z, m) == 1}):
        if reached[u]:
            continue
        perm = xs * u % m
        if not keeps_conn(perm):
            continue
        gens.append(perm)
        # reached <- reached * <u>, by doubling the power of u: once
        # reached is closed under u^(2^j) it is closed under u
        v = u
        while True:
            grown = reached.copy()
            grown[xs[reached] * v % m] = True
            if (grown == reached).all():
                break
            reached, v = grown, v * v % m
    return gens


def check_product_order(n: int) -> int:
    """n if a product of n vertices fits under PRODUCT_CAP, else
    ProductTooLarge."""
    if n > PRODUCT_CAP:
        raise ProductTooLarge(f"{n} vertices exceeds cap {PRODUCT_CAP}")
    return n


def strong_product(G, H) -> GenericGraph:
    """Strong product: (a,b) -> (c,d) iff each coordinate pair is an edge
    or equal, and the endpoints differ.  Directed inputs are permitted.
    Row (a, b) is the OR of closed_h[b] << x*|H| over x in N[a]; since
    closed_h[b] < 2^|H| these fill disjoint bit ranges, so the OR is the
    carry-free product spread_a * closed_h[b], where spread_a is the sum
    of 2^(x*|H|) over x in N[a].  Its own bit, always set, is xor-ed off.
    The product is symmetric iff both factors are, or either is empty
    (then it has no vertices).  The factors are those of G then H, a
    product contributing its own, so powers of powers are flat."""
    g, h = G.to_generic(), H.to_generic()
    n = check_product_order(g.n * h.n)
    closed_h = [h.rows[b] | (1 << b) for b in range(h.n)]
    rows = []
    for a in range(g.n):
        ca = g.rows[a] | (1 << a)
        spread = 0
        while ca:
            x = (ca & -ca).bit_length() - 1
            spread |= 1 << (x * h.n)
            ca &= ca - 1
        for chb in closed_h:
            rows.append((spread * chb) ^ (1 << len(rows)))
    symmetric = (g.symmetric and h.symmetric) or n == 0
    return GenericGraph(n, tuple(rows), symmetric,
                        factors=(g.factors or (G,)) + (h.factors or (H,)))


def strong_power(G, n: int) -> GenericGraph:
    """n-fold strong product of G with itself (for n = 1, G with factors
    (G,), so its vertices are 1-tuples).  The final order |G|^n is checked
    against PRODUCT_CAP before any product is built."""
    if n < 1:
        raise ValueError("power must be >= 1")
    check_product_order(G.n ** n)
    g = G.to_generic()
    acc = replace(g, factors=g.factors or (G,))
    for _ in range(n - 1):
        acc = strong_product(acc, G)
    return acc


def crt_factor_check(m: int, n: int, k: int) -> bool:
    """True iff the CRT bijection x -> (x mod m, x mod n) is an exact
    adjacency isomorphism Paley_k(Z/mn) = Paley_k(Z/m) x Paley_k(Z/n)."""
    if m <= 1 or n <= 1:
        raise NotCoprime("factors must exceed 1")
    if math.gcd(m, n) != 1:
        raise NotCoprime(f"gcd({m},{n}) != 1")
    big = build_paley(make_ring(RingSpec.zmod(m * n)), k).to_generic()
    prod = strong_product(
        build_paley(make_ring(RingSpec.zmod(m)), k),
        build_paley(make_ring(RingSpec.zmod(n)), k),
    )
    perm = [prod.index((x % m, x % n)) for x in range(m * n)]
    for x in range(m * n):
        row = 0
        pr = prod.rows[perm[x]]
        for y in range(m * n):
            if pr >> perm[y] & 1:
                row |= 1 << y
        if row != big.rows[x]:
            return False
    return True


def export_dimacs(G, path: str) -> None:
    """Write an undirected graph in DIMACS format (1-based, edges sorted)."""
    g = G.to_generic()
    if not g.symmetric:
        raise DirectedUnsupported("DIMACS export needs an undirected graph")
    edges = []
    for i in range(g.n):
        r = g.rows[i] >> (i + 1) << (i + 1)  # j > i only
        while r:
            j = (r & -r).bit_length() - 1
            edges.append((i + 1, j + 1))
            r &= r - 1
    with open(path, "w") as fh:
        fh.write(f"p edge {g.n} {len(edges)}\n")
        for i, j in edges:
            fh.write(f"e {i} {j}\n")


def import_dimacs(path: str) -> GenericGraph:
    """Read a DIMACS undirected graph file; a malformed edge line (before
    the p line, or an endpoint outside 1..n) raises ValueError naming it."""
    n = 0
    rows: list[int] | None = None
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            parts = line.split()
            if not parts or parts[0] == "c":
                continue
            if parts[0] == "p":
                n = int(parts[2])
                rows = [0] * n
            elif parts[0] == "e":
                i, j = int(parts[1]) - 1, int(parts[2]) - 1
                if rows is None:
                    raise ValueError(f"{path}:{lineno}: edge before the p line")
                if not (0 <= i < n and 0 <= j < n):
                    raise ValueError(f"{path}:{lineno}: edge endpoint outside 1..{n}")
                if i != j:
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
    return GenericGraph(n=n, rows=tuple(rows or ()), symmetric=True)


def graph_fingerprint(G) -> str:
    """SHA-256 over vertex count and adjacency rows; binds certificates."""
    g = G.to_generic()
    h = hashlib.sha256()
    h.update(str(g.n).encode())
    nbytes = (g.n + 7) // 8
    for r in g.rows:
        h.update(r.to_bytes(nbytes, "little"))
    return h.hexdigest()
