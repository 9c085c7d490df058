"""Generalized Paley graphs, complements, strong products, and DIMACS I/O.

Adjacency is stored as one Python int bitmask per vertex (bit j of
rows[i] set iff there is an edge i -> j).  Graphs are immutable after
construction and safe to share.
"""

from __future__ import annotations

import hashlib
import math
import operator
import sys
from dataclasses import FrozenInstanceError, dataclass, field

import numpy as np

from .errors import (
    DirectedUnsupported,
    InvariantViolation,
    NotCoprime,
    OrderTooLarge,
    VertexOutOfRange,
)
from .rings import RingCtx, RingSpec, kth_power_set, make_ring

# bytes of n x n adjacency bitmasks, estimated as 3 * n^2 / 8: an upper
# bound for every consumer, as the solver holds at most three copies (the
# rows, the symmetrized rows of a directed input, the complement)
ADJACENCY_CAP = 512 << 20
_BLOCK_ELEMS = 1 << 20  # bound on the elements of each to_generic temporary
_SPREAD_BITS = 1 << 16  # bound on the bits of each _spread column block
# bytes of unpacked bits per block of columns in symmetrized_rows
_TRANSPOSE_BLOCK = 1 << 22


def check_order(n: int) -> int:
    """n if three n x n adjacency bitmask copies fit in ADJACENCY_CAP
    bytes, else OrderTooLarge.  Every builder of adjacency rows calls it
    before it allocates any."""
    need = 3 * n * n // 8
    if need > ADJACENCY_CAP:
        raise OrderTooLarge(
            f"{n} vertices need about {need >> 20} MB of solver bitmasks,"
            f" over the cap of {ADJACENCY_CAP >> 20} MB"
        )
    return n


class GenericGraph:
    """Plain adjacency-bitmask graph; no self-loops.  Immutable.

    GenericGraph(n, rows, symmetric=None, factors=()): symmetric (every
    edge has its reverse) is worked out from the rows; only the builders
    in this module, which know it exactly, pass it.  factors is empty
    unless the graph is a strong product; then it holds the factor graphs
    (CayleyGraph or GenericGraph) and vertex i is the tuple of factor
    coordinates at row-major index i.

    A product made by strong_product or strong_power holds the rows of
    its factors, not its own: `rows` derives them on first read from the
    packed row blocks of _product_blocks and keeps them, so they are built
    at most once.  graph_fingerprint hashes the blocks of a product whose
    rows were never read, `degree` counts from the factors, and
    has_edge_among (so verify_independent) tests a product by coordinates
    on its factors; none of them needs the rows.  Equality, hash and repr
    go by n, symmetric and the factors of a product (which fix its rows)
    and by n, symmetric and the rows of any other graph, so none of them
    depends on whether a product's rows were read."""

    __slots__ = ("n", "symmetric", "factors", "_rows", "_parts")

    def __init__(self, n: int, rows: tuple[int, ...], symmetric: bool | None = None,
                 factors: tuple = ()):
        for i, r in enumerate(rows):
            if r >> i & 1:
                raise ValueError("self-loops are not allowed")
        if symmetric is None:
            symmetric = symmetrized_rows(rows) == list(rows)
        self._set(n=n, symmetric=symmetric, factors=factors, _rows=rows, _parts=None)

    @classmethod
    def _product(cls, factors: tuple, parts: tuple) -> "GenericGraph":
        """The strong product of factors, whose plain graphs (aligned with
        factors) are parts; no row of it is built.  It is symmetric iff
        every factor is, or one is empty (then it has no vertices)."""
        g = object.__new__(cls)
        n = math.prod(p.n for p in parts)
        g._set(n=n, symmetric=all(p.symmetric for p in parts) or n == 0,
               factors=factors, _rows=None, _parts=parts)
        return g

    def _set(self, **fields) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def _key(self) -> tuple:
        return (self.n, self.symmetric, self.factors or self.rows)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __reduce__(self):
        if self._parts is not None:
            return GenericGraph._product, (self.factors, self._parts)
        return GenericGraph, (self.n, self.rows, self.symmetric, self.factors)

    def __repr__(self):
        body = f"factors={self.factors!r}" if self.factors else f"rows={self.rows!r}"
        return f"GenericGraph(n={self.n}, {body}, symmetric={self.symmetric})"

    @property
    def rows(self) -> tuple[int, ...]:
        """Bit j of rows[i] is set iff i -> j is an edge.  A product
        derives its rows here on first read and keeps them."""
        if self._rows is None:
            rows = []
            for block in _product_blocks(self._parts):
                rows += _row_ints(block)
            object.__setattr__(self, "_rows", tuple(rows))
        return self._rows

    def to_generic(self) -> "GenericGraph":
        return self

    def degree(self, i: int) -> int:
        """Out-degree of vertex i.  On a product it comes from the
        factors: the closed out-neighbourhood of i is the product of its
        coordinates' closed out-neighbourhoods, so it has prod(degree + 1)
        members, i among them, and no row of the product is built."""
        if self._parts is None:
            return self.rows[i].bit_count()
        coords = np.unravel_index(i, [p.n for p in self._parts])
        return math.prod(p.rows[c].bit_count() + 1 for p, c in zip(self._parts, coords)) - 1

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

    def has_edge_among(self, idx) -> bool:
        """True iff i -> j is an edge for some i != j in the vertex
        indices idx (repeats allowed).

        A product made by strong_product or strong_power is tested by
        coordinates: t -> t' is an edge of the strong product iff t != t'
        and, in every factor, the coordinates are equal or an edge.  That
        is the rule _product_blocks builds its rows by, so the answer is
        the one its rows give.  For a block of members and each factor,
        the members' closed rows in that factor are unpacked at once
        (_closed_bits, as the row kernel does) and read at the coordinates
        of all m = len(idx) members: O(m^2 * number of factors) lookups,
        with every temporary at most _BLOCK_ELEMS booleans, and no row of
        the product is built.  Any other graph is tested on its rows."""
        if self._parts is None:
            rows = self.rows
            return any(a != b and rows[a] >> b & 1 for a in idx for b in idx)
        idx = np.asarray(idx, dtype=np.int64)
        coords = np.unravel_index(idx, [p.n for p in self._parts])
        step = max(1, _BLOCK_ELEMS // max(len(idx), *(p.n for p in self._parts)))
        for lo in range(0, len(idx), step):
            hit = idx[lo:lo + step, None] != idx
            for p, c in zip(self._parts, coords):
                hit &= _closed_bits(p, c[lo:lo + step])[:, c]
            if hit.any():
                return True
        return False


def _packed(rows, nbytes: int) -> np.ndarray:
    """The ints rows as a uint8 matrix, one row of nbytes little-endian
    bytes each."""
    return np.frombuffer(b"".join(r.to_bytes(nbytes, "little") for r in rows),
                         dtype=np.uint8).reshape(len(rows), nbytes)


def _row_ints(packed: np.ndarray) -> list[int]:
    """The rows of a C-contiguous uint8 matrix as little-endian ints
    (undoes _packed).  Each row is read as one fixed-width bytes item;
    numpy drops its trailing zero bytes, the high bytes of a little-endian
    int, which leaves the value unchanged."""
    items = packed.view(f"S{packed.shape[1]}").ravel().tolist()
    return list(map(int.from_bytes, items, ["little"] * len(items)))


def _closed_bits(p: GenericGraph, xs: np.ndarray) -> np.ndarray:
    """Closed rows of the plain graph p at the vertices xs (each with its
    own bit set), as a boolean array of shape (len(xs), p.n)."""
    packed = _packed([p.rows[x] | 1 << x for x in xs.tolist()], (p.n + 7) // 8)
    return np.unpackbits(packed, axis=1, count=p.n, bitorder="little").view(bool)


def symmetrized_rows(rows) -> list[int]:
    """Rows of the symmetrized graph, row i OR column i.  The rows, as an
    n x ceil(n/8) byte matrix, are transposed in blocks of columns of at
    most _TRANSPOSE_BLOCK bytes of unpacked bits each, packed back into
    column ints.  The byte matrix is freed on return, so a caller that then
    builds the complement still holds at most three adjacency copies."""
    n, rows = len(rows), list(rows)
    nbytes = (n + 7) // 8
    packed = _packed(rows, nbytes)
    width = max(1, _TRANSPOSE_BLOCK // (8 * max(n, 1)))  # bytes of columns per block
    for lo in range(0, nbytes, width):
        bits = np.unpackbits(packed[:, lo:lo + width], axis=1, bitorder="little")
        cols = np.packbits(bits.T, axis=1, bitorder="little")
        for j, col in enumerate(cols[:n - 8 * lo], 8 * lo):
            rows[j] |= int.from_bytes(col, "little")
    return rows


def complement_rows(rows) -> list[int]:
    """Rows of the loopless complement: j in row i iff i != j and j was not."""
    full = (1 << len(rows)) - 1
    return [full & ~r & ~(1 << i) for i, r in enumerate(rows)]


@dataclass(frozen=True)
class CayleyGraph:
    """Cayley graph on the ring R: x -> y is an edge iff x - y lies in the
    connection set S (nonzero elements).  The graph is R and S alone:
    build_paley makes Paley_k(R), whose S is the nonzero k-th powers, but
    no exponent is kept, and what the solver and theta need (multipliers,
    edge-transitivity) is read off S.  members and inside (S's index array
    and indicator) are kept; symmetric is True iff S is closed under
    negation.  sums, None until theta.cayley_spectrum first runs on the
    graph (or on a graph whose complement this is), holds the real
    character sums over S in transform order, index 0 the trivial
    character; like members and inside it takes no part in equality.
    """

    ring: RingCtx
    connection: frozenset[int]
    symmetric: bool = field(init=False)
    members: np.ndarray = field(init=False, compare=False, repr=False)
    inside: np.ndarray = field(init=False, compare=False, repr=False)
    sums: np.ndarray | None = field(init=False, default=None, compare=False, repr=False)

    def __post_init__(self):
        members = np.fromiter(self.connection, dtype=np.int64, count=len(self.connection))
        inside = np.zeros(self.ring.order, dtype=bool)
        inside[members] = True
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "inside", inside)
        object.__setattr__(self, "symmetric", bool(inside[self.ring.neg_array(members)].all()))

    @property
    def n(self) -> int:
        return self.ring.order

    def to_generic(self) -> GenericGraph:
        """Row x has bit x - s set for each s in the connection set.  The
        index block x - s is formed by R.add_array from a column of rows x
        and the row of negated connection elements, for a block of rows at
        a time, and packed into row ints."""
        R = self.ring
        n = check_order(R.order)
        # int32 halves the (rows x |S|) index temporaries; n <= ORDER_CAP
        neg = R.neg_array(self.members).astype(np.int32)[None, :]
        step = max(1, _BLOCK_ELEMS // max(n, neg.size))
        rows = []
        for lo in range(0, n, step):
            idx = R.add_array(np.arange(lo, min(lo + step, n), dtype=np.int32)[:, None], neg)
            block = np.zeros((len(idx), n), dtype=bool)
            np.put_along_axis(block, idx, True, axis=1)
            rows += _row_ints(np.packbits(block, axis=1, bitorder="little"))
        return GenericGraph(n=n, rows=tuple(rows), symmetric=self.symmetric)

    def complement_cayley(self) -> "CayleyGraph":
        """Cayley graph on the complementary connection set S'.  Its
        indicator is 1 - [x = 0] - 1_S and the transform is linear, so when
        this graph's sums are known the complement's follow with no
        transform: |S'| at the trivial character, -1 - (sum over S) at
        every other, and exact zeros when S' is empty."""
        outside = ~self.inside
        outside[0] = False
        conn = frozenset(np.flatnonzero(outside).tolist())
        C = CayleyGraph(ring=self.ring, connection=conn)
        if self.sums is not None:
            sums = -1.0 - self.sums if conn else np.zeros_like(self.sums)
            sums[0] = len(conn)
            object.__setattr__(C, "sums", sums)
        return C


def build_paley(R: RingCtx, k: int) -> CayleyGraph:
    """Construct Paley_k(R) from the k-th power set of R."""
    G = CayleyGraph(ring=R, connection=frozenset(kth_power_set(R, k) - {0}))
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
    return GenericGraph(n=g.n, rows=tuple(complement_rows(g.rows)), symmetric=g.symmetric)


def root_stabilizer(G) -> list[np.ndarray] | None:
    """Generators of a group of automorphisms of G that fix vertex 0, each
    an index permutation perm (vertex x maps to perm[x]); None when G is
    not known vertex-transitive.

    Cayley graphs and strong products of Cayley graphs are
    vertex-transitive by translation.  A multiplier x -> u*x by a unit u
    is an automorphism (fixing 0) iff u*S = S, S the connection set, so
    per factor the generators are read off S (_factor_stabilizer): the
    multipliers that keep S and, on F_{p^s} with s > 1, Frobenius
    x -> x^p if it keeps S.  Added to these is the transposition of two
    adjacent factors with equal ring and connection set.  All of them
    also preserve the symmetrized graph."""
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
    """Multipliers and Frobenius that keep the connection set S of G.

    On F_q, whose units are the powers of the table generator g, the
    units u with u*S = S form the cyclic group generated by g^e, e the
    least period of S's indicator over the exponents (a divisor of q-1):
    one generator, none when e = q-1.  On Z/m the units are taken
    greedily in index order, each kept when u*S = S and u lies outside
    the group generated so far; a test of u*s0 for one s0 in S first
    makes a unit that cannot qualify cost O(1)."""
    R, S, members, inside = G.ring, G.connection, G.members, G.inside
    n = R.order
    xs = np.arange(n)
    if not R.is_field:
        s0 = min(S, default=0)  # with S empty, every unit passes the s0 test
        units = xs[(np.gcd(xs, n) == 1) & (inside[xs * s0 % n] == inside[s0])]
        reached = xs == 1  # the group generated so far
        gens = []
        for u in units.tolist():
            if reached[u] or not all(u * s % n in S for s in S):
                continue
            gens.append(xs * u % n)
            # add the cosets u^i * reached up to the first u^i inside it
            base, v = xs[reached], u
            while not reached[v]:
                reached[base * v % n] = True
                v = v * u % n
        return gens
    exp, log = R.exp, R.log

    def log_map(f):  # x -> exp[f(log x)] on units, 0 -> 0
        perm = np.zeros(n, dtype=np.int64)
        perm[1:] = exp[f(log[1:]) % (n - 1)]
        return perm

    on_exp = inside[exp]
    e = next(e for e in range(1, n)
             if (n - 1) % e == 0 and np.array_equal(on_exp[e:], on_exp[:-e]))
    gens = [log_map(lambda j: j + e)] if e < n - 1 else []
    if R.spec.s > 1:  # int32 logs times p <= sqrt(q): below q^1.5 <= 2^30
        gens.append(log_map(lambda j: j * R.spec.p))
    return [perm for perm in gens if inside[perm[members]].all()]


def _product_blocks(parts):
    """Rows of the strong product of the plain graphs parts, in row-major
    order, as blocks of consecutive rows: C-contiguous uint8 arrays of
    shape (rows, ceil(n/8)), n the product's order, whose bytes are
    row.to_bytes(ceil(n/8), "little") of each row in turn.

    Vertex i = (a_1, ..., a_k) has the closed neighbourhood N[a_1] x ...
    x N[a_k] (every coordinate pair equal or an edge), so bit j of its
    closed row is the AND over the factors t of [c_t(j) in N[a_t]], where
    c_t(j) = j // inner_t % n_t is the t-th coordinate of j and inner_t
    the product of the orders after t.  Packing puts bit j at bit j % 8
    of byte j // 8 and pads with zeros, which is to_bytes' little-endian
    layout, and it maps an AND of bit vectors to the bytewise AND of
    their packings.  So the packed closed row is the bytewise AND over t
    of spread_t(a_t), the packing of [c_t(j) in N[a_t]] over j (_spread).
    The row's own bit is set in every spread, so in the AND, and one xor
    clears it: the bytes are exactly the row's.

    A block has _BLOCK_ELEMS // n rows (at least one), so no unpacked
    temporary has more than _BLOCK_ELEMS booleans.  The n_t spreads of a
    factor are made once and held when their n_t * ceil(n/8) bytes are at
    most _BLOCK_ELEMS; otherwise each block makes the spreads of the
    coordinates it meets, at most one per row."""
    orders = [p.n for p in parts]
    n = math.prod(orders)
    nbytes = (n + 7) // 8
    step = max(1, _BLOCK_ELEMS // max(n, 1))
    spreads = []
    for t, p in enumerate(parts):
        outer, inner = math.prod(orders[:t]), math.prod(orders[t + 1:])
        table = None
        if p.n * nbytes <= _BLOCK_ELEMS:  # hold all n_t spreads
            table = np.empty((p.n, nbytes), dtype=np.uint8)
            for lo in range(0, p.n, step):
                table[lo:lo + step] = _spread(p, outer, inner, np.arange(lo, min(lo + step, p.n)))
        spreads.append((p, outer, inner, table))
    for lo in range(0, n, step):
        idx = np.arange(lo, min(lo + step, n))
        block = None
        for p, outer, inner, table in spreads:
            first = lo // inner  # the block meets coordinates first, first + 1, ... mod n_t
            xs = np.arange(first, idx[-1] // inner + 1) % p.n
            rows = table[xs] if table is not None else _spread(p, outer, inner, xs)
            if inner > 1:
                rows = rows[idx // inner - first]
            if block is None:
                block = rows
            else:
                block &= rows
        block[np.arange(len(idx)), idx >> 3] ^= (1 << (idx & 7)).astype(np.uint8)
        yield block


def _spread(p: GenericGraph, outer: int, inner: int, xs: np.ndarray) -> np.ndarray:
    """For each vertex x of xs, the packed bits [j // inner % p.n in N[x]]
    over j < n = outer * p.n * inner: the closed row of x with each bit
    repeated inner times, tiled outer times.

    The bits repeat with period p.n * inner, so the bytes repeat with
    period lcm(p.n * inner, 8) / 8.  The bytes of the first period (all
    of them, if there are fewer) are packed in column blocks of at most
    _SPREAD_BITS bits from the closed bits of the coordinates each block
    meets, the rest are doubling copies of the bytes before them, and the
    bits past n in the last byte are cleared.  The closed rows are
    unpacked once and continued cyclically past p.n by the coordinates
    of one block, so each block reads a slice.  So besides the len(xs) *
    ceil(n/8) bytes returned, a temporary has at most twice the
    len(xs) * p.n closed bits (within _BLOCK_ELEMS, as _product_blocks
    passes xs) plus about _SPREAD_BITS booleans and a run of inner bits
    at each end of each row."""
    n = outer * p.n * inner
    nbytes = (n + 7) // 8
    period = p.n * inner
    head = min(period // math.gcd(period, 8), nbytes)
    width = min(max(1, _SPREAD_BITS // (8 * len(xs))), head)  # bytes of a column block
    span = (8 * width - 1) // inner + 2  # the most coordinates a block meets
    closed = _closed_bits(p, xs)
    closed = np.concatenate((closed, np.take(closed, np.arange(span), axis=1, mode="wrap")), axis=1)
    out = np.empty((len(xs), nbytes), dtype=np.uint8)
    for lo in range(0, head, width):
        hi = min(lo + width, head)
        first, last = 8 * lo // inner, (8 * hi - 1) // inner  # mod p.n: the coordinates met
        bits = closed[:, first % p.n:first % p.n + last - first + 1]
        if inner > 1:
            bits = np.repeat(bits, inner, axis=1)
        skip = 8 * lo - first * inner
        out[:, lo:hi] = np.packbits(bits[:, skip:skip + 8 * (hi - lo)], axis=1, bitorder="little")
    filled = head
    while filled < nbytes:  # out[:, :filled] is whole periods
        take = min(filled, nbytes - filled)
        out[:, filled:filled + take] = out[:, :take]
        filled += take
    if n % 8:
        out[:, -1] &= (1 << n % 8) - 1
    return out


def _factored(G) -> tuple[tuple, tuple]:
    """(factors, parts) of G: its factor graphs and their plain graphs,
    aligned.  A graph that is not a product is its own one factor."""
    g = G.to_generic()
    if not g.factors:
        return (G,), (g,)
    return g.factors, g._parts or tuple(f.to_generic() for f in g.factors)


def strong_product(G, H) -> GenericGraph:
    """Strong product: (a,b) -> (c,d) iff each coordinate pair is an edge
    or equal, and the endpoints differ.  Directed inputs are permitted.
    The factors are those of G then H, a product contributing its own, so
    powers of powers are flat.  The order |G|*|H| is checked first; the
    product keeps its factors' rows and builds its own only when they are
    read (see GenericGraph)."""
    check_order(G.n * H.n)
    factors_g, parts_g = _factored(G)
    factors_h, parts_h = _factored(H)
    return GenericGraph._product(factors_g + factors_h, parts_g + parts_h)


def strong_power(G, n: int) -> GenericGraph:
    """n-fold strong product of G with itself (for n = 1, G with factors
    (G,), so its vertices are 1-tuples).  The final order |G|^n is checked
    before any product is made, as by check_order; when its refusal
    could not be printed (the order or its size in MB has more decimal
    digits than int-to-str conversion allows) it names the order |G|^n,
    which is then never computed in full when it has more than the
    interpreter's default 4,300 digits.  The rows of G are built once,
    whatever n."""
    if n < 1:
        raise ValueError("power must be >= 1")
    over = f"{G.n}^{n} vertices are over the cap of {ADJACENCY_CAP >> 20} MB of solver bitmasks"
    if G.n > 1 and n * math.log10(G.n) > sys.int_info.default_max_str_digits:
        raise OrderTooLarge(over)
    try:
        check_order(G.n ** n)
    except ValueError:  # check_order's message has too many digits for str()
        raise OrderTooLarge(over) from None
    base = acc = GenericGraph._product(*_factored(G))
    for _ in range(n - 1):  # base, not G: G's rows are built once
        acc = strong_product(acc, base)
    return acc


def crt_factor_check(m: int, n: int, k: int) -> bool:
    """True iff the CRT bijection x -> (x mod m, x mod n) is an exact
    adjacency isomorphism Paley_k(Z/mn) = Paley_k(Z/m) x Paley_k(Z/n).
    With perm[x] the product index of (x mod m, x mod n), closed row
    perm[x] of the product, unpacked to bits, is gathered through perm
    and compared with closed row x, a block of rows at a time."""
    if m <= 1 or n <= 1:
        raise NotCoprime("factors must exceed 1")
    if math.gcd(m, n) != 1:
        raise NotCoprime(f"gcd({m},{n}) != 1")
    big = build_paley(make_ring(RingSpec.zmod(m * n)), k).to_generic()
    prod = strong_product(
        build_paley(make_ring(RingSpec.zmod(m)), k),
        build_paley(make_ring(RingSpec.zmod(n)), k),
    )
    xs = np.arange(m * n)
    perm = xs % m * n + xs % n
    step = max(1, _BLOCK_ELEMS // (m * n))
    return all(np.array_equal(_closed_bits(prod, perm[lo:lo + step])[:, perm],
                              _closed_bits(big, xs[lo:lo + step]))
               for lo in range(0, m * n, step))


def export_dimacs(G, path: str) -> None:
    """Write an undirected graph in DIMACS format (1-based, edges sorted).
    The edge count comes from popcounts of the upper-triangle rows, and
    the edges are written while the rows are walked, never collected."""
    g = G.to_generic()
    if not g.symmetric:
        raise DirectedUnsupported("DIMACS export needs an undirected graph")
    m = sum((r >> (i + 1)).bit_count() for i, r in enumerate(g.rows))
    with open(path, "w") as fh:
        fh.write(f"p edge {g.n} {m}\n")
        for i, r in enumerate(g.rows):
            r = r >> (i + 1) << (i + 1)  # j > i only
            while r:
                j = (r & -r).bit_length() - 1
                fh.write(f"e {i + 1} {j + 1}\n")
                r &= r - 1


def import_dimacs(path: str) -> GenericGraph:
    """Read a DIMACS undirected graph file.  A malformed p or e line (too
    few fields, a non-integer, a vertex count below 0 or over the
    adjacency cap, a second p line, an edge before the p line or with an
    endpoint outside 1..n, or an edge count m that is neither the number
    of e lines nor of distinct edges, as in a file cut short) raises
    ValueError naming it; other lines are skipped."""
    n = e_lines = 0
    rows: list[int] | None = None
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            parts = line.split()
            if not parts or parts[0] not in ("p", "e"):
                continue
            try:
                if len(parts) < 3:
                    raise ValueError(f"a {parts[0]} line needs at least 3 fields")
                if parts[0] == "p":
                    if rows is not None:
                        raise ValueError("a second p line")
                    if len(parts) < 4:
                        raise ValueError("a p line needs an edge count")
                    n, m, p_line = int(parts[2]), int(parts[3]), lineno
                    if n < 0:
                        raise ValueError(f"vertex count {n} is negative")
                    rows = [0] * check_order(n)
                else:
                    i, j = int(parts[1]) - 1, int(parts[2]) - 1
                    if rows is None:
                        raise ValueError("edge before the p line")
                    if not (0 <= i < n and 0 <= j < n):
                        raise ValueError(f"edge endpoint outside 1..{n}")
                    e_lines += 1
                    if i != j:
                        rows[i] |= 1 << j
                        rows[j] |= 1 << i
            except (ValueError, OrderTooLarge) as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    if rows is not None:
        edges = sum(r.bit_count() for r in rows) // 2
        if m not in (e_lines, edges):
            raise ValueError(f"{path}:{p_line}: the p line gives {m} edges, but"
                             f" the file has {e_lines} e lines and {edges} distinct edges")
    return GenericGraph(n=n, rows=tuple(rows or ()), symmetric=True)


def graph_fingerprint(G) -> str:
    """SHA-256 over vertex count and adjacency rows, each row the
    ceil(n/8) little-endian bytes of its int; binds certificates.  The
    rows are hashed a block of rows at a time: a product whose rows were
    never read is hashed from the packed blocks of _product_blocks, and
    none of its rows is kept."""
    g = G.to_generic()
    h = hashlib.sha256(str(g.n).encode())
    if g._rows is None:
        blocks = _product_blocks(g._parts)
    else:
        step = max(1, _BLOCK_ELEMS // max(g.n, 1))
        blocks = (_packed(g._rows[lo:lo + step], (g.n + 7) // 8) for lo in range(0, g.n, step))
    for block in blocks:
        h.update(block)
    return h.hexdigest()
