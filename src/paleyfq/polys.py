"""Dense polynomials over F_q: arithmetic, composition, k-th roots, and
enumeration of the space of polynomials of degree < n.

Coefficients are canonical ring indices, low degree first, with the
highest stored coefficient nonzero (the zero polynomial stores nothing
and reports degree -inf).  PolyFq refuses an index outside [0, q) with
ValueError, as the ring kernels read indices, not residues.
"""

from __future__ import annotations

import math
from typing import Iterator, Optional

from .errors import ContextMismatch, EnumerationTooLarge, NotAField
from .rings import RingCtx, fold_digits, split_digits

ENUM_CAP = 10**7

NEG_INF = float("-inf")


class PolyFq:
    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: RingCtx, coeffs):
        if not ring.is_field:
            raise NotAField("polynomial coefficients live in a field")
        c = list(coeffs)
        if c and (min(c) < 0 or max(c) >= ring.order):
            raise ValueError("coefficient index out of range")
        self._set(ring, c)

    def _set(self, ring: RingCtx, c: list) -> "PolyFq":
        while c and c[-1] == 0:
            c.pop()
        self.ring = ring
        self.coeffs = tuple(c)
        return self

    def _new(self, coeffs) -> "PolyFq":
        """A polynomial over self's field from a kernel's output, whose
        coefficients are canonical indices already: the checks are not
        run again."""
        return PolyFq.__new__(PolyFq)._set(self.ring, list(coeffs))

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, i: int) -> int:
        return self.coeffs[i] if i < len(self.coeffs) else 0

    def _check(self, other: "PolyFq") -> None:
        if self.ring.spec != other.ring.spec:
            raise ContextMismatch("polynomials over different fields")

    def _zip(self, other: "PolyFq", op) -> "PolyFq":
        """The polynomial whose i-th coefficient is op of the two i-th."""
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return self._new([op(self.coeff(i), other.coeff(i)) for i in range(n)])

    def __add__(self, other: "PolyFq") -> "PolyFq":
        return self._zip(other, self.ring.add)

    def __sub__(self, other: "PolyFq") -> "PolyFq":
        return self._zip(other, self.ring.sub)

    def __mul__(self, other: "PolyFq") -> "PolyFq":
        self._check(other)  # a zero factor convolves to zeros, which PolyFq strips
        return self._new(self.ring.convolve(self.coeffs, other.coeffs))

    def __pow__(self, e: int) -> "PolyFq":
        """self^e for e >= 0 by the ring's power kernel, poly_pow: one
        integer power of the packed coefficients on F_p while its slots
        stay narrow, else (and on F_{p^s}, s > 1) exponentiation by
        squaring over convolve."""
        if e < 0:
            raise ValueError("negative polynomial power")
        return self._new(self.ring.poly_pow(self.coeffs, e) if e else (1,))

    def __neg__(self) -> "PolyFq":
        return self._new(map(self.ring.neg, self.coeffs))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PolyFq)
            and self.ring.spec == other.ring.spec
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.ring.spec, self.coeffs))

    def __repr__(self):
        if self.is_zero():
            return "PolyFq(0)"
        terms = []
        for i in reversed(range(len(self.coeffs))):
            c = self.coeffs[i]
            if not c:
                continue
            if i == 0:
                terms.append(f"{c}")
            elif i == 1:
                terms.append(f"{c}*T" if c != 1 else "T")
            else:
                terms.append(f"{c}*T^{i}" if c != 1 else f"T^{i}")
        return "PolyFq(" + " + ".join(terms) + ")"


def poly(ring: RingCtx, coeffs) -> PolyFq:
    return PolyFq(ring, coeffs)


def compose(F: PolyFq, u: PolyFq) -> PolyFq:
    """F(u) by the ring's Horner kernel, poly_compose: one Horner pass on
    plain integers with u packed into one integer on F_p while its slots
    stay narrow, else (and on F_{p^s}, s > 1) Horner's rule on coefficient
    lists over convolve."""
    F._check(u)
    return F._new(F.ring.poly_compose(F.coeffs, u.coeffs))


def _least_field_kth_root(R: RingCtx, c: int, k: int) -> Optional[int]:
    """The least-index y in F_q with y^k = c, or None if there is none
    (c nonzero, gcd(k, p) = 1).  The gcd(k, q-1) roots are g^(t0 + j*step),
    j < gcd(k, q-1), whose exponents stay below q - 1, so they are one
    strided slice of the exp table."""
    qm1 = R.order - 1
    d = math.gcd(k, qm1)
    a = int(R.log[c])
    if a % d:
        return None
    step = qm1 // d
    t0 = (a // d) * pow(k // d, -1, step) % step
    return int(R.exp[t0:qm1:step].min())


def _root_lead(R: RingCtx, k0: int, lead: int):
    """Set-up of a k0-th root whose leading coefficient raises to lead:
    (B_0, B_0^m for m < k0, slopes m * B_0^(m-1) for m <= k0, inverse
    pivot) with B_0 the least-index field root of lead, or None when lead
    has none.  Cached on R per (k0, lead), at most q - 1 entries per k0."""
    key = (k0, lead)
    if key in R._root_leads:
        return R._root_leads[key]
    b0 = _least_field_kth_root(R, lead, k0)
    entry = None
    if b0 is not None:
        pows = [1]
        for _ in range(k0):
            pows.append(R.mul(pows[-1], b0))
        p = R.spec.p
        slope = (0,) + tuple(R.mul(m % p, pows[m - 1]) for m in range(1, k0 + 1))
        entry = (b0, tuple(pows[:k0]), slope, R.inv(slope[k0]))
    R._root_leads[key] = entry
    return entry


def _root_coeffs(R: RingCtx, W, D: int, k0: int, lead) -> list[int]:
    """B_0..B_D, the reversed k0-th root, from the reversed power W by the
    top-down recurrence of kth_root, through the ring's add and mul."""
    b0, pows, slope, inv_pivot = lead
    add, mul = R.add, R.mul
    B = [b0]
    # cols[m] holds the finished columns of B^m for 1 <= m < k0
    cols = [None, B] + [[pows[m]] for m in range(2, k0)]
    for j in range(1, D + 1):
        parts = [0, 0]
        acc = 0  # partial of column m - 1, 0 for column 1
        for m in range(2, k0 + 1):
            prev = cols[m - 1]
            if acc:
                acc = mul(b0, acc)
            for i in range(1, j):
                acc = add(acc, mul(B[i], prev[j - i]))
            parts.append(acc)
        Bj = mul(R.sub(W[j], acc), inv_pivot)
        for m in range(2, k0):
            cols[m].append(add(parts[m], mul(slope[m], Bj)))
        B.append(Bj)
    return B


def _root_coeffs_mod(R: RingCtx, W, D: int, k0: int, lead) -> list[int]:
    """_root_coeffs on F_p, where the elements are residues mod p: each
    column entry is accumulated in plain integers and reduced once, as in
    convolve_mod."""
    b0, pows, slope, inv_pivot = lead
    p = R.order
    B = [b0]
    cols = [None, B] + [[pows[m]] for m in range(2, k0)]
    for j in range(1, D + 1):
        parts = [0, 0]
        acc = 0
        for m in range(2, k0 + 1):
            prev = cols[m - 1]
            acc *= b0
            for i in range(1, j):
                acc += B[i] * prev[j - i]
            acc %= p
            parts.append(acc)
        Bj = (W[j] - acc) * inv_pivot % p
        for m in range(2, k0):
            cols[m].append((parts[m] + slope[m] * Bj) % p)
        B.append(Bj)
    return B


def kth_root(u: PolyFq, k: int) -> Optional[PolyFq]:
    """A polynomial b with b^k = u, or None if u is not a k-th power.

    k splits as p^e * k0 with p the field characteristic and p not
    dividing k0.  The p^e-th root exists iff every exponent carrying a
    nonzero coefficient is divisible by p^e (coefficient roots always
    exist because Frobenius is bijective); the k0-th root is found by
    matching coefficients top-down, where each step has the unit pivot
    k0 * lead^(k0-1).  Among the gcd(k, q-1) field roots of the leading
    coefficient the one with least canonical index is chosen, which makes
    the result deterministic.  A constant is answered by that field root
    alone, so its cost grows with log k, not k.

    Top-down matching runs in one pass over the reversed root
    B_j = b[D-j] (D = deg b): with c[m][j] = [x^j] B^m, the coefficient
    W_j = w[k0*D - j] equals c[k0][j], in which B_j appears only in the
    term k0 * B_0^(k0-1) * B_j.  So B_j = (W_j - partial) / pivot, where
    partial is c[k0][j] with B_j = 0, and each partial follows from
    c[m][j] = sum_{i<=j} B_i c[m-1][j-i] over the finished columns.  The
    columns start at m = 2, as c[1] is B itself, so this is
    O((k0 - 1) * D^2) ring operations, on F_p plain integer operations
    with one reduction per column entry.  The lead set-up (B_0, its powers,
    the slopes and the inverse pivot) is cached per ring by _root_lead.
    The final check b^k0 = w keeps full strength: every coefficient of
    b^k0 is computed from B alone, by the ring's power kernel poly_pow,
    and compared with w.  On F_p that is one integer power of the packed
    B while its slots stay narrow, else O(log k0) coefficient list
    products over convolve.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    R = u.ring
    wc = u.coeffs
    if not wc:
        return u
    p, s = R.spec.p, R.spec.s

    e = 0
    k0 = k
    while k0 % p == 0:
        k0 //= p
        e += 1

    if e:
        pe = p**e
        if any(c and (i % pe) for i, c in enumerate(wc)):
            return None
        # inverse Frobenius applied e times: c -> c^(p^((-e) mod s))
        inv_frob = p ** ((-e) % s)
        wc = [R.pow_elem(c, inv_frob) for c in wc[::pe]]

    dw = len(wc) - 1
    if dw % k0:
        return None
    D = dw // k0
    if not D:
        b0 = _least_field_kth_root(R, wc[0], k0)
        B = [] if b0 is None else [b0]
    else:
        lead = _root_lead(R, k0, wc[-1])
        if lead is None:
            return None
        # F_p is a residue ring: its elements add and multiply as integers
        B = (_root_coeffs_mod if s == 1 else _root_coeffs)(R, wc[::-1], D, k0, lead)
        B.reverse()
    if B and R.poly_pow(B, k0) == list(wc):
        return u._new(B)
    return None


def enumeration_size(R: RingCtx, n: int) -> int:
    """q^n, the number of polynomials of degree < n (n >= 0, else
    ValueError); EnumerationTooLarge over ENUM_CAP."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    size = R.order**n
    if size > ENUM_CAP:
        raise EnumerationTooLarge(f"q^n = {size} exceeds cap {ENUM_CAP}")
    return size


def enumerate_polynomials(R: RingCtx, n: int) -> Iterator[PolyFq]:
    """All q^n polynomials of degree < n, ordered by the base-q integer
    encoding of the coefficient vector (c_0 least significant)."""
    size = enumeration_size(R, n)
    zero = PolyFq(R, ())  # NotAField unless R is a field
    for code in range(size):
        yield zero._new(split_digits(code, R.order))  # digits are indices


def encode_poly(u: PolyFq) -> int:
    """Base-q integer encoding of the coefficient vector."""
    return fold_digits(u.coeffs, u.ring.order)


def decode_poly(R: RingCtx, code: int) -> PolyFq:
    return PolyFq(R, split_digits(code, R.order))


def parse_poly(R: RingCtx, text: str) -> PolyFq:
    coeffs = [int(t) for t in text.split(",")] if text.strip() else []
    return PolyFq(R, coeffs)  # ValueError outside [0, q)
