"""Dense polynomials over F_q: arithmetic, composition, k-th roots, and
enumeration of the space of polynomials of degree < n.

Coefficients are canonical ring indices, low degree first, with the
highest stored coefficient nonzero (the zero polynomial stores nothing
and reports degree -inf).
"""

from __future__ import annotations

import math
from typing import Iterator, Optional

from .errors import ContextMismatch, EnumerationTooLarge, NotAField
from .rings import RingCtx

ENUM_CAP = 10**7

NEG_INF = float("-inf")


class PolyFq:
    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: RingCtx, coeffs):
        if not ring.is_field:
            raise NotAField("polynomial coefficients live in a field")
        c = list(coeffs)
        while c and c[-1] == 0:
            c.pop()
        self.ring = ring
        self.coeffs = tuple(c)

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

    def __add__(self, other: "PolyFq") -> "PolyFq":
        self._check(other)
        R = self.ring
        n = max(len(self.coeffs), len(other.coeffs))
        return PolyFq(R, [R.add(self.coeff(i), other.coeff(i)) for i in range(n)])

    def __sub__(self, other: "PolyFq") -> "PolyFq":
        self._check(other)
        R = self.ring
        n = max(len(self.coeffs), len(other.coeffs))
        return PolyFq(R, [R.sub(self.coeff(i), other.coeff(i)) for i in range(n)])

    def __mul__(self, other: "PolyFq") -> "PolyFq":
        self._check(other)
        R = self.ring
        if self.is_zero() or other.is_zero():
            return PolyFq(R, ())
        return PolyFq(R, R.convolve(self.coeffs, other.coeffs))

    def __pow__(self, e: int) -> "PolyFq":
        """Right-to-left square-and-multiply from base itself, squaring
        only while set bits remain above the current one."""
        if e < 0:
            raise ValueError("negative polynomial power")
        if not e:
            return PolyFq(self.ring, (1,))
        base, result = self, None
        while True:
            if e & 1:
                result = base if result is None else result * base
            e >>= 1
            if not e:
                return result
            base = base * base

    def __neg__(self) -> "PolyFq":
        R = self.ring
        return PolyFq(R, [R.neg(c) for c in self.coeffs])

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
    """F(u) by Horner's rule."""
    if F.ring.spec != u.ring.spec:
        raise ContextMismatch("polynomials over different fields")
    R = F.ring
    acc = PolyFq(R, ())
    for c in reversed(F.coeffs):
        acc = acc * u + PolyFq(R, (c,))
    return acc


def _field_kth_roots(R: RingCtx, c: int, k: int) -> list[int]:
    """All y in F_q with y^k = c, ascending by index (c nonzero, gcd(k,p)=1)."""
    q = R.order
    if q == 2:
        return [1]
    qm1 = q - 1
    d = math.gcd(k, qm1)
    a = R.log[c]
    if a % d:
        return []
    t0 = (a // d) * pow(k // d, -1, qm1 // d) % (qm1 // d)
    roots = [R.exp[(t0 + j * (qm1 // d)) % qm1] for j in range(d)]
    return sorted(roots)


def kth_root(u: PolyFq, k: int) -> Optional[PolyFq]:
    """A polynomial b with b^k = u, or None if u is not a k-th power.

    k splits as p^e * k0 with p the field characteristic and p not
    dividing k0.  The p^e-th root exists iff every exponent carrying a
    nonzero coefficient is divisible by p^e (coefficient roots always
    exist because Frobenius is bijective); the k0-th root is found by
    matching coefficients top-down, where each step has the unit pivot
    k0 * lead^(k0-1).  Among the gcd(k, q-1) field roots of the leading
    coefficient the one with least canonical index is chosen, which makes
    the result deterministic.

    Top-down matching runs in one pass over the reversed root
    B_j = b[D-j] (D = deg b): with c[m][j] = [x^j] B^m, the coefficient
    W_j = w[k0*D - j] equals c[k0][j], in which B_j appears only in the
    term k0 * B_0^(k0-1) * B_j.  So B_j = (W_j - partial) / pivot, where
    partial is c[k0][j] with B_j = 0, and each partial follows from
    c[m][j] = sum_{i<=j} B_i c[m-1][j-i] over the finished columns.
    That is O(k0 * D^2) ring operations; the final b^k0 = w check stays.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    R = u.ring
    if u.is_zero():
        return PolyFq(R, ())
    p, s = R.spec.p, R.spec.s

    e = 0
    k0 = k
    while k0 % p == 0:
        k0 //= p
        e += 1

    w = u
    if e:
        pe = p**e
        if any(c and (i % pe) for i, c in enumerate(u.coeffs)):
            return None
        # inverse Frobenius applied e times: c -> c^(p^((-e) mod s))
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
    lead_roots = _field_kth_roots(R, w.coeffs[-1], k0)
    if not lead_roots:
        return None
    add, mul = R.add, R.mul
    W = w.coeffs[::-1]
    B = [lead_roots[0]]
    lead_pows = [1]  # B_0^m
    for _ in range(k0):
        lead_pows.append(mul(lead_pows[-1], B[0]))
    # c[m] holds the finished columns of B^m for m < k0; slope[m] is the
    # coefficient m * B_0^(m-1) of B_j in c[m][j]
    c = [[lead_pows[m]] for m in range(k0)]
    slope = [0] + [mul(m % p, lead_pows[m - 1]) for m in range(1, k0 + 1)]
    inv_pivot = R.inv(slope[k0])
    for j in range(1, D + 1):
        partial = [0] * (k0 + 1)
        for m in range(1, k0 + 1):
            prev = c[m - 1]
            acc = mul(B[0], partial[m - 1])
            for i in range(1, j):
                acc = add(acc, mul(B[i], prev[j - i]))
            partial[m] = acc
        Bj = mul(R.sub(W[j], partial[k0]), inv_pivot)
        B.append(Bj)
        for m in range(k0):
            c[m].append(add(partial[m], mul(slope[m], Bj)))
    cand = PolyFq(R, B[::-1])
    if cand**k0 == w:
        return cand
    return None


def enumeration_size(R: RingCtx, n: int) -> int:
    """q^n, the number of polynomials of degree < n; EnumerationTooLarge
    over ENUM_CAP."""
    size = R.order**n
    if size > ENUM_CAP:
        raise EnumerationTooLarge(f"q^n = {size} exceeds cap {ENUM_CAP}")
    return size


def enumerate_polynomials(R: RingCtx, n: int) -> Iterator[PolyFq]:
    """All q^n polynomials of degree < n, ordered by the base-q integer
    encoding of the coefficient vector (c_0 least significant)."""
    for code in range(enumeration_size(R, n)):
        yield decode_poly(R, code)


def encode_poly(u: PolyFq) -> int:
    """Base-q integer encoding of the coefficient vector."""
    q = u.ring.order
    x = 0
    for c in reversed(u.coeffs):
        x = x * q + c
    return x


def decode_poly(R: RingCtx, code: int) -> PolyFq:
    q = R.order
    c = []
    while code:
        c.append(code % q)
        code //= q
    return PolyFq(R, c)


def format_poly(u: PolyFq, n: int | None = None) -> str:
    """Comma-separated coefficient indices c_0,...,c_{n-1}; ValueError if
    n is too narrow to hold every coefficient of u."""
    if n is not None and n < len(u.coeffs):
        raise ValueError(f"width {n} is narrower than {len(u.coeffs)} coefficients")
    width = n if n is not None else max(len(u.coeffs), 1)
    return ",".join(str(u.coeff(i)) for i in range(width))


def parse_poly(R: RingCtx, text: str) -> PolyFq:
    coeffs = [int(t) for t in text.split(",")] if text.strip() else []
    if any(c < 0 or c >= R.order for c in coeffs):
        raise ValueError("coefficient index out of range")
    return PolyFq(R, coeffs)
