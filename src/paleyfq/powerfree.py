"""Sets of polynomials in P_{q,n} avoiding k-th power differences.

Both constructions make a polynomial a member iff its coefficients at each
of a list of position blocks form an allowed tuple.  The general one, for
an arbitrary degree-k F, uses the single positions i = 0 mod k and allows
b_k * S, S a maximum independent set of Paley_k(F_q) containing 0 and b_k
the leading coefficient of F.  The monomial one, for F = b_k T^k, uses the
pairs (i, n-k-i) and allows a scaled independent set of the two-fold strong
product, which is what makes the larger exponent possible.  An independent
verifier enumerates all relevant shifts d = F(u) and tests, block by
block, whether d's projection is a difference of two allowed tuples, so
it shares nothing with the construction logic beyond the block
description of membership.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import product as iproduct
from typing import Iterator

import numpy as np

from .errors import (
    AllPowers,
    BadDegree,
    BadN,
    NotApplicable,
    NotMonomial,
    SolverTimeout,
    VerificationTooLarge,
)
from .graphs import build_paley, strong_power
from .indep import beta_pair_set
from .polys import (
    ENUM_CAP,
    PolyFq,
    compose,
    decode_poly,
    encode_poly,
    enumerate_polynomials,
    enumeration_size,
    poly,
)
from .rings import RingCtx, RingSpec, field_spec, is_kth_power, make_ring
from .solver import DEFAULT_BUDGET_S, max_independent_set

VERIFY_CAP = 10**6  # q^depth * max(|allowed|, k*n) per verify call


@dataclass(frozen=True)
class ConstructionParams:
    """Validated on creation, so construct and verify reject alike."""

    ring: RingCtx
    k: int
    n: int
    F: PolyFq
    variant: str  # "general" | "power"

    def __post_init__(self):
        k, n, F = self.k, self.n, self.F
        if self.variant not in ("general", "power"):
            raise ValueError(f"unknown variant {self.variant!r}")
        if k < 2:
            raise ValueError("k must be >= 2")
        if not _in_field(F.coeffs, self.q):
            raise ValueError(f"coefficient of F out of range for q={self.q}")
        if F.degree != k:
            raise BadDegree(f"deg F = {F.degree}, expected k = {k}")
        step, name = (k, "k") if self.variant == "general" else (2 * k, "2k")
        if n < 1 or n % step:
            raise BadN(f"n={n} must be divisible by {name}={step}")

    @property
    def q(self) -> int:
        return self.ring.order


class DifferenceFreeSet:
    """Membership predicate, iterator, and certificate for a constructed
    difference-free subset of P_{q,n}: the polynomials of degree < n whose
    coefficients at each block of positions form a tuple in `allowed`.
    A set whose size has more decimal digits than the interpreter will
    print raises VerificationTooLarge, as no certificate could hold it."""

    def __init__(self, params, allowed, base_indep=None, source=None):
        q, k, n = params.q, params.k, params.n
        if params.variant == "general":
            self.blocks = tuple((i,) for i in range(0, n, k))
        else:
            self.blocks = tuple((i, n - k - i) for i in range(0, n // 2, k))
        allowed = tuple(allowed)
        width = len(self.blocks[0])
        for t in allowed:
            if len(t) != width or not _in_field(t, q):
                raise ValueError(f"{list(t)} is not {width} coefficients in F_{q}")
        self.params = params
        self.allowed = frozenset(allowed)  # coefficient tuples, one per block
        self.base_indep = base_indep  # unscaled S or U certificate
        self.source = source  # "incumbent" or "beta_pairs" when the solver ran out of budget
        self.size = len(self.allowed) ** len(self.blocks) * q ** (n - n // k)
        digits = sys.get_int_max_str_digits()
        if digits and self.size >= 10**digits:
            raise VerificationTooLarge(
                f"set size has more than {digits} decimal digits"
            )

    def contains(self, u: PolyFq) -> bool:
        if u.degree >= self.params.n:
            return False
        return all(
            tuple(u.coeff(i) for i in b) in self.allowed for b in self.blocks
        )

    def __iter__(self) -> Iterator[PolyFq]:
        """Members in coefficient-lexicographic order (c_0 most significant
        among the constrained choices); sets over ENUM_CAP are refused."""
        if self.size > ENUM_CAP:
            raise VerificationTooLarge(
                f"set of size {self.size} exceeds cap {ENUM_CAP}"
            )
        p = self.params
        con_idx = [i for b in self.blocks for i in b]
        free_idx = [i for i in range(p.n) if i % p.k]
        choices = [sorted(self.allowed)] * len(self.blocks)
        for con in iproduct(*choices):
            c = [0] * p.n
            for i, v in zip(con_idx, (v for t in con for v in t)):
                c[i] = v
            for free in iproduct(range(p.q), repeat=len(free_idx)):
                for i, v in zip(free_idx, free):
                    c[i] = v
                yield PolyFq(p.ring, c)

    def to_json(self) -> dict:
        p = self.params
        out = {
            "q": p.q,
            "p": p.ring.spec.p,
            "s": p.ring.spec.s,
            "k": p.k,
            "n": p.n,
            "F": list(p.F.coeffs),
            "variant": p.variant,
            "size": self.size,
        }
        if len(self.blocks[0]) == 1:
            out["coeff_set"] = sorted(c for (c,) in self.allowed)
        else:
            out["pair_set"] = sorted(map(list, self.allowed))
        if self.source:
            out["source"] = self.source
        return out

    @classmethod
    def from_json(cls, data: dict) -> "DifferenceFreeSet":
        """The set a to_json certificate describes; ValueError, BadDegree
        or BadN unless it is well formed and every field matches the set."""
        try:
            R = make_ring(RingSpec.field(data["p"], data["s"]))
            params = ConstructionParams(
                ring=R, k=data["k"], n=data["n"],
                F=PolyFq(R, data["F"]), variant=data["variant"],
            )
            raw = data["coeff_set"] if "coeff_set" in data else data["pair_set"]
            A = cls(params, (tuple(t) if isinstance(t, list) else (t,) for t in raw))
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed certificate: {type(exc).__name__}: {exc}") from None
        wrong = sorted(key for key, v in A.to_json().items() if data.get(key) != v)
        if wrong:
            raise ValueError(f"certificate fields {wrong} do not match the set")
        return A


def monomial(ring: RingCtx, k: int, lead: int = 1) -> PolyFq:
    """The polynomial lead * T^k."""
    return poly(ring, [0] * k + [lead])


def construct(params: ConstructionParams, budget_s: float = DEFAULT_BUDGET_S) -> DifferenceFreeSet:
    if params.variant == "power":
        return construct_power(params, budget_s=budget_s)
    return construct_general(params, budget_s=budget_s)


def construct_general(params: ConstructionParams, budget_s: float = DEFAULT_BUDGET_S) -> DifferenceFreeSet:
    """Coefficients at indices divisible by k drawn from b_k * S.

    A constant shift u = c moves only c_0, by F(c), and b_k * S blocks it
    only when F(c) is b_k times a k-th power; every other shift has that
    form at its top coefficient.  So F must satisfy this at every c."""
    R, k, F = params.ring, params.k, params.F
    if math.gcd(k, R.order - 1) == 1:
        raise AllPowers("every element is a k-th power; S degenerates to {0}")
    bk = F.coeffs[-1]
    for c in R.elements():
        value = compose(F, poly(R, (c,))).coeff(0)
        if not is_kth_power(R, R.mul(R.inv(bk), value), k):
            raise NotApplicable(
                f"F({c}) = {value} is not b_k = {bk} times a k-th power"
            )
    G = build_paley(R, k)
    cert = max_independent_set(G, budget_s=budget_s)
    S = _reroot(R, cert.vertices)
    return DifferenceFreeSet(
        params, ((R.mul(bk, x),) for x in S), base_indep=tuple(sorted(S))
    )


def construct_power(params: ConstructionParams, budget_s: float = DEFAULT_BUDGET_S) -> DifferenceFreeSet:
    """Pairs (c_i, c_{n-k-i}) drawn from b_k * U, U independent in the
    two-fold strong product; needs the monomial F = b_k T^k.  When the
    solver runs out of budget, U is its incumbent if that is strictly
    larger than the beta-pair set and the beta-pair set otherwise; the
    choice is recorded as the certificate's source."""
    R, k = params.ring, params.k
    if any(params.F.coeffs[i] for i in range(k)):
        raise NotMonomial("the paired construction needs F = b_k * T^k")
    G = build_paley(R, k)
    P = strong_power(G, 2)
    source = None
    try:
        cert = max_independent_set(P, budget_s=budget_s)
        U = [tuple(v) for v in cert.vertices]
    except SolverTimeout as exc:
        U = list(beta_pair_set(R.order, k, graph=P).vertices)
        source = "beta_pairs"
        if exc.incumbent.size > len(U):
            U = [tuple(v) for v in exc.incumbent.vertices]
            source = "incumbent"
    bk = params.F.coeffs[-1]
    return DifferenceFreeSet(
        params, ((R.mul(bk, a), R.mul(bk, b)) for a, b in U),
        base_indep=tuple(sorted(U)), source=source,
    )


def _in_field(coeffs, q: int) -> bool:
    return all(isinstance(c, int) and 0 <= c < q for c in coeffs)


def _reroot(R: RingCtx, vertices) -> frozenset[int]:
    """Translate an independent set so it contains 0 (translation keeps
    independence in a Cayley graph)."""
    verts = sorted(vertices)
    shift = verts[0]
    return frozenset(R.sub(x, shift) for x in verts)


def verify_no_F_difference(A: DifferenceFreeSet) -> bool:
    """Independent oracle: enumerate every u with deg F(u) < n and test
    whether some member a has a + d in A, d = F(u) nonzero.  True iff no
    such pair exists.

    A member is any polynomial of degree < n whose projection onto each
    block is an allowed tuple, the blocks are disjoint and the other
    coefficients are free.  So a and a + d are both members iff, on every
    block b, a's tuple t and t + d_b are both allowed: the blocks are
    independent, the free coefficients of a can be anything, and a + d
    keeps degree < n because deg d = k * deg u < n.  Such an a exists iff
    every projection d_b lies in diffs = {t' - t : t, t' allowed}, which
    is formed once.  The cap bounds q^depth * max(|allowed|, k*n): it
    covers the |allowed|^2 <= |allowed| * q^width differences, and each of
    the q^depth shifts costs a Horner pass of k products, each giving at
    most n coefficients.
    """
    p = A.params
    R, q, k, n = p.ring, p.q, p.k, p.n
    depth = (n - 1) // k + 1
    allowed, blocks = A.allowed, A.blocks
    work = q**depth * max(len(allowed), k * n)
    if work > VERIFY_CAP:
        raise VerificationTooLarge(
            f"q^depth * max(|allowed|, k*n) = {work} exceeds cap {VERIFY_CAP}"
        )
    diffs = {tuple(map(R.sub, b, a)) for a in allowed for b in allowed}
    for u in enumerate_polynomials(R, depth):
        d = compose(p.F, u)
        if not d.is_zero() and all(
            tuple(d.coeff(i) for i in b) in diffs for b in blocks
        ):
            return False
    return True


def greedy_difference_free(R: RingCtx, n: int, k: int) -> list[PolyFq]:
    """First-fit scan of P_{q,n} in enumeration order, keeping a
    polynomial iff no difference with a chosen one, in either order, is a
    nonzero k-th power; k < 2 or n < 1 is refused (ValueError) first.  The
    guaranteed size q^(n-1-floor((n-1)/k)) needs -1 to be a k-th power
    (both orders then coincide); the output is always difference-free.

    The scan walks the codes range(q^n) by banned translates.  A candidate
    is rejected iff cand - c or c - cand is in `powers` for an earlier
    chosen c, that is iff cand is in c + S with S = +-powers, the
    connection set of the Cayley graph whose independent sets are the
    difference-free sets.  So each chosen c bans the codes of c + S, a code
    is chosen iff it is not banned when the walk reaches it, and only
    chosen codes are decoded.  A base-q digit of a code is the base-p
    index of one coefficient, so polynomial addition is digit-wise mod p
    on the s*n base-p digits of the codes: |chosen|*|S| additions on digit
    arrays, not pairwise PolyFq differences."""
    if k < 2 or n < 1:
        raise ValueError(f"need k >= 2 and n >= 1, got k={k}, n={n}")
    size = enumeration_size(R, n)
    depth = (n - 1) // k + 1
    codes = (encode_poly(b**k) for b in enumerate_polynomials(R, depth))
    powers = {w for w in codes if 0 < w < size}  # nonzero, degree < n
    p = R.radix
    places = p ** np.arange(len(R.shape) * n, dtype=np.int64)
    W = np.array(list(powers), dtype=np.int64)[:, None] // places % p
    S = np.concatenate([W, -W])
    banned = bytearray(size)
    marks = np.frombuffer(banned, dtype=np.uint8)
    chosen = []
    code = banned.find(0)
    while code >= 0:
        chosen.append(code)
        marks[(code // places + S) % p @ places] = 1
        code = banned.find(0, code + 1)
    return [decode_poly(R, c) for c in chosen]


def greedy_exponent(q: int, n: int, k: int) -> tuple[RingSpec, int]:
    """(the RingSpec of F_q, n - 1 - floor((n-1)/k)), the exponent of
    greedy_lower_bound; q a prime power, n >= 1 and k >= 2, else
    ValueError (q over ORDER_CAP: OrderTooLarge, before it is factored)."""
    spec = field_spec(q)
    if k < 2 or n < 1:
        raise ValueError(f"need k >= 2 and n >= 1, got k={k}, n={n}")
    return spec, n - 1 - (n - 1) // k


def greedy_lower_bound(q: int, n: int, k: int) -> int:
    """q^(n - 1 - floor((n-1)/k)); q a prime power, n >= 1 and k >= 2."""
    return q ** greedy_exponent(q, n, k)[1]


def pigeonhole_upper(q: int, n: int, k: int) -> int:
    """Upper bound q^(n - floor((n-1)/k)) for a prime power q and n >= 1,
    valid when k is a power of q."""
    field_spec(q)
    if n < 1:
        raise ValueError(f"need n >= 1, got n={n}")
    t = k
    while t > 1 and t % q == 0:
        t //= q
    if t != 1 or k < q:
        raise NotApplicable(f"k={k} is not a positive power of q={q}")
    return q ** (n - (n - 1) // k)
