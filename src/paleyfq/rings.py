"""Finite commutative ring arithmetic for F_{p^s} and Z/mZ.

Elements are canonical integer indices in [0, |R|).  For F_{p^s} the index
is the base-p evaluation of the coefficient vector of the residue
polynomial modulo a fixed irreducible; for Z/mZ it is the least
nonnegative residue.  A RingCtx does not change after construction
except for caches filled on first use (k-th power sets, k-th root set-ups
and the scalar lists of an extension field), and all operations are
pure, so contexts can be shared freely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AllPowers,
    BadModulus,
    InvariantViolation,
    NotAField,
    NotPrime,
    OrderTooLarge,
)

ORDER_CAP = 1 << 20
_ADD_TABLE = 1 << 16  # entries of the largest chunk addition table


def is_prime(n: int) -> bool:
    return factorize(n) == [(n, 1)]


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n as (prime, exponent) pairs, primes ascending."""
    out = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            e += 1
            n //= d
        if e:
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def factor_prime_power(q: int) -> tuple[int, int]:
    """q as (p, s) with p prime and q = p^s, else ValueError."""
    fac = factorize(q)  # [] for q < 2
    if len(fac) != 1:
        raise ValueError(f"{q} is not a prime power")
    return fac[0]


@dataclass(frozen=True)
class RingSpec:
    """Which ring to build: kind 'fq' uses (p, s), kind 'zmod' uses m."""

    kind: str
    p: int = 0
    s: int = 0
    m: int = 0

    @classmethod
    def field(cls, p: int, s: int = 1) -> "RingSpec":
        return cls(kind="fq", p=p, s=s)

    @classmethod
    def zmod(cls, m: int) -> "RingSpec":
        return cls(kind="zmod", m=m)

    @property
    def order(self) -> int:
        return self.p**self.s if self.kind == "fq" else self.m


def split_digits(x: int, radix: int, width: int = 0) -> list[int]:
    """Base-radix digits of x >= 0, lowest place first: as many as x
    needs (none for 0), padded with zeros to width."""
    out = []
    while x or len(out) < width:
        x, r = divmod(x, radix)
        out.append(r)
    return out


def fold_digits(d, radix: int) -> int:
    """The number whose base-radix digits, lowest place first, are d."""
    x = 0
    for c in reversed(d):
        x = x * radix + c
    return x


def power(mul, base, e: int):
    """base^e for e >= 1 under the associative product mul, right to left
    from base itself; nothing is squared after the top bit of e."""
    result = None
    while True:
        if e & 1:
            result = base if result is None else mul(result, base)
        e >>= 1
        if not e:
            return result
        base = mul(base, base)


def convolve_mod(a, b, m: int) -> list[int]:
    """Coefficients of the product of the polynomials a and b (integer
    sequences, low degree first) mod m: integer multiply-accumulate, then
    one reduction per output coefficient."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return [c % m for c in out]


def _pmod(a, m: tuple[int, ...], p: int) -> list[int]:
    """Remainder of the F_p polynomial a modulo monic m (coefficients low
    degree first), as at most deg(m) coefficients."""
    a = list(a)
    dm = len(m) - 1
    while len(a) > dm:
        lead = a.pop()
        if lead:
            shift = len(a) - dm
            for i, mi in enumerate(m[:-1]):
                a[shift + i] = (a[shift + i] - lead * mi) % p
    return a


def _find_modulus(p: int, s: int) -> tuple[int, ...]:
    """Smallest monic irreducible of degree s over F_p, ordered by the
    base-p encoding of the non-leading coefficients: the first candidate
    that no monic irreducible of degree <= s/2 divides."""
    divisors = _irreducibles(p, s // 2)
    m = next((m for m in _monics(p, s)
              if all(any(_pmod(m, f, p)) for f in divisors)), None)
    if m is None:
        raise InvariantViolation("an irreducible of every degree exists")
    return m


def _irreducibles(p: int, top: int) -> list[tuple[int, ...]]:
    """Monic irreducibles over F_p of degree 1..top, by degree: a sieve
    that strikes out each product f*g of an irreducible f of degree i <=
    d/2 and a monic g of degree d - i."""
    out: list[tuple[int, ...]] = []
    for d in range(1, top + 1):
        reducible = {tuple(convolve_mod(f, g, p))
                     for f in out if 2 * (len(f) - 1) <= d
                     for g in _monics(p, d - len(f) + 1)}
        out += [m for m in _monics(p, d) if m not in reducible]
    return out


def _monics(p: int, d: int):
    """Monic polynomials of degree d over F_p, by the base-p encoding of
    their non-leading coefficients."""
    return (tuple(split_digits(code, p, d) + [1]) for code in range(p**d))


def _chunk_tables(p: int, q: int) -> tuple[int, np.ndarray, np.ndarray]:
    """(P, add, neg) for the additive group of F_q in chunks of w digits:
    add[u*P + v] and neg[u] are the indices of u + v and -u, digit-wise
    mod p, for u, v < P = p^w.  w is the largest with P^2 <= min(_ADD_TABLE,
    q), and at least 1, so add has q entries at most.  Built one digit at
    a time: the new top digit's table times P plus the table below it."""
    d = np.arange(p, dtype=np.int32)  # every index is below q <= ORDER_CAP
    add1, neg1 = (d[:, None] + d) % p, -d % p
    P, add, neg = p, add1, neg1
    while (P * p) ** 2 <= min(_ADD_TABLE, q):
        add = (add1[:, None, :, None] * P + add[None, :, None, :]).reshape(P * p, -1)
        neg = (neg1[:, None] * P + neg).ravel()
        P *= p
    return P, add.ravel(), neg


class RingCtx:
    """Arithmetic context for one ring; build via make_ring().

    make_ring picks the arithmetic once: _ResidueRing (Z/m and F_p, plain
    integers mod the order) or _ExtensionField (F_{p^s} with s > 1,
    exp/log and Zech tables).  Each also has its own polynomial product
    kernel, convolve(a, b).  Every field keeps the exp/log tables of its
    least-index generator as int32 numpy arrays: exp[t] = g^t for t < q-1
    and log[x] with exp[log[x]] = x for x != 0 (log[0] = 0).  Readers
    index them as arrays and convert what they keep to Python ints.

    The additive group is the grid (Z/radix)^len(shape): shape is (p,)*s
    for F_{p^s} and (m,) for Z/m.  An index is the base-radix number of
    its digits, lowest place first, and addition is digit-wise mod radix.
    add_array(a, b) and neg_array(a) add and negate numpy index arrays
    without leaving index space."""

    __slots__ = ("spec", "order", "radix", "shape", "modulus", "exp", "log",
                 "_power_sets", "_root_leads")

    def __init__(self, spec: RingSpec):
        self.spec = spec
        self.order = spec.order
        self._power_sets: dict[int, frozenset[int]] = {}
        self._root_leads: dict[tuple[int, int], tuple | None] = {}
        self.modulus = self.exp = self.log = None
        if spec.kind == "fq":
            self.radix, self.shape = spec.p, (spec.p,) * spec.s
            self.modulus = _find_modulus(spec.p, spec.s)
            self._build_tables()
        else:
            self.radix, self.shape = spec.m, (spec.m,)

    # -- additive layout ------------------------------------------------------

    def digits(self, x: int) -> tuple[int, ...]:
        """Digits of x, lowest place first: for F_{p^s} the coefficient
        vector of the residue representative, for Z/m the 1-tuple (x,)."""
        return tuple(split_digits(x, self.radix, len(self.shape)))

    def from_digits(self, d) -> int:
        return fold_digits(d, self.radix)

    def _span(self, hs: list[int]) -> np.ndarray:
        """Indices of the F_p-combinations sum_i d_i*hs[i], at the base-p
        index of the digit vector d.  One element gives its p multiples;
        more are split in halves whose spans are joined by add_array."""
        if len(hs) == 1:
            p = self.spec.p
            places = p ** np.arange(self.spec.s, dtype=np.int64)
            return np.arange(p)[:, None] * np.array(self.digits(hs[0])) % p @ places
        c = len(hs) // 2
        return self.add_array(self._span(hs[c:])[:, None],
                              self._span(hs[:c])[None, :]).ravel()

    def _build_tables(self):
        """Locate the least-index multiplicative generator g and tabulate
        exp/log with respect to it.  Multiplication by g is F_p-linear, so
        its index permutation perm is the span of the images T^i*g of the
        basis.  exp is filled by doubling: with perm_t the permutation of
        multiplication by g^t, exp[t:2t] = perm_t[exp[:t]] and perm_2t =
        perm_t[perm_t]."""
        q, p = self.order, self.spec.p
        qm1 = q - 1
        primes = [r for r, _ in factorize(qm1)]
        g = next((x for x in range(1, q)
                  if all(self._raw_pow(x, qm1 // r) != 1 for r in primes)), None)
        if g is None:
            raise InvariantViolation(f"F_{q}^* has no generator")
        # int32 halves the bytes each gather touches; q <= ORDER_CAP fits
        perm = self._span([self._raw_mul(p**i, g) for i in range(self.spec.s)]
                          ).astype(np.int32)
        exp = np.empty(q - 1, dtype=np.int32)
        exp[0] = 1
        filled = 1  # perm multiplies by g^filled
        while filled < q - 1:
            take = min(filled, q - 1 - filled)
            exp[filled:filled + take] = perm[exp[:take]]
            filled += take
            if filled < q - 1:
                perm = perm[perm]
        del perm
        if self._raw_mul(int(exp[-1]), g) != 1:
            raise InvariantViolation("generator order must be q-1")
        log = np.full(q, -1, dtype=np.int32)
        log[exp] = np.arange(q - 1, dtype=np.int32)
        if log[1:].min() < 0:
            raise InvariantViolation("exp must enumerate every nonzero element")
        log[0] = 0
        self.exp, self.log = exp, log

    def elements(self) -> range:
        return range(self.order)

    @property
    def is_field(self) -> bool:
        return self.spec.kind == "fq"

    def __repr__(self):
        if self.spec.kind == "fq":
            return f"RingCtx(F_{self.order})"
        return f"RingCtx(Z/{self.spec.m})"


class _ResidueRing(RingCtx):
    """Z/m and F_p: elements are residues and the operations are integer
    arithmetic modulo the order."""

    __slots__ = ()

    def add(self, x: int, y: int) -> int:
        return (x + y) % self.order

    def neg(self, x: int) -> int:
        return -x % self.order

    def sub(self, x: int, y: int) -> int:
        return (x - y) % self.order

    def mul(self, x: int, y: int) -> int:
        return x * y % self.order

    def add_array(self, a, b) -> np.ndarray:
        """a + b for broadcastable index arrays."""
        return (np.asarray(a) + b) % self.order

    def neg_array(self, a) -> np.ndarray:
        """-a for an index array."""
        return -np.asarray(a) % self.order

    def inv(self, x: int) -> int:
        if x == 0 and self.is_field:
            raise ZeroDivisionError("0 has no inverse")
        return pow(x, -1, self.order)  # ValueError for non-units of Z/m

    def pow_elem(self, x: int, e: int) -> int:
        if e < 0:  # through inv, for its error types
            x, e = self.inv(x), -e
        return pow(x, e, self.order)

    _raw_mul, _raw_pow = mul, pow_elem  # for the F_p table build

    def convolve(self, a, b) -> list[int]:
        """Coefficients of the product of the polynomials a and b (index
        sequences, low degree first), by convolve_mod."""
        return convolve_mod(a, b, self.order)


class _ExtensionField(RingCtx):
    """F_{p^s} with s > 1: multiplication through exp/log, addition through
    Zech's logarithm zech[t] = log(1 + g^t) (-1 where 1 + g^t = 0), so
    x + y = g^(log x + zech[log y - log x]) for nonzero x, y.

    The scalar kernels (add, neg, sub, mul, inv, pow_elem, convolve) index
    Python lists, which are faster per element than numpy arrays but take
    about 36 bytes an entry.  They are built on the first scalar operation
    (_warm) and kept in _tabs as (exp, log, zech, q - 1), so a ring used
    only through the arrays (graphs, fingerprints, spectra) never has them."""

    __slots__ = ("_tabs", "_log_neg1", "_chunk", "_add_table", "_neg_table")

    def __init__(self, spec: RingSpec):
        self._tabs = None
        self._chunk, self._add_table, self._neg_table = _chunk_tables(spec.p, spec.order)
        super().__init__(spec)
        self._log_neg1 = int(self.log[spec.p - 1])  # index p - 1 is -1

    # -- residue polynomial arithmetic, for building the tables ------------

    def _poly_mul(self, a, b) -> list[int]:
        p = self.spec.p
        return _pmod(convolve_mod(a, b, p), self.modulus, p)

    def _raw_mul(self, x: int, y: int) -> int:
        return self.from_digits(self._poly_mul(self.digits(x), self.digits(y)))

    def _raw_pow(self, x: int, e: int) -> int:
        return self.from_digits(power(self._poly_mul, self.digits(x), e))

    def add_array(self, a, b) -> np.ndarray:
        """a + b for broadcastable index arrays."""
        return self._by_chunks(self._add_table, a, b)

    def neg_array(self, a) -> np.ndarray:
        """-a for an index array."""
        return self._by_chunks(self._neg_table, a)

    def _by_chunks(self, table: np.ndarray, *xs) -> np.ndarray:
        """Indices whose w-digit chunk at each place P^c is table[key],
        where key reads the chunks of xs at that place as one base-P
        number; the top chunk may have fewer digits."""
        P = self._chunk
        xs = [np.asarray(x) for x in xs]
        out, place = None, 1
        while place < self.order:
            key = 0
            for i, x in enumerate(xs):
                xs[i], r = np.divmod(x, P)
                key = key * P + r
            t = table[key]
            if out is None:
                out = t
            else:
                t *= place
                out += t
            place *= P
        return out

    def _warm(self) -> tuple:
        """Build and keep _tabs, the scalar kernels' lists."""
        exp, log, p = self.exp, self.log, self.spec.p
        low = exp % p  # adding 1 changes only the constant digit
        one_plus = exp - low + (low + 1) % p
        zech = log[one_plus]
        zech[one_plus == 0] = -1
        self._tabs = (exp.tolist(), log.tolist(), zech.tolist(), self.order - 1)
        return self._tabs

    def add(self, x: int, y: int) -> int:
        if not x:
            return y
        if not y:
            return x
        exp, log, zech, qm1 = self._tabs or self._warm()
        lx = log[x]
        z = zech[(log[y] - lx) % qm1]
        return 0 if z < 0 else exp[(lx + z) % qm1]

    def neg(self, x: int) -> int:
        if not x:
            return 0
        exp, log, _, qm1 = self._tabs or self._warm()
        return exp[(log[x] + self._log_neg1) % qm1]

    def sub(self, x: int, y: int) -> int:
        return self.add(x, self.neg(y))

    def mul(self, x: int, y: int) -> int:
        if x == 0 or y == 0:
            return 0
        exp, log, _, qm1 = self._tabs or self._warm()
        return exp[(log[x] + log[y]) % qm1]

    def inv(self, x: int) -> int:
        if x == 0:
            raise ZeroDivisionError("0 has no inverse")
        exp, log, _, qm1 = self._tabs or self._warm()
        return exp[-log[x] % qm1]

    def pow_elem(self, x: int, e: int) -> int:
        if x == 0:
            if e < 0:
                raise ZeroDivisionError("0 has no inverse")
            return 0 if e else 1
        exp, log, _, qm1 = self._tabs or self._warm()
        return exp[log[x] * e % qm1]

    def convolve(self, a, b) -> list[int]:
        """Coefficients of the product of the polynomials a and b (index
        sequences, low degree first).  Each output coefficient is kept as
        an unreduced log, -1 while it is zero; a product term g^t is added
        by Zech's logarithm, and the logs go back through exp at the end."""
        exp, log, zech, qm1 = self._tabs or self._warm()
        logs_b = [(j, log[y]) for j, y in enumerate(b) if y]
        acc = [-1] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                lx = log[x]
                for j, ly in logs_b:
                    k, t = i + j, lx + ly
                    s = acc[k]
                    if s < 0:
                        acc[k] = t
                    else:
                        z = zech[(t - s) % qm1]
                        acc[k] = -1 if z < 0 else s + z
        return [0 if s < 0 else exp[s % qm1] for s in acc]


def check_ring_order(n: int, name: str = "q") -> int:
    """n if a ring of n elements is within ORDER_CAP, else OrderTooLarge."""
    if n > ORDER_CAP:
        raise OrderTooLarge(f"{name}={n} exceeds cap {ORDER_CAP}")
    return n


def field_spec(q: int) -> RingSpec:
    """The RingSpec of F_q.  q is compared with ORDER_CAP before it is
    factored, as trial division of a huge q never ends."""
    return RingSpec.field(*factor_prime_power(check_ring_order(q)))


def make_ring(spec: RingSpec) -> RingCtx:
    """Validate a RingSpec and build its arithmetic context.  The order is
    checked against ORDER_CAP before p is tested for primality."""
    if spec.kind == "fq":
        if spec.s < 1:
            raise BadModulus(f"s={spec.s} must be >= 1")
        if abs(spec.p) > 1 and spec.s > ORDER_CAP.bit_length():
            raise OrderTooLarge(f"q={spec.p}^{spec.s} exceeds cap {ORDER_CAP}")
        check_ring_order(spec.order)
        if not is_prime(spec.p):
            raise NotPrime(f"p={spec.p} is not prime")
        return (_ExtensionField if spec.s > 1 else _ResidueRing)(spec)
    if spec.kind == "zmod":
        if spec.m < 2:
            raise BadModulus(f"m={spec.m} must be >= 2")
        check_ring_order(spec.m, "m")
        return _ResidueRing(spec)
    raise BadModulus(f"unknown ring kind {spec.kind!r}")


def kth_power_set(R: RingCtx, k: int) -> frozenset[int]:
    """The set {z^k : z in R}, cached per (R, k).  On a field the nonzero
    k-th powers are the subgroup g^(d*j), d = gcd(k, q-1), of F_q^*."""
    if k < 2:
        raise ValueError("k must be >= 2")
    cached = R._power_sets.get(k)
    if cached is not None:
        return cached
    if R.is_field:
        q = R.order
        d = math.gcd(k, q - 1)
        out = frozenset((0, *R.exp[::d].tolist()))
        if len(out) != 1 + (q - 1) // d:
            raise InvariantViolation(f"F_{q} must have {(q - 1) // d} nonzero {k}-th powers")
    else:
        m = R.spec.m
        out = frozenset(pow(z, k, m) for z in range(m))
    R._power_sets[k] = out
    return out


def is_kth_power(R: RingCtx, x: int, k: int) -> bool:
    """True iff x = z^k for some z in R, read off kth_power_set."""
    return x in kth_power_set(R, k)


def non_kth_power(R: RingCtx, k: int) -> int:
    """Least-index element of F_q outside kth_power_set(R, k)."""
    if not R.is_field:
        raise NotAField("non_kth_power is defined for fields")
    powers = kth_power_set(R, k)
    if len(powers) == R.order:
        raise AllPowers(f"every element of F_{R.order} is a {k}-th power")
    return next(x for x in R.elements() if x not in powers)


def generator(R: RingCtx) -> int:
    """Least-index multiplicative generator of F_q^* (the table base)."""
    if not R.is_field:
        raise NotAField("generator is defined for fields")
    return int(R.exp[1]) if R.order > 2 else 1


def crt_split(m: int) -> list[int]:
    """Prime-power factors of m, ascending by prime; their product is m."""
    return [p**e for p, e in factorize(m)]


def crt_map(x: int, factors: list[int]) -> tuple[int, ...]:
    """Residue tuple of x under Z/m -> prod Z/f_i."""
    return tuple(x % f for f in factors)


def crt_combine(residues, factors: list[int]) -> int:
    """Inverse of crt_map (factors pairwise coprime)."""
    m = math.prod(factors)
    x = 0
    for r, f in zip(residues, factors):
        mf = m // f
        x += r * mf * pow(mf, -1, f)
    return x % m
