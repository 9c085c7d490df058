"""Rate bounds per symbol for k-th power difference-free sets: the
digit-sum exponent of the polynomial-method upper bound, a refined upper
rate from direct minimization, and the construction lower rates, all
reported as per-symbol bases so that a set size reads base^n."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DirectedUnsupported, InvariantViolation, NotUnimodal, SolverTimeout
from .graphs import build_paley
from .indep import alpha_product
from .powerfree import greedy_exponent
from .rings import RingCtx, make_ring
from .solver import DEFAULT_BUDGET_S, SOLVER_VERTEX_CAP, check_budget
from .theta import lovasz_theta

INV_PHI = (math.sqrt(5) - 1) / 2
INV_PHI2 = (3 - math.sqrt(5)) / 2


def digit_sum(k: int, q: int) -> int:
    """Sum of the base-q digits of k."""
    if k < 1 or q < 2:
        raise ValueError("need k >= 1 and q >= 2")
    total = 0
    while k:
        total += k % q
        k //= q
    return total


@dataclass(frozen=True)
class GreenBound:
    exponent: float  # c with |A| <= q^(n(1-c))
    base: float  # q^(1-c)


def green_exponent(q: int, k: int) -> GreenBound:
    """Polynomial-method upper-bound exponent 1/(2 k^2 D_q(k)^2 ln q),
    with natural log, and the per-symbol base q^(1-c)."""
    c = 1.0 / (2 * k * k * digit_sum(k, q) ** 2 * math.log(q))
    return GreenBound(exponent=c, base=q ** (1 - c))


@dataclass(frozen=True)
class RateMin:
    t_star: float
    value: float


def minimize_rate(q: int, gamma: float, tol: float = 1e-10) -> RateMin:
    """Minimize f(t) = (1 - t^q) / ((1 - t) t^((q-1) gamma)) over (0,1) by
    golden-section search; unimodality is checked on a 1000-point grid
    first and violations raise NotUnimodal."""
    if not 0 < gamma < 1:
        raise ValueError("gamma must lie in (0,1)")
    expo = (q - 1) * gamma

    def f(t: float) -> float:
        return (1 - t**q) / ((1 - t) * t**expo)

    lo, hi = 1e-6, 1 - 1e-6
    samples = [f(lo + (hi - lo) * i / 999) for i in range(1000)]
    descending = True
    for a, b in zip(samples, samples[1:]):
        if descending:
            if b > a:
                descending = False
        elif b < a:
            raise NotUnimodal("sampled pattern is not descent-then-ascent")

    a, b = lo, hi
    h = b - a
    c = a + INV_PHI2 * h
    d = a + INV_PHI * h
    yc, yd = f(c), f(d)
    while h > tol:
        h *= INV_PHI
        if yc < yd:
            b, d, yd = d, c, yc
            c = a + INV_PHI2 * h
            yc = f(c)
        else:
            a, c, yc = c, d, yd
            d = a + INV_PHI * h
            yd = f(d)
    t_star = (a + b) / 2
    return RateMin(t_star=t_star, value=f(t_star))


@dataclass(frozen=True)
class BoundsLedger:
    q: int
    k: int
    n: int
    green_exponent: float
    green_rate: float
    refined_rate: float | None
    lower_thm_base: float  # q^(1 - 1/(2k)), unconditional construction
    lower_improved: float | None  # (r_{k,2})^(1/(2k)) * q^(1-1/k)
    method_limit: float  # q^(1 - 1/k^2), ceiling of this method
    greedy: float
    r_k2: int | None
    conjectured_tight: bool  # the method limit is only conjectured optimal
    r_k2_source: str | None = None  # "timeout" when the solver ran out of budget
    r_k2_lower: int | None = None  # certified lower bound on r_k2, on timeout only
    r_k2_upper: int | None = None  # floor(theta^2) upper bound on r_k2, on timeout only

    def to_json(self) -> dict:
        out = {
            "q": self.q,
            "k": self.k,
            "n": self.n,
            "green_exponent": self.green_exponent,
            "green_rate_base": self.green_rate,
            "refined_rate_base": self.refined_rate,
            "lower_base": self.lower_thm_base,
            "lower_improved_base": self.lower_improved,
            "method_limit_base": self.method_limit,
            "greedy_base": self.greedy,
            "r_k2": self.r_k2,
            "conjectured_tight": self.conjectured_tight,
        }
        for key in ("r_k2_source", "r_k2_lower", "r_k2_upper"):
            if getattr(self, key) is not None:
                out[key] = getattr(self, key)
        return out


def _theta_square_floor(R: RingCtx, k: int) -> int | None:
    """floor(theta(G)^2) for G = Paley_k(R) over a field, an upper bound on
    alpha(G^2) (strong square) because theta is multiplicative under the
    strong product and bounds alpha; None when G is directed.  A field
    Paley graph is edge-transitive, so theta is its exact ratio bound.
    The square is raised by 1e-9 of itself before the floor, so float
    error cannot cut the value below the bound."""
    try:
        theta = lovasz_theta(build_paley(R, k)).value
    except DirectedUnsupported:
        return None
    square = theta * theta
    return math.floor(square + 1e-9 * square)


def bounds_report(
    q: int,
    k: int,
    n: int,
    gamma: float | None = None,
    budget_s: float = DEFAULT_BUDGET_S,
) -> BoundsLedger:
    """Assemble the per-symbol rate ledger for one (q, k, n): q a prime
    power, k >= 2, n >= 1 and budget_s > 0, else ValueError before any
    work; q over ORDER_CAP is refused (OrderTooLarge) before factoring.

    The improved lower base needs the exact two-fold product independence
    number, so it is filled only when q^2 is at most SOLVER_VERTEX_CAP.  The
    method_limit base is also the conjectured optimum; it is reported as
    a marker, never as a proven bound on constructions.  When the solver
    runs out of budget r_k2 stays None, r_k2_source reads "timeout" and
    r_k2_lower is the larger of the timeout incumbent's size and q, the
    size of the beta-pair set (a non-k-th power exists since
    gcd(k, q-1) > 1).  Beside it, r_k2_upper is floor(theta(G)^2) for
    G = Paley_k(F_q) when G is undirected (see _theta_square_floor).
    """
    spec, greedy_e = greedy_exponent(q, n, k)
    check_budget(budget_s)
    green = green_exponent(q, k)
    refined = minimize_rate(q, gamma).value if gamma is not None else None
    lower_thm = q ** (1 - 1 / (2 * k))
    r_k2 = None
    r_k2_source = None
    r_k2_lower = None
    r_k2_upper = None
    lower_improved = None
    if math.gcd(k, q - 1) > 1 and q * q <= SOLVER_VERTEX_CAP:
        R = make_ring(spec)
        try:
            r_k2 = alpha_product(R, k, 2, budget_s=budget_s)
            lower_improved = r_k2 ** (1 / (2 * k)) * q ** (1 - 1 / k)
        except SolverTimeout as exc:
            r_k2_source = "timeout"
            r_k2_lower = max(exc.incumbent.size, q)
            r_k2_upper = _theta_square_floor(R, k)
            if r_k2_upper is not None and r_k2_lower > r_k2_upper:
                raise InvariantViolation(
                    f"r_k2 lower bound {r_k2_lower} exceeds theta^2 bound {r_k2_upper}"
                )
    method_limit = q ** (1 - 1 / (k * k))
    greedy = q ** (greedy_e / n)
    ledger = BoundsLedger(
        q=q, k=k, n=n,
        green_exponent=green.exponent, green_rate=green.base,
        refined_rate=refined,
        lower_thm_base=lower_thm, lower_improved=lower_improved,
        method_limit=method_limit, greedy=greedy, r_k2=r_k2,
        conjectured_tight=True, r_k2_source=r_k2_source, r_k2_lower=r_k2_lower,
        r_k2_upper=r_k2_upper,
    )
    chain = [lower_thm, lower_improved] if lower_improved is not None else []
    chain += [method_limit, green.base]
    if any(a > b + 1e-9 for a, b in zip(chain, chain[1:])):
        raise InvariantViolation(f"rate ledger out of order: {chain}")
    return ledger
