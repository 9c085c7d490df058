"""Independence numbers of Paley graph powers, explicit independent-set
constructions, clique numbers, and Shannon-capacity bounds."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from .errors import InvariantViolation, SolverTimeout
from .graphs import (
    CayleyGraph,
    GenericGraph,
    build_paley,
    complement,
    graph_fingerprint,
    strong_power,
)
from .rings import (
    RingCtx,
    field_spec,
    generator,
    make_ring,
    non_kth_power,
)
from .solver import (
    DEFAULT_BUDGET_S,
    SOLVER_VERTEX_CAP,
    IndepSet,
    check_budget,
    max_independent_set,
    verify_independent,
)


def alpha_product(R: RingCtx, k: int, n: int, budget_s: float = DEFAULT_BUDGET_S) -> int:
    """Independence number of the n-fold strong power of Paley_k(R)."""
    G = build_paley(R, k)
    H = G if n == 1 else strong_power(G, n)
    return max_independent_set(H, budget_s=budget_s).size


def diagonal_indep_set(q: int, k: int, graph: GenericGraph | None = None) -> IndepSet:
    """Geometric tuples (x, bx, b^2 x, ..., b^(k-1) x) with b a generator
    of F_q^*; an independent set of size q in the k-th strong power of the
    complement of Paley_k(F_q)."""
    R = make_ring(field_spec(q))
    if graph is None:
        graph = complement_power_graph(q, k)
    return _certify(graph, R, generator(R), k)


def _certify(graph: GenericGraph, R: RingCtx, beta: int, length: int) -> IndepSet:
    """Certificate for the explicit construction (x, beta*x, ...,
    beta^(length-1)*x) over x in R, checked on graph before it is returned
    (InvariantViolation if the tuples are not independent)."""
    rows = [[x] for x in R.elements()]
    for row in rows:
        while len(row) < length:
            row.append(R.mul(row[-1], beta))
    tuples = tuple(map(tuple, rows))
    out = IndepSet(vertices=tuples, graph_fingerprint=graph_fingerprint(graph))
    if not verify_independent(graph, tuples):
        raise InvariantViolation("explicit tuples are not independent")
    return out


def complement_power_graph(q: int, k: int) -> GenericGraph:
    """The k-th strong power of the complement of Paley_k(F_q), built as a
    Cayley graph on the complementary connection set."""
    R = make_ring(field_spec(q))
    comp = build_paley(R, k).complement_cayley()
    return strong_power(comp, k)


def beta_pair_set(q: int, k: int, graph: GenericGraph | None = None) -> IndepSet:
    """Pairs (x, bx) with b the least non-k-th-power: an independent set of
    size q in Paley_k(F_q) x Paley_k(F_q)."""
    R = make_ring(field_spec(q))
    beta = non_kth_power(R, k)  # raises AllPowers when gcd(k, q-1) = 1
    if graph is None:
        graph = strong_power(build_paley(R, k), 2)
    return _certify(graph, R, beta, 2)


def clique_number(G, budget_s: float = DEFAULT_BUDGET_S) -> int:
    """Exact clique number as the independence number of the complement."""
    comp = (
        G.complement_cayley() if isinstance(G, CayleyGraph) else complement(G)
    )
    return max_independent_set(comp, budget_s=budget_s).size


def cohen_bound(q: int, k: int) -> float:
    """Asymptotic clique-number lower bound for undirected Paley_k(F_q),
    clamped below at 1 (a clique always has at least one vertex).

    Uses d = gcd(k, q-1) and natural logarithms.  q over rings.ORDER_CAP
    is refused (OrderTooLarge) before it is factored.
    """
    d = math.gcd(k, q - 1)
    if k < 2 or d < 2:
        raise ValueError("requires k >= 2 and gcd(k, q-1) >= 2")
    p = field_spec(q).p
    raw = (
        p / ((p - 1) * math.log(d)) * (0.5 * math.log(q) - 2 * math.log(math.log(q)))
        - 1
    )
    return max(raw, 1.0)


@dataclass(frozen=True)
class CapacityBounds:
    """Sandwich for the Shannon capacity: best power root vs theta."""

    lower: float
    upper: float
    n_used: int


def capacity_bounds(
    R: RingCtx,
    k: int,
    max_n: int,
    use_complement: bool = False,
    budget_s: float = DEFAULT_BUDGET_S,
) -> CapacityBounds:
    """Lower bound: max over 1 <= n <= max_n of alpha(G^n)^(1/n), solving
    exactly when the power has at most SOLVER_VERTEX_CAP vertices and
    falling back to the explicit constructions otherwise.  Upper bound:
    the theta value.

    budget_s bounds all the solves together: its deadline starts on entry,
    and each solve gets what is left of it.  A solve that runs out, or
    starts with nothing left, counts its incumbent, which is still a valid
    lower bound.  max_n < 1 is refused (ValueError) before any work.
    """
    from .theta import lovasz_theta, lovasz_theta_complement

    if max_n < 1:
        raise ValueError(f"max_n must be >= 1, got {max_n}")
    deadline = time.monotonic() + check_budget(budget_s)

    G = build_paley(R, k)
    base = G.complement_cayley() if use_complement else G
    q = R.order
    best = 1.0
    n_used = 0
    for n in range(1, max_n + 1):
        alpha_n = None
        if q**n <= SOLVER_VERTEX_CAP:
            H = base if n == 1 else strong_power(base, n)
            # with nothing left, a 1 ns budget still yields the incumbent
            left = max(deadline - time.monotonic(), 1e-9)
            try:
                alpha_n = max_independent_set(H, budget_s=left).size
            except SolverTimeout as exc:
                alpha_n = exc.incumbent.size  # still a valid lower bound
        elif use_complement and n == k and R.is_field:
            alpha_n = q  # diagonal geometric tuples
        elif not use_complement and n == 2 and R.is_field and math.gcd(k, q - 1) > 1:
            alpha_n = q  # beta pairs
        if alpha_n is None:
            continue
        root = alpha_n ** (1.0 / n)
        if root > best:
            best = root
            n_used = n
    upper = (
        lovasz_theta_complement(G).value if use_complement else lovasz_theta(G).value
    )
    if best > upper + 1e-9:
        raise InvariantViolation(f"lower bound {best} exceeds theta {upper}")
    return CapacityBounds(lower=best, upper=upper, n_used=n_used)
