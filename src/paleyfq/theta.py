"""Spectra of abelian Cayley graphs and Lovász theta via the ratio bound.

For an undirected Cayley graph over a field whose connection set is a
multiplicative subgroup (a Paley graph) the maps x -> a x + b, a in
that subgroup, are transitive on edges, so the ratio bound
n(-lambda_min)/(lambda_max - lambda_min) equals theta exactly.  The
complement of such a graph is generally not edge-transitive, but both
graphs are vertex-transitive, so theta(G) * theta(complement) = n gives
the complement value in closed form.  The spectrum is the transform of
the connection-set indicator, run once per graph and kept on it; a
complement's indicator is 1 - [x = 0] - 1_S, so its sums follow from the
graph's with no second transform.  Composite moduli are handled by
CRT factorization and the multiplicativity of theta over strong
products, which only ever yields an upper bound and is exactly how the
composite bound is used.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from itertools import product as iproduct

import numpy as np

from .errors import (
    DirectedFactor,
    DirectedUnsupported,
    InvariantViolation,
    NotEdgeTransitive,
    NotSquarefree,
    SolverTimeout,
)
from .graphs import CayleyGraph, build_paley
from .rings import RingSpec, factorize, is_prime, kth_power_set, make_ring
from .solver import DEFAULT_BUDGET_S, SOLVER_VERTEX_CAP, max_independent_set

REL_TOL = 1e-6


@dataclass(frozen=True)
class ThetaReport:
    value: float
    method: str  # "ratio" | "product" | "closed_form"
    lambda_max: float
    lambda_min: float
    factors: tuple["ThetaReport", ...] | None = None

    def to_json(self) -> dict:
        out = {
            "value": self.value,
            "method": self.method,
            "lambda_max": self.lambda_max,
            "lambda_min": self.lambda_min,
        }
        if self.factors is not None:
            out["factors"] = [f.to_json() for f in self.factors]
        return out


def cayley_spectrum(G: CayleyGraph, extremes: bool = False):
    """Adjacency eigenvalues via additive characters, sorted ascending:
    the real character sums over the connection set that
    G.character_sums() works out once and keeps on G (and from which
    G.complement_cayley() derives its own, so a graph and its complement
    cost one transform).  The trace and degree checks run on every call.

    With extremes, only (lambda_min, lambda_max) is returned, read off
    the kept sums, so no sorted copy or list of n floats is made.
    """
    if not G.symmetric:
        raise DirectedUnsupported("spectrum needs an undirected graph")
    sums = G.character_sums()
    n = G.ring.order
    deg = len(G.connection)
    lam_max = float(sums.max())
    if abs(sums.sum()) >= 1e-6 * max(n, deg):
        raise InvariantViolation("adjacency trace must vanish")
    if abs(lam_max - deg) >= 1e-9:
        raise InvariantViolation("largest eigenvalue must equal the degree")
    if extremes:
        return float(sums.min()), lam_max
    return np.sort(sums).tolist()


def _ratio_theta(G: CayleyGraph) -> ThetaReport:
    lam_min, lam_max = cayley_spectrum(G, extremes=True)
    n = G.ring.order
    return ThetaReport(value=n * (-lam_min) / (lam_max - lam_min), method="ratio",
                       lambda_max=lam_max, lambda_min=lam_min)


def _edge_transitive(G: CayleyGraph) -> bool:
    # S the nonzero d-th powers of a field (Z/p is the field F_p), d =
    # (q-1)/|S|, all units when d = 1: maps x -> a x + b with a in S act
    # transitively on edges; no other connection set is known to keep
    # this (complements, unions of power cosets, lose it)
    R, S = G.ring, G.connection
    d, r = divmod(R.order - 1, len(S) or R.order)  # an empty S leaves r > 0
    return ((R.is_field or is_prime(R.order)) and not r
            and (d == 1 or S == kth_power_set(R, d) - {0}))


def lovasz_theta(G: CayleyGraph) -> ThetaReport:
    """Exact theta, by the spectral ratio bound, of an undirected Cayley
    graph over a field (or prime modulus) whose connection set S is the
    subgroup of nonzero d-th powers, d = (q-1)/|S|: the graph is then
    edge-transitive, and theta <= q^(1-1/d) is checked."""
    if not G.symmetric:
        raise DirectedUnsupported("theta needs an undirected graph")
    if not _edge_transitive(G):
        raise NotEdgeTransitive(
            "ratio bound needs an edge-transitive graph; use theta_zmod for "
            "composite moduli and lovasz_theta_complement for complements"
        )
    report = _ratio_theta(G)
    q = G.ring.order
    d = (q - 1) // len(G.connection)
    # undirected means -1 is a d-th power, so the field bound applies
    if report.value > q ** (1 - 1 / d) + REL_TOL * q:
        raise InvariantViolation(f"theta exceeds q^(1-1/{d})")
    return report


def lovasz_theta_complement(G: CayleyGraph) -> ThetaReport:
    """Theta of the complement via theta(G) * theta(complement) = n,
    exact because both graphs are vertex-transitive.  The ratio formula
    itself is not tight on complements that fail edge-transitivity."""
    base = lovasz_theta(G)
    lam_min, lam_max = cayley_spectrum(G.complement_cayley(), extremes=True)
    return ThetaReport(
        value=G.ring.order / base.value, method="closed_form",
        lambda_max=lam_max, lambda_min=lam_min,
    )


def theta_zmod(m: int, k: int) -> ThetaReport:
    """Upper bound for theta of Paley_k(Z/m), m squarefree, as the product
    of exact per-prime theta values."""
    fac = factorize(m)
    if any(e > 1 for _, e in fac):
        raise NotSquarefree(f"m={m} is not squarefree")
    primes = [p for p, _ in fac]
    if len(primes) == 1:
        return lovasz_theta(build_paley(make_ring(RingSpec.zmod(m)), k))
    reports = []
    for p in primes:
        Gp = build_paley(make_ring(RingSpec.zmod(p)), k)
        if not Gp.symmetric:
            raise DirectedFactor(f"Paley_{k}(Z/{p}) is directed")
        reports.append(lovasz_theta(Gp))
    value = math.prod(r.value for r in reports)
    lam_max = math.prod(1 + r.lambda_max for r in reports) - 1
    lam_min = (
        min(
            math.prod(ext)
            for ext in iproduct(*[(1 + r.lambda_min, 1 + r.lambda_max) for r in reports])
        )
        - 1
    )
    return ThetaReport(
        value=value, method="product",
        lambda_max=lam_max, lambda_min=lam_min, factors=tuple(reports),
    )


@dataclass(frozen=True)
class RuzsaCheck:
    applicable: bool
    bound: float
    alpha: int | None
    alpha_status: str  # "exact" | "timeout" | "skipped"

    def to_json(self) -> dict:
        return asdict(self)


def ruzsa_bound_check(
    m: int,
    k: int,
    budget_s: float = DEFAULT_BUDGET_S,
) -> RuzsaCheck:
    """Check the composite-modulus bound alpha(Paley_k(Z/m)) < m^(1-1/k).

    Applicable iff m > 1 is squarefree and, writing k = d * 2^s with d
    odd, every prime dividing m is 1 mod 2^(s+1) (for odd k this only
    requires odd primes).  Strictness is asserted through integrality:
    alpha <= ceil(bound) - 1.  alpha is solved for m <= SOLVER_VERTEX_CAP.
    m <= 1 or k < 2 is refused (ValueError) before any work.
    """
    if m <= 1 or k < 2:
        raise ValueError(f"need m > 1 and k >= 2, got m={m}, k={k}")
    fac = factorize(m)
    squarefree = all(e == 1 for _, e in fac)
    s = 0
    kk = k
    while kk % 2 == 0:
        kk //= 2
        s += 1
    modulus = 1 << (s + 1)
    applicable = squarefree and all(p % modulus == 1 for p, _ in fac)
    bound = m ** (1 - 1 / k)
    alpha = None
    status = "skipped"
    if m <= SOLVER_VERTEX_CAP:
        G = build_paley(make_ring(RingSpec.zmod(m)), k)
        try:
            alpha = max_independent_set(G, budget_s=budget_s).size
            status = "exact"
        except SolverTimeout as exc:
            alpha = exc.incumbent.size
            status = "timeout"
    if applicable and status == "exact" and alpha > math.ceil(bound) - 1:
        raise InvariantViolation(f"alpha = {alpha} violates alpha < m^(1-1/k)")
    return RuzsaCheck(applicable=applicable, bound=bound, alpha=alpha,
                      alpha_status=status)
