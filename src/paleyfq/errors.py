"""Exception types shared across the package."""


class PaleyfqError(Exception):
    """Base class for all package errors."""


class InvariantViolation(PaleyfqError):
    """An internal consistency check failed: a bug, not a bad input.

    Raised explicitly in place of ``assert`` so the check also runs under
    ``python -O``."""


class CapExceeded(PaleyfqError):
    """A desk-scale cap refused the input (CLI exit 3)."""


# ring construction
class NotPrime(PaleyfqError):
    pass


class BadModulus(PaleyfqError):
    pass


class OrderTooLarge(CapExceeded):
    pass


class NotAField(PaleyfqError):
    pass


class AllPowers(PaleyfqError):
    """Every element is a k-th power; no non-power exists."""


# polynomials
class ContextMismatch(PaleyfqError):
    pass


class EnumerationTooLarge(CapExceeded):
    pass


# graphs
class NotCoprime(PaleyfqError):
    pass


class DirectedUnsupported(PaleyfqError):
    pass


class VertexOutOfRange(PaleyfqError):
    pass


# solver
class SolverTimeout(PaleyfqError):
    """Budget exhausted. Carries the best independent set found so far,
    the solver's stats dict and, from it, the number of search nodes
    expanded."""

    def __init__(self, incumbent, budget_s, stats=None):
        super().__init__(f"solver budget of {budget_s:g}s exhausted")
        self.incumbent = incumbent
        self.budget_s = budget_s
        self.stats = dict(stats or {})
        self.nodes = self.stats.get("nodes", 0)


# theta
class NotEdgeTransitive(PaleyfqError):
    pass


class NotSquarefree(PaleyfqError):
    pass


class DirectedFactor(PaleyfqError):
    pass


# difference-free constructions
class BadDegree(PaleyfqError):
    pass


class BadN(PaleyfqError):
    pass


class NotMonomial(PaleyfqError):
    pass


class VerificationTooLarge(CapExceeded):
    pass


# bounds
class NotUnimodal(PaleyfqError):
    pass


class NotApplicable(PaleyfqError):
    pass
