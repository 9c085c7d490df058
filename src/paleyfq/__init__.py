"""Generalized Paley graphs over finite rings: exact independence numbers,
spectral Lovász theta bounds, and k-th power difference-free sets in F_q[T]."""

from .rings import (
    RingCtx,
    RingSpec,
    crt_combine,
    crt_map,
    crt_split,
    generator,
    is_kth_power,
    kth_power_set,
    make_ring,
    non_kth_power,
)
from .polys import (
    PolyFq,
    compose,
    decode_poly,
    encode_poly,
    enumerate_polynomials,
    kth_root,
    poly,
)
from .graphs import (
    CayleyGraph,
    GenericGraph,
    build_paley,
    complement,
    crt_factor_check,
    export_dimacs,
    import_dimacs,
    graph_fingerprint,
    strong_power,
    strong_product,
)
from .solver import IndepSet, max_independent_set, verify_independent
from .indep import (
    CapacityBounds,
    alpha_product,
    beta_pair_set,
    capacity_bounds,
    clique_number,
    cohen_bound,
    complement_power_graph,
    diagonal_indep_set,
)
from .theta import (
    RuzsaCheck,
    ThetaReport,
    cayley_spectrum,
    lovasz_theta,
    lovasz_theta_complement,
    ruzsa_bound_check,
    theta_zmod,
)
from .powerfree import (
    ConstructionParams,
    DifferenceFreeSet,
    construct,
    construct_general,
    construct_power,
    greedy_difference_free,
    greedy_lower_bound,
    monomial,
    pigeonhole_upper,
    verify_no_F_difference,
)
from .bounds import (
    BoundsLedger,
    GreenBound,
    RateMin,
    bounds_report,
    digit_sum,
    green_exponent,
    minimize_rate,
)

__all__ = [
    "RingCtx", "RingSpec", "make_ring", "kth_power_set", "is_kth_power",
    "non_kth_power", "generator", "crt_split", "crt_map", "crt_combine",
    "PolyFq", "poly", "compose", "kth_root", "enumerate_polynomials",
    "encode_poly", "decode_poly",
    "CayleyGraph", "GenericGraph", "build_paley",
    "complement", "strong_product", "strong_power", "crt_factor_check",
    "export_dimacs", "import_dimacs", "graph_fingerprint",
    "IndepSet", "max_independent_set", "verify_independent",
    "alpha_product", "beta_pair_set", "capacity_bounds", "CapacityBounds",
    "clique_number", "cohen_bound", "complement_power_graph",
    "diagonal_indep_set",
    "ThetaReport", "RuzsaCheck", "cayley_spectrum", "lovasz_theta",
    "lovasz_theta_complement", "theta_zmod", "ruzsa_bound_check",
    "ConstructionParams", "DifferenceFreeSet", "construct",
    "construct_general", "construct_power", "verify_no_F_difference",
    "greedy_difference_free", "greedy_lower_bound", "monomial",
    "pigeonhole_upper",
    "BoundsLedger", "GreenBound", "RateMin", "bounds_report", "digit_sum",
    "green_exponent", "minimize_rate",
]
