"""In-memory span recording around the public layer boundaries of paleyfq.

Each wrapped boundary records one span per call: its name, start, end,
the enclosing span and the job that caused it.  Spans stay in a list and
are turned into per-layer totals when the worker ends.  Only boundaries
between layers are wrapped; per-element methods (``RingCtx.add``/``mul``,
``PolyFq`` operators, ``decode_poly``) are not, because a wrapper costs
about a microsecond and those run millions of times.

A wrapper is installed on the defining attribute and on every
``from ... import`` binding of the same function object in any
``paleyfq`` module, so a call is attributed to the callee's layer no
matter which module made it.  Every binding gets its own wrapper, which
counts its firings under ``<module>.<attr>``; the workloads name the
bindings that must fire, so a renamed or moved layer fails loudly instead
of reading as zero.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, attribute, span name).  "Class.method" attributes are wrapped
# on the class, which covers every caller, including internal ones such
# as the solver's as_generic() call.
BOUNDARIES = (
    ("paleyfq.rings", "make_ring", "rings.make_ring"),
    ("paleyfq.rings", "kth_power_set", "rings.kth_power_set"),
    ("paleyfq.polys", "kth_root", "polys.kth_root"),
    ("paleyfq.polys", "compose", "polys.compose"),
    ("paleyfq.graphs", "build_paley", "graphs.build_paley"),
    ("paleyfq.graphs", "CayleyGraph.to_generic", "graphs.to_generic"),
    ("paleyfq.graphs", "CayleyGraph.complement_cayley", "graphs.complement_cayley"),
    ("paleyfq.graphs", "complement", "graphs.complement"),
    ("paleyfq.graphs", "strong_product", "graphs.strong_product"),
    ("paleyfq.graphs", "strong_power", "graphs.strong_power"),
    ("paleyfq.graphs", "graph_fingerprint", "graphs.fingerprint"),
    ("paleyfq.solver", "max_independent_set", "solver.max_independent_set"),
    ("paleyfq.solver", "verify_independent", "solver.verify_independent"),
    ("paleyfq.indep", "alpha_product", "indep.alpha_product"),
    ("paleyfq.indep", "diagonal_indep_set", "indep.diagonal_indep_set"),
    ("paleyfq.indep", "complement_power_graph", "indep.complement_power_graph"),
    ("paleyfq.indep", "beta_pair_set", "indep.beta_pair_set"),
    ("paleyfq.indep", "clique_number", "indep.clique_number"),
    ("paleyfq.indep", "capacity_bounds", "indep.capacity_bounds"),
    ("paleyfq.theta", "cayley_spectrum", "theta.cayley_spectrum"),
    ("paleyfq.theta", "lovasz_theta", "theta.lovasz_theta"),
    ("paleyfq.theta", "lovasz_theta_complement", "theta.lovasz_theta_complement"),
    ("paleyfq.theta", "theta_zmod", "theta.theta_zmod"),
    ("paleyfq.theta", "ruzsa_bound_check", "theta.ruzsa_bound_check"),
    ("paleyfq.powerfree", "construct", "powerfree.construct"),
    ("paleyfq.powerfree", "construct_general", "powerfree.construct_general"),
    ("paleyfq.powerfree", "construct_power", "powerfree.construct_power"),
    ("paleyfq.powerfree", "verify_no_F_difference", "powerfree.verify"),
    ("paleyfq.powerfree", "greedy_difference_free", "powerfree.greedy"),
    ("paleyfq.bounds", "bounds_report", "bounds.bounds_report"),
    ("paleyfq.bounds", "minimize_rate", "bounds.minimize_rate"),
    ("paleyfq.bounds", "green_exponent", "bounds.green_exponent"),
    ("paleyfq.cli", "main", "cli.main"),
)

LAYERS = ("rings", "polys", "graphs", "solver", "indep", "theta",
          "powerfree", "bounds", "cli")

# Bytes of the four n x |S| temporaries cayley_spectrum allocates at the
# commit that defined this benchmark: int64 phases, int64 remainders,
# complex128 arguments, complex128 exponentials.
SPECTRUM_BYTES_PER_TERM = 8 + 8 + 16 + 16


def _count_make_ring(args, result):
    return {"rings.make_ring.elements": result.order}


def _count_to_generic(args, result):
    G = args[0]
    return {"graphs.adjacency_bits": G.n * len(G.connection)}


def _count_strong_product(args, result):
    return {"graphs.product_vertices": result.n}


def _count_solver(args, result):
    return {"solver.vertices": args[0].n}


def _count_spectrum(args, result):
    G = args[0]
    terms = G.n * len(G.connection)
    return {
        "theta.spectrum_terms": terms,
        "theta.spectrum_bytes_computed": terms * SPECTRUM_BYTES_PER_TERM,
    }


def _count_verify(args, result):
    A = args[0]
    p = A.params
    depth = (p.n - 1) // p.k + 1
    return {"powerfree.verify_scan_pairs": A.size * p.q**depth}


COUNTERS = {
    "rings.make_ring": _count_make_ring,
    "graphs.to_generic": _count_to_generic,
    "graphs.strong_product": _count_strong_product,
    "solver.max_independent_set": _count_solver,
    "theta.cayley_spectrum": _count_spectrum,
    "powerfree.verify": _count_verify,
}


class Tracer:
    """Span recorder.  install() wraps every boundary, uninstall() puts
    the original functions back."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, job]
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.fired: dict[str, int] = {}
        self.job = None
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, site: str, timeout):
        spans, stack, counts, fired = self.spans, self.stack, self.counts, self.fired
        counter = COUNTERS.get(name)
        # a timeout passes through every enclosing wrapper; count it once
        catches = timeout if name == "solver.max_independent_set" else ()
        fired[site] = 0
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            fired[site] += 1
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except catches:
                counts["solver.timeouts"] = counts.get("solver.timeouts", 0) + 1
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                for key, value in counter(args, result).items():
                    counts[key] = counts.get(key, 0) + value
            return result

        return wrapper

    def install(self) -> None:
        from paleyfq.errors import SolverTimeout

        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "paleyfq" or n.startswith("paleyfq."))]
        for mod_name, attr, name in BOUNDARIES:
            owner = sys.modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                self._set(cls, meth, self._wrap(
                    cls.__dict__[meth], name, f"{mod_name}.{attr}", SolverTimeout))
                continue
            original = getattr(owner, attr)
            for mod in modules:
                for binding, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, binding, self._wrap(
                            original, name, f"{mod.__name__}.{binding}", SolverTimeout))

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def layer_totals(self) -> dict[str, float]:
        """Per-name busy time and calls, per-layer self time, and counters."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        top = 0.0
        for i, (name, start, end, parent, _) in enumerate(spans):
            dur = end - start
            layer = name.split(".", 1)[0]
            out[f"{layer}.self_s"] += dur - child_time[i]
            out[f"{name}.s"] = out.get(f"{name}.s", 0.0) + dur
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
            if parent < 0:
                top += dur
        out["trace.top_level_s"] = top
        out["trace.spans"] = len(spans)
        out.update(self.counts)
        return out
