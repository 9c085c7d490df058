"""Workload definitions: slots, pools, closed-form checks, expected wrappers.

A workload is a list of slots.  Each slot holds a small pool of parameter
sets that cost about the same at the commit that defined the benchmark;
the seed picks one entry per slot and the order of the chosen jobs.  Where
no distinct input of the same cost exists, a pool entry is the same graph
reached through other parameters (another k with the same gcd(k, q-1), or
Z/p in place of F_p), which varies the input without varying the cost.

Every slot also names the wrapper bindings (see spans.py) that all of its
entries must fire in a traced run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

DEFAULT_SEED = 1  # the held-out seed for checking a claim is 20261017


def cli(*argv, check=None):
    return {"kind": "cli", "argv": list(argv), "check": check or {}}


def lib(call, *args, check=None):
    return {"kind": "lib", "call": call, "args": list(args), "check": check or {}}


@dataclass(frozen=True)
class Slot:
    name: str
    pool: tuple
    fires: tuple = ()


ALPHA_FIRES = (
    "paleyfq.cli.main", "paleyfq.cli.make_ring", "paleyfq.cli.build_paley",
    "paleyfq.cli.max_independent_set", "paleyfq.graphs.CayleyGraph.to_generic",
    "paleyfq.graphs.kth_power_set", "paleyfq.solver.graph_fingerprint",
)
POWER_FIRES = ALPHA_FIRES + ("paleyfq.cli.strong_power", "paleyfq.graphs.strong_product")
THETA_FIRES = ("paleyfq.cli.main", "paleyfq.cli.make_ring", "paleyfq.theta.cayley_spectrum")
CONSTRUCT_FIRES = (
    "paleyfq.cli.main", "paleyfq.powerfree.construct", "paleyfq.powerfree.build_paley",
    "paleyfq.powerfree.max_independent_set", "paleyfq.powerfree.verify_no_F_difference",
    "paleyfq.powerfree.compose",
)


def _alpha(ring, k, power=1, check=None):
    argv = ["alpha", "--ring", ring, "--k", str(k)]
    if power > 1:
        argv += ["--power", str(power)]
    return cli(*argv, check=check)


def _construct(q, k, n, variant, F=None):
    argv = ["construct", "--q", str(q), "--k", str(k), "--n", str(n),
            "--variant", variant, "--verify"]
    if F:
        argv += ["--F", F]
    return cli(*argv, check={"verified": True})


WORKLOADS = {
    # Solver-bound: branch and bound does over 90% of the work, while every
    # graph the solver sees has at most 729 vertices, so adjacency-building
    # changes are bypassed here.
    "alpha-bnb": (
        Slot("hales-c11", (
            _alpha("fq:11", 5, 2, check={"hales": 5}),
            _alpha("zmod:11", 5, 2, check={"hales": 5}),
            _alpha("fq:11", 15, 2, check={"hales": 5}),
        ), POWER_FIRES),
        Slot("paley-square", (
            _alpha("fq:17", 2, 2, check={"r22": 17}),
            _alpha("fq:17", 6, 2, check={"r22": 17}),
            _alpha("fq:17", 10, 2, check={"r22": 17}),
        ), POWER_FIRES),
        Slot("c5-cube", (
            _alpha("fq:5", 2, 3), _alpha("zmod:5", 2, 3),
        ), POWER_FIRES),
        Slot("zmod-15-square", (
            _alpha("zmod:15", 2, 2), _alpha("zmod:15", 6, 2),
        ), POWER_FIRES),
        Slot("prime-paley", (
            _alpha("fq:257", 2), _alpha("fq:241", 2), _alpha("fq:269", 2),
        ), ALPHA_FIRES),
        Slot("prime-cubic", (
            _alpha("fq:127", 3), _alpha("fq:109", 3),
        ), ALPHA_FIRES),
        Slot("f9-quartic-cube", (
            _alpha("fq:9", 4, 3), _alpha("fq:9", 12, 3),
        ), POWER_FIRES),
        Slot("f8-cube", (
            _alpha("fq:8", 7, 3), _alpha("fq:8", 14, 3),
        ), POWER_FIRES),
        Slot("directed-square", (
            _alpha("fq:19", 2, 2), _alpha("fq:23", 2, 2),
        ), POWER_FIRES),
        Slot("bounds", (
            cli("bounds", "--q", "7", "--k", "3", "--n", "6", "--gamma", "4/9"),
            cli("bounds", "--q", "5", "--k", "2", "--n", "4", "--gamma", "1/2"),
            cli("bounds", "--q", "9", "--k", "2", "--n", "4", "--gamma", "1/2"),
        ), ("paleyfq.cli.main", "paleyfq.bounds.bounds_report",
            "paleyfq.bounds.alpha_product", "paleyfq.indep.max_independent_set")),
        Slot("diagonal", (
            lib("diagonal", 19, 3, check={"size": 19}),
        ), ("paleyfq.diagonal_indep_set", "paleyfq.indep.complement_power_graph",
            "paleyfq.indep.verify_independent", "paleyfq.indep.graph_fingerprint")),
        Slot("beta-pairs", (
            lib("beta_pairs", 101, 2, check={"size": 101}),
        ), ("paleyfq.beta_pair_set", "paleyfq.indep.strong_power",
            "paleyfq.indep.verify_independent")),
        Slot("capacity", (
            lib("capacity", 13, 2, 2, check={"sandwich": True}),
            lib("capacity", 9, 2, 2, check={"sandwich": True}),
        ), ("paleyfq.capacity_bounds", "paleyfq.indep.max_independent_set",
            "paleyfq.theta.lovasz_theta")),
        Slot("clique", (
            lib("clique", 61, 2), lib("clique", 53, 2),
        ), ("paleyfq.clique_number", "paleyfq.graphs.CayleyGraph.complement_cayley",
            "paleyfq.indep.max_independent_set")),
    ),
    # Ring- and adjacency-bound: large rings, Cayley adjacency and the
    # character-sum spectrum; the solver does nothing.  The n x |S|
    # character matrix of the theta slot sets peak_rss_mb.
    "ring-scale": (
        Slot("big-ring-graph", (
            cli("graph", "--ring", "fq:65536", "--k", "3"),
            cli("graph", "--ring", "fq:65536", "--k", "6"),
            cli("graph", "--ring", "fq:65536", "--k", "12"),
        ), ("paleyfq.cli.main", "paleyfq.cli.make_ring", "paleyfq.cli.build_paley",
            "paleyfq.graphs.kth_power_set")),
        Slot("fingerprint-f3", (
            lib("fingerprint", "fq:729", 2), lib("fingerprint", "fq:729", 6),
        ), ("paleyfq.graph_fingerprint", "paleyfq.graphs.CayleyGraph.to_generic",
            "paleyfq.make_ring", "paleyfq.build_paley")),
        Slot("fingerprint-zmod", (
            lib("fingerprint", "zmod:3003", 2), lib("fingerprint", "zmod:2805", 2),
        ), ("paleyfq.graph_fingerprint", "paleyfq.graphs.CayleyGraph.to_generic")),
        Slot("fingerprint-f2", (
            lib("fingerprint", "fq:1024", 3), lib("fingerprint", "fq:1024", 6),
        ), ("paleyfq.graph_fingerprint", "paleyfq.graphs.CayleyGraph.to_generic")),
        Slot("theta-ratio", (
            cli("theta", "--ring", "fq:4096", "--k", "3"),
            cli("theta", "--ring", "fq:4096", "--k", "6"),
        ), THETA_FIRES + ("paleyfq.cli.lovasz_theta",)),
        Slot("theta-complement", (
            cli("theta", "--ring", "fq:3125", "--k", "2", "--complement",
                check={"sqrt": 3125}),
            cli("theta", "--ring", "fq:3125", "--k", "6", "--complement",
                check={"sqrt": 3125}),
        ), THETA_FIRES + ("paleyfq.cli.lovasz_theta_complement",
                          "paleyfq.theta.lovasz_theta",
                          "paleyfq.graphs.CayleyGraph.complement_cayley")),
        Slot("theta-zmod", (
            cli("theta", "--ring", "zmod:1105", "--k", "2"),
            cli("theta", "--ring", "zmod:2465", "--k", "2"),
            cli("theta", "--ring", "zmod:1885", "--k", "2"),
        ), ("paleyfq.cli.theta_zmod", "paleyfq.theta.lovasz_theta")),
        Slot("theta-sweep", (
            lib("theta_sweep", 384, 2, 6, check={"sweep": True}),
        ), ("paleyfq.lovasz_theta", "paleyfq.lovasz_theta_complement",
            "paleyfq.theta.cayley_spectrum")),
    ),
    # Verifier-bound: millions of RingCtx.add/mul calls on prime fields
    # (the modular path) and on F_4/F_9 (the digit path), plus k-th roots;
    # the solver sees only graphs of 49 vertices or fewer.
    "powerfree-verify": (
        Slot("power-7-3-6", (
            _construct(7, 3, 6, "power"),
            _construct(7, 3, 6, "power", "0,0,0,2"),
            _construct(7, 3, 6, "power", "0,0,0,3"),
        ), CONSTRUCT_FIRES + ("paleyfq.powerfree.construct_power",
                              "paleyfq.powerfree.strong_power",
                              "paleyfq.graphs.strong_product")),
        Slot("general-13-2-4", (
            _construct(13, 2, 4, "general"),
            _construct(13, 2, 4, "general", "0,0,2"),
        ), CONSTRUCT_FIRES + ("paleyfq.powerfree.construct_general",)),
        Slot("power-9-2-4", (
            _construct(9, 2, 4, "power"), _construct(9, 2, 4, "power", "0,0,2"),
        ), CONSTRUCT_FIRES),
        Slot("power-4-3-6", (
            _construct(4, 3, 6, "power"), _construct(4, 3, 6, "power", "0,0,0,2"),
        ), CONSTRUCT_FIRES),
        Slot("power-3-2-8", (
            _construct(3, 2, 8, "power"), _construct(3, 2, 8, "power", "0,0,2"),
        ), CONSTRUCT_FIRES),
        Slot("greedy-f3", (
            lib("greedy", 3, 5, 2),
        ), ("paleyfq.greedy_difference_free",)),
        Slot("greedy-f2", (
            lib("greedy", 2, 9, 2),
        ), ("paleyfq.greedy_difference_free",)),
        Slot("roots-f9", (
            lib("root_trips", 9, 2, 2000, 11, 4, check={"bad": 0}),
            lib("root_trips", 9, 2, 2000, 12, 4, check={"bad": 0}),
            lib("root_trips", 9, 2, 2000, 13, 4, check={"bad": 0}),
        ), ("paleyfq.kth_root",)),
        Slot("roots-f7", (
            lib("root_trips", 7, 3, 2000, 21, 4, check={"bad": 0}),
            lib("root_trips", 7, 3, 2000, 22, 4, check={"bad": 0}),
            lib("root_trips", 7, 3, 2000, 23, 4, check={"bad": 0}),
        ), ("paleyfq.kth_root",)),
    ),
}


def job_id(workload: str, slot: Slot, index: int) -> str:
    return f"{workload}/{slot.name}/{index}"


def all_jobs(workload: str) -> list[dict]:
    """Every entry of every pool, with its id, in definition order."""
    return [dict(entry, id=job_id(workload, slot, i))
            for slot in WORKLOADS[workload] for i, entry in enumerate(slot.pool)]


def choose(workload: str, seed: int) -> tuple[list[dict], set[str]]:
    """The seed's job list (one entry per slot, in seeded order) and the
    wrapper bindings those jobs must fire."""
    rng = random.Random(f"{workload}:{seed}")
    jobs, fires = [], set()
    for slot in WORKLOADS[workload]:
        i = rng.randrange(len(slot.pool))
        jobs.append(dict(slot.pool[i], id=job_id(workload, slot, i)))
        fires.update(slot.fires)
    rng.shuffle(jobs)
    return jobs, fires
