"""Exact maximum independent set via branch and bound.

Independence in a directed graph means independence in the symmetrized
graph, so the input is symmetrized and the search runs as a maximum
clique search on the complement, using bit-parallel candidate sets and a
greedy coloring upper bound.  Where that bound is tight, a branch is
tested once, by unit propagation over the colour classes and then
failed-literal probing (MaxSAT-style inconsistent-subset reasoning, as
in Li & Quan's MaxCLQ), and dropped unexpanded when no clique through
it can beat the incumbent.  A multistart greedy supplies the incumbent, and
for vertex-transitive inputs the search is rooted at vertex 0, which is
exact because automorphisms carry any maximum set through any chosen
vertex; on Cayley inputs, depth-1 branches are further pruned by orbits
of the stabilizer of vertex 0.  Everything is deterministic: natural
index order, lowest-bit tie-breaking, no randomness, single-threaded.  A
time budget turns exhaustion into a SolverTimeout that carries the
incumbent certificate and the search counters.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import OrderTooLarge, SolverTimeout
from .graphs import GenericGraph, graph_fingerprint, root_stabilizer

DEFAULT_BUDGET_S = 300.0
# bytes for the solver's n x n adjacency bitmasks, estimated as 3 * n^2 / 8:
# an upper bound, as a directed input holds three copies (its rows, the
# symmetrized rows, the complement) and an undirected one two
SOLVER_MEMORY_CAP = 512 << 20
# most vertices bounds_report, capacity_bounds and ruzsa_bound_check solve
SOLVER_VERTEX_CAP = 400


@dataclass(frozen=True)
class IndepSet:
    """Certificate: pairwise non-adjacent vertices, bound to a graph hash."""

    vertices: tuple
    size: int = field(init=False)
    graph_fingerprint: str

    def __post_init__(self):
        object.__setattr__(self, "size", len(self.vertices))

    def to_json(self) -> dict:
        verts = [list(v) if isinstance(v, tuple) else v for v in self.vertices]
        return {
            "vertices": verts,
            "size": self.size,
            "graph_fingerprint": self.graph_fingerprint,
        }


def _symmetrize(g: GenericGraph) -> list[int]:
    if g.symmetric:
        return list(g.rows)
    rows = list(g.rows)
    for i in range(g.n):
        r = g.rows[i]
        while r:
            j = (r & -r).bit_length() - 1
            rows[j] |= 1 << i
            r &= r - 1
    return rows


class _CliqueSearch:
    """Tomita-style max clique with greedy coloring bound on bitmasks."""

    __slots__ = (
        "adj", "best", "best_size", "deadline", "nodes", "orbit_pruned", "sym",
        "up_pruned",
    )

    def __init__(self, adj: list[int], sym: list[int], deadline: float,
                 seed: list[int]):
        # adj: the graph searched for cliques; sym: its loopless
        # complement, the input graph, so sym[v] is what may share a
        # colour class with v
        self.adj = adj
        self.sym = sym
        self.best = list(seed)
        self.best_size = len(seed)
        self.deadline = deadline
        self.nodes = 0
        self.orbit_pruned = 0
        self.up_pruned = 0

    def expand(self, R: list[int], P: int, orbit: list[int] | None = None) -> None:
        """Colour P greedily into independent classes (bitmasks, lowest
        vertex first), then branch from the highest class down, on the
        highest vertex of each class, while |R| + class number can beat
        the incumbent.

        orbit, given only at depth 1 below a fixed root r, maps each
        candidate v to its orbit under automorphisms fixing r.  When the
        branch on v is done the whole orbit leaves P: the incumbent is
        then at least every clique through {r, v}, and an automorphism g
        fixing r carries each clique through {r, g(v)} to one through
        {r, v} of the same size, so none of them can beat it.

        A branch on v in class c with |R| + c = best + 1 is tested by
        _refutes on classes 1..c-1 cut to P & adj[v]; when that refutes
        it, v leaves P (with its orbit at depth 1) unexpanded, as after a
        finished branch.
        Exact: every class above c has already left P and each class is
        independent, so a clique through v that beats the incumbent needs
        c - 1 more vertices, one from each of classes 1..c-1, which the
        refutation shows impossible.  The pruned subtree holds only
        cliques of size <= best, which never replace the incumbent, so
        the colouring, the branch order and the sequence of incumbents
        (hence every certificate) are the same as without the test, and
        the orbit argument above still holds for a refuted v."""
        self.nodes += 1
        if not self.nodes & 2047 and time.monotonic() >= self.deadline:
            raise _Expired()
        adj = self.adj
        sym = self.sym
        classes = []
        rest = P
        while rest:
            Q = rest
            cls = 0
            while Q:
                bit = Q & -Q
                cls |= bit
                Q &= sym[bit.bit_length() - 1]
            rest ^= cls
            classes.append(cls)
        size = len(R)
        for c in range(len(classes), 0, -1):
            cls = classes[c - 1] & P
            while cls:
                if size + c <= self.best_size:
                    return
                v = cls.bit_length() - 1
                bit = 1 << v
                P2 = P & adj[v]
                if size + c == self.best_size + 1 and _refutes(adj, classes, c - 1, P2):
                    self.up_pruned += 1
                else:
                    R.append(v)
                    if P2:
                        self.expand(R, P2)
                    elif size >= self.best_size:
                        self.best = R.copy()
                        self.best_size = size + 1
                    R.pop()
                if orbit is None:
                    P ^= bit
                    cls ^= bit
                else:
                    self.orbit_pruned += (P & orbit[v]).bit_count() - 1
                    P &= ~orbit[v]
                    cls &= P


def _propagate(adj: list[int], xs: list[int], P: int = -1) -> list[int] | None:
    """Unit propagation over the classes xs cut to P (-1 cuts nothing):
    None on a conflict (an empty class, or two forced vertices not
    adjacent), else the classes of two or more vertices left once every
    forced vertex has cut the others to its neighbours.  The forced
    vertices are then pairwise adjacent and adjacent to every vertex
    left, so they constrain nothing further."""
    open_ = []
    units = []
    for x in xs:
        x &= P
        if not x:
            return None
        if x & (x - 1):
            open_.append(x)
        else:
            units.append(x)
    while units:
        a = adj[units.pop().bit_length() - 1]
        for u in units:
            if not u & a:
                return None
        cut = []
        for x in open_:
            x &= a
            if not x:
                return None
            if x & (x - 1):
                cut.append(x)
            else:
                units.append(x)
        open_ = cut
    return open_


def _refutes(adj: list[int], classes: list[int], k: int, P: int) -> bool:
    """True iff unit propagation and failed-literal detection show that no
    clique takes one vertex from each of classes[:k] & P.  False says
    nothing.

    Unit propagation runs first: a class cut to one vertex u forces u, so
    every class still open is cut to adj[u], and a conflict refutes.  From
    its fixpoint, each vertex u of each class of two or more vertices is
    probed by propagating the other classes cut to adj[u].  A refuted u
    (a failed literal) lies in no such clique and leaves its class; a
    class cut to one vertex or none is propagated again, and a conflict
    refutes.  Probing goes round the classes until a full round removes
    nothing.  Cutting and removing only shrink classes, and a probe
    refuted once stays refuted on smaller classes, so this greatest
    fixpoint, and hence the answer, do not depend on the order of the
    classes or of the probes."""
    open_ = _propagate(adj, classes[:k], P)
    if open_ is None:
        return True
    # small classes first: they empty after the fewest probes
    open_.sort(key=int.bit_count)
    i = quiet = 0
    while quiet < len(open_):
        i %= len(open_)
        x = open_[i]
        others = open_[:i] + open_[i + 1:]
        keep = rest = x
        while rest:
            b = rest & -rest
            rest ^= b
            if _propagate(adj, others, adj[b.bit_length() - 1]) is None:
                keep ^= b
        if keep == x:
            quiet += 1
        elif keep & (keep - 1):
            open_[i] = keep
            quiet = 1
        else:
            # an emptied class is a conflict of the propagation
            open_[i] = keep
            open_ = _propagate(adj, open_)
            if open_ is None:
                return True
            i = quiet = 0
            continue
        i += 1
    return False


class _Expired(Exception):
    pass


def _multistart_greedy(n: int, adj: list[int], deadline: float) -> list[int]:
    """Deterministic incumbent: index-order greedy from staggered offsets,
    on the loopless complement rows adj the clique search holds (a
    chosen v leaves only adj[v] available: v and its neighbours go).
    The first start always runs, so even an expired budget leaves a
    nonempty set; the deadline is checked before each later start.
    Start s takes the lowest uncovered vertex at or above s (hi), then
    below s: the order s, ..., n-1, 0, ..., s-1 of a vertex-by-vertex
    scan, since a vertex passed over is covered and stays covered."""
    best: list[int] = []
    for start in range(min(n, 300)):
        if start and time.monotonic() >= deadline:
            break
        avail = (1 << n) - 1
        hi = avail >> start << start
        chosen: list[int] = []
        while avail:
            hi &= avail
            pick = hi or avail
            v = (pick & -pick).bit_length() - 1
            chosen.append(v)
            avail &= adj[v]
        if len(chosen) > len(best):
            best = chosen
    return best


def _root_orbits(gens: list, n: int, candidates: int) -> list[int]:
    """orbit[v] = bitmask of the orbit of v under the group generated by
    the index permutations gens, for each v in candidates (0 elsewhere).

    Label propagation: every vertex carries the least index seen in its
    orbit; each round sets label[x] = min(label[x], label[perm[x]]) for
    every generator and then jumps label[x] to label[label[x]], until
    nothing changes.  Then labels never increase along any cycle of any
    generator, so they are constant on each orbit.  O(n * len(gens)) per
    round, and the group is never listed."""
    label = np.arange(n)
    while True:
        old = label
        for perm in gens:
            label = np.minimum(label, label[perm])
        label = label[label]
        if (label == old).all():
            break
    lab = label.tolist()
    verts = [v for v in range(n) if candidates >> v & 1]
    masks: dict[int, int] = {}
    for v in verts:
        masks[lab[v]] = masks.get(lab[v], 0) | 1 << v
    orbit = [0] * n
    for v in verts:
        orbit[v] = masks[lab[v]]
    return orbit


def check_budget(budget_s: float) -> float:
    """budget_s if it is a positive, finite number of seconds, else
    ValueError."""
    if not (math.isfinite(budget_s) and budget_s > 0):
        raise ValueError(f"budget must be a positive number of seconds, got {budget_s!r}")
    return budget_s


def check_solver_memory(n: int) -> int:
    """n if the solver's bitmask copies of a graph on n vertices, at most
    three, fit in SOLVER_MEMORY_CAP bytes, else OrderTooLarge."""
    need = 3 * n * n // 8
    if need > SOLVER_MEMORY_CAP:
        raise OrderTooLarge(
            f"{n} vertices need about {need >> 20} MB of solver bitmasks,"
            f" over the cap of {SOLVER_MEMORY_CAP >> 20} MB"
        )
    return n


def max_independent_set(
    G,
    budget_s: float = DEFAULT_BUDGET_S,
    stats: dict | None = None,
) -> IndepSet:
    """Exact maximum independent set with certificate.

    The budget covers the whole call: its deadline starts on entry and is
    checked inside the greedy incumbent, after it, after the orbit build
    and every 2048 search nodes; when it expires SolverTimeout carries the
    best set found so far (never empty on a nonempty graph).  budget_s
    must be positive and finite, else ValueError.  A graph whose bitmask
    copies (see check_solver_memory) would take more than
    SOLVER_MEMORY_CAP bytes raises OrderTooLarge before any adjacency is
    built.  The certificate is deterministic for a given graph.

    The search is rooted at vertex 0 exactly when graphs.root_stabilizer
    returns generators, that is on Cayley graphs and their strong
    products, which are vertex-transitive: exact because automorphisms
    carry any maximum set through any chosen vertex.  Depth-1 branches
    are then pruned by orbits of the stabilizer of 0 (see
    _CliqueSearch.expand); with no generators (root_stabilizer returns
    []: no multiplier keeps the connection set) the root is fixed without
    orbits.  Any other graph is searched unrooted.

    stats, if given, is filled with nodes (search nodes expanded),
    root_fixed, depth1_orbits (orbits of the root's candidates, 0 without
    orbit pruning), orbit_pruned (depth-1 candidates dropped with an
    orbit whose branch was done, never expanded) and up_pruned (branches
    refuted by unit propagation or by failed-literal detection, never
    expanded); SolverTimeout carries the same dict as its stats.  The
    refutations cut alpha(C_11^2) = 27 to 4,016 nodes (50,978 with unit
    propagation alone).
    """
    deadline = time.monotonic() + check_budget(budget_s)
    check_solver_memory(G.n)
    g = G.to_generic()
    n = g.n
    gens = root_stabilizer(G)
    root_fixed = gens is not None
    fingerprint = graph_fingerprint(g)
    sym = _symmetrize(g)
    full = (1 << n) - 1
    comp = [(full & ~sym[i]) & ~(1 << i) for i in range(n)]
    search = _CliqueSearch(comp, sym, deadline, _multistart_greedy(n, comp, deadline))
    orbit = None
    completed = True
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 4 * n + 100))
    try:
        if time.monotonic() >= deadline:
            raise _Expired()
        if n and root_fixed:
            if gens:
                orbit = _root_orbits(gens, n, comp[0])
                if time.monotonic() >= deadline:
                    raise _Expired()
            search.expand([0], comp[0], orbit)
        elif n:
            search.expand([], full)
    except _Expired:
        completed = False
    counters = dict(
        nodes=search.nodes,
        root_fixed=root_fixed,
        depth1_orbits=len(set(orbit) - {0}) if orbit else 0,
        orbit_pruned=search.orbit_pruned,
        up_pruned=search.up_pruned,
    )
    if stats is not None:
        stats.update(counters)
    result = IndepSet(vertices=g.label(sorted(search.best)),
                      graph_fingerprint=fingerprint)
    if not completed:
        raise SolverTimeout(incumbent=result, budget_s=budget_s, stats=counters)
    return result


def verify_independent(G, vertices) -> bool:
    """True iff no ordered pair of distinct members is an edge.  Members
    are vertex labels, checked as by GenericGraph.index."""
    g = G.to_generic()
    idx = [g.index(v) for v in vertices]
    for a in idx:
        row = g.rows[a]
        for b in idx:
            if a != b and row >> b & 1:
                return False
    return True
