"""Exact maximum independent set via branch and bound.

Independence in a directed graph means independence in the symmetrized
graph, so the input is symmetrized and the search runs as a maximum
clique search on the complement, using bit-parallel candidate sets and a
greedy coloring upper bound.  Where that bound is tight, a branch is
tested once, by unit propagation over the colour classes, a
bit-parallel support filter (a vertex with no neighbour in some other
class leaves its class) and then failed-literal probing of the vertices
left (MaxSAT-style inconsistent-subset reasoning, as in Li & Quan's
MaxCLQ), and dropped unexpanded when no clique through it can beat the
incumbent.  The filter removes only vertices whose probe would fail at
its first step, so it changes the cost of a test, never its answer.
A multistart greedy supplies the incumbent, and for vertex-transitive
inputs the search is rooted at vertex 0, which is exact because
automorphisms carry any maximum set through any chosen vertex; on
Cayley inputs, depth-1 branches are further pruned by orbits
of the stabilizer of vertex 0, and on their strong products every branch
is also tested by a slab bound drawn from the product structure.
Everything is deterministic: natural index order, lowest-bit
tie-breaking, no randomness, single-threaded.  A time budget turns
exhaustion into a SolverTimeout that carries the incumbent certificate
and the search counters.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import SolverTimeout
from .graphs import (
    CayleyGraph,
    GenericGraph,
    complement_rows,
    graph_fingerprint,
    root_stabilizer,
    symmetrized_rows,
)

DEFAULT_BUDGET_S = 300.0
# most vertices bounds_report, capacity_bounds and ruzsa_bound_check solve
SOLVER_VERTEX_CAP = 400
# most vertices of a product's last factor H with a slab table: one byte
# per subset of H, 1 MB at the cap
SLAB_CAP = 20


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


class _CliqueSearch:
    """Tomita-style max clique with greedy coloring bound on bitmasks."""

    __slots__ = ("adj", "best", "deadline", "slab", "stats", "sym")

    def __init__(self, adj: list[int], sym: list[int], deadline: float,
                 seed: list[int], slab: _Slab | None = None):
        # adj: the graph searched for cliques; sym: its loopless
        # complement, the input graph, so sym[v] is what may share a
        # colour class with v
        self.adj = adj
        self.sym = sym
        self.best = list(seed)
        self.deadline = deadline
        self.slab = slab
        self.stats = dict(nodes=0, orbit_pruned=0, up_pruned=0, slab_pruned=0)

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

        With a slab bound B (see _Slab), every branch on v is tested
        first: when |R| + 1 + B(P & adj[v]) <= best, no clique through
        R + v can beat the incumbent, and v leaves P unexpanded.  A branch
        on v in class c with |R| + c = best + 1 is then tested by
        _refutes on classes 1..c-1 cut to P & adj[v]; when that refutes
        it, v leaves P (with its orbit at depth 1) unexpanded, as after a
        finished branch.
        Exact: every class above c has already left P and each class is
        independent, so a clique through v that beats the incumbent needs
        c - 1 more vertices, one from each of classes 1..c-1, which the
        refutation shows impossible.  A pruned subtree, by either test,
        holds only cliques of size <= best, which never replace the
        incumbent, so the colouring, the branch order and the sequence of
        incumbents (hence every certificate) are the same as without the
        tests, and the orbit argument above still holds for a pruned v."""
        if time.monotonic() >= self.deadline:
            raise _Expired()
        stats = self.stats
        stats["nodes"] += 1
        adj = self.adj
        sym = self.sym
        slab = self.slab
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
                best = len(self.best)
                if size + c <= best:
                    return
                v = cls.bit_length() - 1
                bit = 1 << v
                P2 = P & adj[v]
                if slab is not None and not slab.reaches(P2, best - size):
                    stats["slab_pruned"] += 1
                elif size + c == best + 1 and _refutes(adj, classes, c - 1, P2):
                    stats["up_pruned"] += 1
                elif P2:
                    self.expand(R + [v], P2)
                elif size >= best:
                    self.best = R + [v]
                if orbit is None:
                    P ^= bit
                    cls ^= bit
                else:
                    stats["orbit_pruned"] += (P & orbit[v]).bit_count() - 1
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
    """True iff unit propagation, a support filter and failed-literal
    detection show that no clique takes one vertex from each of
    classes[:k] & P.  False says nothing.  The classes are disjoint and
    adj is symmetric and loopless, as in the search.

    Unit propagation runs first: a class cut to one vertex u forces u, so
    every class still open is cut to adj[u], and a conflict refutes.

    The support filter (arc consistency, bit-parallel) then takes the
    classes smallest first and cuts every class to the reach of class x,
    x | (OR of adj[u] over u in x).  After a cut it starts again from the
    smallest class, skipping the classes unchanged since their last
    reach, until no reach removes a vertex; an emptied class refutes.  A
    vertex w of another class left out of the reach has no neighbour in
    x, so its probe (below) would return None on its first step, where it
    cuts x to adj[w]: every vertex the filter removes is a failed
    literal.  A class cut to one vertex u reaches u | adj[u], so its cut
    is unit propagation.  A vertex costs the filter one OR per reach of
    its class, where its probe costs an AND per other class and a call.

    From the filter's fixpoint, each vertex u of each class of two or
    more vertices is probed by propagating the other classes cut to
    adj[u]; a single vertex left is adjacent to every vertex left and
    constrains nothing.  A refuted u (a failed literal) lies in no such
    clique and leaves its class; a class cut to one vertex or none is
    propagated again, and a conflict refutes.  Probing goes round the
    classes until a full round removes nothing.  Cutting and removing
    only shrink classes, and a literal that fails once still fails on
    smaller classes, so this greatest fixpoint, and hence the answer, do
    not depend on the order of the classes, of the probes or of the
    filter's cuts: the filter changes the work, never the answer, and so
    never the search tree."""
    open_ = _propagate(adj, classes[:k], P)
    if open_ is None:
        return True
    open_.sort(key=int.bit_count)
    done = [0] * len(open_)  # each class as it was when it last cut
    union = 0
    for x in open_:
        union |= x
    i = 0
    while i < len(open_):
        x = open_[i]
        if done[i] == x:
            i += 1
            continue
        done[i] = x
        r = rest = x
        while rest:
            b = rest & -rest
            rest ^= b
            r |= adj[b.bit_length() - 1]
        if union & ~r:
            open_ = [y & r for y in open_]
            if 0 in open_:
                return True
            union &= r
            i = 0
        else:
            i += 1
    open_ = [x for x in open_ if x & (x - 1)]
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


class _Slab:
    """The slab bound on a strong product G' x H of Cayley graphs, H the
    last factor, searched as cliques of its complement.

    With the product in row-major order, fibre a of a vertex set P (the
    vertices (a, x)) is the |H| bits (P >> a*|H|) & mask.  For a clique K
    of the mutual-edge graph of G' (a -> b and b -> a), an independent
    set of the symmetrized product meets K x H in vertices with distinct,
    pairwise non-adjacent H coordinates: (a, x) and (b, y) with a <-> b
    are adjacent whenever x = y or x, y are adjacent either way.  So it
    holds at most t[S] = alpha(H_sym[S]) of them, S the union of the
    fibres over K.  The family is the |G'| translates of one maximum
    mutual clique K0 (a product of per-factor ones, translation being an
    automorphism), which cover each vertex of G' exactly |K0| times, so
    alpha(P) <= B(P) = floor(sum over the family of t[S_K] / |K0|).  A
    clique of the symmetrized G' would not do: with a -> b alone, (a, x)
    and (b, y) are not adjacent when y -> x alone.

    Translate K shifts P right by s0 + d for d in one of a few difference
    patterns (which digits of the translation wrap round), with s0 its
    least shift; so a test ORs P >> d once per pattern, and each
    translate then costs one shift.  The table and the family are built
    on the first test, so a search that never tests pays nothing."""

    __slots__ = ("deadline", "factors", "family", "h_rows", "mask", "patterns", "table",
                 "weight")

    def __init__(self, factors: tuple, h_rows: list[int], deadline: float):
        # factors: those of G'; h_rows: the symmetrized rows of H
        self.factors = factors
        self.h_rows = h_rows
        self.deadline = deadline
        self.mask = (1 << len(h_rows)) - 1
        self.table = None

    def _build(self) -> None:
        h = len(self.h_rows)
        # t[S] for S with highest bit v is max(t[S - v], 1 + t[S & nn]),
        # nn the non-neighbours of v below it
        t = np.zeros(1 << h, dtype=np.uint8)
        low = np.arange(1 << max(h - 1, 0), dtype=np.int32)
        for v, row in enumerate(self.h_rows):
            lo = low[:1 << v]
            nn = ~row & ((1 << v) - 1)
            t[1 << v:2 << v] = np.maximum(t[lo], t[lo & nn] + 1)
        # members[g]: the G' indices of K0 + g, g in row-major order
        members = np.zeros((1, 1), dtype=np.int64)
        for f in self.factors:
            R = f.ring
            K = np.array(_mutual_clique(f, self.deadline), dtype=np.int64)
            T = R.add_array(np.arange(f.n)[:, None], K)
            members = (members[:, None, :, None] * f.n + T[None, :, None, :]).reshape(
                len(members) * f.n, -1)
        patterns: dict[tuple, int] = {}
        self.family = []  # (pattern index, s0) per translate
        for row in (members * h).tolist():
            s0 = min(row)
            pattern = tuple(sorted(s - s0 for s in row))
            self.family.append((patterns.setdefault(pattern, len(patterns)), s0))
        self.patterns = list(patterns)
        self.weight = members.shape[1]
        self.table = t.tobytes()

    def reaches(self, P: int, need: int) -> bool:
        """True iff B(P) >= need.  The sum stops once it reaches
        need * |K0|."""
        if self.table is None:
            self._build()
        t = self.table
        mask = self.mask
        limit = need * self.weight
        spread = []
        for pattern in self.patterns:
            u = 0
            for d in pattern:
                u |= P >> d
            spread.append(u)
        total = 0
        for i, s0 in self.family:
            total += t[spread[i] >> s0 & mask]
            if total >= limit:
                return True
        return False


def _slab_for(g: GenericGraph, sym: list[int], deadline: float) -> _Slab | None:
    """The slab bound of g, a graph root_stabilizer finds vertex-transitive
    (so each of its factors is a Cayley graph), with sym its symmetrized
    rows: None unless g is a product of two or more factors whose last
    has at most SLAB_CAP vertices."""
    fs = g.factors
    if len(fs) < 2 or fs[-1].n > SLAB_CAP:
        return None
    h = fs[-1].n
    return _Slab(fs[:-1], [sym[y] & ((1 << h) - 1) for y in range(h)], deadline)


def _mutual_clique(f: CayleyGraph, deadline: float) -> list[int]:
    """A maximum clique of the mutual-edge graph of the Cayley graph f: a
    Cayley graph itself, on the connection elements whose negatives are
    in it.  Its translations are automorphisms, so the search is rooted
    at 0."""
    conn = frozenset(f.members[f.inside[f.ring.neg_array(f.members)]].tolist())
    rows = list(CayleyGraph(ring=f.ring, connection=conn).to_generic().rows)
    search = _CliqueSearch(rows, complement_rows(rows), deadline,
                           _multistart_greedy(f.n, rows, deadline))
    search.expand([0], rows[0])
    return search.best


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


def max_independent_set(
    G,
    budget_s: float = DEFAULT_BUDGET_S,
    stats: dict | None = None,
) -> IndepSet:
    """Exact maximum independent set with certificate.

    The budget covers the whole call: its deadline starts on entry and is
    checked inside the greedy incumbent and on entry to every search node,
    before the node is counted, so a timed-out search stops within one
    node of the budget; when it expires SolverTimeout carries the best set
    found so far (never empty on a nonempty graph).  budget_s must be
    positive and finite, else ValueError.  The solver holds at most three
    copies of the adjacency bitmasks, which graphs.check_order bounds
    wherever rows are built.  The certificate is deterministic for a given
    graph.

    The search is rooted at vertex 0 exactly when graphs.root_stabilizer
    returns generators, that is on Cayley graphs and their strong
    products, which are vertex-transitive: exact because automorphisms
    carry any maximum set through any chosen vertex.  Depth-1 branches
    are then pruned by orbits of the stabilizer of 0 (see
    _CliqueSearch.expand); with no generators (root_stabilizer returns
    []: no multiplier keeps the connection set) every orbit is one vertex,
    so the root is fixed and nothing is pruned.  Any other graph is
    searched unrooted.

    On a rooted strong product G' x H of two or more factors whose last,
    H, has at most SLAB_CAP = 20 vertices, every branch is also tested by
    the slab bound (Shannon's fractional clique-cover argument, 1956):
    alpha(P) <= floor(sum over the |G'| translates K of one maximum
    clique K0 of the mutual-edge graph of G' of alpha(H_sym[union of the
    fibres of P over K]) / |K0|).  The cliques must be mutual (a -> b and
    b -> a): on a directed factor a clique of the symmetrized G' does not
    bound independence in the symmetrized product.  The table of
    alpha(H_sym[S]) for every subset S of H (2^|H| bytes, 1 MB at the
    cap, outside the three-bitmask ADJACENCY_CAP estimate) and the
    translates are built on the first test, within the deadline; a
    search that ends on the root's colouring bound builds neither.  Over
    the cap, or on any other graph, the search is as without it.

    stats, if given, is filled with nodes (search nodes expanded),
    root_fixed, depth1_orbits (orbits of the root's candidates, 0 without
    orbit pruning), orbit_pruned (depth-1 candidates dropped with an
    orbit whose branch was done, never expanded), up_pruned (branches
    refuted by unit propagation, the support filter or failed-literal
    detection, never expanded) and slab_pruned (branches dropped by the
    slab bound, never expanded); SolverTimeout carries the same dict as
    its stats.  The pruning cuts alpha(C_11^2) = 27 to 645 nodes (4,016
    without the slab bound, 50,978 with unit propagation alone).
    """
    deadline = time.monotonic() + check_budget(budget_s)
    g = G.to_generic()
    n = g.n
    gens = root_stabilizer(G)
    root_fixed = gens is not None
    sym = list(g.rows) if g.symmetric else symmetrized_rows(g.rows)
    fingerprint = graph_fingerprint(g)  # after the rows are read: hashed, not streamed
    comp = complement_rows(sym)
    search = _CliqueSearch(comp, sym, deadline, _multistart_greedy(n, comp, deadline),
                           _slab_for(g, sym, deadline) if root_fixed else None)
    orbit = None
    completed = True
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 4 * n + 100))
    try:
        if n and root_fixed:
            orbit = _root_orbits(gens, n, comp[0])
            search.expand([0], comp[0], orbit)
        elif n:
            search.expand([], (1 << n) - 1)
    except _Expired:
        completed = False
    counters = dict(search.stats, root_fixed=root_fixed,
                    depth1_orbits=len(set(orbit) - {0}) if gens and orbit else 0)
    if stats is not None:
        stats.update(counters)
    result = IndepSet(vertices=g.label(sorted(search.best)),
                      graph_fingerprint=fingerprint)
    if not completed:
        raise SolverTimeout(incumbent=result, budget_s=budget_s, stats=counters)
    return result


def verify_independent(G, vertices) -> bool:
    """True iff no ordered pair of distinct members is an edge.  Members
    are vertex labels, checked as by GenericGraph.index; repeats are
    allowed.  A strong product is checked by coordinates on its factors
    (GenericGraph.has_edge_among), so its rows are never built."""
    g = G.to_generic()
    return not g.has_edge_among([g.index(v) for v in vertices])
