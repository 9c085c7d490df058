"""Unit-propagation and failed-literal pruning in the clique search
(solver._refutes, and solver._propagate for unit propagation alone).

Hand-made cases pin what each test proves and what it leaves open;
seeded property tests check on random graphs that a refutation is sound
(no clique takes one vertex from each class, by brute force), does not
depend on the order of the classes, and answers as the probe-only
reference util.ref_refutes, which has no support filter; the search with
the tests is compared against the search with them switched off, and
against itself under python -O; and the search trees of the benchmark's
solver-bound graphs are pinned.
"""

import hashlib
import itertools
import json
import random

import pytest

import paleyfq.solver as solver
from paleyfq.errors import SolverTimeout
from paleyfq.graphs import build_paley, strong_power
from paleyfq.rings import RingSpec, make_ring
from paleyfq.solver import _refutes, max_independent_set

from util import random_graph, ref_refutes, run_child


def bits(*vs):
    return sum(1 << v for v in vs)


def graph(n, edges):
    adj = [0] * n
    for a, b in edges:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    return adj


def up(adj, classes, k, P):
    """Unit propagation alone refutes classes[:k] & P."""
    return solver._propagate(adj, classes[:k], P) is None


def transversal_clique(adj, classes, P):
    """Brute force: is there a clique with one vertex of each class & P?"""
    members = [[v for v in range(P.bit_length()) if (c & P) >> v & 1] for c in classes]
    for pick in itertools.product(*members):
        if all(adj[a] >> b & 1 for a, b in itertools.combinations(pick, 2)):
            return True
    return False


def test_empty_restricted_class():
    adj = graph(4, [(0, 2), (1, 3)])
    classes = [bits(0, 1), bits(2, 3)]
    assert up(adj, classes, 2, bits(0, 1))
    # the class outside classes[:k] is not looked at
    assert not up(adj, classes, 1, bits(0, 1))


def test_conflict_after_two_propagation_steps():
    # a forces itself; a's neighbours cut B to {b1}, which forces b1;
    # b1 has no neighbour in C = {c1, c2}
    a, b1, b2, c1, c2 = range(5)
    adj = graph(5, [(a, b1), (a, c1), (a, c2)])
    A, B, C = bits(a), bits(b1, b2), bits(c1, c2)
    full = bits(a, b1, b2, c1, c2)
    assert up(adj, [A, B, C], 3, full)
    # one step alone proves nothing: without B, a leaves C = {c1, c2}
    assert not up(adj, [A, C], 2, full)
    assert transversal_clique(adj, [A, C], full)


def test_two_forced_vertices_not_adjacent():
    adj = graph(3, [(0, 2)])
    assert up(adj, [bits(0), bits(1), bits(2)], 3, bits(0, 1, 2))


def test_no_conflict():
    # a forces b1, and {a, b1, c2} is a clique: nothing to refute
    a, b1, b2, c1, c2 = range(5)
    adj = graph(5, [(a, b1), (a, c2), (b1, c2), (b2, c1)])
    classes = [bits(a), bits(b1, b2), bits(c1, c2)]
    full = bits(a, b1, b2, c1, c2)
    assert not up(adj, classes, 3, full)
    assert not up(adj, [], 0, full)


def test_false_says_nothing_without_units():
    # the 6-cycle x0 y0 z0 x1 y1 z1 has no triangle, but no class is a
    # single vertex, so propagation never starts
    x0, x1, y0, y1, z0, z1 = range(6)
    adj = graph(6, [(x0, y0), (y0, z0), (z0, x1), (x1, y1), (y1, z1), (z1, x0)])
    classes = [bits(x0, x1), bits(y0, y1), bits(z0, z1)]
    assert not up(adj, classes, 3, bits(*range(6)))
    assert not transversal_clique(adj, classes, bits(*range(6)))


def test_refutations_are_sound_and_order_free():
    rng = random.Random(20261018)
    refuted = 0
    for _ in range(400):
        n = rng.randint(3, 12)
        adj = list(random_graph(rng, n, rng.uniform(0.3, 0.9)).rows)
        verts = list(range(n))
        rng.shuffle(verts)
        cuts = sorted(rng.sample(range(1, n), rng.randint(1, min(4, n - 1))))
        classes = [bits(*verts[i:j]) for i, j in zip([0, *cuts], [*cuts, n])]
        P = rng.getrandbits(n) | bits(*rng.sample(range(n), 1))
        got = up(adj, classes, len(classes), P)
        full = _refutes(adj, classes, len(classes), P)
        assert full == ref_refutes(adj, classes, len(classes), P)
        assert _refutes(adj, classes, len(classes) - 1, P) == ref_refutes(
            adj, classes, len(classes) - 1, P)
        if got:
            refuted += 1
            assert full
        if full:
            assert not transversal_clique(adj, classes, P)
        for perm in itertools.permutations(classes):
            assert up(adj, list(perm), len(perm), P) == got
            assert _refutes(adj, list(perm), len(perm), P) == full
    assert refuted > 50


def test_failed_literals_refute_the_six_cycle():
    # assuming x0 cuts Y to {y0} and Z to {z1}, which are not adjacent, so
    # x0 fails; x1 fails the same way, and X empties
    x0, x1, y0, y1, z0, z1 = range(6)
    adj = graph(6, [(x0, y0), (y0, z0), (z0, x1), (x1, y1), (y1, z1), (z1, x0)])
    classes = [bits(x0, x1), bits(y0, y1), bits(z0, z1)]
    assert _refutes(adj, classes, 3, bits(*range(6)))
    # with the chord y0-z1 the clique {x0, y0, z1} survives every probe
    adj = graph(6, [(x0, y0), (y0, z0), (z0, x1), (x1, y1), (y1, z1), (z1, x0),
                    (y0, z1)])
    assert not _refutes(adj, classes, 3, bits(*range(6)))


def test_probing_goes_past_a_class_that_keeps_every_vertex():
    # every vertex has a neighbour in every other class, so the support
    # filter removes nothing; both probes of the smallest class A survive,
    # but every vertex of B fails its probe, so only probing on past A
    # empties a class
    adj = graph(11, [(0, 2), (0, 4), (0, 5), (0, 6), (0, 8), (0, 10), (1, 2),
                     (1, 3), (1, 4), (1, 6), (1, 7), (1, 8), (1, 9), (2, 5),
                     (2, 7), (2, 9), (3, 5), (3, 10), (4, 5), (4, 6), (4, 8),
                     (5, 9), (5, 10), (6, 9), (6, 10), (7, 8), (7, 10)])
    A, B, C, D = bits(0, 1), bits(2, 3, 4), bits(5, 6, 7), bits(8, 9, 10)
    full = bits(*range(11))
    assert all(solver._propagate(adj, [B, C, D], adj[a]) is not None for a in (0, 1))
    assert all(solver._propagate(adj, [A, C, D], adj[b]) is None for b in (2, 3, 4))
    assert not up(adj, [A, B, C, D], 4, full)
    assert _refutes(adj, [A, B, C, D], 4, full)
    assert not transversal_clique(adj, [A, B, C, D], full)


def test_refutes_a_plain_propagation_conflict():
    # unit propagation runs first inside the one test, so a conflict it
    # finds refutes without any probe
    adj = graph(3, [(0, 2)])
    classes = [bits(0), bits(1), bits(2)]
    assert up(adj, classes, 3, bits(0, 1, 2))
    assert _refutes(adj, classes, 3, bits(0, 1, 2))


def test_failed_literal_refutations_are_sound_and_order_free():
    # classes of two or three vertices, as colour classes mostly are, and
    # a P that now and then cuts one to a single vertex
    rng = random.Random(20261019)
    refuted = 0
    for _ in range(400):
        sizes = [rng.randint(2, 3) for _ in range(rng.randint(2, 5))]
        n = sum(sizes)
        adj = list(random_graph(rng, n, rng.uniform(0.4, 0.8)).rows)
        verts = list(range(n))
        rng.shuffle(verts)
        ends = list(itertools.accumulate(sizes))
        classes = [bits(*verts[i:j]) for i, j in zip([0, *ends], ends)]
        P = bits(*(v for v in range(n) if rng.random() < 0.95))
        unit = up(adj, classes, len(classes), P)
        got = _refutes(adj, classes, len(classes), P)
        assert got == ref_refutes(adj, classes, len(classes), P)
        clique = transversal_clique(adj, classes, P)
        if unit or got:
            assert not clique
        if unit:
            assert got
        if got and not unit:
            refuted += 1
        if len(classes) == 2:
            # a probe on one class cuts the other to its neighbours, so
            # the two rules together decide two classes exactly
            assert unit or got or clique
        for perm in itertools.permutations(classes):
            assert _refutes(adj, list(perm), len(perm), P) == got
            assert ref_refutes(adj, list(perm), len(perm), P) == got
    assert refuted > 50
    # classes of up to six vertices, as deeper in the search, against the
    # probe-only reference in shuffled orders
    answers = []
    for _ in range(200):
        sizes = [rng.randint(2, 6) for _ in range(rng.randint(3, 6))]
        n = sum(sizes)
        adj = list(random_graph(rng, n, rng.uniform(0.4, 0.8)).rows)
        ends = list(itertools.accumulate(sizes))
        classes = [bits(*range(i, j)) for i, j in zip([0, *ends], ends)]
        P = bits(*(v for v in range(n) if rng.random() < 0.95))
        got = _refutes(adj, classes, len(classes), P)
        assert got == ref_refutes(adj, classes, len(classes), P)
        if got:
            assert not transversal_clique(adj, classes, P)
        for _ in range(3):
            rng.shuffle(classes)
            assert _refutes(adj, classes, len(classes), P) == got
        answers.append(got)
    assert 50 < sum(answers) < 150


def test_unrooted_search_matches_search_without_the_test(monkeypatch):
    rng = random.Random(7)
    graphs = [random_graph(rng, rng.randint(20, 45), rng.uniform(0.15, 0.6))
              for _ in range(30)]
    runs = []
    for G in graphs:
        stats = {}
        runs.append((max_independent_set(G, stats=stats), stats))
    monkeypatch.setattr(solver, "_refutes", lambda adj, classes, k, P: False)
    pruned_somewhere = False
    for G, (cert, stats) in zip(graphs, runs):
        plain = {}
        assert max_independent_set(G, stats=plain) == cert
        assert plain["up_pruned"] == 0
        assert stats["nodes"] <= plain["nodes"]
        pruned_somewhere |= stats["up_pruned"] > 0
    assert pruned_somewhere


def test_failed_literals_prune_beyond_unit_propagation(monkeypatch):
    # pinned without the slab bound, which prunes below both counts
    monkeypatch.setattr(solver, "_slab_for", lambda g, sym, deadline: None)
    G = strong_power(build_paley(make_ring(RingSpec.field(11)), 5), 2)
    stats = {}
    cert = max_independent_set(G, stats=stats)
    monkeypatch.setattr(solver, "_refutes", up)
    up_only = {}
    assert max_independent_set(G, stats=up_only) == cert
    assert up_only["nodes"] == 50_978
    # probing to the greatest fixpoint; one round of probes gives 4,051
    assert stats["nodes"] == 4_016
    assert stats["orbit_pruned"] == up_only["orbit_pruned"]


# the benchmark's solver-bound graphs: (q, k, power) -> counters, and the
# sha256 of the certificate's JSON with sorted keys
SEARCH_TREES = {
    (11, 5, 2): (dict(nodes=645, orbit_pruned=41, up_pruned=632, slab_pruned=1231),
                 "0b6b507b526e089f01c16a718c4a4029113ca128c4727c78ddc69fa8fc820ac0"),
    (17, 2, 2): (dict(nodes=1568, orbit_pruned=205, up_pruned=1065, slab_pruned=4019),
                 "86538c25a62a98ed36c1a7b243124eba99678cf1faccec6b4d862a2a80a58b66"),
    (5, 2, 3): (dict(nodes=382, orbit_pruned=76, up_pruned=649, slab_pruned=222),
                "acb573e9876067782ce8424285259a7b75be889fcfe0e572e075ed89ae73473c"),
}


@pytest.mark.parametrize("q, k, power", sorted(SEARCH_TREES))
def test_benchmark_search_trees_are_pinned(q, k, power):
    # the refutation test changes how fast a branch is refuted, never
    # whether, so the search tree and the certificate stay as pinned
    counters, digest = SEARCH_TREES[q, k, power]
    stats = {}
    cert = max_independent_set(
        strong_power(build_paley(make_ring(RingSpec.field(q)), k), power), stats=stats)
    assert {key: stats[key] for key in counters} == counters
    blob = json.dumps(cert.to_json(), sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == digest


def test_search_is_the_same_under_optimize_flag():
    # no exactness check of the pruned search rests on assert
    code = """
import json
from paleyfq.graphs import build_paley, strong_power
from paleyfq.rings import RingSpec, make_ring
from paleyfq.solver import max_independent_set
stats = {}
cert = max_independent_set(
    strong_power(build_paley(make_ring(RingSpec.field(11)), 5), 2), stats=stats)
print(json.dumps({"cert": cert.to_json(), "stats": stats}, sort_keys=True))
"""
    proc = run_child(code, "-O")
    assert proc.returncode == 0, proc.stderr
    G = strong_power(build_paley(make_ring(RingSpec.field(11)), 5), 2)
    stats = {}
    cert = max_independent_set(G, stats=stats)
    assert stats["slab_pruned"] > 0
    want = {"cert": cert.to_json(), "stats": stats}
    assert json.loads(proc.stdout) == json.loads(json.dumps(want))


@pytest.mark.parametrize("budget", [1e-9, 0.2])
def test_timeout_carries_the_stats_dict(budget):
    G = strong_power(build_paley(make_ring(RingSpec.field(7)), 3), 3)
    stats = {}
    with pytest.raises(SolverTimeout) as exc:
        max_independent_set(G, budget_s=budget, stats=stats)
    assert exc.value.stats == stats
    assert set(stats) == {"nodes", "root_fixed", "depth1_orbits",
                          "orbit_pruned", "up_pruned", "slab_pruned"}
    assert exc.value.nodes == stats["nodes"]
    assert stats["root_fixed"] is True
