"""Character sums kept on a Cayley graph: the complement's derived by the
indicator identity 1_{S'} = 1 - [x = 0] - 1_S, one transform for a graph
and its complement, and the kept sums across copies and in equality."""

import copy
import math
import pickle
import random

import numpy as np
import pytest

import paleyfq.theta as theta
from paleyfq.cli import _round_floats, main
from paleyfq.graphs import CayleyGraph, build_paley
from paleyfq.rings import RingSpec, factorize, field_spec, make_ring
from paleyfq.theta import (
    ThetaReport,
    cayley_spectrum,
    lovasz_theta,
    lovasz_theta_complement,
)

from util import random_connection_set

PRIME_POWERS = [q for q in range(2, 1025) if len(factorize(q)) == 1]
PRIMES = [p for p in range(2, 401) if factorize(p) == [(p, 1)]]
RANDOM_RINGS = [RingSpec.field(5, 2), RingSpec.field(3, 3), RingSpec.field(2, 6),
                RingSpec.field(11, 2), RingSpec.field(2, 7), RingSpec.zmod(60),
                RingSpec.zmod(91), RingSpec.zmod(97), RingSpec.zmod(210)]


def fresh(G: CayleyGraph) -> CayleyGraph:
    """The same graph with no sums kept."""
    return CayleyGraph(ring=G.ring, connection=G.connection)


def assert_derived_complement_matches(G: CayleyGraph) -> None:
    cayley_spectrum(G)
    C = G.complement_cayley()
    assert C.sums is not None
    got = cayley_spectrum(C)
    want = cayley_spectrum(fresh(C))
    assert len(got) == len(want) == G.n
    assert max(abs(a - b) for a, b in zip(got, want)) < 1e-9
    if not C.connection:
        # an edgeless complement has exact zeros, none of them -0.0, also
        # where pocketfft gives -0.0 (lengths 89 and 257 among others)
        assert all(x == 0 and math.copysign(1, x) == 1 for x in got + want)


def paley_cases(ring_of, orders):
    for q in orders:
        R = ring_of(q)
        for k in range(2, 13):
            G = build_paley(R, k)
            if G.symmetric:
                yield G


@pytest.mark.parametrize("ring_of,orders", [
    pytest.param(lambda q: make_ring(field_spec(q)), PRIME_POWERS, id="fq<=1024"),
    pytest.param(lambda p: make_ring(RingSpec.zmod(p)), PRIMES, id="zmod-p<=400"),
])
def test_complement_sums_match_a_fresh_transform(ring_of, orders):
    seen = 0
    for G in paley_cases(ring_of, orders):
        assert_derived_complement_matches(G)
        derived = lovasz_theta_complement(G)
        base = lovasz_theta(fresh(G))
        lam = cayley_spectrum(fresh(G.complement_cayley()))
        want = ThetaReport(value=G.n / base.value, method="closed_form",
                           lambda_max=lam[-1], lambda_min=lam[0])
        assert _round_floats(derived.to_json()) == _round_floats(want.to_json())
        seen += 1
    assert seen > len(orders)


@pytest.mark.parametrize("spec", RANDOM_RINGS, ids=str)
def test_complement_sums_of_random_symmetric_sets(spec):
    R = make_ring(spec)
    for seed in range(6):
        G = CayleyGraph(ring=R, connection=random_connection_set(R, random.Random(seed), True))
        assert_derived_complement_matches(G)
        # the complement's complement is G again, with G's sums
        CC = G.complement_cayley().complement_cayley()
        assert CC == G
        assert np.abs(CC.sums - G.sums).max() < 1e-9


@pytest.fixture
def fftn_calls(monkeypatch):
    calls = []
    real = theta.np.fft.fftn

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(theta.np.fft, "fftn", counted)
    return calls


@pytest.mark.parametrize("q,k", [(13, 2), (13, 3), (89, 3), (729, 4), (1024, 3)])
def test_theta_and_complement_theta_take_one_transform(fftn_calls, q, k):
    G = build_paley(make_ring(field_spec(q)), k)
    lovasz_theta(G)
    lovasz_theta_complement(G)
    assert len(fftn_calls) == 1
    cayley_spectrum(G)
    cayley_spectrum(G.complement_cayley())
    assert len(fftn_calls) == 1


def test_complement_without_sums_transforms_on_its_own(fftn_calls):
    G = build_paley(make_ring(field_spec(49)), 4)
    C = G.complement_cayley()
    assert C.sums is None
    want = cayley_spectrum(fresh(C))
    assert cayley_spectrum(C) == want
    assert len(fftn_calls) == 2
    assert G.sums is None and C.sums is not None


def test_cli_complement_theta_takes_one_transform(fftn_calls, capsys):
    assert main(["theta", "--ring", "fq:4096", "--k", "3", "--complement"]) == 0
    capsys.readouterr()
    assert len(fftn_calls) == 1


@pytest.mark.parametrize("clone", [
    copy.copy, copy.deepcopy, lambda G: pickle.loads(pickle.dumps(G)),
], ids=["copy", "deepcopy", "pickle"])
def test_clones_keep_the_sums(fftn_calls, clone):
    G = build_paley(make_ring(field_spec(125)), 2)
    want = cayley_spectrum(G)
    H = clone(G)
    assert H.sums is not None and np.array_equal(H.sums, G.sums)
    assert cayley_spectrum(H) == want
    assert cayley_spectrum(H.complement_cayley()) == cayley_spectrum(G.complement_cayley())
    assert len(fftn_calls) == 1


def test_equality_and_hash_ignore_the_sums():
    G = build_paley(make_ring(field_spec(81)), 2)
    H = fresh(G)
    cayley_spectrum(G)
    assert G.sums is not None and H.sums is None
    assert G == H and hash(G) == hash(H)
    assert {G: 1}[H] == 1
    assert "sums" not in repr(G)
