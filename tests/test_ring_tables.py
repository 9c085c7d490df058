"""The ring tables: int32 numpy exp/log arrays on every field, and the
Python lists of an extension field's scalar kernels, built on the first
scalar operation.

These tests check that the array paths (graphs, fingerprints, spectra,
stabilizers, k-th power sets) never build the lists; that each scalar
kernel, run first on a fresh ring, agrees with the reference arithmetic
of util; that copies and pickles of cold and warmed rings compute the
same; and that the int32 tables and index arithmetic hold at orders near
ORDER_CAP.
"""

import copy
import pickle
import random

import numpy as np
import pytest

from paleyfq.graphs import (
    CayleyGraph,
    _factor_stabilizer,
    build_paley,
    graph_fingerprint,
    root_stabilizer,
)
from paleyfq.polys import _least_field_kth_root
from paleyfq.rings import (
    ORDER_CAP,
    RingSpec,
    generator,
    is_kth_power,
    kth_power_set,
    make_ring,
    non_kth_power,
)
from paleyfq.theta import cayley_spectrum

from util import (
    peak_traced,
    ref_add,
    ref_mul,
    ref_neg,
    ref_pow_table,
    run_child,
)


def test_tables_are_int32_arrays():
    for spec in (RingSpec.field(2), RingSpec.field(13), RingSpec.field(3, 2)):
        R = make_ring(spec)
        assert R.exp.dtype == R.log.dtype == np.int32
        assert R.exp.shape == (R.order - 1,) and R.log.shape == (R.order,)
        assert R.log[0] == 0


@pytest.mark.parametrize("spec,k", [(RingSpec.field(2, 16), 3), (RingSpec.field(3, 6), 2)],
                         ids=["F2^16", "F3^6"])
def test_array_paths_leave_the_scalar_lists_unbuilt(spec, k):
    R = make_ring(spec)
    assert R._tabs is None
    G = build_paley(R, k)
    assert generator(R) == int(R.exp[1])
    assert is_kth_power(R, int(R.exp[k]), k) and not is_kth_power(R, int(R.exp[1]), k)
    assert non_kth_power(R, k) not in kth_power_set(R, k)
    assert _least_field_kth_root(R, int(R.exp[10]), 5) is not None
    cayley_spectrum(G)
    assert root_stabilizer(G)
    if R.order <= 4096:  # F_2^16 is over the adjacency cap
        assert G.to_generic().n == R.order
        graph_fingerprint(G)
        graph_fingerprint(G.complement_cayley())
    assert R._tabs is None


def test_make_ring_memory():
    # the exp, log and Zech lists of F_2^16 took 9.8 MB when built with the ring
    R, peak = peak_traced(make_ring, RingSpec.field(2, 16))
    assert R._tabs is None
    assert peak < 3 << 20, peak


def test_make_ring_f2_20_rss():
    # F_2^20 grew RSS by 150 MB while its tables were lists
    code = (
        "import resource\n"
        "from paleyfq.rings import RingSpec, make_ring\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "R = make_ring(RingSpec.field(2, 20))\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)\n"
    )
    out = run_child(code, timeout=60)
    assert out.returncode == 0, out.stderr
    assert int(out.stdout) <= 40 << 10  # KB


def ref_tables(R):
    """Each kernel's full answer on R from the reference arithmetic:
    (add, neg, mul, inv, pow) with pow[x, e] = x^e for 0 <= e < |R|."""
    xs = np.arange(R.order)
    mul = ref_mul(R, xs[:, None], xs[None, :])
    inv = {x: int(np.flatnonzero(mul[x] == 1)[0]) for x in range(1, R.order)}
    return ref_add(R, xs[:, None], xs[None, :]), ref_neg(R, xs), mul, inv, ref_pow_table(R)


def ref_convolve(R, add, mul, a, b) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = int(add[out[i + j], mul[x, y]])
    return out


KERNELS = ["add", "neg", "sub", "mul", "inv", "pow_elem", "convolve"]


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("p,s", [(2, 2), (2, 3), (3, 2), (5, 2), (3, 3), (7, 2)],
                         ids=lambda v: str(v))
def test_scalar_kernel_first_on_a_fresh_ring(p, s, kernel):
    R = make_ring(RingSpec.field(p, s))
    add, neg, mul, inv, pw = ref_tables(R)
    assert R._tabs is None
    q, xs = R.order, range(R.order)
    if kernel == "add":
        assert [[R.add(x, y) for y in xs] for x in xs] == add.tolist()
    elif kernel == "neg":
        assert [R.neg(x) for x in xs] == neg.tolist()
    elif kernel == "sub":
        assert [[R.sub(x, y) for y in xs] for x in xs] == add[:, neg].tolist()
    elif kernel == "mul":
        assert [[R.mul(x, y) for y in xs] for x in xs] == mul.tolist()
    elif kernel == "inv":
        assert {x: R.inv(x) for x in range(1, q)} == inv
    elif kernel == "pow_elem":
        assert [[R.pow_elem(x, e) for e in range(q)] for x in xs] == pw.tolist()
        assert ([[R.pow_elem(x, -e) for e in range(1, q)] for x in range(1, q)]
                == [[int(pw[inv[x], e]) for e in range(1, q)] for x in range(1, q)])
    else:
        rng = random.Random(q)
        cases = [([rng.randrange(q) for _ in range(rng.randrange(1, 6))],
                  [rng.randrange(q) for _ in range(rng.randrange(1, 6))]) for _ in range(40)]
        cases += [([0], [1, 2 % q]), ([0, 0], [0]), ([1], [q - 1, 0, 1])]
        for a, b in cases:
            assert R.convolve(a, b) == ref_convolve(R, add, mul, a, b)
    assert R._tabs is not None


def _results(R, G):
    """What a ring and a Cayley graph on it compute, as plain values."""
    xs = range(R.order)
    return ([[R.add(x, y) for y in xs] for x in xs],
            [[R.mul(x, y) for y in xs] for x in xs],
            [R.neg(x) for x in xs], R.convolve([1, 2, 3], [4, 5]),
            R.exp.tolist(), R.log.tolist(), sorted(kth_power_set(R, 2)),
            graph_fingerprint(G), [perm.tolist() for perm in root_stabilizer(G)])


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))],
                         ids=["copy", "deepcopy", "pickle"])
@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warmed"])
@pytest.mark.parametrize("p,s", [(3, 2), (2, 4), (13, 1)], ids=lambda v: str(v))
def test_copies_and_pickles_compute_the_same(p, s, warm, clone):
    def fresh():
        R = make_ring(RingSpec.field(p, s))
        return R, build_paley(R, 2 if p > 2 else 3)

    want = _results(*fresh())
    R, G = fresh()
    if warm:
        R.mul(2, 3)
    R2, G2 = clone(R), clone(G)
    if s > 1:
        assert (R2._tabs is None) is (G2.ring._tabs is None) is (not warm)
    assert _results(R2, G2) == want
    assert _results(G2.ring, G2) == want
    assert _results(R, G) == want


def test_int32_tables_at_the_largest_s2_field():
    # F_{1021^2} is the largest F_{p^2} within ORDER_CAP: Frobenius forms
    # log * p (up to 1.06e9) in int32, and the multiplier log + e
    p = 1021
    assert p * p <= ORDER_CAP < 1031 * 1031  # 1031 is the next prime
    R = make_ring(RingSpec.field(p, 2))
    q = R.order
    G = CayleyGraph(ring=R, connection=frozenset(range(1, p)))  # F_p^*
    gens = _factor_stabilizer(G)
    assert len(gens) == 2
    frob = next(perm for perm in gens if perm[1] == 1)
    mult = next(perm for perm in gens if perm[1] != 1)
    xs = np.array(random.Random(20).sample(range(q), 2000))
    xs[:3] = 0, 1, q - 1
    # x^p by square and multiply in the reference arithmetic
    want, base, e = np.ones_like(xs), xs, p
    while e:
        if e & 1:
            want = ref_mul(R, want, base)
        base, e = ref_mul(R, base, base), e >> 1
    assert frob[xs].tolist() == want.tolist()
    u = int(R.exp[(q - 1) // (p - 1)])  # a generator of F_p^*, kept multiplier
    assert mult[xs].tolist() == ref_mul(R, xs, u).tolist()
    assert R._tabs is None


@pytest.mark.parametrize("spec", [RingSpec.field(1021, 2), RingSpec.field(2, 20),
                                  RingSpec.field(3, 12), RingSpec.field(1048573)],
                         ids=["F1021^2", "F2^20", "F3^12", "F1048573"])
def test_index_arrays_near_the_cap(spec):
    R = make_ring(spec)
    q = R.order
    rng = np.random.default_rng(q)
    a, b = rng.integers(0, q, 20_000), rng.integers(0, q, 20_000)
    a[:4], b[:4] = (0, q - 1, q - 1, 1), (q - 1, q - 1, 0, q - 1)
    for dtype in (np.int64, np.int32):  # to_generic passes int32
        x, y = a.astype(dtype), b.astype(dtype)
        assert np.array_equal(R.add_array(x, y), ref_add(R, a, b))
        assert np.array_equal(R.add_array(x[:200, None], y[None, :100]),
                              ref_add(R, a[:200, None], b[None, :100]))
        assert np.array_equal(R.neg_array(x), ref_neg(R, a))
