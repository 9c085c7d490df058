"""The packed row-block kernel of strong products.

graphs._product_blocks makes a product's rows as blocks of packed bytes.
Beyond the suite's products (test_lazy_products), these tests check its
rows, streamed fingerprints and the factor degrees against the
reference shift loop (util.ref_rows, util.ref_fingerprint) on factor
orders on and off byte boundaries, directed and Z/m factors, higher
powers and products whose large factor's spreads are made per block; pin
the fingerprints of the explicit-set products; bound the time and
memory of the streamed fingerprint of an unbalanced product; and check
each factor's spreads (graphs._spread) bit by bit, in one and in many
column blocks.
"""

import itertools

import numpy as np
import pytest

import paleyfq.graphs as graph_layer
from paleyfq.graphs import (
    GenericGraph,
    build_paley,
    graph_fingerprint,
    strong_power,
    strong_product,
)
from paleyfq.indep import complement_power_graph
from paleyfq.rings import field_spec, make_ring

from util import F, Z, peak_traced, ref_fingerprint, ref_rows, run_child

# one factor of each order: 1, 2, 3 and 7 (both directed), 8, 9 and 16
BY_ORDER = {
    1: lambda: GenericGraph(1, (0,)),
    2: lambda: build_paley(F(2), 2),
    3: lambda: build_paley(F(3), 2),
    7: lambda: build_paley(F(7), 2),
    8: lambda: build_paley(F(2, 3), 7),
    9: lambda: build_paley(F(3, 2), 2),
    16: lambda: build_paley(F(2, 4), 3),
}
K2 = BY_ORDER[2]


def big():
    """Paley_684(F_2053), 3 connection elements (directed): its 2053
    spreads in a product with K_2, 514 bytes each, are over _BLOCK_ELEMS,
    so the product makes them block by block."""
    return build_paley(F(2053), 684)


SHAPES = {f"{a}x{b}": (lambda a=a, b=b: strong_product(BY_ORDER[a](), BY_ORDER[b]()))
          for a, b in itertools.product(BY_ORDER, repeat=2)}
SHAPES.update({
    "3x8x7": lambda: strong_product(strong_product(BY_ORDER[3](), BY_ORDER[8]()),
                                    BY_ORDER[7]()),
    "16x1x9": lambda: strong_product(strong_product(BY_ORDER[16](), BY_ORDER[1]()),
                                     BY_ORDER[9]()),
    "F11-directed-x-F8": lambda: strong_product(build_paley(F(11), 2), BY_ORDER[8]()),
    "Z15xF8": lambda: strong_product(build_paley(Z(15), 2), BY_ORDER[8]()),
    "F9xZ10": lambda: strong_product(BY_ORDER[9](), build_paley(Z(10), 3)),
    "K2-4th-power": lambda: strong_power(K2(), 4),
    "F3-5th-power": lambda: strong_power(BY_ORDER[3](), 5),
    "F5-4th-power": lambda: strong_power(build_paley(F(5), 2), 4),
    "F4-k3-5th-power": lambda: strong_power(build_paley(F(2, 2), 3), 5),
    "big-x-K2": lambda: strong_product(big(), K2()),
    "K2-x-big": lambda: strong_product(K2(), big()),
})


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_blocks_give_the_reference_rows_and_fingerprint(name):
    P = SHAPES[name]()
    want = ref_rows(P)
    streamed = graph_fingerprint(P)
    assert [P.degree(i) for i in range(P.n)] == [r.bit_count() for r in want]
    assert P._rows is None  # neither read the rows
    assert streamed == ref_fingerprint(P.n, want)
    assert list(P.rows) == want
    assert graph_fingerprint(P) == streamed


# fingerprints of the certified explicit-set products, as the bigint row
# generator this kernel replaced gave them
PINS = {
    (strong_power, 101, 2): "0b91e0b3413a644140b268657959828382d6eff04068789001461c4318477775",
    (complement_power_graph, 19, 3):
        "aea8c3a1d3f7783010b354f7a359b079c7d9126f98cb3168493ab25c86c3ec44",
    (complement_power_graph, 13, 4):
        "d1e58daf67e5564710fea0a53d9cf426f993a1a7c95654b75be449013dff7e1a",
}


@pytest.mark.parametrize("key", list(PINS), ids=lambda key: f"{key[0].__name__}-{key[1]}-{key[2]}")
def test_explicit_set_products_keep_their_fingerprints(key):
    make, q, k = key
    P = (strong_power(build_paley(make_ring(field_spec(q)), k), 2)
         if make is strong_power else make(q, k))
    assert graph_fingerprint(P) == PINS[key]
    assert P._rows is None


def test_unbalanced_product_fingerprint_is_fast():
    # the bigint generator spread every prefix row over all 8,198 bits,
    # O(|N[a]| * n) work per row of Paley_2(F_4099): 10.9 s on a 2-core VM
    code = (
        "import time\n"
        "from paleyfq.graphs import build_paley, graph_fingerprint, strong_product\n"
        "from paleyfq.rings import field_spec, make_ring\n"
        "P = strong_product(build_paley(make_ring(field_spec(4099)), 2),\n"
        "                   build_paley(make_ring(field_spec(2)), 2))\n"
        "start = time.perf_counter()\n"
        "print(graph_fingerprint(P), time.perf_counter() - start)\n"
    )
    out = run_child(code, timeout=30)
    assert out.returncode == 0, out.stderr
    fingerprint, seconds = out.stdout.split()
    assert fingerprint == "11b394d53c248f50e7eb6a9bdfd2c6af807c946cebd7bebc881719cd20735588"
    assert float(seconds) < 5


def test_unbalanced_product_fingerprint_memory():
    P = strong_product(build_paley(make_ring(field_spec(2)), 2),
                       build_paley(make_ring(field_spec(4099)), 2))
    fingerprint, peak = peak_traced(graph_fingerprint, P)
    assert fingerprint == "fb8b8c0d6b3d8c8c5b097de4d28212e92251c8910ce47c14268e1f645b16a5be"
    # the bigint generator held 4,099 closed rows of Paley_2(F_4099): 2.27 MB
    assert peak <= 2.27 * 2**20, peak


def ref_spread(p, outer, inner, xs) -> list[bytes]:
    """For each x of xs, bit j of the closed row of x at coordinate
    j // inner % p.n, for j < outer * p.n * inner, as little-endian bytes."""
    n = outer * p.n * inner
    out = []
    for x in xs:
        closed = p.rows[x] | 1 << x
        bits = sum(1 << j for j in range(n) if closed >> (j // inner % p.n) & 1)
        out.append(bits.to_bytes((n + 7) // 8, "little"))
    return out


SPREADS = [(1, 5, 2), (2, 3, 11), (3, 8, 8), (3, 13, 1), (7, 1, 1), (7, 9, 3),
           (8, 1, 1), (8, 5, 3), (9, 2, 1), (9, 1, 16), (16, 1, 5), (16, 3, 1)]


@pytest.mark.parametrize("bits", [1 << 16, 64], ids=["default-blocks", "tiny-blocks"])
@pytest.mark.parametrize("order,outer,inner", SPREADS, ids=lambda v: str(v))
def test_spread_matches_the_expanded_bits(monkeypatch, bits, order, outer, inner):
    # 64 bits pack one byte a column block
    monkeypatch.setattr(graph_layer, "_SPREAD_BITS", bits)
    p = BY_ORDER[order]().to_generic()
    xs = np.arange(1, 2 * p.n + 2) % p.n  # every vertex, twice, wrapping
    got = graph_layer._spread(p, outer, inner, xs)
    assert got.flags.c_contiguous
    assert [r.tobytes() for r in got] == ref_spread(p, outer, inner, xs.tolist())


def test_spread_of_a_large_factor_in_column_blocks():
    # 41 spreads of 514 bytes are over _SPREAD_BITS, so they are packed
    # in 3 column blocks of at most 199 bytes, two of them crossing p.n
    p = big().to_generic()
    xs = np.arange(0, 2053, 51)
    assert len(xs) * 8 * 514 > graph_layer._SPREAD_BITS
    got = graph_layer._spread(p, 2, 1, xs)
    assert [r.tobytes() for r in got] == ref_spread(p, 2, 1, xs.tolist())


def test_beta_pair_product_fingerprint_memory():
    P = strong_power(build_paley(make_ring(field_spec(101)), 2), 2)
    fingerprint, peak = peak_traced(graph_fingerprint, P)
    assert fingerprint == PINS[(strong_power, 101, 2)]
    # spreads expanded to n = 10,201 booleans a row before packing: 1.36 MB
    assert peak <= 1 << 20, peak
