"""Pinned outcomes of max_clique and of the clique certificate.

Every clique is pinned as a bit mask (bit v set when column v is in the
clique) in hex; max_clique must return exactly the sorted indices of that
mask.  The graph panels pin the results of both searches: the greedy
panel has 100 seeded random graphs with n = 21..128 (the greedy path,
n > EXACT_CLIQUE_LIMIT), the exact panel 30 with n = 3..20.  Few of those
graphs depend on the swap step's choices, so the swap panel adds ten
graphs with n = 21..40, picked from seeds 0..2999, on which skipping the
swaps, trying members to drop in reverse order, or taking the last
adjacent pair instead of the first changes the result.  The rounded
panel fixes the fields of `best_clique_certificate(A)` and the maximum clique
of each sign color for the matrix `round --n N --trials 64 --seed S`
writes.  The values were recorded with the frozenset implementation of
the searches, before they moved onto packed neighbour masks.
"""

import itertools
import math

import numpy as np
import pytest

from approxhad.flatten import flat_orthogonal
from approxhad.linalg import SignMatrix, condition_number, gram
from approxhad import lower_bound
from approxhad.lower_bound import (
    EXACT_CLIQUE_LIMIT,
    best_clique_certificate,
    max_clique,
    verify_certificate,
)
from approxhad.rounding import RoundingPlan, round_best

GREEDY_PANEL = [
    "0x1900108a0020000000c0010400000", "0x80aa241080", "0x2e45",
    "0x2404002000000400508000000000c0", "0x4010042c00002200200086",
    "0x28001b0a0", "0x34010001004000", "0x1008808000200000000c0004001008",
    "0x38000844", "0x40800000002240008100000000", "0x2089324",
    "0x9000580008802", "0xc030004018", "0x280820", "0x15200b216",
    "0x41002420200804244200020000", "0x204000004128000000",
    "0x108200a2210208026c4880408", "0x8600000000004020082",
    "0x200e00040300000c20000220", "0x200002000100801000090431050",
    "0x11010020040040a0000000000000", "0x400800900000000000000800000200",
    "0x284", "0x1000000000000010000004800", "0x4c00000000021000200020",
    "0x8020000800000000000000000040", "0x1020004000", "0x201000250020",
    "0x48090", "0x4100000001", "0xa0800600a40c0a0000050", "0x88048402002",
    "0x4280486110900058", "0x10018004210001c000880220410204",
    "0x8800040002000004000008400000", "0x41040008610112000089200",
    "0x111c211c", "0x20200802820100240400", "0x60410010200000201000",
    "0x8210300c0009001021000040814000", "0x2000020100108000080",
    "0x12010000000001000100", "0x100500", "0x414180c80",
    "0x100001040001000000800000400", "0x14000044000008401", "0x404840",
    "0x2141000", "0x40010840091000802081d80900c0080", "0x5018858",
    "0x280009016000", "0x130260100028000000c", "0x2004004008d1",
    "0x400000200000000120020010180", "0x10000004020001000000",
    "0x100418000080400800004548", "0x2002080080000000200200000000",
    "0x108081000000111001000", "0x1004808d0bd08819f10000",
    "0xc600200001084088800000080002010", "0x8200082000200848100000042200000",
    "0x816c60", "0x41102000c00bb00210240404", "0x10c04173828",
    "0x100000080180028408", "0x1000800000052", "0x2000038000000100018",
    "0x809", "0x2403021408100c0020205000130", "0x20ca380040120048084018",
    "0x1000400014208203161", "0xc1e601000050c1600",
    "0x200a90008411105416000800", "0x20004a800400000c210590500301350",
    "0xa2040044406040200022100040411", "0x9084800028008148", "0x4066306",
    "0x100004000400004082002000000000", "0x2000120000008004600",
    "0x5048000020004808100000481", "0x5704482280495205b485",
    "0x20200018020020810", "0x306000424004800", "0x2800300404040005",
    "0x208000000000000802000801450", "0x4011000",
    "0x24406122010218a00250d0c86", "0x100000020200005000014",
    "0x40000200000400200000004000", "0x90000003080400a01c000480100",
    "0x274040222328a330e40409a0", "0xc24a0824050", "0xec96bc",
    "0x41002080000000400", "0x94010006004050", "0x14800", "0x804414000000980",
    "0x48504000004100", "0x4000005800",
]

EXACT_PANEL = [
    "0xa0c", "0x5", "0x1091", "0x2408", "0x2041", "0x38c", "0x80a0", "0x282",
    "0x40103", "0x402", "0x6", "0x1934", "0x31005", "0x2e0", "0x24809",
    "0x246", "0x3211", "0x98", "0xa0", "0x3c82", "0xb700", "0x7ca", "0x4890",
    "0xa0", "0x1526", "0x33202", "0x203", "0x16", "0x940", "0x70b1",
]

# (graph seed, clique)
SWAP_PANEL = [
    (8, "0x5771343c9"), (108, "0x188503"), (161, "0x7020682040"),
    (2123, "0x60c9401c40"), (748, "0x406503"), (764, "0x2029c8284"),
    (1404, "0x200801928"), (1370, "0x910940030"), (2093, "0x51"),
    (2577, "0x89"),
]

# (n, seed, sign, indices, bound.hex(), positive clique, negative clique)
ROUNDED_PANEL = [
    (46, 0, "positive", [1, 6, 14, 18, 22, 29, 30, 33], "0x1.15d3409fd8bcdp+0",
     "0x260444042", "0x122000200050"),
    (46, 1, "positive", [2, 12, 13, 17, 19, 34, 35, 37], "0x1.15d3409fd8bcdp+0",
     "0x2c000a3004", "0x2c0122000000"),
    (46, 2, "positive", [3, 21, 30, 35, 37, 41, 45], "0x1.1331154ac8300p+0",
     "0x222840200008", "0x4460000410"),
    (70, 0, "positive", [0, 16, 17, 21, 37, 38, 44, 56], "0x1.0e6f05d6984f8p+0",
     "0x100106000230001", "0x30010204000002800"),
    (70, 1, "positive", [3, 4, 8, 10, 16, 19, 37, 46, 64], "0x1.102f1fed90b2ap+0",
     "0x10000402000090518", "0xa010200400000804"),
    (70, 2, "positive", [2, 13, 14, 31, 34, 36, 37, 40, 69], "0x1.102f1fed90b2ap+0",
     "0x200000013480006004", "0x1002018220080"),
    (92, 0, "positive", [0, 4, 33, 37, 48, 52, 63, 68, 75], "0x1.0c5c65229d03dp+0",
     "0x8108011002200000011", "0x10100030810000000002000"),
    (92, 1, "positive", [12, 24, 34, 35, 60, 63, 68, 69, 70, 77], "0x1.0db30ae45a638p+0",
     "0x20709000000c01001000", "0x21000000008800000080204"),
    (92, 2, "positive", [16, 29, 37, 48, 54, 68, 69, 74, 85, 90], "0x1.0db30ae45a638p+0",
     "0x42004300041002020010000", "0x128802000000000c000"),
    (116, 0, "positive", [7, 8, 16, 17, 32, 62, 66, 74, 77, 94], "0x1.0ae600d199440p+0",
     "0x400024044000000100030180", "0x40000040000200002020000005020"),
    (116, 1, "positive", [2, 8, 12, 27, 42, 49, 53, 62, 63, 77], "0x1.0ae600d199440p+0",
     "0x2000c022040008001104", "0x818010000000200002008000040"),
    (116, 2, "positive", [7, 17, 28, 36, 58, 64, 80, 83, 92, 111], "0x1.0ae600d199440p+0",
     "0x8000100900010400001010020080", "0x20000000020002002000000c06000"),
]


def _random_graphs(seed, count, lo, hi):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(lo, hi + 1))
        p = float(rng.uniform(0.1, 0.9))
        adj = np.triu(rng.random((n, n)) < p, 1)
        yield adj | adj.T


def _indices(mask_hex):
    mask = int(mask_hex, 16)
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


def _rounded(n, seed, trials=64):
    orth, _ = flat_orthogonal(n)
    return round_best(RoundingPlan(target=orth, trials=trials, master_seed=seed)).matrix


def _color_graphs(A):
    signs = np.sign(gram(A.entries))
    np.fill_diagonal(signs, 0)
    return signs > 0, signs < 0


@pytest.mark.parametrize("seed,lo,hi,panel", [
    (2026, EXACT_CLIQUE_LIMIT + 1, 128, GREEDY_PANEL),
    (2027, 3, EXACT_CLIQUE_LIMIT, EXACT_PANEL),
], ids=("greedy", "exact"))
def test_random_graph_cliques_are_pinned(seed, lo, hi, panel):
    graphs = list(_random_graphs(seed, len(panel), lo, hi))
    got = [max_clique(adj) for adj in graphs]
    assert got == [_indices(m) for m in panel]


def test_swap_decisions_are_pinned():
    graphs = [next(_random_graphs(seed, 1, EXACT_CLIQUE_LIMIT + 1, 40)) for seed, _ in SWAP_PANEL]
    assert [max_clique(adj) for adj in graphs] == [_indices(m) for _, m in SWAP_PANEL]


@pytest.mark.parametrize("n,seed,sign,indices,bound_hex,pos,neg", ROUNDED_PANEL,
                         ids=[f"n{row[0]}-seed{row[1]}" for row in ROUNDED_PANEL])
def test_rounded_certificates_are_pinned(n, seed, sign, indices, bound_hex, pos, neg):
    A = _rounded(n, seed)
    cert = best_clique_certificate(A)
    assert (cert.n, cert.k, cert.sign, list(cert.indices), cert.bound) == (
        n, len(indices), sign, indices, float.fromhex(bound_hex))
    assert [max_clique(adj) for adj in _color_graphs(A)] == [_indices(pos), _indices(neg)]


@pytest.mark.parametrize("n", (21, 26, 33, 45, 51, 63))
@pytest.mark.parametrize("kind", ("random", "rounded"))
def test_greedy_path_certificate_is_sound_and_maximal(kind, n):
    if kind == "random":
        A = SignMatrix(np.random.default_rng(n).integers(0, 2, (n, n)) * 2 - 1)
    else:
        A = _rounded(n, seed=n, trials=8)
    cert = best_clique_certificate(A)
    verify_certificate(cert, A)
    kappa = condition_number(A).kappa
    assert math.isfinite(kappa)
    assert cert.bound <= kappa + 1e-9
    for adj in _color_graphs(A):
        clique = max_clique(adj)
        assert all(adj[a, b] for a, b in itertools.combinations(clique, 2))
        common = adj[clique].all(axis=0)
        common[clique] = False
        assert not common.any(), f"clique {clique} extends by {np.flatnonzero(common)}"


def _scalar_greedy(adj):
    """The reference: the greedy search one start at a time, each step
    scanning the candidates in index order for the first maximum."""
    nb = [int.from_bytes(row.tobytes(), "little")
          for row in np.packbits(adj, axis=1, bitorder="little")]
    best = []
    for start in sorted(range(len(nb)), key=lambda v: -nb[v].bit_count()):
        clique = [start]
        cand = nb[start]
        members = [u for u in range(len(nb)) if cand >> u & 1]
        while members:
            counts = [(nb[u] & cand).bit_count() for u in members]
            v = members[counts.index(max(counts))]
            clique.append(v)
            cand &= nb[v]
            members = [u for u in members if cand >> u & 1]
        while (swapped := lower_bound._first_swap(clique, nb)) is not None:
            clique = swapped
        if len(clique) > len(best):
            best = sorted(clique)
    return best


def _tied_graphs(n, seed):
    """Graphs whose greedy steps meet many ties: a circulant graph (every
    vertex alike), a blow-up of a random graph into classes of twins, and
    a dense and a sparse random graph."""
    rng = np.random.default_rng([n, seed])
    shifts = rng.random(n // 2 + 1) < 0.5
    d = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    yield shifts[np.minimum(d, n - d)]
    classes = rng.integers(0, max(2, n // 4), n)
    small = np.triu(rng.random((n, n)) < 0.5, 1)
    small |= small.T
    yield small[np.ix_(classes, classes)]
    for p in (0.8, 0.15):
        a = np.triu(rng.random((n, n)) < p, 1)
        yield a | a.T


@pytest.mark.parametrize("n", (21, 57, 64, 100, 128))
def test_lockstep_greedy_matches_the_scalar_walk(n):
    for seed in range(3):
        for adj in _tied_graphs(n, seed):
            adj = adj.copy()
            np.fill_diagonal(adj, False)
            assert max_clique(adj) == _scalar_greedy(adj), (n, seed)
