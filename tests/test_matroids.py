import random
import tracemalloc
from math import lcm

import pytest
from fractions import Fraction

from ordolab import (
    CertificateError,
    CutFunction,
    DualMatroid,
    Graph,
    GraphicMatroid,
    UniformMatroid,
    VectorMatroid,
    duplicate,
    exact_mlop_dp,
    fundamental_circuit,
    mask_of,
    min_norm_base,
    parse_matrix,
    uniform_closed_form,
)
from ordolab import flow
from ordolab.core import ParseError

from helpers import graphic_membership_by_min_cuts, incidence_matroid, is_submodular
from ordolab.instances import bowtie, complete_graph, cycle_graph, path_graph, random_connected_graph

K3 = complete_graph(3)


def test_uniform_rank():
    M = UniformMatroid(3, 2)
    assert M.rank(0b011) == 2
    assert M.rank(0b111) == 2
    assert M.rank(0b001) == 1
    assert M.rank(0) == 0


def test_graphic_rank_k3_full():
    M = GraphicMatroid(K3)
    assert M.rank(0b111) == 2  # n - components = 3 - 1
    assert M.rank(0b011) == 2
    assert M.rank(0) == 0


def test_vector_rank_exact():
    M = VectorMatroid([[1, 0, 1], [0, 1, 1]])
    assert M.rank(0b111) == 2
    assert M.rank(0b101) == 2
    assert M.rank(0b001) == 1


def test_vector_rank_large_entries_bareiss_stays_exact():
    # fraction-free elimination on values that overflow doubles
    big = 10**12
    M = VectorMatroid([[big, big + 1], [big - 1, big]])
    # determinant is big^2 - (big+1)(big-1) = 1, so full rank
    assert M.rank(0b11) == 2


def test_vector_table_makes_no_oracle_calls(monkeypatch):
    M = VectorMatroid([[1, 0, 2, 3, 0], [0, 1, 4, 5, 7], [1, 1, 6, 8, 7]])
    ranks = [M.rank(S) for S in range(1 << M.m)]

    def refuse(self, subset):
        raise AssertionError("the batched table called the oracle")

    monkeypatch.setattr(VectorMatroid, "evaluate", refuse)
    assert list(M.dense_values()) == ranks


def test_vector_table_memory_stays_blocked():
    # m = 18, k = 8: about 23 MiB traced at the peak with the annihilators
    # held in blocks, about 143 MiB with all 2^17 of them held at once
    rng = random.Random(18)
    rows = [[rng.randint(-2, 2) for _ in range(18)] for _ in range(8)]
    tracemalloc.start()
    try:
        table = VectorMatroid(rows).dense_values()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    assert table[-1] == 8


def test_graphic_rank_matches_oriented_incidence_rank():
    # the oriented incidence matrix (+1/-1 per edge, a zero column for a
    # loop) has rank n - #components on every edge set, over the rationals
    rng = random.Random(1)
    for _ in range(10):
        n = rng.randint(1, 6)
        edges = tuple((rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(1, 9)))
        G = Graph(n, edges)
        graphic = GraphicMatroid(G)
        incidence = incidence_matroid(G)
        for S in range(1 << G.m):
            assert graphic.rank(S) == incidence.rank(S)


@pytest.mark.parametrize("n", [30, 60, 120])
def test_orientation_membership_matches_min_cuts_at_graph_scale(n):
    G = random_connected_graph(n, 2 * n, random.Random(n))
    f = GraphicMatroid(G)
    x = min_norm_base(f)
    assert f._base_membership(x) and graphic_membership_by_min_cuts(G, x)
    # moving 1/(2L) onto the least entry from the largest overfills the
    # tight level set {x <= min x}
    L = lcm(*(xe.denominator for xe in x))
    i, j = x.index(max(x)), x.index(min(x))
    assert x[i] > x[j]
    y = list(x)
    y[i] -= Fraction(1, 2 * L)
    y[j] += Fraction(1, 2 * L)
    assert not f._base_membership(y) and not graphic_membership_by_min_cuts(G, y)


def test_a_corrupted_orientation_fails_the_certificate(monkeypatch):
    drain, drained = flow._drain, []

    def corrupted(net, share, load, cap, s):
        drained.append(s)
        reached = drain(net, share, load, cap, s)
        share[0] += 1
        return reached

    monkeypatch.setattr(flow, "_drain", corrupted)
    with pytest.raises(CertificateError):
        GraphicMatroid(path_graph(3))._base_membership([Fraction(1), Fraction(1)])
    assert drained


def test_a_finished_root_that_keeps_a_share_fails_the_certificate(monkeypatch):
    # root 0 hands edge (0, 2) wholly to vertex 2, which keeps room for it
    # after root 1 drains into it, so only the check of the edge's weight,
    # 0 once root 0 is gone, sees a deletion that skips the edge
    edges, weights = [(0, 2), (1, 2)], [1, 1]
    assert flow.forest_violation(3, edges, weights, 2) == (None, [])
    remove, skipped = flow._remove_root, []

    def leaky(net, share, load, r):
        out = net._out[r]
        if r == 0:
            skipped.append(share[out[0] ^ 1])
            net._out[r] = out[1:]
        try:
            remove(net, share, load, r)
        finally:
            net._out[r] = out

    monkeypatch.setattr(flow, "_remove_root", leaky)
    with pytest.raises(CertificateError):
        flow.forest_violation(3, edges, weights, 2)
    assert skipped == [1]


def test_a_set_that_does_not_violate_fails_the_certificate(monkeypatch):
    # the path's one base is in the polytope, so no vertex set violates
    monkeypatch.setattr(flow, "_drain", lambda net, share, load, cap, s: 1 << s)
    with pytest.raises(CertificateError):
        GraphicMatroid(path_graph(3))._base_membership([Fraction(1), Fraction(1)])


def test_corank_formula():
    M = UniformMatroid(2, 1)
    assert M.corank(0b10) == 1  # 1 - 1 + r({e1}) = 1
    assert M.corank(0) == 0
    M3 = UniformMatroid(3, 1)
    assert M3.corank(0b111) == 2  # 3 - 1 + 0


def test_corank_is_a_rank_function():
    M = DualMatroid(GraphicMatroid(bowtie()))
    for S in range(1 << M.m):
        r = M.rank(S)
        assert 0 <= r <= S.bit_count()
        for e in range(M.m):
            if not (S >> e) & 1:
                grown = M.rank(S | (1 << e))
                assert r <= grown <= r + 1


def test_double_dual_identity():
    for base in (GraphicMatroid(bowtie()), UniformMatroid(6, 2)):
        dd = DualMatroid(DualMatroid(base))
        for S in range(1 << base.m):
            assert dd.rank(S) == base.rank(S)


@pytest.mark.parametrize(
    "oracle",
    [
        GraphicMatroid(bowtie()),
        UniformMatroid(8, 3),
        VectorMatroid([[1, 0, 1, 2], [0, 1, 1, -1], [1, 1, 0, 0]]),
        DualMatroid(GraphicMatroid(cycle_graph(5))),
        CutFunction(complete_graph(4)),
        CutFunction(Graph(4, ((0, 1), (1, 2), (2, 3)), (Fraction(1), Fraction(3, 2), Fraction(2)))),
    ],
)
def test_shipped_oracles_are_submodular(oracle):
    assert is_submodular(oracle)


def test_submodularity_exhaustive_m10():
    rng = random.Random(3)
    G = random_connected_graph(6, 10, rng)
    assert is_submodular(GraphicMatroid(G), exhaustive_limit=10)


def test_cut_function_symmetry_exhaustive():
    f = CutFunction(Graph(4, ((0, 1), (1, 2), (2, 3), (0, 3)), None))
    full = f.full_mask
    for S in range(1 << f.m):
        assert f(S) == f(full ^ S)
    assert f(0) == 0 and f(full) == 0


def test_duplicate_single_element_three_copies():
    M = UniformMatroid(1, 1)
    N, groups = duplicate(M, [3])
    assert N.m == 3 and groups == [[0, 1, 2]]
    for S in range(1, 8):
        assert N.rank(S) == 1  # behaves like the rank-1 uniform matroid


def test_duplicate_identity_costs():
    M = GraphicMatroid(K3)
    N, groups = duplicate(M, [1, 1, 1])
    assert groups == [[0], [1], [2]]
    for S in range(8):
        assert N.rank(S) == M.rank(S)


def test_duplicate_doubled_edge():
    M = GraphicMatroid(Graph(2, ((0, 1),)))
    N, _ = duplicate(M, [2])
    assert N.rank(0b11) == 1


def test_duplicate_rejects_zero_cost():
    with pytest.raises(ValueError):
        duplicate(UniformMatroid(2, 1), [1, 0])


def test_fundamental_circuit_triangle():
    M = GraphicMatroid(K3)  # edges (0,1), (0,2), (1,2)
    B = mask_of((0, 2))
    assert fundamental_circuit(M, B, 1) == 0b111


def test_fundamental_circuit_star_apex():
    # apex over a single base edge: star edges 0, 1; base edge 2 closes a triangle
    H = Graph(3, ((2, 0), (2, 1), (0, 1)))
    M = GraphicMatroid(H)
    B = mask_of((0, 1))
    assert fundamental_circuit(M, B, 2) == 0b111


def test_fundamental_circuit_bowtie_chord():
    G = bowtie()  # left triangle edges 0,1,2; right 3,4,5
    M = GraphicMatroid(G)
    B = mask_of((0, 1, 3, 4))
    assert fundamental_circuit(M, B, 2) == mask_of((0, 1, 2))
    assert fundamental_circuit(M, B, 5) == mask_of((3, 4, 5))


def test_fundamental_circuit_rejects_non_basis():
    M = GraphicMatroid(K3)
    with pytest.raises(ValueError):
        fundamental_circuit(M, 0b111, 0)


def test_is_uniform_via_mlop_respects_cap():
    # uniformity is read off the exact DP optimum against the closed form,
    # so a matroid past the DP's cap is refused before any comparison
    M = VectorMatroid([[1] * 21, list(range(21))])
    assert uniform_closed_form(M.full_rank, M.m) == 41
    with pytest.raises(ValueError, match=r"exceeds the exact cap \(20\)"):
        exact_mlop_dp(M)


def test_matrix_parse():
    M = parse_matrix("2 3\n1 0 1\n0 1 1\n")
    assert M.m == 3 and M.rank(0b111) == 2
    with pytest.raises(ParseError):
        parse_matrix("2 3\n1 0 1\n")
    with pytest.raises(ParseError):
        parse_matrix("2 2\n1 x\n0 1\n")
