import random
from fractions import Fraction
from itertools import permutations

import pytest

from ordolab import (
    DualMatroid,
    Graph,
    GraphicMatroid,
    Ordering,
    UniformMatroid,
    dual_transfer,
    exact_mlop_dp,
    exact_weighted_mlop_dp,
    mlop_objective,
    mlvc_brute_optimum,
    mlvc_msvc_shift,
    mlvc_objective,
    mlvc_to_weighted_graphic,
    msvc_objective,
    regular_shift,
    solve_mlvc_via_apex,
    weighted_to_unweighted,
)
from ordolab.core import CertificateError
from ordolab.reductions import ReductionCertificate

from helpers import brute_mlop, brute_weighted_mlop
from ordolab.instances import (
    all_connected_graphs,
    complete_graph,
    cycle_graph,
    path_graph,
)


def test_certificate_rejects_false_identity():
    with pytest.raises(AssertionError):
        ReductionCertificate("bogus", Fraction(1), Fraction(1), Fraction(1), Fraction(1))


def test_violated_certificate_raises_certificate_error():
    with pytest.raises(CertificateError, match="identity violated"):
        ReductionCertificate("bogus", Fraction(3), Fraction(1), Fraction(2), Fraction(0))


def test_shift_k2():
    G = Graph(2, ((0, 1),))
    comp, pi2, cert = mlvc_msvc_shift(G, Ordering.identity(2))
    assert comp.m == 0
    assert cert.source_value == 2 and cert.shift == 2 and cert.target_value == 0


def test_shift_edgeless():
    for n in (3, 5):
        G = Graph(n, ())
        comp, pi2, cert = mlvc_msvc_shift(G, Ordering.identity(n))
        assert comp.m == n * (n - 1) // 2  # the complement is complete
        expected_msvc = sum(i * (n - i) for i in range(1, n))
        assert msvc_objective(comp, pi2) == expected_msvc
        assert cert.source_value == 0


def test_shift_p3_optimum_transfers():
    G = path_graph(3)
    best = None
    for perm in permutations(range(3)):
        pi = Ordering.from_sequence(perm)
        _, _, cert = mlvc_msvc_shift(G, pi)
        if best is None or cert.source_value < best:
            best = cert.source_value
    assert best == 5


def test_shift_argmin_transfer():
    rng = random.Random(21)
    for _ in range(10):
        n = rng.randint(2, 6)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        G = Graph(n, tuple(e for e in pairs if rng.random() < 0.5))
        comp = G.complement()
        shift = Fraction(n**3 - n, 3) - (n + 1) * comp.m
        best_src = min(
            mlvc_objective(G, Ordering.from_sequence(p))
            for p in permutations(range(n))
        )
        best_tgt = min(
            msvc_objective(comp, Ordering.from_sequence(p))
            for p in permutations(range(n))
        )
        assert best_src == shift + best_tgt


def test_shift_rejects_multigraph():
    with pytest.raises(ValueError):
        mlvc_msvc_shift(Graph(2, ((0, 1), (0, 1))), Ordering.identity(2))


def test_dual_u12():
    M = UniformMatroid(2, 1)
    _, _, cert = dual_transfer(M, Ordering.identity(2))
    assert cert.source_value == 2 and cert.target_value == 2
    assert cert.shift == 3 - 3 * 1  # C(3,2) - (m+1)(m - r)


def test_dual_u13_identity():
    M = UniformMatroid(3, 1)
    dual, sigma_rev, cert = dual_transfer(M, Ordering.identity(3))
    assert cert.source_value == 3
    assert cert.target_value == 5  # corank prefix sums 1 + 2 + 2
    assert cert.shift == 6 - 4 * 2


def test_dual_self_dual_preserves_optimum():
    M = UniformMatroid(2, 1)
    opt, sigma = exact_mlop_dp(M)
    dual, sigma_rev, cert = dual_transfer(M, sigma)
    assert exact_mlop_dp(dual)[0] == opt == 2


def test_dual_rank_times_size_shift_fails_on_u13():
    # the tempting substitution r(X) = |X| - r(E) + r*(E - X) yields the
    # shift C(m+1,2) - r(E) m, which already fails here: 6 - 3 + 5 = 8 != 3
    M = UniformMatroid(3, 1)
    sigma = Ordering.identity(3)
    source = mlop_objective(M, sigma)
    target = mlop_objective(DualMatroid(M), sigma.reversed())
    assert source == 3 and target == 5
    bad_shift = 6 - M.full_rank * 3
    assert bad_shift + target == 8 != source
    good_shift = 6 - 4 * (3 - M.full_rank)
    assert good_shift + target == source


def test_dual_optimum_maps_to_optimum():
    rng = random.Random(22)
    for M in (
        UniformMatroid(5, 2),
        GraphicMatroid(cycle_graph(4)),
        GraphicMatroid(complete_graph(4)),
    ):
        shift = M.m * (M.m + 1) // 2 - (M.m + 1) * (M.m - M.full_rank)
        opt_primal, _ = brute_mlop(M)
        opt_dual, _ = brute_mlop(DualMatroid(M))
        assert opt_primal == shift + opt_dual


def test_regular_shift_c4_random_labelings():
    G = cycle_graph(4)
    rng = random.Random(23)
    for _ in range(10):
        seq = list(range(4))
        rng.shuffle(seq)
        cert = regular_shift(G, Ordering.from_sequence(seq))
        assert cert.shift == -2 * 10  # k=2, C(5,2)=10


def test_regular_shift_rejects_irregular():
    with pytest.raises(ValueError):
        regular_shift(path_graph(3), Ordering.identity(3))


def test_weighted_to_unweighted_identity_costs():
    M = GraphicMatroid(complete_graph(3))
    N, sigma_exp, cert = weighted_to_unweighted(M, [1, 1, 1])
    assert N.m == 3
    assert cert.source_value == cert.target_value


def test_weighted_to_unweighted_single_element():
    M = UniformMatroid(1, 1)
    N, sigma_exp, cert = weighted_to_unweighted(M, [3])
    assert N.m == 3
    assert cert.source_value == 3  # ranks 1,1,1 on the expansion


def test_weighted_to_unweighted_optimum_transfer():
    M = GraphicMatroid(Graph(2, ((0, 1),)))
    N, _, cert = weighted_to_unweighted(M, [2])
    assert exact_mlop_dp(N)[0] == 2 == brute_weighted_mlop(M, [2])


def test_weighted_to_unweighted_respects_given_ordering():
    M = GraphicMatroid(complete_graph(3))
    sigma = Ordering.from_sequence((2, 0, 1))
    _, sigma_exp, cert = weighted_to_unweighted(M, [2, 1, 2], sigma)
    assert cert.holds()
    # copies of each element sit consecutively, in sigma order
    assert sigma_exp.m == 5


def test_apex_reduction_k2_constants():
    red = mlvc_to_weighted_graphic(Graph(2, ((0, 1),)))
    assert red.k == 11  # 9 m^2 + 2 with m = 1
    assert red.apex_graph.n == 3 and red.apex_graph.m == 3
    assert sorted(red.costs) == [1, 11, 11]


def test_apex_k2_roundtrip():
    G = Graph(2, ((0, 1),))
    pi, value, red, cert = solve_mlvc_via_apex(G)
    assert cert.source_value == 35  # 2 + 11 * (1 + 2)
    assert value == 2 == mlvc_brute_optimum(G)


def test_apex_p3_roundtrip():
    G = path_graph(3)
    red = mlvc_to_weighted_graphic(G)
    assert red.k == 9 * 4 + 2
    pi, value, _, _ = solve_mlvc_via_apex(G)
    assert value == 5 == mlvc_brute_optimum(G)


def test_apex_good_ordering_recovery_all_small_graphs():
    for G in all_connected_graphs(3) + all_connected_graphs(4)[:10]:
        pi, value, red, cert = solve_mlvc_via_apex(G)
        assert value == mlvc_brute_optimum(G)
        assert mlvc_objective(G, pi) == value


def test_apex_strips_isolated_vertices():
    G = Graph(4, ((1, 2),))  # vertices 0 and 3 isolated
    pi, value, red, cert = solve_mlvc_via_apex(G)
    assert red.kept == (1, 2)
    assert value == 2
    # isolated vertices are appended after the kept ones
    assert {pi.positions[0], pi.positions[3]} == {3, 4}


def test_apex_rejects_edgeless():
    with pytest.raises(ValueError):
        mlvc_to_weighted_graphic(Graph(3, ()))


def test_apex_good_property_star_ranks_distinct():
    G = path_graph(3)
    red = mlvc_to_weighted_graphic(G)
    matroid = GraphicMatroid(red.apex_graph)
    _, sigma = exact_weighted_mlop_dp(matroid, list(red.costs))
    prefix = 0
    star_ranks = {}
    for e in sigma.sequence():
        prefix |= 1 << e
        if e in red.star_edge_of:
            star_ranks[e] = matroid.rank(prefix)
    assert len(set(star_ranks.values())) == len(red.star_edge_of)


def test_colliding_star_ranks_fail_the_certificate():
    # both original edges first span the path (rank 2); the first star edge
    # then reaches the hub and each later one closes a cycle, so every star
    # rank is 3
    red = mlvc_to_weighted_graphic(path_graph(3))
    stars = set(red.star_edge_of)
    first = [e for e in range(red.apex_graph.m) if e not in stars]
    sigma = Ordering.from_sequence(first + list(red.star_edge_of))
    with pytest.raises(CertificateError, match="star ranks collide"):
        red.recover_labeling(sigma)


def test_composed_chain_structure():
    # the K2 chain expands to m + n + (k - 1) n = 1 + 2 + 10 * 2 = 23
    # elements, beyond any sensible exhaustive budget; check the algebra of
    # the chain on a concrete ordering instead of the full solve
    G = Graph(2, ((0, 1),))
    red = mlvc_to_weighted_graphic(G)
    matroid = GraphicMatroid(red.apex_graph)
    N, sigma_exp, cert = weighted_to_unweighted(matroid, list(red.costs))
    assert N.m == 23
    assert cert.holds()  # weighted objective == expanded objective, exactly
    # and the weighted apex optimum is the MLVC optimum shifted by k * 3
    _, _, _, apex_cert = solve_mlvc_via_apex(G)
    assert apex_cert.source_value == mlvc_brute_optimum(G) + red.base_offset
