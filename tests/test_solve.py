import random
from fractions import Fraction
from itertools import permutations

import pytest

from ordolab import (
    CertificateError,
    Graph,
    GraphicMatroid,
    ModularOracle,
    Ordering,
    UniformMatroid,
    approx_monotone_mlop,
    cactus_exact,
    compute_principal_partition,
    exact_mlop_dp,
    exact_weighted_mlop_dp,
    fixed_basis_extension,
    fixed_basis_objective,
    has_flat_prefix_structure,
    is_cactus,
    mask_of,
    mlop_objective,
    pp_lower_bound,
    pp_upper_bound,
    small_basis_exact,
    uniform_closed_form,
    weighted_mlop_objective,
)
from ordolab import solve

from helpers import brute_mlop, brute_weighted_mlop
from ordolab.instances import (
    bowtie,
    complete_graph,
    cycle_graph,
    path_graph,
    random_cactus,
    random_connected_graph,
    triangle_with_bridge,
)

TB = GraphicMatroid(triangle_with_bridge())


def test_dp_uniform_k2_m3():
    value, sigma = exact_mlop_dp(UniformMatroid(3, 2))
    assert value == 5
    assert mlop_objective(UniformMatroid(3, 2), sigma) == 5


def test_dp_triangle_bridge():
    value, sigma = exact_mlop_dp(TB)
    assert value == 8
    assert mlop_objective(TB, sigma) == 8
    # the bridge is a coloop and sits last in the optimal ordering
    assert sigma.position(3) == 4


def test_dp_empty_ground():
    value, sigma = exact_mlop_dp(ModularOracle([]))
    assert value == 0 and sigma.m == 0


def test_dp_matches_permutation_scan():
    rng = random.Random(2)
    for _ in range(8):
        n = rng.randint(3, 5)
        G = random_connected_graph(n, rng.randint(n - 1, min(7, n * (n - 1) // 2)), rng)
        f = GraphicMatroid(G)
        brute_value, _ = brute_mlop(f)
        dp_value, dp_sigma = exact_mlop_dp(f)
        assert dp_value == brute_value
        assert mlop_objective(f, dp_sigma) == dp_value


def test_dp_below_random_orderings():
    rng = random.Random(3)
    G = random_connected_graph(6, 10, rng)
    f = GraphicMatroid(G)
    dp_value, _ = exact_mlop_dp(f)
    for _ in range(1000):
        seq = list(range(f.m))
        rng.shuffle(seq)
        assert dp_value <= mlop_objective(f, Ordering.from_sequence(seq))


def test_dp_cap():
    with pytest.raises(ValueError):
        exact_mlop_dp(ModularOracle(m=6), cap=5)


def test_weighted_dp_matches_permutation_scan():
    M = GraphicMatroid(complete_graph(3))
    costs = [2, 1, 3]
    value, sigma = exact_weighted_mlop_dp(M, costs)
    assert value == brute_weighted_mlop(M, costs)
    assert weighted_mlop_objective(M, costs, sigma) == value


def test_uniform_closed_form_values():
    assert uniform_closed_form(2, 3) == 5
    assert uniform_closed_form(0, 7) == 0
    assert uniform_closed_form(1, 2) == 2
    assert exact_mlop_dp(UniformMatroid(2, 1))[0] == 2
    with pytest.raises(ValueError):
        uniform_closed_form(3, 2)


def test_four_cycle_is_uniform_u34():
    # every ordering of C4 has prefix ranks 1, 2, 3, 3
    f = GraphicMatroid(cycle_graph(4))
    value, _ = exact_mlop_dp(f)
    assert value == brute_mlop(f)[0] == uniform_closed_form(3, 4) == 9


def test_pp_bounds_modular_collapse():
    for m in (1, 3, 6):
        f = ModularOracle(m=m)
        pp = compute_principal_partition(f)
        expected = Fraction(m * (m + 1), 2)
        assert pp_lower_bound(f, pp) == expected
        assert pp_upper_bound(f, pp) == expected


def test_pp_bounds_triangle_bridge():
    pp = compute_principal_partition(TB)
    assert pp_lower_bound(TB, pp) == 7
    assert pp_upper_bound(TB, pp) == 8
    assert exact_mlop_dp(TB)[0] == 8  # sandwich is tight above


def test_pp_bounds_single_step_gap():
    # s = 1: the bound gap comes from the non-summation terms alone
    f = UniformMatroid(4, 4)  # free matroid, pp = (empty, E)
    pp = compute_principal_partition(f)
    assert pp.s == 1
    assert pp_lower_bound(f, pp) == pp_upper_bound(f, pp) == 10


def test_pp_bounds_reject_mismatched_partition():
    pp = compute_principal_partition(TB)
    with pytest.raises(ValueError):
        pp_lower_bound(GraphicMatroid(complete_graph(3)), pp)


def test_approx_modular_exact():
    f = ModularOracle(m=4)
    sigma, cert = approx_monotone_mlop(f)
    assert cert.achieved == 10
    assert cert.guarantee == 1
    assert cert.lower == cert.upper == 10


def test_approx_triangle_bridge():
    sigma, cert = approx_monotone_mlop(TB)
    assert cert.achieved == 8
    assert cert.guarantee == Fraction(6, 5)
    assert cert.lower == 7
    # the ordering is a linear extension of the partition chain
    assert mask_of(sigma.sequence()[:3]) == 0b0111


def test_approx_parallel_edges():
    f = GraphicMatroid(Graph(2, ((0, 1),) * 3))
    sigma, cert = approx_monotone_mlop(f)
    assert cert.achieved == 3 == exact_mlop_dp(f)[0]


def test_approx_trivial_function():
    sigma, cert = approx_monotone_mlop(ModularOracle([0, 0, 0]))
    assert cert.trivial and cert.achieved == 0


def test_approx_zero_set_goes_first():
    loopy = GraphicMatroid(Graph(3, ((0, 0), (0, 1), (1, 2))))
    sigma, cert = approx_monotone_mlop(loopy)
    assert sigma.position(0) == 1  # the loop leads
    assert cert.achieved == exact_mlop_dp(loopy)[0] == 1 + 2


def test_approx_guarantee_and_sandwich_random():
    rng = random.Random(4)
    for _ in range(20):
        n = rng.randint(3, 6)
        G = random_connected_graph(n, rng.randint(n - 1, min(9, n * (n - 1) // 2)), rng)
        f = GraphicMatroid(G)
        opt, _ = exact_mlop_dp(f)
        _, cert = approx_monotone_mlop(f)
        assert cert.lower <= opt <= cert.achieved <= cert.upper
        assert cert.upper <= cert.guarantee * cert.lower
        assert cert.achieved <= cert.guarantee * opt


def test_approx_beyond_exact_cap_modular():
    # 25 elements: enumeration refuses, the min-norm-point path takes over
    f = ModularOracle(m=25)
    sigma, cert = approx_monotone_mlop(f)
    assert cert.achieved == cert.lower == cert.upper == 25 * 26 // 2
    with pytest.raises(ValueError):
        exact_mlop_dp(f)


def test_approx_beyond_exact_cap_graphic():
    # two K5 blocks joined by two bridges: 22 edges
    edges = []
    for base in (0, 5):
        for u in range(5):
            for v in range(u + 1, 5):
                edges.append((base + u, base + v))
    edges += [(4, 5), (0, 9)]
    f = GraphicMatroid(Graph(10, tuple(edges)))
    pp = compute_principal_partition(f)
    assert [s.bit_count() for s in pp.sets] == [0, 20, 22]
    assert pp.critical_values == (Fraction(2, 5), Fraction(1, 2))
    _, cert = approx_monotone_mlop(f)
    assert cert.lower <= cert.achieved <= cert.upper <= cert.guarantee * cert.lower


def test_fixed_basis_k3():
    M = GraphicMatroid(complete_graph(3))
    for perm in permutations((0, 1)):
        assert fixed_basis_objective(M, perm) == 5  # 3 + chord max of 2


def test_fixed_basis_bowtie_ascending_blocks():
    M = GraphicMatroid(bowtie())
    # tree edges: two per triangle; ascending block order
    assert fixed_basis_objective(M, (0, 1, 3, 4)) == 10 + 2 + 4 == 16


def test_fixed_basis_tree_only():
    M = GraphicMatroid(path_graph(4))
    assert fixed_basis_objective(M, (0, 1, 2)) == 6  # C(4, 2), empty chord sum


def test_fixed_basis_extension_achieves_value():
    M = GraphicMatroid(bowtie())
    for perm in ((0, 1, 3, 4), (3, 4, 0, 1), (4, 0, 3, 1)):
        sigma = fixed_basis_extension(M, perm)
        assert mlop_objective(M, sigma) == fixed_basis_objective(M, perm)


def test_fixed_basis_rejects_non_basis():
    M = GraphicMatroid(complete_graph(3))
    with pytest.raises(ValueError):
        fixed_basis_objective(M, (0, 1, 2))


def test_small_basis_matches_dp():
    for M in (
        GraphicMatroid(complete_graph(3)),
        UniformMatroid(3, 1),
        GraphicMatroid(cycle_graph(4)),
        GraphicMatroid(bowtie()),
    ):
        value, sigma = small_basis_exact(M)
        assert value == exact_mlop_dp(M)[0]
        assert mlop_objective(M, sigma) == value


def test_small_basis_checks_the_insertion_extension(monkeypatch):
    cost = solve._ordered_cost
    monkeypatch.setattr(solve, "_ordered_cost", lambda supports, order: cost(supports, order) - 1)
    with pytest.raises(CertificateError, match="insertion extension"):
        small_basis_exact(TB)


def test_small_basis_u13():
    value, _ = small_basis_exact(UniformMatroid(3, 1))
    assert value == 3 == uniform_closed_form(1, 3)


def test_small_basis_parallel_jobs_deterministic():
    M = GraphicMatroid(bowtie())
    seq_value, seq_sigma = small_basis_exact(M, jobs=1)
    par_value, par_sigma = small_basis_exact(M, jobs=2)
    assert (seq_value, seq_sigma) == (par_value, par_sigma)


def test_is_cactus():
    assert is_cactus(bowtie())
    assert is_cactus(path_graph(4))
    assert not is_cactus(complete_graph(4))


def test_cactus_triangle():
    value, _ = cactus_exact(complete_graph(3))
    assert value == 5


def test_cactus_bowtie():
    value, sigma = cactus_exact(bowtie())
    assert value == 16 == exact_mlop_dp(GraphicMatroid(bowtie()))[0]


def test_cactus_all_bridges():
    value, _ = cactus_exact(path_graph(4))
    assert value == 1 + 2 + 3


def test_cactus_bridge_after_cycle():
    value, sigma = cactus_exact(triangle_with_bridge())
    assert value == 8
    assert sigma.position(3) == 4


def test_cactus_rejects_non_cactus():
    with pytest.raises(ValueError):
        cactus_exact(complete_graph(4))


def test_cactus_random_against_dp():
    rng = random.Random(5)
    for _ in range(10):
        G = random_cactus(rng.randint(5, 12), rng)
        value, sigma = cactus_exact(G)
        assert value == exact_mlop_dp(GraphicMatroid(G))[0]
        assert mlop_objective(GraphicMatroid(G), sigma) == value


def test_flat_prefix_structure_on_optimal_orderings():
    rng = random.Random(6)
    for _ in range(10):
        n = rng.randint(3, 5)
        G = random_connected_graph(n, rng.randint(n - 1, min(8, n * (n - 1) // 2)), rng)
        f = GraphicMatroid(G)
        _, sigma = exact_mlop_dp(f)
        assert has_flat_prefix_structure(f, sigma)


def test_flat_prefix_structure_detects_violation():
    M = GraphicMatroid(complete_graph(4))
    # the rank-2 plateau of the identity ordering ends at {01, 02}, which is
    # not a flat: edge 12 is spanned by it but arrives later
    bad = Ordering.identity(6)
    assert M.rank(mask_of((0, 1))) == M.rank(mask_of((0, 1, 3))) == 2
    assert not has_flat_prefix_structure(M, bad)
