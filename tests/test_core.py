import pytest
from fractions import Fraction

from ordolab import (
    Graph,
    GraphicMatroid,
    ModularOracle,
    Ordering,
    biconnected_components,
    format_graph,
    mla_objective,
    mlop_objective,
    mlvc_objective,
    msvc_objective,
    parse_graph,
    weighted_mlop_objective,
)
from ordolab.core import ParseError

from helpers import brute_mlop, brute_weighted_mlop, prefix_sum
from ordolab.instances import complete_graph, path_graph, triangle_with_bridge

K3 = Graph(3, ((0, 1), (1, 2), (0, 2)))


def test_ordering_bijection_enforced():
    with pytest.raises(ValueError):
        Ordering((1, 1, 2))
    sigma = Ordering.from_sequence((2, 0, 1))
    assert sigma.positions == (2, 3, 1)
    assert sigma.sequence() == (2, 0, 1)
    assert sigma.reversed().sequence() == (1, 0, 2)
    assert list(sigma.prefix_masks()) == [0b100, 0b101, 0b111]


def test_mlop_triangle_rank_any_ordering_is_5():
    M = GraphicMatroid(K3)
    for seq in ((0, 1, 2), (2, 0, 1), (1, 2, 0)):
        assert mlop_objective(M, Ordering.from_sequence(seq)) == 5  # 1 + 2 + 2


def test_mlop_zero_function():
    zero = ModularOracle([0, 0, 0])
    assert mlop_objective(zero, Ordering.identity(3)) == 0


def test_mlop_triangle_with_bridge_frozen_against_permutation_scan():
    M = GraphicMatroid(triangle_with_bridge())
    sigma = Ordering.from_sequence((0, 1, 2, 3))  # triangle first, bridge last
    assert mlop_objective(M, sigma) == 1 + 2 + 2 + 3 == 8
    best, _ = brute_mlop(M)
    assert best == 8  # the above ordering is optimal


def test_mlop_ground_mismatch():
    with pytest.raises(ValueError):
        mlop_objective(GraphicMatroid(K3), Ordering.identity(4))


def test_weighted_mlop_single_element():
    f = ModularOracle([1])
    assert weighted_mlop_objective(f, [3], Ordering.identity(1)) == 3


def test_weighted_mlop_unit_costs_match_unweighted():
    M = GraphicMatroid(K3)
    sigma = Ordering.from_sequence((1, 2, 0))
    assert weighted_mlop_objective(M, [1, 1, 1], sigma) == mlop_objective(M, sigma)


def test_weighted_mlop_triangle_cost_vector():
    M = GraphicMatroid(K3)
    sigma = Ordering.identity(3)
    # prefix ranks 1, 2, 2 against position costs 1, 1, 2
    assert weighted_mlop_objective(M, [1, 1, 2], sigma) == 1 + 2 + 4 == 7
    assert brute_weighted_mlop(M, [1, 1, 2]) <= 7


def test_weighted_mlop_rejects_nonpositive_cost():
    M = GraphicMatroid(K3)
    with pytest.raises(ValueError):
        weighted_mlop_objective(M, [1, 0, 1], Ordering.identity(3))


def test_mlvc_k3_all_labelings_equal_8():
    from itertools import permutations

    for perm in permutations(range(3)):
        assert mlvc_objective(K3, Ordering.from_sequence(perm)) == 8


def test_mlvc_edgeless_graph():
    G = Graph(4, ())
    assert mlvc_objective(G, Ordering.identity(4)) == 0


def test_mlvc_path_center_first_is_optimal():
    from itertools import permutations

    G = path_graph(3)  # edges 0-1, 1-2
    center_first = Ordering(positions=(2, 1, 3))
    assert mlvc_objective(G, center_first) == 5
    assert min(
        mlvc_objective(G, Ordering.from_sequence(p)) for p in permutations(range(3))
    ) == 5


def test_single_edge_objectives():
    K2 = Graph(2, ((0, 1),))
    pi = Ordering.identity(2)
    assert msvc_objective(K2, pi) == 1
    assert mla_objective(K2, pi) == 1
    assert mlvc_objective(K2, pi) == 2
    # 1-regular shift: MLA = 2 * MLVC - 1 * C(3, 2)
    assert mla_objective(K2, pi) == 2 * mlvc_objective(K2, pi) - 3


def test_msvc_k3():
    assert msvc_objective(K3, Ordering.identity(3)) == 1 + 1 + 2 == 4


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_mlvc_clique_closed_form(n):
    from itertools import permutations

    G = complete_graph(n)
    expected = sum(i * (i - 1) for i in range(2, n + 1))
    for perm in list(permutations(range(n)))[:24]:
        assert mlvc_objective(G, Ordering.from_sequence(perm)) == expected


def test_monotone_prefix_values_nondecreasing():
    M = GraphicMatroid(triangle_with_bridge())
    sigma = Ordering.from_sequence((3, 1, 0, 2))
    values = [M(mask) for mask in sigma.prefix_masks()]
    assert values == sorted(values)


def test_identical_prefix_chains_same_value():
    M = GraphicMatroid(K3)
    a = Ordering.from_sequence((0, 1, 2))
    b = Ordering.from_sequence((0, 1, 2))
    assert prefix_sum(M, a.sequence()) == prefix_sum(M, b.sequence())


def test_graph_parse_roundtrip():
    text = "4 4\n1 2\n2 3\n1 3\n3 4\n"
    G = parse_graph(text)
    assert G.n == 4 and G.m == 4
    assert format_graph(G) == text
    weighted = parse_graph("2 1\n1 2 3/2\n")
    assert weighted.weights == (Fraction(3, 2),)


@pytest.mark.parametrize(
    "text,line",
    [
        ("", 1),
        ("2\n", 1),
        ("2 1\n1 3\n", 2),
        ("2 1\n1 2 0\n", 2),
        ("2 2\n1 2\n", 1),
        ("2 1\n1 2 x\n", 2),
    ],
)
def test_graph_parse_errors_carry_line(text, line):
    with pytest.raises(ParseError) as err:
        parse_graph(text)
    assert err.value.line == line


def test_biconnected_components_bowtie():
    from ordolab.instances import bowtie

    blocks = biconnected_components(bowtie())
    assert sorted(sorted(b) for b in blocks) == [[0, 1, 2], [3, 4, 5]]


def test_biconnected_components_bridges_and_cycle():
    G = triangle_with_bridge()
    blocks = sorted(sorted(b) for b in biconnected_components(G))
    assert blocks == [[0, 1, 2], [3]]
