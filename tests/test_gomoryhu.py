import random
from fractions import Fraction

import pytest

from ordolab import (
    CertificateError,
    CutFunction,
    GomoryHuTree,
    Graph,
    build_gh_tree,
    exact_mlop_dp,
    gh_lower_bound,
    gh_upper_bound,
    gh_weight_invariance,
    matching_certificate,
    parse_graph,
    st_min_cut,
)
from ordolab import cli, flow, gomoryhu
from ordolab.gomoryhu import GH_UPPER_BOUND_CAP, _verify_cut_property

from helpers import all_trees

from ordolab.instances import (
    complete_graph,
    path_graph,
    random_tree,
    random_weighted_graph,
    star_graph,
)

#: build_gh_tree(CutFunction(random_weighted_graph(n, 2n, Random(n))),
#: seed=n) as once computed with every s-t cut solved by submodular
#: minimization of the contracted cut function: on the dense table for
#: n = 11 and 16, by the Wolfe path for n = 24.  That path has since been
#: removed; the flow cuts must still give the same trees.
SFM_TREES = {
    11: [(3, 7, "14"), (2, 7, "11"), (5, 7, "23/2"), (1, 8, "6"), (6, 8, "8"), (4, 7, "10"),
         (9, 7, "11"), (10, 7, "13/2"), (8, 3, "13"), (7, 0, "19/2")],
    16: [(8, 14, "17"), (12, 0, "25/2"), (1, 14, "9/2"), (2, 14, "9/2"), (5, 8, "25/2"),
         (9, 14, "13"), (15, 14, "20"), (0, 14, "14"), (13, 14, "41/2"), (3, 14, "12"),
         (6, 13, "14"), (4, 10, "10"), (14, 10, "25/2"), (7, 14, "24"), (11, 1, "5/2")],
    24: [(3, 2, "33/2"), (13, 6, "2"), (10, 18, "27/2"), (9, 2, "11/2"), (16, 2, "35/2"),
         (17, 2, "21/2"), (8, 2, "35/2"), (7, 2, "12"), (0, 2, "17/2"), (4, 2, "15"),
         (14, 2, "35/2"), (15, 21, "12"), (23, 2, "20"), (11, 6, "5"), (2, 1, "15"),
         (21, 2, "37/2"), (19, 0, "12"), (20, 3, "11"), (6, 2, "27"), (5, 21, "15/2"),
         (18, 2, "21"), (12, 2, "29/2"), (22, 2, "12")],
}


def tree_of(n, edges):
    return GomoryHuTree(n, tuple((a, b, Fraction(1)) for a, b in edges))


def test_tree_validation():
    with pytest.raises(ValueError):
        GomoryHuTree(3, ((0, 1, Fraction(1)),))
    with pytest.raises(ValueError):
        GomoryHuTree(4, ((0, 1, Fraction(1)), (0, 1, Fraction(1)), (2, 3, Fraction(1))))


def test_gh_path_p3():
    f = CutFunction(path_graph(3))
    tree = build_gh_tree(f)
    assert tree.total_weight() == 2
    assert sorted(w for _, _, w in tree.edges) == [1, 1]
    # P3's Gomory-Hu tree is the path itself
    assert sorted(tuple(sorted((a, b))) for a, b, _ in tree.edges) == [(0, 1), (1, 2)]


def test_gh_star_leaf_cuts():
    f = CutFunction(star_graph(3))
    tree = build_gh_tree(f)
    assert sorted(w for _, _, w in tree.edges) == [1, 1, 1]
    assert _verify_cut_property(f, tree)


def test_gh_two_triangles_with_bridge():
    edges = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)]
    f = CutFunction(Graph(6, tuple(edges)))
    tree = build_gh_tree(f)
    bridge_edges = [(a, b, w) for a, b, w in tree.edges if w == 1]
    assert len(bridge_edges) == 1
    a, b, _ = bridge_edges[0]
    assert {a, b} == {2, 3}


def test_gh_cut_property_random():
    rng = random.Random(41)
    for i in range(5):
        n = rng.randint(4, 7)
        G = random_weighted_graph(n, rng.randint(n - 1, min(10, n * (n - 1) // 2)), rng)
        f = CutFunction(G)
        tree = build_gh_tree(f, seed=i)
        for j, (s, t, w) in enumerate(tree.edges):
            side = tree.cut_side(j)
            assert f(side) == w
            assert st_min_cut(f, s, t)[1] == w


def test_gh_rejects_asymmetric_oracle():
    from ordolab import UniformMatroid

    with pytest.raises(ValueError, match="graph cut functions only"):
        build_gh_tree(UniformMatroid(4, 2))


def test_gh_lower_bound_tight_on_paths():
    for n in (3, 4, 5, 6):
        f = CutFunction(path_graph(n))
        tree = build_gh_tree(f)
        assert gh_lower_bound(tree) == n - 1
        assert exact_mlop_dp(f)[0] == n - 1


def test_gh_lower_bound_k2_weighted():
    w = Fraction(7, 2)
    f = CutFunction(Graph(2, ((0, 1),), (w,)))
    tree = build_gh_tree(f)
    assert gh_lower_bound(tree) == w


def test_gh_upper_bound_star():
    f = CutFunction(star_graph(3))
    tree = build_gh_tree(f)
    upper, sigma = gh_upper_bound(f, tree)
    assert upper == 4  # hub in second position
    assert exact_mlop_dp(f)[0] == 4


def test_gh_sandwich_random():
    rng = random.Random(42)
    for i in range(8):
        n = rng.randint(4, 7)
        G = random_weighted_graph(n, rng.randint(n - 1, min(10, n * (n - 1) // 2)), rng)
        f = CutFunction(G)
        tree = build_gh_tree(f, seed=i)
        lower = gh_lower_bound(tree)
        upper, _ = gh_upper_bound(f, tree)
        opt, _ = exact_mlop_dp(f)
        assert lower <= opt <= upper


@pytest.mark.parametrize(
    "text, bound",
    [("3 1\n1 2\n", 1), ("5 3\n1 2\n2 3\n4 5\n", 3), ("4 0\n", 0)],
    ids=["edge-and-vertex", "path-and-edge", "no-edge"],
)
def test_ghtree_of_a_disconnected_graph_lays_out_the_weighted_edges(tmp_path, text, bound):
    # the tree joins the components by weight-0 edges, which cost 0 in
    # every ordering: the layout is the exact optimum of the cut function
    path = tmp_path / "g.graph"
    path.write_text(text)
    report, code = cli.run(["ghtree", "--input", str(path)])
    assert code == 0
    results = report["results"]
    assert results["lower_bound"] == results["upper_bound"] == bound
    f = CutFunction(parse_graph(text))
    assert gh_upper_bound(f, build_gh_tree(f))[0] == exact_mlop_dp(f)[0] == bound


def test_gh_upper_bound_rejects_beyond_cap():
    f = CutFunction(path_graph(GH_UPPER_BOUND_CAP + 1))
    tree = build_gh_tree(f)
    with pytest.raises(ValueError, match=r"exceeds the upper-bound cap \(12\)"):
        gh_upper_bound(f, tree)


# The tree problem: minimize, over all trees on the ground set, the sum over
# tree edges of f at one side of the edge's split.  Any Gomory-Hu tree is
# optimal, with its total weight as the value.


def test_tree_mlop_p3():
    f = CutFunction(path_graph(3))
    value = build_gh_tree(f).total_weight()
    assert value == 2
    # exhaustive check over all 3 labeled trees on 3 vertices
    best = min(
        sum(f(tree_of(3, edges).cut_side(i)) for i in range(2))
        for edges in all_trees(3)
    )
    assert value == best


def test_tree_mlop_unit_k4():
    f = CutFunction(complete_graph(4))
    value = build_gh_tree(f).total_weight()
    assert value == 9  # three edges, each a singleton min cut of value 3


def test_tree_mlop_optimal_vs_enumeration():
    rng = random.Random(43)
    for _ in range(4):
        G = random_weighted_graph(5, rng.randint(4, 8), rng)
        f = CutFunction(G)
        value = build_gh_tree(f).total_weight()
        best = None
        for edges in all_trees(5):
            T = tree_of(5, edges)
            total = sum((f(T.cut_side(i)) for i in range(4)), Fraction(0))
            if best is None or total < best:
                best = total
        assert value == best


def test_wrong_gusfield_weight_fails_the_certificate(tmp_path, monkeypatch):
    gusfield = gomoryhu._gusfield

    def one_weight_off(f, order):
        tree, solved = gusfield(f, order)
        (a, b, w), *rest = tree.edges
        return GomoryHuTree(tree.n, ((a, b, w + 1), *rest)), solved

    monkeypatch.setattr(gomoryhu, "_gusfield", one_weight_off)
    with pytest.raises(CertificateError):
        build_gh_tree(CutFunction(path_graph(4)))
    path = tmp_path / "p4.graph"
    path.write_text("4 3\n1 2\n2 3\n3 4\n")
    report, code = cli.run(["ghtree", "--input", str(path)])
    assert code == 1
    assert "cut property" in report["error"]


@pytest.mark.parametrize("n", sorted(SFM_TREES))
def test_flow_trees_equal_the_minimization_trees(n):
    f = CutFunction(random_weighted_graph(n, 2 * n, random.Random(n)))
    tree = build_gh_tree(f, seed=n)
    assert tree.edges == tuple((a, b, Fraction(w)) for a, b, w in SFM_TREES[n])


def test_verification_reads_the_solved_cuts(monkeypatch):
    # one s-t cut per Gusfield step and none to verify the tree
    calls = []

    def counted(f, s, t):
        calls.append((s, t))
        return st_min_cut(f, s, t)

    monkeypatch.setattr(gomoryhu, "st_min_cut", counted)
    for i in range(5):
        build_gh_tree(CutFunction(random_weighted_graph(11, 22, random.Random(i))), seed=i)
        assert len(calls) == 10
        calls.clear()


def test_side_values_alone_do_not_certify_a_tree(monkeypatch):
    # a star on P4 whose weights are the values of its sides: each leaf side
    # {v} has f = 2 or 1, but the minimum cut between 0 and 1 or 2 is 1
    gusfield = gomoryhu._gusfield

    def star(f, order):
        _, solved = gusfield(f, order)
        return GomoryHuTree(4, tuple((v, 0, f(1 << v)) for v in (1, 2, 3))), solved

    monkeypatch.setattr(gomoryhu, "_gusfield", star)
    with pytest.raises(CertificateError, match="cut property"):
        build_gh_tree(CutFunction(path_graph(4)))


def test_shifted_flow_exits_1(tmp_path, monkeypatch):
    max_flow = flow._max_flow

    def shifted(net, s, t):
        x = max_flow(net, s, t)
        x[0] += 1
        return x

    monkeypatch.setattr(flow, "_max_flow", shifted)
    path = tmp_path / "p4.graph"
    path.write_text("4 3\n1 2\n2 3\n3 4\n")
    report, code = cli.run(["ghtree", "--input", str(path)])
    assert code == 1
    assert "flow" in report["error"]


def test_weight_invariance():
    f = CutFunction(complete_graph(4))
    assert gh_weight_invariance(f, runs=10, seed=0)
    with pytest.raises(ValueError):
        gh_weight_invariance(f, runs=1)


def test_matching_identity_tree():
    T = tree_of(4, [(0, 1), (1, 2), (2, 3)])
    matching = matching_certificate(T, T)
    assert sorted(matching) == [(0, 0), (1, 1), (2, 2)]


def test_matching_path_vs_star():
    T1 = tree_of(3, [(0, 1), (1, 2)])
    T2 = tree_of(3, [(1, 0), (1, 2)])
    assert sorted(matching_certificate(T1, T2)) == [(0, 0), (1, 1)]


def test_matching_random_pairs():
    rng = random.Random(45)
    for _ in range(100):
        n = rng.randint(2, 8)
        T1 = tree_of(n, random_tree(n, rng))
        T2 = tree_of(n, random_tree(n, rng))
        matching = matching_certificate(T1, T2)
        assert len(matching) == n - 1
        # every matched pair really separates
        for left, right in matching:
            a, b, _ = T1.edges[left]
            assert right in T2.path_edges(a, b)
        # the path between two vertices holds exactly the edges whose cut
        # sides separate them, walked from b to a
        sides = [T2.cut_side(j) for j in range(n - 1)]
        for a in range(n):
            for b in range(n):
                path = T2.path_edges(a, b)
                assert set(path) == {j for j, side in enumerate(sides) if (side >> a & 1) != (side >> b & 1)}
                at = b
                for j in path:
                    x, y, _ = T2.edges[j]
                    assert at in (x, y)
                    at = y if at == x else x
                assert at == a


def test_matching_failure_raises_certificate_error(monkeypatch):
    T = tree_of(3, [(0, 1), (1, 2)])
    monkeypatch.setattr(GomoryHuTree, "path_edges", lambda self, a, b: [])
    with pytest.raises(CertificateError, match="no perfect matching"):
        matching_certificate(T, T)


def test_all_trees_cayley_counts():
    assert len(list(all_trees(3))) == 3
    assert len(list(all_trees(4))) == 16
    assert len(list(all_trees(5))) == 125
