import random
from contextlib import nullcontext
from fractions import Fraction
from math import lcm

import numpy as np
import pytest

from ordolab import (
    CertificateError,
    CoverageFunction,
    CutFunction,
    DualMatroid,
    Graph,
    GraphicMatroid,
    GroundSet,
    ModularOracle,
    SetFunctionOracle,
    UniformMatroid,
    VectorMatroid,
    minimize_offset,
    st_min_cut,
)

from helpers import TableOracle, brute_min_offset, incidence_matroid, wolfe_path
from ordolab import sfm
from ordolab.instances import path_graph, random_connected_graph, triangle_with_bridge

PARALLEL3 = GraphicMatroid(Graph(2, ((0, 1), (0, 1), (0, 1))))
TB = GraphicMatroid(triangle_with_bridge())


def test_modular_half_offset():
    res = minimize_offset(ModularOracle(m=3), Fraction(1, 2))
    assert res.min_value == 0
    assert res.minimal_minimizer == 0 and res.maximal_minimizer == 0


def test_three_parallel_edges_half():
    res = minimize_offset(PARALLEL3, Fraction(1, 2))
    assert res.min_value == Fraction(-1, 2)  # 1 - 3/2 at X = E
    assert res.maximal_minimizer == 0b111


def test_triangle_bridge_seven_tenths():
    res = minimize_offset(TB, Fraction(7, 10))
    assert res.min_value == Fraction(-1, 10)  # 2 - 21/10 at the triangle
    assert res.minimal_minimizer == 0b0111
    assert res.maximal_minimizer == 0b0111


@pytest.mark.parametrize("lam", [Fraction(0), Fraction(1, 3), Fraction(2, 3), Fraction(1), Fraction(3, 2)])
def test_matches_brute_scan(lam):
    best, argmins = brute_min_offset(TB, lam)
    res = minimize_offset(TB, lam)
    assert res.min_value == best
    assert res.minimal_minimizer == min(argmins, key=lambda s: (s.bit_count(), s))
    inter = argmins[0]
    union = 0
    for s in argmins:
        inter &= s
        union |= s
    assert res.minimal_minimizer == inter
    assert res.maximal_minimizer == union


def test_minimizer_lattice_closed_under_union_intersection():
    for lam in (Fraction(1, 3), Fraction(2, 3), Fraction(1)):
        best, argmins = brute_min_offset(TB, lam)
        for a in argmins:
            for b in argmins:
                assert TB(a | b) - lam * (a | b).bit_count() == best
                assert TB(a & b) - lam * (a & b).bit_count() == best


def test_min_value_concave_in_lambda():
    lams = [Fraction(i, 6) for i in range(0, 13)]
    h = [minimize_offset(TB, lam).min_value for lam in lams]
    for i in range(1, len(lams) - 1):
        assert h[i] >= (h[i - 1] + h[i + 1]) / 2


def test_min_value_slopes_are_negated_minimizer_sizes():
    # between breakpoints the parametric minimum is linear with slope
    # equal to minus the (constant) maximal minimizer size
    lams = [Fraction(i, 24) for i in range(0, 40)]
    results = [minimize_offset(TB, lam) for lam in lams]
    for (l1, r1), (l2, r2) in zip(zip(lams, results), zip(lams[1:], results[1:])):
        if r1.maximal_minimizer == r2.maximal_minimizer:
            slope = (r2.min_value - r1.min_value) / (l2 - l1)
            assert slope == -r1.maximal_minimizer.bit_count()


def test_maximal_minimizer_monotone_in_lambda():
    prev = 0
    for i in range(0, 25):
        lam = Fraction(i, 12)
        cur = minimize_offset(TB, lam).maximal_minimizer
        assert prev & ~cur == 0  # nested as lambda grows
        prev = cur


def test_st_min_cut_path():
    cut = CutFunction(path_graph(3))
    side, value = st_min_cut(cut, 0, 2)
    assert value == 1
    assert (side >> 0) & 1 and not (side >> 2) & 1


def test_st_min_cut_single_weighted_edge():
    w = Fraction(5, 2)
    cut = CutFunction(Graph(2, ((0, 1),), (w,)))
    _, value = st_min_cut(cut, 0, 1)
    assert value == w


def test_st_min_cut_two_cliques_bridge():
    edges = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)]
    cut = CutFunction(Graph(6, tuple(edges)))
    side, value = st_min_cut(cut, 0, 5)
    assert value == 1
    assert side == 0b000111


def test_st_min_cut_rejects_a_flow_network_that_differs_from_the_oracle():
    cut = CutFunction(path_graph(3))
    cut.network.capacities[0] += 1  # edge (0, 1)
    with pytest.raises(CertificateError, match="cut function"):
        st_min_cut(cut, 0, 1)


def test_st_min_cut_rejects_equal_endpoints():
    cut = CutFunction(path_graph(3))
    with pytest.raises(ValueError):
        st_min_cut(cut, 1, 1)


@pytest.mark.parametrize("f", [UniformMatroid(4, 2), ModularOracle(m=3)], ids=["uniform", "modular"])
def test_only_cut_functions_are_cut_by_flow(f):
    with pytest.raises(ValueError, match="graph cut functions only"):
        st_min_cut(f, 0, 1)


class TwoSeparateMinima(SetFunctionOracle):
    """f({0}) = f({1}) = -1, f = 0 elsewhere: not submodular, and the
    intersection of the two minimizers is not a minimizer."""

    def __init__(self):
        super().__init__(GroundSet(2))

    def evaluate(self, subset):
        return -1 if subset in (0b01, 0b10) else 0


def test_non_submodular_oracle_fails_the_lattice_certificate():
    with pytest.raises(CertificateError):
        minimize_offset(TwoSeparateMinima(), Fraction(0))


def test_non_submodular_oracle_fails_the_min_norm_certificate():
    # the level sets of x* = 0 attain the value 0; only the base polytope
    # check x*({e}) <= f({e}) = -1 exposes the oracle
    with pytest.raises(CertificateError, match="base polytope"), wolfe_path() as searches:
        minimize_offset(TwoSeparateMinima(), Fraction(0))
    assert searches


def test_a_wolfe_point_with_a_loose_level_set_fails_the_certificate(monkeypatch):
    # x = (1/2, 1/2, 1) on U(3, 2) is a convex combination within every
    # singleton and co-singleton bound, but its level set {0, 1} has
    # x = 1 < r = 2
    x = [Fraction(1, 2), Fraction(1, 2), Fraction(1)]
    f = UniformMatroid(3, 2)
    assert sfm._finished_base(f, [Fraction(1)], x) == x
    monkeypatch.setattr(sfm, "EXACT_SOLVER_CAP", -1)
    monkeypatch.setattr(sfm, "_exact_min_norm_point", lambda m, greedy_vertex: ([Fraction(1)], x))
    with pytest.raises(CertificateError, match="not tight"):
        sfm.min_norm_base(f)


class OnePlusSize(SetFunctionOracle):
    """f(X) = 1 + |X|: submodular, but f(empty) = 1."""

    def __init__(self, m):
        super().__init__(GroundSet(m))

    def evaluate(self, subset):
        return 1 + subset.bit_count()


@pytest.mark.parametrize("m", [3, sfm.EXACT_SOLVER_CAP + 1], ids=["within-cap", "beyond-cap"])
def test_min_norm_base_refuses_an_oracle_that_is_not_normalized(monkeypatch, m):
    # refused before a path is picked: no table, no Wolfe search
    def no_path(f):
        raise AssertionError("a base path ran")

    for name in ("_table_base", "_wolfe_base"):
        monkeypatch.setattr(sfm, name, no_path)
    with pytest.raises(ValueError, match="not normalized"):
        sfm.min_norm_base(OnePlusSize(m))


@pytest.mark.parametrize("path", [nullcontext, wolfe_path], ids=["enumerate", "wolfe"])
def test_monotone_non_submodular_table_fails_the_base_polytope_check(path):
    # the per-size minima 0, 0, 0, 1 have unique nested argmins {}, {0, 1}
    # and E, so the hull accepts the table; only x* = (0, 0, 1) exceeding
    # f({2}) = 0 exposes it
    f = TableOracle([0, 0, 0, 0, 0, 1, 1, 1])
    with pytest.raises(CertificateError, match="base polytope"), path():
        minimize_offset(f, Fraction(0))


@pytest.mark.parametrize("path", [nullcontext, wolfe_path], ids=["enumerate", "wolfe"])
def test_supermodular_oracle_fails_at_every_lambda(path):
    # the base certifies the oracle as a whole, so even lambda = 0, where
    # the empty set is the true minimizer, raises
    f = TableOracle([0, 1, 1, 3])
    for lam in (Fraction(0), Fraction(3, 2), Fraction(5)):
        with pytest.raises(CertificateError), path():
            minimize_offset(f, lam)


@pytest.mark.parametrize("lam", [Fraction(0), Fraction(1, 2), Fraction(3, 4), Fraction(1)])
def test_wolfe_path_agrees_with_enumeration(lam):
    # the graph's incidence matroid is its graphic matroid, but has no
    # decomposed base, so the Wolfe path runs on it
    rng = random.Random(7)
    for _ in range(3):
        f = incidence_matroid(random_connected_graph(5, rng.randint(4, 8), rng))
        exact = minimize_offset(f, lam)
        with wolfe_path() as searches:
            wolfe = minimize_offset(f, lam)
        assert searches
        assert wolfe.min_value == exact.min_value
        assert wolfe.minimal_minimizer == exact.minimal_minimizer
        assert wolfe.maximal_minimizer == exact.maximal_minimizer


def test_auto_switches_to_wolfe_beyond_cap():
    # the large-ground path on a small ground; min_norm_base takes it
    # beyond EXACT_SOLVER_CAP for oracles without a decomposed base
    f = incidence_matroid(path_graph(7))  # 6 edges
    with wolfe_path() as searches:
        res = minimize_offset(f, Fraction(1, 2))
    assert len(searches) == 1
    assert res.min_value == 0
    assert res.minimal_minimizer == 0


def test_exact_finish_completes_a_float_search_stopped_early():
    # the name is historical: there is no float search any more, and the
    # exact search starts at the first greedy vertex alone and runs every
    # major and minor cycle itself
    vector = VectorMatroid([[1, 0, 0, 1, 1, 0, 2], [0, 1, 0, 1, 0, 1, 1], [0, 0, 1, 0, 1, 1, -1]])
    table = TableOracle([min(3, S.bit_count()) + (S & 1) for S in range(1 << 5)])
    for f in (vector, table):
        for lam in (Fraction(0), Fraction(1, 2), Fraction(4, 7), Fraction(1)):
            with wolfe_path() as searches:
                wolfe = minimize_offset(f, lam)
            assert wolfe == minimize_offset(f, lam)
            assert len(searches) == 1


def test_wolfe_base_beyond_the_cap_uses_no_floating_point(monkeypatch):
    # over the rationals the incidence matroid is the graphic matroid, and
    # x* is unique: the Wolfe path must give the decomposed base without
    # numpy's least-squares solver
    def no_lstsq(*args, **kwargs):
        raise AssertionError("floating-point least squares on a base path")

    G = random_connected_graph(11, 22, random.Random(22))
    monkeypatch.setattr(np.linalg, "lstsq", no_lstsq)
    with wolfe_path() as searches:
        assert sfm.min_norm_base(incidence_matroid(G)) == sfm.min_norm_base(GraphicMatroid(G))
    assert len(searches) == 1



@pytest.mark.parametrize("m", [21, 22, 24, 26])
def test_wolfe_base_of_a_dual_graphic_matroid_is_one_minus_the_graphic_base(m):
    # B(M*) = 1 - B(M), and on B(M) |1 - y|^2 = m - 2 r(E) + |y|^2, so the
    # exact Wolfe search on the dual beyond the cap must land on 1 minus
    # the graph's decomposed base
    G = random_connected_graph(m // 2, m, random.Random(m))
    with wolfe_path() as searches:
        x = sfm.min_norm_base(DualMatroid(GraphicMatroid(G)))
    assert len(searches) == 1
    assert x == [1 - v for v in sfm.min_norm_base(GraphicMatroid(G))]

@pytest.mark.parametrize("cls", [GraphicMatroid, CoverageFunction], ids=["graphic", "coverage"])
def test_decomposed_base_takes_no_table_and_no_wolfe_search(cls, monkeypatch):
    f = cls(random_connected_graph(8, 16, random.Random(16)))
    x = sfm._table_base(f)
    monkeypatch.setattr(sfm, "_table_base", None)
    with wolfe_path() as searches:
        assert sfm.min_norm_base(f) == x
    assert searches == []


@pytest.mark.parametrize("cls", [GraphicMatroid, CoverageFunction], ids=["graphic", "coverage"])
def test_a_moved_decomposed_base_fails_the_certificate(cls, monkeypatch):
    # moving 1/(2L) from the first entry to the second keeps x(E) but
    # breaks a tight level set or base polytope membership
    f = cls(random_connected_graph(6, 9, random.Random(9)))
    x = sfm.min_norm_base(f)
    L = lcm(*(xe.denominator for xe in x))
    moved = [x[0] - Fraction(1, 2 * L), x[1] + Fraction(1, 2 * L), *x[2:]]
    monkeypatch.setattr(cls, "_decomposed_base", lambda self: moved)
    with pytest.raises(CertificateError, match="min-norm base"):
        sfm.min_norm_base(f)
