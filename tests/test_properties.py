"""Property tests: the table-based solvers against brute force.

Random graphic (with loops and parallel edges), vector and
Fraction-weighted cut oracles, plus contractions of them, checked against
the enumerations in ``helpers``.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from ordolab import (
    ContractedOracle,
    CutFunction,
    Graph,
    GraphicMatroid,
    VectorMatroid,
    compute_principal_partition,
    constrained_min,
    exact_mlop_dp,
    exact_weighted_mlop_dp,
    min_norm_base,
    minimize_offset,
    mlop_objective,
    weighted_mlop_objective,
)

from helpers import brute_min_offset, brute_mlop, brute_partition, brute_weighted_mlop, loop_dp

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@st.composite
def multigraphs(draw, max_vertices=5, max_edges=7):
    n = draw(st.integers(1, max_vertices))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=max_edges))
    return Graph(n, tuple(edges))


@st.composite
def vector_matroids(draw):
    m = draw(st.integers(0, 6))
    k = draw(st.integers(1, 3))
    entry = st.integers(-2, 2)
    return VectorMatroid([draw(st.lists(entry, min_size=m, max_size=m)) for _ in range(k)])


@st.composite
def weighted_cuts(draw, max_vertices=6):
    n = draw(st.integers(2, max_vertices))
    vertex = st.integers(0, n - 1)
    weight = st.builds(Fraction, st.integers(1, 9), st.integers(1, 6))
    edges = draw(st.lists(st.tuples(vertex, vertex), min_size=1, max_size=8))
    weights = tuple(draw(weight) for _ in edges)
    return CutFunction(Graph(n, tuple(edges), weights))


oracles = st.one_of(
    multigraphs().map(GraphicMatroid),
    vector_matroids(),
    weighted_cuts(),
)

lambdas = st.builds(Fraction, st.integers(-3, 12), st.integers(1, 6))


def assert_matches_brute_scan(res, f, lam):
    best, argmins = brute_min_offset(f, lam)
    inter, union = argmins[0], 0
    for S in argmins:
        inter &= S
        union |= S
    assert res.min_value == best
    assert res.minimal_minimizer == inter
    assert res.maximal_minimizer == union


@PROPERTY
@given(oracles, lambdas)
def test_minimize_offset_matches_brute_scan(f, lam):
    assert_matches_brute_scan(minimize_offset(f, lam), f, lam)


@PROPERTY
@given(oracles, lambdas)
def test_minimize_offset_wolfe_matches_brute_scan(f, lam):
    # the certified min-norm path, empty grounds included
    assert_matches_brute_scan(minimize_offset(f, lam, method="wolfe"), f, lam)


@PROPERTY
@given(oracles)
def test_min_norm_base_is_the_same_exact_base_on_both_paths(f):
    x = min_norm_base(f, method="enumerate")
    assert min_norm_base(f, method="wolfe") == x
    assert sum(x) == f(f.full_mask)
    for S in range(1 << f.m):
        assert sum(x[e] for e in range(f.m) if (S >> e) & 1) <= f(S)


@PROPERTY
@given(st.one_of(multigraphs().map(GraphicMatroid), vector_matroids()))
def test_principal_partition_matches_the_brute_force_hull(f):
    pp = compute_principal_partition(f)
    assert (pp.sets, pp.critical_values) == brute_partition(f)


@PROPERTY
@given(oracles, lambdas, st.data())
def test_constrained_min_matches_brute_scan(f, lam, data):
    labels = data.draw(st.lists(st.sampled_from("ixf"), min_size=f.m, max_size=f.m))
    include = sum(1 << e for e, c in enumerate(labels) if c == "i")
    exclude = sum(1 << e for e, c in enumerate(labels) if c == "x")
    res = constrained_min(f, lam, include=include, exclude=exclude)
    feasible = [S for S in range(1 << f.m) if S & include == include and not S & exclude]
    best = min(f(S) - lam * S.bit_count() for S in feasible)
    argmins = [S for S in feasible if f(S) - lam * S.bit_count() == best]
    inter, union = argmins[0], 0
    for S in argmins:
        inter &= S
        union |= S
    assert (res.min_value, res.minimal_minimizer, res.maximal_minimizer) == (best, inter, union)


@PROPERTY
@given(oracles)
def test_exact_dp_matches_brute_mlop(f):
    value, sigma = exact_mlop_dp(f)
    assert value == brute_mlop(f)[0] == mlop_objective(f, sigma)
    # same optimum and same smallest-last-element tie-break as the loop DP
    assert (value, sigma) == loop_dp(f)


@PROPERTY
@given(oracles, st.data())
def test_exact_weighted_dp_matches_brute(f, data):
    costs = data.draw(st.lists(st.integers(1, 4), min_size=f.m, max_size=f.m))
    value, sigma = exact_weighted_mlop_dp(f, costs)
    assert value == brute_weighted_mlop(f, costs) == weighted_mlop_objective(f, costs, sigma)
    assert (value, sigma) == loop_dp(f, costs)


@PROPERTY
@given(oracles, lambdas, st.data())
def test_contracted_tables_match_the_base(f, lam, data):
    labels = data.draw(st.lists(st.sampled_from("ufk"), min_size=f.m, max_size=f.m))
    fixed = sum(1 << e for e, c in enumerate(labels) if c == "u")
    kept = [e for e, c in enumerate(labels) if c == "k"]
    g = ContractedOracle(f, fixed, kept)
    assert list(g.dense_values()) == [g(S) * g.dense_denominator for S in range(1 << g.m)]
    assert exact_mlop_dp(g)[0] == brute_mlop(g)[0]
    assert_matches_brute_scan(minimize_offset(g, lam), g, lam)


@PROPERTY
@given(multigraphs(max_vertices=6, max_edges=10))
def test_batched_graphic_table_matches_evaluate(G):
    f = GraphicMatroid(G)
    assert list(f.dense_values()) == [f.evaluate(S) for S in range(1 << f.m)]
    assert f.dense_denominator == 1


def test_large_coprime_denominators_take_the_object_path():
    primes = (1000003, 1000033, 1000037, 1000039)
    G = Graph(4, ((0, 1), (1, 2), (2, 3), (3, 0), (0, 2)),
              tuple(Fraction(1, p) for p in primes) + (Fraction(5, 7),))
    f = CutFunction(G)
    assert f.dense_values().dtype == object
    assert f.dense_denominator == 7 * primes[0] * primes[1] * primes[2] * primes[3]
    for lam in (Fraction(0), Fraction(1, 3), Fraction(1, 1000039)):
        assert_matches_brute_scan(minimize_offset(f, lam), f, lam)
    res = constrained_min(f, Fraction(0), include=0b0001, exclude=0b0100)
    assert res.min_value == min(f(S) for S in range(16) if S & 0b0101 == 0b0001)
    value, sigma = exact_mlop_dp(f)
    assert value == brute_mlop(f)[0] == mlop_objective(f, sigma)
    costs = [3, 1, 2, 5]
    assert exact_weighted_mlop_dp(f, costs)[0] == brute_weighted_mlop(f, costs)
