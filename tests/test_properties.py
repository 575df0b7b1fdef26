"""Property tests: the table-based solvers, the constructed MLVC LP
certificate, the exact linear solver and the exact max-flow against brute
force.

Random graphic (with loops and parallel edges), vector and
Fraction-weighted cut oracles, and square linear systems, checked against the enumerations and the reference solver
in ``helpers``; the MLVC relaxation's structured check of its constructed
pair against the plain Fraction check of the pair expanded into the model,
its value against the coverage function's principal-partition bound and
the brute-force MLVC optimum, and its orientation against every vertex
set; coverage bases on the Wolfe path against the table; the batched vector-matroid and cut
tables against single evaluations; the keyed subset DP against its former
layer loop on raw integer tables; the s-t cuts of the integer max-flow against
every cut of weighted multigraphs; graphic base polytope membership by
load-bounded orientations against every vertex set and against the
replaced min-cut sequence; and the latency-cover sampler against the
reference per-sample loop, draw for draw, with its pair set, inversion
counts, best-of-N and balance reports.
"""
import random
from fractions import Fraction
from functools import reduce
from math import lcm
from operator import and_
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ordolab import (
    CertificateError,
    CoverageFunction,
    CutFunction,
    Graph,
    GraphicMatroid,
    Hypergraph,
    SchedulingPoset,
    VectorMatroid,
    balance_check,
    best_of_n,
    compute_principal_partition,
    exact_mlop_dp,
    exact_weighted_mlop_dp,
    min_norm_base,
    minimize_offset,
    mlop_objective,
    pp_lower_bound,
    st_min_cut,
    weighted_mlop_objective,
)

from ordolab import flow, matroids, mlvc, sfm, solve
from ordolab.core import SetFunctionOracle, max_abs, solve_exact
from ordolab.instances import random_connected_graph
from ordolab.mlvc import (
    _count_inversions,
    _sample,
    _samples,
    build_lp,
    mlvc_brute_optimum,
    solve_lp,
)
from ordolab.simplex import certify_relaxation

from helpers import (
    TableOracle,
    _solve_square,
    balance_check_by_loop,
    best_of_n_by_loop,
    brute_min_offset,
    brute_mlop,
    brute_partition,
    brute_weighted_mlop,
    count_inversions_by_pairs,
    counted_finishes,
    cut_weight,
    expanded_relaxation_pair,
    graphic_membership_by_min_cuts,
    in_coverage_base_polytope,
    in_graphic_base_polytope,
    incomparable_pairs_by_loop,
    is_optimal_by_fractions,
    layer_loop_dp_tables,
    level_sets_tight_by_scan,
    loop_dp,
    reference_sample,
    wolfe_path,
)

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


fractions = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


@st.composite
def square_systems(draw):
    """A square Fraction matrix of size 1-5 and a vector of that size."""
    n = draw(st.integers(1, 5))
    return [[draw(fractions) for _ in range(n)] for _ in range(n)], [draw(fractions) for _ in range(n)]


@st.composite
def singular_systems(draw):
    """(M, j, z0) with row j of M replaced by a combination of the other
    rows (a duplicate when one weight is 1 and the others 0; the zero row
    when n = 1), so M is singular."""
    M, z0 = draw(square_systems())
    j = draw(st.integers(0, len(M) - 1))
    weights = [draw(fractions) for _ in M]
    M[j] = [sum(w * M[i][c] for i, w in enumerate(weights) if i != j) for c in range(len(M))]
    return M, j, z0


def times(M, z):
    return [sum(a * b for a, b in zip(row, z)) for row in M]


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
    with wolfe_path():
        res = minimize_offset(f, lam)
    assert_matches_brute_scan(res, f, lam)


@PROPERTY
@given(oracles)
def test_min_norm_base_is_the_same_exact_base_on_both_paths(f):
    x = min_norm_base(f)
    with wolfe_path():
        assert min_norm_base(f) == x
    assert sum(x) == f(f.full_mask)
    for S in range(1 << f.m):
        assert sum(x[e] for e in range(f.m) if (S >> e) & 1) <= f(S)


@PROPERTY
@given(st.one_of(multigraphs().map(GraphicMatroid), vector_matroids()))
def test_principal_partition_matches_the_brute_force_hull(f):
    pp = compute_principal_partition(f)
    assert (pp.sets, pp.critical_values) == brute_partition(f)


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


@st.composite
def raw_tables(draw):
    """An integer table on 0-10 elements with f(empty) = 0, its entries in
    [-2, 2], [-50, 50] or up to 10^18 in magnitude (exact Python ints in the
    DP), and unit or random 1-6 costs."""
    m = draw(st.integers(0, 10))
    bound = draw(st.sampled_from([2, 50, 10**18]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    values = [0] + [rng.randint(-bound, bound) for _ in range((1 << m) - 1)]
    costs = (1,) * m if draw(st.booleans()) else tuple(rng.randint(1, 6) for _ in range(m))
    return TableOracle(values), costs


def assert_keys_decode_to(key, w, best, choice):
    assert [int(k) >> w for k in key] == [int(b) for b in best]
    assert [int(k) & ((1 << w) - 1) for k in key] == [int(c) for c in choice]


@pytest.mark.parametrize("block", [solve.DP_BLOCK_ENTRIES, 16], ids=["one-block", "many-blocks"])
@PROPERTY
@given(raw_tables())
def test_keyed_dp_matches_the_layer_loop(block, case):
    f, costs = case
    table = f.dense_values()
    with mock.patch.object(solve, "DP_BLOCK_ENTRIES", block):
        key, w = solve._dp_tables(table, f.m, costs)
        value, sigma = exact_weighted_mlop_dp(f, costs)
    assert_keys_decode_to(key, w, *layer_loop_dp_tables(table, f.m, costs))
    assert (value, sigma) == loop_dp(f, costs)
    if f.m >= 4 and max_abs(table) >= 2**57:  # (2 s + 1) * 2^w > 2^63
        assert key.dtype == object


@pytest.mark.parametrize("n, m", [(10, 16), (11, 18)])
def test_keyed_dp_matches_the_layer_loop_at_scale(n, m):
    rng = np.random.default_rng(m)
    graphic = GraphicMatroid(random_connected_graph(n, m, random.Random(m))).dense_values()
    noise = rng.integers(-50, 51, 1 << m)
    noise[0] = 0
    for table, costs in ((graphic, (1,) * m), (noise, tuple(int(c) for c in rng.integers(1, 7, m)))):
        key, w = solve._dp_tables(table, m, costs)
        assert_keys_decode_to(key, w, *layer_loop_dp_tables(table, m, costs))


@PROPERTY
@given(multigraphs(max_vertices=6, max_edges=10))
def test_batched_graphic_table_matches_evaluate(G):
    f = GraphicMatroid(G)
    assert list(f.dense_values()) == [f.evaluate(S) for S in range(1 << f.m)]
    assert f.dense_denominator == 1


@PROPERTY
@given(multigraphs(max_vertices=6, max_edges=9), st.data())
def test_graphic_base_membership_matches_brute_force(G, data):
    f = GraphicMatroid(G)
    x = min_norm_base(f)
    assert f._base_membership(x) and in_graphic_base_polytope(G, x)
    assert sfm._certified(f, x)
    assume(f.m >= 2)
    i, j = data.draw(st.lists(st.integers(0, f.m - 1), min_size=2, max_size=2, unique=True))
    L = lcm(*(xe.denominator for xe in x))
    amount = data.draw(st.sampled_from((Fraction(1, 2 * L), Fraction(-1, 2 * L))) | fractions)

    def moved(delta):
        y = list(x)
        y[i] -= delta
        y[j] += delta
        return y

    # any point other than x* fails the certificate; when x*_i > x*_j the
    # tight level set {x* <= x*_j} holds j and not i, so the move leaves
    # the polytope
    y = moved(Fraction(1, 2 * L))
    assert not sfm._certified(f, y)
    if x[i] > x[j]:
        assert not f._base_membership(y)
    for y in (y, moved(amount)):
        assert f._base_membership(y) == in_graphic_base_polytope(G, y)


@PROPERTY
@given(multigraphs(max_vertices=7, max_edges=10), st.data())
def test_orientation_membership_matches_the_min_cut_reference(G, data):
    # loops, parallel edges, isolated vertices and several components all
    # come from drawing the edges freely
    f = GraphicMatroid(G)
    x = min_norm_base(f)
    points = [x]
    if f.m >= 2:
        L = lcm(*(xe.denominator for xe in x))
        for _ in range(3):
            i, j = data.draw(st.lists(st.integers(0, f.m - 1), min_size=2, max_size=2, unique=True))
            amount = data.draw(st.sampled_from((Fraction(1, 2 * L), Fraction(-1, 2 * L))) | fractions)
            y = list(x)
            y[i] -= amount
            y[j] += amount
            points.append(y)
    for y in points:
        inside = in_graphic_base_polytope(G, y)
        assert f._base_membership(y) == graphic_membership_by_min_cuts(G, y) == inside
        assert sfm._certified(f, y) == (level_sets_tight_by_scan(f, y) and inside)


@st.composite
def integer_weighted(draw, max_vertices=6, max_edges=10):
    """A multigraph with an integer weight 0-6 on each edge."""
    G = draw(multigraphs(max_vertices, max_edges))
    return G, draw(st.lists(st.integers(0, 6), min_size=G.m, max_size=G.m))


@PROPERTY
@given(integer_weighted(), st.integers(1, 4))
# the only overfull sets hold the first and the last vertex
@example((Graph(2, ((0, 1),)), [2]), 1)
@example((Graph(3, ((0, 2), (2, 0), (1, 2))), [1, 1, 0]), 1)
def test_forest_violation_matches_every_vertex_set(graph, unit):
    G, weights = graph

    def violates(U):
        inside = sum(w for (u, v), w in zip(G.edges, weights) if (U >> u) & 1 and (U >> v) & 1)
        return inside > unit * (U.bit_count() - 1)

    U = flow.forest_violation(G.n, G.edges, weights, unit)
    if U is None:
        assert not any(violates(S) for S in range(1, 1 << G.n))
    else:
        assert 0 < U < 1 << G.n and violates(U)


@PROPERTY
@given(integer_weighted(), st.data())
def test_bounded_orientation_matches_every_vertex_set(graph, data):
    # loops are dropped, so an orientation exists exactly when no vertex set
    # holds more non-loop weight than its capacity
    G, weights = graph
    cap = data.draw(st.lists(st.integers(-1, 8), min_size=G.n, max_size=G.n))

    def inside(U):
        return sum(w for (u, v), w in zip(G.edges, weights) if u != v and (U >> u) & 1 and (U >> v) & 1)

    exists = all(inside(U) <= sum(cap[v] for v in range(G.n) if (U >> v) & 1) for U in range(1, 1 << G.n))
    if not exists:
        with pytest.raises(CertificateError):
            flow.bounded_orientation(G.n, G.edges, weights, cap)
        return
    pairs, share = flow.bounded_orientation(G.n, G.edges, weights, cap)
    load, merged = [0] * G.n, {}
    for (u, v), w in zip(G.edges, weights):
        if u != v:
            key = (min(u, v), max(u, v))
            merged[key] = merged.get(key, 0) + w
    assert pairs == list(merged) and min(share, default=0) >= 0
    for i, (u, v) in enumerate(pairs):
        assert share[2 * i] + share[2 * i + 1] == merged[u, v]
        load[u] += share[2 * i]
        load[v] += share[2 * i + 1]
    assert all(a <= c for a, c in zip(load, cap))


@st.composite
def table_matroids(draw):
    """Rational vector matroids, m = 0-8, k = 1-5, entries small or up to
    10^12 (beyond int64 once multiplied out: the object path)."""
    m = draw(st.integers(0, 8))
    k = draw(st.integers(1, 5))
    bound = draw(st.sampled_from((3, 10**12)))
    entry = st.integers(-bound, bound)
    return VectorMatroid([draw(st.lists(entry, min_size=m, max_size=m)) for _ in range(k)])


@pytest.mark.parametrize("block", [matroids.ANNIHILATOR_BLOCK, 16], ids=["one-block", "many-blocks"])
@PROPERTY
@given(table_matroids())
def test_batched_vector_table_matches_evaluate(block, f):
    with mock.patch.object(matroids, "ANNIHILATOR_BLOCK", block):
        table = f.dense_values()
    assert list(table) == [f.evaluate(S) for S in range(1 << f.m)]
    assert f.dense_denominator == 1


@st.composite
def hypergraphs(draw):
    """Hypergraphs on 0-9 vertices: size-1 edges (a graph's loops), repeated
    and nested hyperedges, isolated vertices."""
    n = draw(st.integers(0, 9))
    if not n:
        return Hypergraph(0, ())
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.frozensets(vertex, min_size=1, max_size=4), max_size=10))
    for i in draw(st.lists(st.integers(0, len(edges) - 1), max_size=3) if edges else st.just([])):
        edges.append(edges[i] | draw(st.frozensets(vertex, max_size=2)))  # a repeat or a superset
    return Hypergraph(n, tuple(draw(st.permutations(edges))))


@PROPERTY
@given(hypergraphs(), st.integers(1, 30), st.integers(0, 2**32))
def test_inversion_counts_match_the_pair_loop(H, trials, seed):
    pairs = SchedulingPoset(H).incomparable_pairs()
    hits = _count_inversions(H, pairs, trials, seed)
    assert dict(zip(pairs, hits.tolist())) == count_inversions_by_pairs(H, trials, seed)


@PROPERTY
@given(hypergraphs(), st.integers(0, 6), st.integers(0, 2**32))
def test_samples_match_the_reference_loop_draw_for_draw(H, count, seed):
    poset = SchedulingPoset(H)
    rng, reference = random.Random(seed), random.Random(seed)
    assert list(_samples(poset, rng, count)) == [reference_sample(poset, reference) for _ in range(count)]
    assert rng.getstate() == reference.getstate()


@PROPERTY
@given(st.integers(1, 70), st.integers(0, 40), st.integers(0, 2**32))
def test_inline_draws_match_random_shuffle(n, loops, seed):
    # n vertices and `loops` loops at vertex 0: the sample is the shuffled
    # vertex list with the loops, shuffled in turn, right after vertex 0
    rng = random.Random(seed)
    order, ties = list(range(n)), list(range(n, n + loops))
    rng.shuffle(order)
    rng.shuffle(ties)
    at = order.index(0) + 1
    poset, sampled = SchedulingPoset(Hypergraph(n, (frozenset({0}),) * loops)), random.Random(seed)
    assert _sample(poset, sampled) == order[:at] + ties + order[at:]
    assert sampled.getstate() == rng.getstate()


@PROPERTY
@given(hypergraphs())
def test_incomparable_pairs_match_the_pair_loop(H):
    poset = SchedulingPoset(H)
    assert poset.incomparable_pairs() == incomparable_pairs_by_loop(poset)


@pytest.mark.parametrize("block", [mlvc.SAMPLE_BLOCK_ENTRIES, 1], ids=["one-block", "block-per-sample"])
@PROPERTY
@example(Graph(0, ()), 3, 0)
@given(multigraphs(max_vertices=9, max_edges=14), st.integers(1, 40), st.integers(0, 2**32))
def test_best_of_n_matches_the_reference(block, G, samples, seed):
    with mock.patch.object(mlvc, "SAMPLE_BLOCK_ENTRIES", block):
        assert best_of_n(G, samples, seed) == best_of_n_by_loop(G, samples, seed)


@pytest.mark.parametrize("jobs", [1, 2])
@PROPERTY
@given(hypergraphs(), st.integers(1, 30), st.integers(0, 2**32))
def test_balance_check_matches_the_reference(jobs, H, trials, seed):
    report = balance_check(H, trials, seed, jobs)
    expected = balance_check_by_loop(H, trials, seed, jobs)
    assert report == expected
    assert list(report.probabilities) == list(expected.probabilities)


def test_large_coprime_denominators_take_the_object_path():
    primes = (1000003, 1000033, 1000037, 1000039)
    G = Graph(4, ((0, 1), (1, 2), (2, 3), (3, 0), (0, 2)),
              tuple(Fraction(1, p) for p in primes) + (Fraction(5, 7),))
    f = CutFunction(G)
    assert f.dense_values().dtype == object
    assert f.dense_denominator == 7 * primes[0] * primes[1] * primes[2] * primes[3]
    for lam in (Fraction(0), Fraction(1, 3), Fraction(1, 1000039)):
        assert_matches_brute_scan(minimize_offset(f, lam), f, lam)
    value, sigma = exact_mlop_dp(f)
    assert value == brute_mlop(f)[0] == mlop_objective(f, sigma)
    costs = [3, 1, 2, 5]
    assert exact_weighted_mlop_dp(f, costs)[0] == brute_weighted_mlop(f, costs)


@PROPERTY
@given(multigraphs(max_vertices=5, max_edges=6), st.data())
def test_structured_check_matches_the_fraction_check(G, data):
    # the constructed pair of the MLVC relaxation with one entry of X (past
    # its fixed X[v][0] = 0), theta, rho or y moved, against the plain check
    # of the pair expanded into the materialized model
    X, theta, rho, y = mlvc._sidney_pair(G)
    shares = [list(parts) for parts in theta]
    entries = [(row, t) for row in X for t in range(1, G.n + 1)]
    entries += [(row, t) for row in (*rho, y) for t in range(G.n)]
    entries += [(parts, i) for parts in shares for i in (0, 1)]
    row, i = data.draw(st.sampled_from(entries))
    row[i] += data.draw(st.sampled_from((0, Fraction(1, 3), -1)))
    theta = [tuple(parts) for parts in shares]
    try:
        certify_relaxation(G, X, theta, rho, y)
        certified = True
    except CertificateError:
        certified = False
    model = build_lp(G)
    x, duals = expanded_relaxation_pair(G, X, theta, rho, y)
    assert certified == is_optimal_by_fractions(model.objective, model.rows, x, duals)


@PROPERTY
@given(multigraphs(max_vertices=5, max_edges=7))
def test_lp_counts_match_the_materialized_model(G):
    # loops and parallel edges each add their own columns and cover rows
    model = build_lp(G)
    assert model.num_vars == len(model.var_names) == len(model.objective)
    assert model.num_constraints == len(model.rows) == len(model.row_names)


@PROPERTY
@given(multigraphs(max_vertices=6, max_edges=9), st.data())
def test_edge_shares_orient_exactly_the_coverage_base(G, data):
    # every point of B(cov) is oriented with load y_v at each vertex (a
    # loop's halves both on its vertex); a point outside raises
    f = CoverageFunction(G)
    x = min_norm_base(f)
    points = [x]
    if G.n >= 2:
        i, j = data.draw(st.lists(st.integers(0, G.n - 1), min_size=2, max_size=2, unique=True))
        L = lcm(*(xe.denominator for xe in x))
        for amount in (Fraction(1, 2 * L), data.draw(st.sampled_from((Fraction(-1, 2 * L), 0)) | fractions)):
            y = list(x)
            y[i] -= amount
            y[j] += amount
            points.append(y)
        # the tight level set {x <= x_j} holds j and not i
        if x[i] > x[j]:
            assert not in_coverage_base_polytope(G, points[1])
    for y in points:
        inside = in_coverage_base_polytope(G, y)
        assert f._base_membership(y) == inside
        if inside:
            load = [Fraction(0)] * G.n
            for (a, b), (on_a, on_b) in zip(G.edges, f._edge_shares(y)):
                assert on_a >= 0 and on_b >= 0 and on_a + on_b == 1
                load[a] += on_a
                load[b] += on_b
            assert load == y
        else:
            with pytest.raises(CertificateError):
                f._edge_shares(y)


@PROPERTY
@example(Graph(1, ()))
@example(Graph(3, ((0, 0), (0, 0), (1, 2))))
@given(multigraphs(max_vertices=7, max_edges=10))
def test_coverage_wolfe_base_is_rounded_and_orientation_certified(G):
    # loops, parallel edges and isolated vertices included: the rounded
    # point passes the orientation certificate, with no exact finish run,
    # and a point moved by 1/(2L) fails it
    f = CoverageFunction(G)
    x = min_norm_base(f)
    with wolfe_path(), counted_finishes() as finishes:
        assert min_norm_base(f) == x
    assert finishes == []
    if G.n >= 2:
        L = lcm(*(xe.denominator for xe in x))
        y = [x[0] - Fraction(1, 2 * L), x[1] + Fraction(1, 2 * L), *x[2:]]
        assert not sfm._certified(f, y)


@PROPERTY
@example(Graph(0, ()))
@example(Graph(3, ()))
@example(Graph(2, ((0, 0), (0, 1))))
@example(Graph(3, ((0, 1), (1, 0), (0, 1))))
@example(Graph(4, ((1, 2),)))
@given(multigraphs(max_vertices=6, max_edges=8))
def test_lp_value_is_a_certified_lower_bound(G):
    # loops, parallel edges, isolated vertices and the empty graph included:
    # a loop's two cover rows are identical, and each takes half of the
    # loop's dual.  The constructed pair passes the plain Fraction check,
    # its value is cov's principal-partition bound, and the MLVC optimum
    # lies within 4/3 of it (the relaxation's integrality gap)
    model = build_lp(G)
    x, y = expanded_relaxation_pair(G, *mlvc._sidney_pair(G))
    assert is_optimal_by_fractions(model.objective, model.rows, x, y)
    value = solve_lp(model)
    f = CoverageFunction(G)
    assert value == pp_lower_bound(f, compute_principal_partition(f))
    assert value <= mlvc_brute_optimum(G) <= Fraction(4, 3) * value


@PROPERTY
@given(square_systems())
def test_solve_exact_matches_the_square_reference(system):
    M, rhs = system
    reference = _solve_square(M, rhs)
    assume(reference is not None)
    assert solve_exact([dict(enumerate(row)) for row in M], rhs) == reference


@PROPERTY
@given(singular_systems())
def test_solve_exact_solves_a_singular_consistent_system(system):
    M, _, z0 = system
    rhs = times(M, z0)
    z = solve_exact([dict(enumerate(row)) for row in M], rhs)
    assert z is not None and times(M, z) == rhs


@PROPERTY
@given(singular_systems(), fractions.filter(bool))
def test_solve_exact_rejects_an_inconsistent_system(system, delta):
    M, j, z0 = system
    rhs = times(M, z0)
    rhs[j] += delta
    assert solve_exact([dict(enumerate(row)) for row in M], rhs) is None


@st.composite
def weighted_multigraphs(draw, max_vertices=8, max_edges=12):
    """Fraction-weighted graphs on 2-8 vertices with self-loops, parallel
    edges (some drawn twice on purpose) and, with few edges, several
    components."""
    n = draw(st.integers(2, max_vertices))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=max_edges))
    if edges:
        edges += draw(st.lists(st.sampled_from(edges), max_size=3))
    weight = st.builds(Fraction, st.integers(1, 9), st.integers(1, 6))
    weights = draw(st.lists(weight, min_size=len(edges), max_size=len(edges)))
    return Graph(n, tuple(edges), tuple(weights))


@st.composite
def terminals(draw, n):
    s = draw(st.integers(0, n - 1))
    return s, draw(st.integers(0, n - 1).filter(lambda t: t != s))


@st.composite
def cut_problems(draw):
    """(G, s, t): a weighted multigraph and two distinct terminals."""
    G = draw(weighted_multigraphs())
    return (G, *draw(terminals(G.n)))


BIG = 10**12


@PROPERTY
@given(cut_problems())
# weights 1 and 10^12 side by side: light edges decide the cut between heavy
# paths, light and heavy parallel edges beside a heavy loop, and a light
# fractional edge (D = 3) between heavy ones
@example((Graph(4, ((0, 1), (1, 3), (0, 2), (2, 3), (1, 2)), (BIG, BIG, BIG, 1, 1)), 0, 3))
@example((Graph(4, ((0, 1), (1, 2), (2, 3), (0, 2), (1, 3)), (BIG, 1, BIG, 1, BIG)), 0, 3))
@example((Graph(3, ((0, 1), (1, 2), (0, 1), (0, 0)), (BIG, BIG, 1, BIG)), 2, 0))
@example((Graph(5, ((0, 1), (1, 2), (3, 4), (2, 3)), (BIG, 1, BIG, Fraction(1, 3))), 4, 0))
def test_flow_cut_is_the_smallest_minimum_cut(problem):
    G, s, t = problem
    f = CutFunction(G)
    side, value = st_min_cut(f, s, t)
    cuts = [S for S in range(1 << G.n) if (S >> s) & 1 and not (S >> t) & 1]
    best = min(cut_weight(G, S) for S in cuts)
    smallest = reduce(and_, [S for S in cuts if cut_weight(G, S) == best])
    assert value == best == cut_weight(G, smallest)
    assert side == smallest
    assert f._dense is None  # the cut came from the flow, not from a table


@PROPERTY
@given(weighted_multigraphs(), st.data())
def test_a_shifted_flow_fails_the_certificate(G, data):
    f = CutFunction(G)
    assume(f.network.edges)
    s, t = data.draw(terminals(G.n))
    i = data.draw(st.integers(0, len(f.network.edges) - 1))
    max_flow = flow._max_flow

    def shifted(net, s, t):
        x = max_flow(net, s, t)
        x[i] += 1
        return x

    with mock.patch.object(flow, "_max_flow", shifted), pytest.raises(CertificateError):
        st_min_cut(f, s, t)


@PROPERTY
@given(weighted_multigraphs())
def test_batched_cut_table_matches_evaluate(G):
    f = CutFunction(G)
    table = f.dense_values()
    # the per-subset table of the base class: its D is the least common
    # denominator of the values
    D, reference = SetFunctionOracle._scaled_table(f)
    assert f.dense_denominator == D
    assert list(table) == list(reference) == [f.evaluate(S) * D for S in range(1 << f.m)]


@PROPERTY
@given(multigraphs(max_vertices=7, max_edges=10))
def test_batched_coverage_table_matches_evaluate(G):
    f = CoverageFunction(G)
    assert list(f.dense_values()) == [f.evaluate(S) for S in range(1 << f.m)]
    assert f.dense_denominator == 1
