import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from ordolab import (
    CertificateError,
    Graph,
    Hypergraph,
    SchedulingPoset,
    balance_check,
    best_of_n,
    build_lp,
    clique_gap,
    emit_lp,
    exact_pair_probability,
    mlvc_brute_optimum,
    parse_hypergraph,
    regular_lp_value,
    solve_lp,
)
from ordolab import cli, matroids, mlvc
from ordolab.core import ParseError
from ordolab.mlvc import _samples, largest_float_below
from ordolab.simplex import certify_relaxation

from helpers import certify_relaxation_by_fractions, is_linear_extension, random_regular_graph, sample_extension

from ordolab.instances import complete_bipartite, complete_graph, cycle_graph, path_graph

K2 = Graph(2, ((0, 1),))
K3 = complete_graph(3)
C4 = cycle_graph(4)
PRISM = Graph(6, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)))


def test_build_poset_k2():
    poset = SchedulingPoset(Hypergraph.from_graph(K2))
    assert poset.n_jobs == 3
    assert poset.precedes(0, 2) and poset.precedes(1, 2)


def test_build_poset_k3():
    poset = SchedulingPoset(Hypergraph.from_graph(K3))
    assert poset.n_jobs == 6
    assert sum(
        poset.precedes(v, e) for v in range(3) for e in range(3, 6)
    ) == 6  # 3 edges x 2 endpoints


def test_build_poset_triple_hyperedge():
    H = Hypergraph(3, (frozenset({0, 1, 2}),))
    assert H.max_edge_size == 3
    poset = SchedulingPoset(H)
    assert poset.n_jobs == 4


def test_empty_hyperedge_rejected():
    with pytest.raises(ValueError):
        Hypergraph(2, (frozenset(),))


def test_sample_extensions_are_linear_extensions():
    rng = random.Random(31)
    H = Hypergraph.from_graph(complete_graph(4))
    poset = SchedulingPoset(H)
    for _ in range(200):
        schedule = next(_samples(poset, rng, 1))
        assert is_linear_extension(poset, schedule)


def test_sample_k2_edge_always_last():
    H = Hypergraph.from_graph(K2)
    for seed in range(20):
        assert sample_extension(H, seed)[-1] == 2


def test_sample_vertex_marginal_uniform():
    rng = random.Random(32)
    H = Hypergraph.from_graph(K3)
    poset = SchedulingPoset(H)
    first_counts = [0, 0, 0]
    trials = 30_000
    for _ in range(trials):
        schedule = next(_samples(poset, rng, 1))
        first_vertex = next(j for j in schedule if j < 3)
        first_counts[first_vertex] += 1
    for c in first_counts:
        assert abs(c / trials - 1 / 3) < 0.02


def test_exact_pair_probability_k3_edge_vs_vertex():
    poset = SchedulingPoset(Hypergraph.from_graph(K3))
    # edge {0,1} is job 3; vertex 2 incomparable with it
    assert exact_pair_probability(poset, 3, 2) == Fraction(1, 3)
    assert exact_pair_probability(poset, 2, 3) == Fraction(2, 3)


def test_exact_pair_probability_disjoint_edges():
    H = Hypergraph(4, (frozenset({0, 1}), frozenset({2, 3})))
    poset = SchedulingPoset(H)
    assert exact_pair_probability(poset, 4, 5) == Fraction(1, 2)


def test_exact_pair_probability_sharing_triples():
    H = Hypergraph(5, (frozenset({0, 1, 2}), frozenset({2, 3, 4})))
    poset = SchedulingPoset(H)
    assert exact_pair_probability(poset, 5, 6) == Fraction(1, 2)


def test_exact_pair_probability_comparable_is_none():
    poset = SchedulingPoset(Hypergraph.from_graph(K2))
    assert exact_pair_probability(poset, 0, 2) is None


def test_nested_hyperedges_treated_as_comparable():
    H = Hypergraph(3, (frozenset({0, 1}), frozenset({0, 1, 2})))
    first, second = SchedulingPoset(H).incomparable_pairs()
    assert (3, 4) not in zip(first.tolist(), second.tolist())


def test_balance_check_k4():
    H = Hypergraph.from_graph(complete_graph(4))
    report = balance_check(H, 20_000, seed=33)
    assert report.floor == Fraction(1, 3)
    assert not report.flagged
    poset = SchedulingPoset(H)
    for (a, b), emp in report.probabilities.items():
        exact = float(exact_pair_probability(poset, a, b))
        sigma = (exact * (1 - exact) / report.trials) ** 0.5
        assert abs(emp - exact) <= 5 * sigma


def test_balance_check_without_edges_flags_no_pair():
    # three lone vertices: every order is equally likely, so each pair is
    # a vertex pair with probability 1/2 each way, and the floor is 1/2
    report = balance_check(Hypergraph(3, ()), 2000, seed=0)
    assert report.floor == Fraction(1, 2)
    assert len(report.probabilities) == 3
    assert not report.flagged


@pytest.mark.parametrize("k", range(1, 7))
def test_float_threshold_matches_the_exact_floor(k):
    floor = Fraction(1, 1 + k)
    below = largest_float_below(floor)
    assert below < floor
    nearest = float(floor)
    for x in (nearest, math.nextafter(nearest, 0), math.nextafter(nearest, 1),
              below, math.nextafter(below, 0), math.nextafter(below, 1)):
        assert (x <= below) == (x < floor)


@pytest.mark.parametrize(("trials", "count", "flagged"), [(199520, 99090, ((0, 1),)), (72, 24, ())])
def test_flag_rule_at_its_threshold(monkeypatch, trials, count, flagged):
    # two lone vertices, floor 1/2: with count / trials the estimate of
    # P(0 before 1), p + 3 sigma lies 9.3e-10 below the largest float below
    # 1/2, or is 1/2 exactly; numpy's prefilter must admit both for the
    # exact rule to decide
    monkeypatch.setattr(mlvc, "_count_inversions", lambda *args: np.array([count]))
    assert balance_check(Hypergraph(2, ()), trials).flagged == flagged


def test_balance_check_parallel_jobs_deterministic():
    H = Hypergraph.from_graph(K3)
    a = balance_check(H, 2000, seed=1, jobs=2)
    b = balance_check(H, 2000, seed=1, jobs=2)
    assert a.probabilities == b.probabilities


def test_balance_check_memory_stays_per_trial():
    # 4-regular, n = 40, 6980 pairs: about 1.5 MiB traced at the peak with
    # the inversions counted in blocks of 72 trials, each compared over its
    # 120 x 120 job pairs in 1 MiB, about 47 MiB with a 400 x 6980 matrix
    # of every trial's slots at once
    H = Hypergraph.from_graph(random_regular_graph(40, 4, random.Random(40)))
    tracemalloc.start()
    try:
        report = balance_check(H, 400, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert len(report.probabilities) == 6980


def test_best_of_n_k3_always_8():
    pi, value = best_of_n(K3, 5, seed=0)
    assert value == 8


def test_best_of_n_c4():
    _, value = best_of_n(cycle_graph(4), 200, seed=0)
    assert value == 13 == mlvc_brute_optimum(cycle_graph(4))


def test_best_of_n_p3():
    _, value = best_of_n(path_graph(3), 50, seed=0)
    assert value == 5 == mlvc_brute_optimum(path_graph(3))


def test_best_of_n_deterministic():
    a = best_of_n(cycle_graph(5), 100, seed=7)
    b = best_of_n(cycle_graph(5), 100, seed=7)
    assert a == b


def test_lp_constraint_counts():
    model = build_lp(cycle_graph(4))
    n, m = 4, 4
    assert model.num_vars == m * n + n * n
    assert model.num_constraints == n + n * (2 * m)


@pytest.mark.parametrize(
    "graph,d,n",
    [
        (K2, 1, 2),
        (complete_graph(3), 2, 3),
        (cycle_graph(4), 2, 4),
        (complete_graph(4), 3, 4),
        (cycle_graph(5), 2, 5),
        (cycle_graph(6), 2, 6),
        (complete_bipartite(3, 3), 3, 6),
        (PRISM, 3, 6),
        (cycle_graph(7), 2, 7),
        (cycle_graph(8), 2, 8),
    ],
)
def test_lp_regular_closed_form(graph, d, n):
    assert solve_lp(build_lp(graph)) == regular_lp_value(d, n) == Fraction(d * n * (n + 1), 4)


def test_lp_weak_duality():
    for G in (path_graph(3), path_graph(4), cycle_graph(4), complete_graph(4)):
        assert solve_lp(build_lp(G)) <= mlvc_brute_optimum(G)


def test_lp_orients_the_base_once_beyond_its_decomposition(monkeypatch):
    # K4's base takes one orientation to build and one to certify; the
    # dual reuses the certificate's
    calls = []
    orient = matroids.bounded_orientation
    monkeypatch.setattr(matroids, "bounded_orientation", lambda *args: calls.append(args) or orient(*args))
    assert solve_lp(build_lp(complete_graph(4))) == regular_lp_value(3, 4)
    assert len(calls) == 2


def test_lp_var_cap():
    model = build_lp(complete_graph(8))
    assert model.num_vars == 288
    assert solve_lp(model) == 126 == regular_lp_value(7, 8)


def test_emit_lp_sections():
    text = emit_lp(build_lp(K2))
    assert "Minimize" in text and "Subject To" in text
    assert "Bounds" in text and text.rstrip().endswith("End")
    assert "u_e0_t1" in text and "pack_t1" in text


def test_clique_gap_values():
    opt3, _, _ = clique_gap(3)
    assert opt3 == 8
    opt8, _, _ = clique_gap(8)
    assert opt8 == 168
    for n in (2, 5, 16, 32, 64):
        opt, frac, ratio = clique_gap(n)
        assert frac == Fraction(n * (n - 1) * (n + 1), 4)
        assert ratio == Fraction(4, 3)
        assert Fraction(13, 10) < ratio <= Fraction(4, 3)


def test_clique_gap_fractional_matches_lp_small():
    # the uniform feasible value coincides with the true LP optimum
    for n in (3, 4):
        _, frac, _ = clique_gap(n)
        assert solve_lp(build_lp(complete_graph(n))) == frac


def c4_pair():
    # x* = 1 on C4: one Sidney block, X[v][t] = t/4, rho = 1 and y_t = t - 4
    return mlvc._sidney_pair(C4)


def test_relaxation_check_rejects_a_negative_entry():
    X, theta, rho, y = c4_pair()
    X[0][2] = X[0][1] - Fraction(1, 4)  # x[0, 2] < 0
    with pytest.raises(CertificateError, match="negative entry"):
        certify_relaxation(C4, X, theta, rho, y)


def test_relaxation_check_rejects_a_broken_pack_row():
    # vertex 0 scheduled one more unit at step 1, X still nondecreasing
    X, theta, rho, y = c4_pair()
    X[0][1:] = [Xt + 1 for Xt in X[0][1:]]
    with pytest.raises(CertificateError, match="violates a pack row"):
        certify_relaxation(C4, X, theta, rho, y)


@pytest.mark.parametrize("row", ["pack", "cover"])
def test_certificate_rejects_a_wrong_signed_dual(row):
    # a positive dual on the last pack row (0 in the pair), or a part of an
    # edge below 0 with the edge's parts still summing to 1
    X, theta, rho, y = c4_pair()
    if row == "pack":
        y[-1] = Fraction(1, 2)
    else:
        theta[0] = (Fraction(-1, 2), Fraction(3, 2))
    with pytest.raises(CertificateError, match=f"wrong sign on a {row} row"):
        certify_relaxation(C4, X, theta, rho, y)


def test_relaxation_check_rejects_a_violated_u_column():
    X, theta, rho, y = c4_pair()
    theta[0] = tuple(2 * share for share in theta[0])
    with pytest.raises(CertificateError, match="violates a u-column"):
        certify_relaxation(C4, X, theta, rho, y)


def test_relaxation_check_rejects_a_violated_x_column():
    # y_1 + load(v) (rho_2 + rho_3 + rho_4) = -5/2 + 3 > 0 for every v
    X, theta, rho, y = c4_pair()
    y[0] += Fraction(1, 2)
    with pytest.raises(CertificateError, match="violates an x-column"):
        certify_relaxation(C4, X, theta, rho, y)


def test_relaxation_check_fails_closed_on_unequal_values():
    # every dual halved stays feasible, but its value is half the optimum
    X, theta, rho, y = c4_pair()
    assert certify_relaxation(C4, X, theta, rho, y) == 10
    theta = [(on_a / 2, on_b / 2) for on_a, on_b in theta]
    y = [yt / 2 for yt in y]
    with pytest.raises(CertificateError, match="values differ"):
        certify_relaxation(C4, X, theta, rho, y)


# one entry of the C4 pair moved (X[v][t] = t/4, rho = 1, y_t = t - 4, and
# each edge's unit split over its endpoints), one case per check
@pytest.mark.parametrize(
    ("family", "row", "i", "delta", "message"),
    [
        ("X", 0, 2, Fraction(-1, 2), "negative entry"),
        ("X", 0, 1, Fraction(1, 4), "violates a pack row"),
        ("y", None, 3, Fraction(1, 2), "wrong sign on a pack row"),
        ("rho", 0, 0, -2, "wrong sign on a cover row"),
        ("theta", 0, 1, 1, "violates a u-column"),
        ("y", None, 0, Fraction(1, 2), "violates an x-column"),
        ("y", None, 3, -1, "values differ"),
    ],
)
def test_integer_check_fails_as_the_fraction_check(family, row, i, delta, message):
    X, theta, rho, y = c4_pair()
    pair = {"X": X, "theta": [list(parts) for parts in theta], "rho": rho, "y": y}
    entries = pair[family] if row is None else pair[family][row]
    entries[i] += delta
    messages = []
    for check in (certify_relaxation, certify_relaxation_by_fractions):
        with pytest.raises(CertificateError, match=message) as raised:
            check(C4, *pair.values())
        messages.append(str(raised.value))
    assert messages[0] == messages[1]


def test_mlvc_lp_exits_1_without_a_certificate(tmp_path, monkeypatch):
    # one unit of the first edge's share moved to its other endpoint: the
    # shares still split the edge, but the loads are no longer x* = 1
    path = tmp_path / "c4.graph"
    path.write_text("4 4\n1 2\n2 3\n3 4\n4 1\n")
    orient = matroids.bounded_orientation

    def corrupted(*args):
        pairs, share, tight = orient(*args)
        move = 1 if share[0] else -1
        share[0] -= move
        share[1] += move
        return pairs, share, tight

    monkeypatch.setattr(matroids, "bounded_orientation", corrupted)
    report, code = cli.run(["mlvc", "--lp", "--input", str(path)])
    assert code == 1
    assert "LP dual" in report["error"]


def test_hypergraph_parse():
    H = parse_hypergraph("3 1\n1 2 3\n")
    assert H.n == 3 and H.max_edge_size == 3
    with pytest.raises(ParseError):
        parse_hypergraph("3 2\n1 2\n")
    with pytest.raises(ParseError):
        parse_hypergraph("2 1\n1 5\n")
