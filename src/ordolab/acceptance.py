"""The verification suite: one callable per acceptance criterion.

Each criterion is an exact check (rational equality or inequality) except
for the Monte-Carlo balance estimates, which use a four-standard-error
envelope around the exact pair probabilities.  ``run_all`` executes every
criterion and reports one pass/fail line each; the test suite and the
``verify`` CLI subcommand both drive this module.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable

from .core import Graph, ModularOracle, Ordering, mla_objective, mlvc_objective
from .gomoryhu import (
    GomoryHuTree,
    build_gh_tree,
    gh_lower_bound,
    gh_upper_bound,
    gh_weight_invariance,
    matching_certificate,
)
from .instances import (
    all_connected_graphs,
    bowtie,
    complete_graph,
    connected_catalog,
    cycle_graph,
    path_graph,
    random_cactus,
    random_connected_graph,
    random_matrix,
    random_tree,
    random_weighted_graph,
    six_vertex_sample,
    triangle_with_bridge,
)
from .matroids import (
    CutFunction,
    DualMatroid,
    GraphicMatroid,
    Matroid,
    UniformMatroid,
    VectorMatroid,
)
from .mlvc import (
    Hypergraph,
    SchedulingPoset,
    balance_check,
    best_of_n,
    build_lp,
    clique_gap,
    exact_pair_probability,
    mlvc_brute_optimum,
    regular_lp_value,
    solve_lp,
)
from .reductions import dual_transfer, mlvc_msvc_shift, regular_shift, solve_mlvc_via_apex
from .solve import (
    approx_monotone_mlop,
    cactus_exact,
    exact_mlop_dp,
    has_flat_prefix_structure,
    small_basis_exact,
    uniform_closed_form,
)


@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str


def _random_ordering(m: int, rng: random.Random) -> Ordering:
    seq = list(range(m))
    rng.shuffle(seq)
    return Ordering.from_sequence(seq)


# --- shared instance pool for criteria 2 and 3 -----------------------------


@lru_cache(maxsize=1)
def _guarantee_runs():
    rng = random.Random(23)
    instances: list[Matroid] = []
    for _ in range(100):
        n = rng.randint(3, 6)
        m = rng.randint(n - 1, min(10, n * (n - 1) // 2))
        instances.append(GraphicMatroid(random_connected_graph(n, m, rng)))
    for _ in range(50):
        instances.append(VectorMatroid(random_matrix(rng)))
    runs = []
    for f in instances:
        opt, sigma_opt = exact_mlop_dp(f)
        _, cert = approx_monotone_mlop(f)
        runs.append((f, opt, sigma_opt, cert))
    return runs


def criterion_1_uniform_closed_form():
    """exact DP on U_k^m equals C(k+1,2) + k(m-k) for all 0 <= k <= m <= 8."""
    checked = 0
    for m in range(0, 9):
        for k in range(0, m + 1):
            value, _ = exact_mlop_dp(UniformMatroid(m, k))
            if value != uniform_closed_form(k, m):
                return False, f"mismatch at k={k}, m={m}"
            checked += 1
    return True, f"{checked} (k, m) pairs match exactly"


def criterion_2_approximation_guarantee():
    """approx objective <= (2 - (1+l_f)/(1+m)) * optimum on 150 instances,
    plus the flat-prefix structure of every DP-optimal ordering."""
    violations = 0
    for f, opt, sigma_opt, cert in _guarantee_runs():
        if cert.achieved > cert.guarantee * opt:
            violations += 1
        if not has_flat_prefix_structure(f, sigma_opt):
            return False, "DP-optimal ordering violates the flat structure"
    if violations:
        return False, f"{violations} guarantee violations"
    return True, f"{len(_guarantee_runs())} instances within the guarantee"


def criterion_3_bound_sandwich():
    """partition lower bound <= optimum <= partition upper bound on the same
    instances; for modular f both bounds equal m(m+1)/2 exactly."""
    for f, opt, _, cert in _guarantee_runs():
        if not (cert.lower <= opt <= cert.upper):
            return False, f"sandwich violated: {cert.lower} ? {opt} ? {cert.upper}"
    for m in range(1, 9):
        _, cert = approx_monotone_mlop(ModularOracle(m=m))
        expected = Fraction(m * (m + 1), 2)
        if cert.lower != expected or cert.upper != expected:
            return False, f"modular bounds differ from m(m+1)/2 at m={m}"
    return True, f"{len(_guarantee_runs())} sandwiches plus modular equality"


def criterion_4_mlvc_msvc_shift():
    """complement shift identity, exact, on 1000 random (graph, labeling)."""
    rng = random.Random(4)
    for i in range(1000):
        n = rng.randint(2, 8)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = tuple(e for e in pairs if rng.random() < 0.5)
        G = Graph(n, edges)
        pi = _random_ordering(n, rng)
        _, _, cert = mlvc_msvc_shift(G, pi)  # constructor asserts exactness
        if not cert.holds():
            return False, f"shift identity failed on instance {i}"
    return True, "1000 random (G, pi) pairs, identity exact"


def criterion_5_dual_transfer():
    """duality shift exact across a fixed matroid family, plus the
    regression showing the rank-times-size shift variant is wrong."""
    rng = random.Random(5)
    family: list[Matroid] = [
        UniformMatroid(1, 1),
        UniformMatroid(2, 1),
        UniformMatroid(3, 1),
        UniformMatroid(3, 2),
        UniformMatroid(5, 3),
        UniformMatroid(8, 4),
        GraphicMatroid(complete_graph(3)),
        GraphicMatroid(complete_graph(4)),
        GraphicMatroid(triangle_with_bridge()),
        GraphicMatroid(path_graph(5)),
        GraphicMatroid(cycle_graph(5)),
        GraphicMatroid(bowtie()),
    ]
    family += [DualMatroid(M) for M in list(family)]
    checked = 0
    for M in family:
        for _ in range(3):
            sigma = _random_ordering(M.m, rng)
            _, _, cert = dual_transfer(M, sigma)
            if not cert.holds():
                return False, "duality certificate failed"
            checked += 1
    # regression: on U_1^3 with the identity ordering the rank sum is 3, but
    # the C(m+1,2) - r(E)*m shift would predict 6 - 3 + 5 = 8
    M = UniformMatroid(3, 1)
    sigma = Ordering.identity(3)
    from .core import mlop_objective

    source = mlop_objective(M, sigma)
    target = mlop_objective(DualMatroid(M), sigma.reversed())
    bad_shift = 3 * 4 // 2 - M.full_rank * 3
    if source == bad_shift + target:
        return False, "rank-times-size shift unexpectedly verified"
    if source != (3 * 4 // 2 - 4 * (3 - 1)) + target:
        return False, "implemented shift failed on U_1^3"
    return True, f"{checked} orderings exact; bad shift refuted (8 != 3)"


def criterion_6_fixed_basis():
    """basis-and-permutation search equals the DP optimum."""
    rng = random.Random(6)
    graphs = []
    for n in range(2, 5):
        graphs.extend(all_connected_graphs(n))
    for _ in range(10):
        graphs.append(random_connected_graph(5, rng.randint(4, 8), rng))
    for _ in range(5):
        graphs.append(random_connected_graph(6, rng.randint(5, 8), rng))
    for G in graphs:
        M = GraphicMatroid(G)
        dp_value, _ = exact_mlop_dp(M)
        basis_value, _ = small_basis_exact(M)
        if dp_value != basis_value:
            return False, f"mismatch on n={G.n}, m={G.m}: {basis_value} != {dp_value}"
    return True, f"{len(graphs)} graphs, search equals DP"


def criterion_7_cactus():
    """greedy block ordering equals the DP optimum on 50 random cacti."""
    rng = random.Random(7)
    for i in range(50):
        G = random_cactus(rng.randint(6, 14), rng)
        value, _ = cactus_exact(G)
        dp_value, _ = exact_mlop_dp(GraphicMatroid(G))
        if value != dp_value:
            return False, f"cactus {i}: {value} != {dp_value}"
    return True, "50 cacti, greedy equals DP"


def criterion_8_apex_roundtrip():
    """weighted apex optimum minus k * C(n+1,2) equals the brute MLVC
    optimum, and the recovered labeling achieves it, for all connected
    graphs on up to 4 vertices."""
    graphs = []
    for n in range(2, 5):
        graphs.extend(all_connected_graphs(n))
    for G in graphs:
        brute = mlvc_brute_optimum(G)
        pi, value, red, cert = solve_mlvc_via_apex(G)
        if value != brute:
            return False, f"recovered labeling misses the optimum: {value} != {brute}"
        if cert.source_value != brute + red.base_offset:
            return False, "weighted optimum does not match the shift identity"
    return True, f"{len(graphs)} graphs, round-trip exact"


def criterion_9_oracle_balance():
    """Monte-Carlo pair frequencies within four standard errors of the
    exact (b + c/2)/(a + b + c) probabilities; graph pairs at least 1/3."""
    trials = 100_000
    instances = [
        ("K4", Hypergraph.from_graph(complete_graph(4))),
        ("C5", Hypergraph.from_graph(cycle_graph(5))),
        ("shared-vertex 3-edges", Hypergraph(5, (frozenset({0, 1, 2}), frozenset({2, 3, 4})))),
    ]
    for label, H in instances:
        poset = SchedulingPoset(H)
        report = balance_check(H, trials, seed=9)
        for (a, b), emp in report.probabilities.items():
            exact = exact_pair_probability(poset, a, b)
            sigma = (float(exact) * (1 - float(exact)) / trials) ** 0.5
            if abs(emp - float(exact)) > 4 * sigma:
                return False, f"{label}: pair ({a}, {b}) off by more than 4 sigma"
            if H.max_edge_size == 2 and min(exact, 1 - exact) < Fraction(1, 3):
                return False, f"{label}: exact pair probability below 1/3"
        if report.flagged:
            return False, f"{label}: sampler flagged pairs {report.flagged}"
    return True, "3 instances, all pairs within 4 sigma and above the floor"


def criterion_10_lp():
    """exact LP optima match d n (n+1)/4 on C4 and K2; the clique gap ratio
    at n = 32 lies in (1.30, 4/3]."""
    c4 = solve_lp(build_lp(cycle_graph(4)))
    if c4 != Fraction(10) or c4 != regular_lp_value(2, 4):
        return False, f"C4 LP value {c4} != 10"
    k2 = solve_lp(build_lp(Graph(2, ((0, 1),))))
    if k2 != Fraction(3, 2) or k2 != regular_lp_value(1, 2):
        return False, f"K2 LP value {k2} != 3/2"
    _, _, ratio = clique_gap(32)
    if not (Fraction(13, 10) < ratio <= Fraction(4, 3)):
        return False, f"clique gap ratio {ratio} outside (1.30, 4/3]"
    return True, f"C4 -> 10, K2 -> 3/2, clique ratio {ratio}"


def criterion_11_best_of_n():
    """best-of-500 sampling lands within 4/3 of the brute optimum on every
    catalog graph with up to 6 vertices."""
    graphs = connected_catalog(5) + six_vertex_sample()
    bound = Fraction(4, 3)
    for G in graphs:
        _, value = best_of_n(G, 500, seed=0)
        brute = mlvc_brute_optimum(G)
        if value > bound * brute:
            return False, f"n={G.n}, m={G.m}: {value} > 4/3 * {brute}"
    return True, f"{len(graphs)} graphs within 4/3 empirically"


def criterion_12_gomory_hu():
    """tree-weight lower bound <= exact optimum <= tree layout upper bound,
    path tightness, total-weight invariance, and the separation matching."""
    rng = random.Random(12)
    for i in range(30):
        n = rng.randint(4, 8)
        m = rng.randint(n - 1, min(12, n * (n - 1) // 2))
        f = CutFunction(random_weighted_graph(n, m, rng))
        tree = build_gh_tree(f, seed=i)
        lower = gh_lower_bound(tree)
        upper, _ = gh_upper_bound(f, tree)
        opt, _ = exact_mlop_dp(f)
        if not (lower <= opt <= upper):
            return False, f"graph {i}: sandwich {lower} ? {opt} ? {upper}"
        if not gh_weight_invariance(f, runs=10, seed=100 + i):
            return False, f"graph {i}: total weight varies across pivots"
    for n in range(3, 7):
        f = CutFunction(path_graph(n))
        tree = build_gh_tree(f)
        opt, _ = exact_mlop_dp(f)
        if gh_lower_bound(tree) != opt:
            return False, f"path P{n}: lower bound not tight"
    rng = random.Random(13)
    for _ in range(500):
        n = rng.randint(2, 8)
        T1 = GomoryHuTree(n, tuple((a, b, Fraction(1)) for a, b in random_tree(n, rng)))
        T2 = GomoryHuTree(n, tuple((a, b, Fraction(1)) for a, b in random_tree(n, rng)))
        matching_certificate(T1, T2)  # raises if no perfect matching
    return True, "30 sandwiches, path tightness, invariance, 500 matchings"


def criterion_13_regular_equivalence():
    """MLA = 2 MLVC - k C(n+1,2) over all labelings of K4 and C5."""
    from itertools import permutations

    for G in (complete_graph(4), cycle_graph(5)):
        k = G.regular_degree()
        for perm in permutations(range(G.n)):
            pi = Ordering.from_sequence(perm)
            cert = regular_shift(G, pi)
            if mla_objective(G, pi) != 2 * mlvc_objective(G, pi) - k * G.n * (G.n + 1) // 2:
                return False, "identity violated"
            if not cert.holds():
                return False, "certificate violated"
    return True, "all 144 labelings of K4 and C5 exact"


CRITERIA: list[tuple[int, str, Callable]] = [
    (1, "uniform closed form", criterion_1_uniform_closed_form),
    (2, "approximation guarantee", criterion_2_approximation_guarantee),
    (3, "bound sandwich", criterion_3_bound_sandwich),
    (4, "MLVC-MSVC shift", criterion_4_mlvc_msvc_shift),
    (5, "dual transfer", criterion_5_dual_transfer),
    (6, "fixed-basis equivalence", criterion_6_fixed_basis),
    (7, "cactus solver", criterion_7_cactus),
    (8, "apex reduction round-trip", criterion_8_apex_roundtrip),
    (9, "sampler balance", criterion_9_oracle_balance),
    (10, "LP relaxation", criterion_10_lp),
    (11, "empirical 4/3", criterion_11_best_of_n),
    (12, "Gomory-Hu bounds", criterion_12_gomory_hu),
    (13, "regular-graph equivalence", criterion_13_regular_equivalence),
]


def run_criterion(index: int) -> CriterionResult:
    for idx, name, fn in CRITERIA:
        if idx == index:
            try:
                passed, detail = fn()
            except Exception as exc:  # a crash is a failure, not an error
                passed, detail = False, f"exception: {exc!r}"
            return CriterionResult(idx, name, passed, detail)
    raise ValueError(f"no criterion {index}")


def run_all(echo=None) -> list[CriterionResult]:
    results = []
    for idx, name, _ in CRITERIA:
        result = run_criterion(idx)
        if echo is not None:
            status = "PASS" if result.passed else "FAIL"
            echo(f"{status} criterion {idx} ({name}): {result.detail}")
        results.append(result)
    return results
