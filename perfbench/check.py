"""Independent checks of CLI reports.

Every check recomputes what it needs from the benchmark's own copy of the
instance, with its own rank, cut and objective functions; nothing here
imports ordolab.  A check raises ``CheckFailed`` on the first violation.
Cross-checks between calls on one instance go through a per-instance
``ctx`` dict: a call records its value there and later calls compare.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from statistics import NormalDist


class CheckFailed(Exception):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def num(x) -> Fraction:
    """A report number: int, or a 'p/q' string for non-integral rationals."""
    require(isinstance(x, (int, str)) and not isinstance(x, bool), f"not an exact number: {x!r}")
    return Fraction(x)


def bits(mask: int) -> list[int]:
    return [e for e in range(mask.bit_length()) if (mask >> e) & 1]


def mask_of(labels) -> int:
    """Bitmask of 1-based element labels."""
    mask = 0
    for e in labels:
        mask |= 1 << (e - 1)
    return mask


def require_permutation(seq, m: int, what: str) -> None:
    require(isinstance(seq, list) and sorted(seq) == list(range(1, m + 1)),
            f"{what} is not a permutation of 1..{m}")


# ---------------------------------------------------------------------------
# the benchmark's own set functions


def graph_rank(graph):
    """Graphic-matroid rank of an edge bitmask: n - components."""
    n, edges, _ = graph

    def rank(mask: int) -> int:
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        r = 0
        for e in bits(mask):
            a, b = find(edges[e][0]), find(edges[e][1])
            if a != b:
                parent[a] = b
                r += 1
        return r

    return rank


def matrix_rank(rows):
    """Column-matroid rank over the rationals, by Gaussian elimination."""

    def rank(mask: int) -> int:
        cols = bits(mask)
        mat = [[Fraction(row[j]) for j in cols] for row in rows]
        r = 0
        for c in range(len(cols)):
            pivot = next((i for i in range(r, len(mat)) if mat[i][c]), None)
            if pivot is None:
                continue
            mat[r], mat[pivot] = mat[pivot], mat[r]
            for i in range(r + 1, len(mat)):
                factor = mat[i][c] / mat[r][c]
                mat[i] = [x - factor * y for x, y in zip(mat[i], mat[r])]
            r += 1
        return r

    return rank


def cut_value(graph, side: int) -> int:
    n, edges, weights = graph
    return sum(weights[i] for i, (u, v) in enumerate(edges) if ((side >> u) & 1) != ((side >> v) & 1))


def prefix_cost(f, sequence) -> Fraction:
    """Sum of f over the prefixes of a 1-based element sequence."""
    total, mask = Fraction(0), 0
    for e in sequence:
        mask |= 1 << (e - 1)
        total += f(mask)
    return total


def brute_optimum(f, m: int) -> Fraction:
    """Exact minimum prefix cost by a subset DP over the benchmark's own f."""
    best = [Fraction(0)] * (1 << m)
    for S in range(1, 1 << m):
        best[S] = f(S) + min(best[S ^ (1 << e)] for e in bits(S))
    return best[-1]


def positions_of(sequence) -> dict[int, int]:
    """0-based element -> 1-based position, from a 1-based sequence."""
    return {e - 1: i + 1 for i, e in enumerate(sequence)}


def mlvc_cost(graph, pos) -> int:
    return sum(max(pos[u], pos[v]) for u, v in graph[1])


def msvc_cost(graph, pos) -> int:
    return sum(min(pos[u], pos[v]) for u, v in graph[1])


def complement(graph):
    n, edges, _ = graph
    present = {frozenset(e) for e in edges}
    return n, [(u, v) for u in range(n) for v in range(u + 1, n) if frozenset((u, v)) not in present], None


def parse_graph_text(text: str):
    lines = text.split("\n")
    n, m = map(int, lines[0].split())
    body = [line.split() for line in lines[1:m + 1]]
    require(len(body) == m and lines[m + 1:] == [""], "target instance text malformed")
    edges = [(int(p[0]) - 1, int(p[1]) - 1) for p in body]
    weights = [Fraction(p[2]) for p in body] if body and len(body[0]) == 3 else None
    return n, edges, weights


# ---------------------------------------------------------------------------
# matroid ordering reports


def solve(res, f, m, ctx, expected_key=None):
    """solve: the ordering attains the value; optionally equal to a value an
    earlier call on the same instance recorded under ``expected_key``."""
    require_permutation(res["ordering"], m, "ordering")
    value = num(res["value"])
    require(prefix_cost(f, res["ordering"]) == value, "ordering does not attain the reported value")
    if expected_key is not None:
        require(value == ctx[expected_key], f"value {value} != {expected_key} value {ctx[expected_key]}")
    else:
        ctx["dp"] = value


def approx(res, f, m, ctx):
    """approx: lower <= dp <= achieved <= upper <= guarantee * lower, with the
    achieved value recomputed and the guarantee 2 - (1 + linearity)/(1 + m)."""
    require_permutation(res["ordering"], m, "ordering")
    achieved = num(res["value"])
    lower, upper, guarantee = num(res["lower"]), num(res["upper"]), num(res["guarantee"])
    require(prefix_cost(f, res["ordering"]) == achieved, "ordering does not attain the achieved value")
    kappa = max(f(1 << e) for e in range(m))
    linearity = Fraction(f((1 << m) - 1), kappa)
    require(guarantee == 2 - (1 + linearity) / (1 + m), "guarantee factor is wrong")
    require(res["trivial"] is False, "nontrivial instance reported trivial")
    require(lower <= achieved <= upper <= guarantee * lower, "bound sandwich violated")
    if "dp" in ctx:
        require(lower <= ctx["dp"] <= achieved, "exact optimum outside [lower, achieved]")
    ctx["lower"] = lower


def partition(res, f, m, ctx, expected=None):
    """partition: the zero set is the set of loops, the chain is nested with
    the exact growth ratios as critical values, and the chain's lower bound
    equals the one approx reported.  ``expected`` is (chain, critical
    values) where the generator knows the answer."""
    zero = [e + 1 for e in range(m) if f(1 << e) == 0]
    require(res["zero_set"] == zero, "zero set is not the set of loops")
    U = mask_of(zero)
    chain = [mask_of(s) for s in res["chain"]]
    require(all(sorted(s) == s for s in res["chain"]), "chain sets not sorted")
    require(chain[0] == 0 and chain[-1] == ((1 << m) - 1) ^ U, "chain must run from empty to E - zero set")
    require(res["trivial"] is False, "nontrivial instance reported trivial")

    def g(S):
        return f(U | S) - f(U)

    cvs = [num(x) for x in res["critical_values"]]
    require(len(cvs) == len(chain) - 1, "one critical value per chain step")
    for lam, lo, hi in zip(cvs, chain, chain[1:]):
        require(lo & ~hi == 0 and lo != hi, "chain not strictly nested")
        require(lam == Fraction(g(hi) - g(lo), hi.bit_count() - lo.bit_count()), "critical value is not the growth ratio")
    require(all(a < b for a, b in zip(cvs, cvs[1:])), "critical values not increasing")
    mc = m - len(zero)
    lower = Fraction(mc + 1, 2) * g(chain[-1])
    for lo, hi in zip(chain, chain[1:]):
        lower -= Fraction(g(hi) * lo.bit_count() - g(lo) * hi.bit_count(), 2)
    if "lower" in ctx:
        require(lower == ctx["lower"], "chain lower bound differs from the approx lower bound")
    if expected is not None:
        require(res["chain"] == expected[0] and cvs == expected[1], "chain differs from the planted structure")


def fixed_basis(res, f, m, ctx):
    """fixed-basis: attains its value, equals dp and the benchmark's own
    subset-DP optimum."""
    solve(res, f, m, ctx, expected_key="dp")
    require(ctx["dp"] == brute_optimum(f, m), "dp value differs from the benchmark's own optimum")


# ---------------------------------------------------------------------------
# reductions


def mlvc_optimum(graph) -> int:
    return min(mlvc_cost(graph, dict(enumerate(p))) for p in permutations(range(1, graph[0] + 1)))


def apex(res, graph):
    """reduce mlvc -> graphic-mlop: the target instance is the apex graph,
    and the certificate ties the weighted optimum to the exact MLVC optimum
    (recomputed by brute force)."""
    n, edges, _ = graph
    m = len(edges)
    kept = sorted({v for e in edges for v in e})
    k = 9 * m * m + 2
    offset = k * len(kept) * (len(kept) + 1) // 2
    require(res["cost_on_star_edges"] == k and res["offset"] == offset, "apex cost or offset wrong")
    tn, tedges, tweights = parse_graph_text(res["target_instance"])
    index = {v: i for i, v in enumerate(kept)}
    require(tn == len(kept) + 1, "apex graph vertex count wrong")
    require(tedges[:m] == [(index[u], index[v]) for u, v in edges], "apex graph keeps the original edges")
    require(sorted(tedges[m:]) == [(len(kept), i) for i in range(len(kept))], "apex star edges wrong")
    require(tweights == [1] * m + [k] * len(kept), "apex edge costs wrong")
    cert = res["certificate"]
    require(cert is not None and cert["holds"] is True, "apex certificate missing or failing")
    require(num(cert["shift"]) == offset, "apex shift wrong")
    require_permutation(res["labeling"], n, "labeling")
    value = mlvc_cost(graph, positions_of(res["labeling"]))
    require(num(cert["mlvc_optimum"]) == value == mlvc_optimum(graph), "labeling is not an MLVC optimum")
    require(num(cert["weighted_optimum"]) == value + offset, "weighted optimum != MLVC optimum + shift")


def msvc(res, graph, positions):
    """reduce mlvc -> msvc: the complement, the reversed labeling, and the
    identity MLVC(G, pi) = shift + MSVC(complement, n + 1 - pi)."""
    n = graph[0]
    comp = complement(graph)
    tn, tedges, _ = parse_graph_text(res["target_instance"])
    require(tn == n and sorted(tedges) == comp[1], "target is not the complement")
    pos = dict(enumerate(positions))
    reversed_seq = [v + 1 for v in sorted(range(n), key=lambda v: -pos[v])]
    require(res["target_labeling"] == reversed_seq, "target labeling is not the reversal")
    cert = res["certificate"]
    shift = Fraction(n ** 3 - n, 3) - (n + 1) * len(comp[1])
    src = mlvc_cost(graph, pos)
    dst = msvc_cost(comp, {v: n + 1 - p for v, p in pos.items()})
    require(num(cert["mlvc"]) == src and num(cert["msvc"]) == dst and num(cert["shift"]) == shift,
            "certificate values wrong")
    require(src == dst + shift and cert["holds"] is True, "complement-shift identity fails")


# ---------------------------------------------------------------------------
# Gomory-Hu trees


def ghtree(res, graph, runs):
    """Every tree edge weight is the cut value of its side and the minimum
    cut between its endpoints; the bounds and the upper ordering are
    recomputed; the total weight agreed across runs."""
    n = graph[0]
    cuts = [cut_value(graph, S) for S in range(1 << n)]
    tree = [(u - 1, v - 1, num(w)) for u, v, w in res["edges"]]
    require(len(tree) == n - 1, "tree needs n - 1 edges")
    for i, (s, t, w) in enumerate(tree):
        side, frontier = {s}, [s]
        while frontier:
            x = frontier.pop()
            for j, (a, b, _) in enumerate(tree):
                if j != i and x in (a, b):
                    y = b if x == a else a
                    if y not in side:
                        side.add(y)
                        frontier.append(y)
        require(t not in side, "tree edges do not form a spanning tree")
        require(cuts[sum(1 << x for x in side)] == w, "edge weight is not the cut value of its side")
        best = min(cuts[S] for S in range(1 << n) if (S >> s) & 1 and not (S >> t) & 1)
        require(best == w, "edge weight is not the minimum cut between its endpoints")
    total = sum(w for _, _, w in tree)
    require(num(res["total_weight"]) == total and num(res["lower_bound"]) == total, "total weight wrong")
    require_permutation(res["upper_ordering"], n, "upper ordering")
    tree_graph = (n, [(a, b) for a, b, _ in tree], [w for _, _, w in tree])
    upper = num(res["upper_bound"])
    require(prefix_cost(lambda S: cut_value(tree_graph, S), res["upper_ordering"]) == upper,
            "upper ordering does not attain the upper bound")
    require(upper == brute_optimum(lambda S: cut_value(tree_graph, S), n), "upper bound is not the tree optimum")
    require(upper >= total, "upper bound below lower bound")
    require(res["runs"] == runs and res["totals_equal"] is True, "total weight varied across runs")


# ---------------------------------------------------------------------------
# latency cover


def regular_lp_value(graph) -> Fraction:
    n, edges, _ = graph
    return Fraction(2 * len(edges) * (n + 1), 4)   # d n (n + 1) / 4 with d n = 2 m


def lp(res, graph):
    n, edges, _ = graph
    require(num(res["lp_value"]) == regular_lp_value(graph), "LP value is not d n (n + 1) / 4")
    require(res["lp_variables"] == n * (len(edges) + n), "LP variable count wrong")
    require(res["lp_constraints"] == n + 2 * len(edges) * n, "LP constraint count wrong")


def sample(res, graph, samples):
    n = graph[0]
    require(res["samples"] == samples, "sample count wrong")
    require_permutation(res["labeling"], n, "labeling")
    value = mlvc_cost(graph, positions_of(res["labeling"]))
    require(res["value"] == value, "labeling does not attain the reported cost")
    require(value >= regular_lp_value(graph), "sampled cost below the LP value")


def job_members(hypergraph, job: int) -> frozenset:
    n, edges = hypergraph
    return frozenset((job,)) if job < n else frozenset(edges[job - n])


def incomparable_pairs(hypergraph):
    """Job pairs (a, b), a < b, with their exact probability of a first."""
    n, edges = hypergraph
    out = {}
    jobs = n + len(edges)
    for a in range(jobs):
        for b in range(a + 1, jobs):
            A, B = job_members(hypergraph, a), job_members(hypergraph, b)
            if A != B and (A <= B or B <= A):
                continue   # precedence, or nested hyperedges
            out[(a, b)] = Fraction(2 * len(B - A) + len(A & B), 2 * len(A | B))
    return out


def balance(res, hypergraph, trials):
    """Each empirical probability lies within z standard errors of the exact
    one.  z is four, widened by a Bonferroni correction over the pairs of the
    report so that a correct sampler fails a report with probability below
    1e-6; the worst pair and the flags are recomputed."""
    bal = res["balance"]
    exact = incomparable_pairs(hypergraph)
    require(bal["trials"] == trials, "trial count wrong")
    max_edge = max(len(e) for e in hypergraph[1])
    floor = Fraction(1, 1 + max_edge)
    require(num(bal["floor"]) == floor, "floor wrong")
    probs = bal["pair_probabilities"]
    require(sorted(probs) == sorted(f"{a}<{b}" for a, b in exact), "pair set differs from the incomparable pairs")
    z = max(4.0, NormalDist().inv_cdf(1 - 1e-6 / (2 * len(exact))))
    worst = None
    flagged = []
    for a, b in sorted(exact):
        p_hat, p = probs[f"{a}<{b}"], float(exact[(a, b)])
        require(abs(p_hat - p) <= z * (p * (1 - p) / trials) ** 0.5, f"pair {a}<{b}: {p_hat} far from {p}")
        for q, pair in ((p_hat, [a, b]), (1 - p_hat, [b, a])):
            if q + 3 * (q * (1 - q) / trials) ** 0.5 < floor:
                flagged.append(pair)
            if worst is None or q < worst[0]:
                worst = (q, pair)
    require(bal["worst_probability"] == worst[0] and bal["worst_pair"] == worst[1], "worst pair wrong")
    require(bal["flagged"] == flagged, "flagged pairs wrong")
