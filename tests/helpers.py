"""Independent brute-force oracles used to pin expected values, and the
test-only generators (labelled trees, sampled linear extensions).

These deliberately avoid the library's solver code paths: optima come from
enumerating every permutation or subset directly, sampled schedules from
``reference_sample``, the sampler's plain per-sample loop, and subset-DP
tables from ``layer_loop_dp_tables``, the DP's former numpy layer loop,
and the MLVC relaxation's check from ``certify_relaxation_by_fractions``,
the check's former Fraction loop.
``wolfe_path`` sends ``min_norm_base`` down the Fujishige-Wolfe path on
small grounds, to cross-check it against the table; graphic matroids and
coverage functions build their bases by decomposition on every ground, so
it takes them nowhere new.
"""

import heapq
import random
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations, permutations, product
from math import lcm
from unittest import mock

import numpy as np

from ordolab import (
    BalanceReport,
    CertificateError,
    Graph,
    GroundSet,
    Hypergraph,
    Ordering,
    SchedulingPoset,
    SetFunctionOracle,
    VectorMatroid,
    mask_of,
    mlvc_objective,
)
from ordolab import sfm
from ordolab.core import int_dtype, max_abs
from ordolab.flow import FlowNetwork
from ordolab.mlvc import _samples


class TableOracle(SetFunctionOracle):
    """f given by its values on all 2^m subsets, in mask order."""

    def __init__(self, values):
        super().__init__(GroundSet(len(values).bit_length() - 1))
        self.values = tuple(values)

    def evaluate(self, subset):
        return self.values[subset]


def prefix_sum(f, seq):
    total = 0
    mask = 0
    for e in seq:
        mask |= 1 << e
        total += f(mask)
    return total


def brute_mlop(f):
    """Optimum by enumerating all m! orderings."""
    best = None
    best_seq = None
    for seq in permutations(range(f.m)):
        val = prefix_sum(f, seq)
        if best is None or val < best:
            best = val
            best_seq = seq
    return best, Ordering.from_sequence(best_seq)


def brute_fixed_basis(M):
    """The least (value, basis order) over every order of every basis, from
    rank calls alone: an order costs k(k+1)/2 plus, for each element outside
    its basis, the length of the shortest prefix that spans it."""
    k = M.full_rank
    best = None
    for basis in combinations(range(M.m), k):
        if M.rank(mask_of(basis)) != k:
            continue
        outside = [e for e in range(M.m) if e not in basis]
        for perm in permutations(basis):
            prefixes = [mask_of(perm[:i]) for i in range(k + 1)]
            spans = (next(i for i, P in enumerate(prefixes) if M.rank(P | 1 << e) == i) for e in outside)
            candidate = (k * (k + 1) // 2 + sum(spans), perm)
            best = candidate if best is None else min(best, candidate)
    return best


def brute_weighted_mlop(f, costs):
    best = None
    for seq in permutations(range(f.m)):
        total = 0
        mask = 0
        for e in seq:
            mask |= 1 << e
            total += f(mask) * costs[e]
        if best is None or total < best:
            best = total
    return best


def loop_dp(f, costs=None):
    """Reference subset DP, one Python loop per subset: best(S) = min over
    e in S of best(S - e) + f(S) * cost(e), taking the smallest such e.
    Returns (optimum, ordering)."""
    costs = costs or [1] * f.m
    best = [0] * (1 << f.m)
    choice = [0] * (1 << f.m)
    for S in range(1, 1 << f.m):
        charge = f(S)
        best[S], choice[S] = min(
            (best[S ^ (1 << e)] + charge * costs[e], e) for e in range(f.m) if (S >> e) & 1
        )
    seq = []
    S = (1 << f.m) - 1
    while S:
        seq.append(choice[S])
        S ^= 1 << choice[S]
    return best[-1], Ordering.from_sequence(seq[::-1])


def layer_loop_dp_tables(table, m, costs=None):
    """The subset DP's former kernel, one numpy pass per (popcount layer,
    element): best(S) = min over e in S of best(S - e) + table[S] * cost(e),
    with choice(S) the smallest such e.  Returns (best, choice)."""
    costs = costs or (1,) * m
    # bounds every best(S) and candidate, and every cost
    bound = m * (max_abs(table) + 1) * max(costs, default=1)
    dtype = int_dtype(bound + 1)
    best = np.zeros(1 << m, dtype=int_dtype(bound))
    choice = np.zeros(1 << m, dtype=np.int8)
    sizes = np.array([S.bit_count() for S in range(1 << m)])
    for k in range(1, m + 1):
        layer = np.flatnonzero(sizes == k)
        charge = table[layer].astype(dtype)
        layer_best = np.full(len(layer), bound + 1, dtype=dtype)
        layer_choice = np.zeros(len(layer), dtype=np.int8)
        for e in range(m):
            # ascending e with a strict < keeps the smallest minimizing e
            holders = np.flatnonzero((layer >> e) & 1)
            cand = best[layer[holders] ^ (1 << e)].astype(dtype) + charge[holders] * costs[e]
            better = cand < layer_best[holders]
            layer_best[holders[better]] = cand[better]
            layer_choice[holders[better]] = e
        best[layer] = layer_best
        choice[layer] = layer_choice
    return best, choice


def cut_weight(G, S):
    """Total weight of the edges of G with exactly one endpoint in S."""
    return sum(
        (G.weight(i) for i, (u, v) in enumerate(G.edges) if ((S >> u) & 1) != ((S >> v) & 1)),
        Fraction(0),
    )


def brute_min_offset(f, lam):
    """Scan all subsets of f(X) - lam*|X|; returns (min, list of argmins)."""
    lam = Fraction(lam)
    best = None
    argmins = []
    for S in range(1 << f.m):
        v = f(S) - lam * S.bit_count()
        if best is None or v < best:
            best = v
            argmins = [S]
        elif v == best:
            argmins.append(S)
    return best, argmins


def _solve_square(system, rhs):
    """The unique solution of a square Fraction system, or None."""
    size = len(system)
    aug = [list(map(Fraction, row)) + [Fraction(b)] for row, b in zip(system, rhs)]
    for col in range(size):
        p = next((r for r in range(col, size) if aug[r][col]), None)
        if p is None:
            return None
        aug[col], aug[p] = aug[p], aug[col]
        for r in range(size):
            if r != col and aug[r][col]:
                factor = aug[r][col] / aug[col][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return [aug[r][size] / aug[r][r] for r in range(size)]


def is_submodular(f, exhaustive_limit: int = 8, rng=None, samples: int = 2000):
    """f(S) + f(T) >= f(S | T) + f(S & T), exhaustively for small grounds."""
    m = f.m
    if m <= exhaustive_limit:
        vals = [f(S) for S in range(1 << m)]
        for S in range(1 << m):
            for T in range(S, 1 << m):
                if vals[S] + vals[T] < vals[S | T] + vals[S & T]:
                    return False
        return True
    assert rng is not None
    for _ in range(samples):
        S = rng.randrange(1 << m)
        T = rng.randrange(1 << m)
        if f(S) + f(T) < f(S | T) + f(S & T):
            return False
    return True


def brute_partition(f):
    """The strict vertices of the lower convex hull of (|X|, f(X)) over all
    subsets X: returns (chain sets, slopes), the set at each vertex being
    its size's unique minimizer."""
    m = f.m
    best = [min(f(S) for S in range(1 << m) if S.bit_count() == k) for k in range(m + 1)]
    k, sets, slopes = 0, [0], []
    while k < m:
        # steepest descent to the right; the farthest point on a tie
        slope, k = min((Fraction(best[j] - best[k], j - k), -j) for j in range(k + 1, m + 1))
        k = -k
        [S] = [S for S in range(1 << m) if S.bit_count() == k and f(S) == best[k]]
        sets.append(S)
        slopes.append(slope)
    return tuple(sets), tuple(slopes)


def all_trees(n: int):
    """All labeled trees on n vertices via Pruefer sequences (n^(n-2))."""
    if n == 1:
        yield []
        return
    if n == 2:
        yield [(0, 1)]
        return
    for seq in product(range(n), repeat=n - 2):
        degree = [1] * n
        for v in seq:
            degree[v] += 1
        edges = []
        heap = [v for v in range(n) if degree[v] == 1]
        heapq.heapify(heap)
        for v in seq:
            leaf = heapq.heappop(heap)
            edges.append((leaf, v))
            degree[v] -= 1
            if degree[v] == 1:
                heapq.heappush(heap, v)
        u = heapq.heappop(heap)
        w = heapq.heappop(heap)
        edges.append((u, w))
        yield edges


def reference_sample(poset, rng: random.Random) -> list[int]:
    """One sampled linear extension by the plain loop: a shuffled vertex
    order, each edge appended once its last vertex is, and every list of
    completed edges shuffled with ``rng.shuffle``."""
    H = poset.hypergraph
    n = H.n
    remaining = [len(e) for e in H.edges]
    waiting: list[list[int]] = [[] for _ in range(n)]
    for j, e in enumerate(H.edges):
        for v in e:
            waiting[v].append(j)
    schedule: list[int] = []
    order = list(range(n))
    rng.shuffle(order)
    for v in order:
        schedule.append(v)
        completed = []
        for j in waiting[v]:
            remaining[j] -= 1
            if remaining[j] == 0:
                completed.append(j)
        rng.shuffle(completed)  # ties between edges broken at random
        schedule.extend(n + j for j in completed)
    return schedule


def incomparable_pairs_by_loop(poset) -> list[tuple[int, int]]:
    """Reference pair set, one test per job pair in ascending order: skip
    precedence and nested distinct hyperedges."""
    out = []
    total = poset.n_jobs
    for a in range(total):
        for b in range(a + 1, total):
            if poset.precedes(a, b) or poset.precedes(b, a):
                continue
            sa, sb = poset.job_members(a), poset.job_members(b)
            if sa != sb and (sa <= sb or sb <= sa):
                continue
            out.append((a, b))
    return out


def count_inversions_by_pairs(H, trials: int, seed: int) -> dict:
    """Reference inversion count, one Python loop over the pairs per trial:
    for every incomparable pair (a, b), the number of reference schedules
    that put a before b."""
    poset = SchedulingPoset(H)
    pairs = incomparable_pairs_by_loop(poset)
    counts = {p: 0 for p in pairs}
    rng = random.Random(seed)
    for _ in range(trials):
        schedule = reference_sample(poset, rng)
        slot = [0] * poset.n_jobs
        for i, job in enumerate(schedule):
            slot[job] = i
        for a, b in pairs:
            if slot[a] < slot[b]:
                counts[(a, b)] += 1
    return counts


def best_of_n_by_loop(G, n_samples: int, seed: int = 0):
    """Reference best-of-N: the first cheapest vertex order of the
    reference schedules, costed one sample at a time."""
    poset = SchedulingPoset(Hypergraph.from_graph(G))
    rng = random.Random(seed)
    best_val = best_pi = None
    for _ in range(n_samples):
        pi = Ordering.from_sequence([j for j in reference_sample(poset, rng) if j < G.n])
        val = mlvc_objective(G, pi)
        if best_val is None or val < best_val:
            best_val, best_pi = val, pi
    return best_pi, best_val


def balance_check_by_loop(H, trials: int, seed: int = 0, jobs: int = 1):
    """Reference balance report from the reference inversion counts, with
    the library's per-worker shares and seeds for ``jobs`` > 1, its pair
    order, its flag rule and its first-minimum worst pair."""
    share = [trials // jobs + (w < trials % jobs) for w in range(jobs)]
    share = [s for s in share if s]
    seeds = [seed] if jobs == 1 else [seed * 1_000_003 + w for w in range(len(share))]
    partials = [count_inversions_by_pairs(H, s, w) for s, w in zip(share, seeds)]
    pairs = list(partials[0])
    floor = Fraction(1, 1 + max(H.max_edge_size, 1))
    probabilities = {p: sum(c[p] for c in partials) / trials for p in pairs}
    flagged, worst = [], None
    for (a, b), p_ab in probabilities.items():
        for p, pair in ((p_ab, (a, b)), (1 - p_ab, (b, a))):
            if p + 3 * (p * (1 - p) / trials) ** 0.5 < floor:
                flagged.append(pair)
            if worst is None or p < worst[0]:
                worst = (p, pair)
    return BalanceReport(
        trials=trials,
        floor=floor,
        probabilities=probabilities,
        worst_pair=worst and worst[1],
        worst_probability=worst and worst[0],
        flagged=tuple(flagged),
    )


def random_regular_graph(n: int, d: int, rng: random.Random):
    """A random simple d-regular graph by the configuration model, redrawn
    until no pairing makes a loop or a repeated edge."""
    while True:
        stubs = [v for v in range(n) for _ in range(d)]
        rng.shuffle(stubs)
        edges = {(min(a, b), max(a, b)) for a, b in zip(stubs[::2], stubs[1::2]) if a != b}
        if len(edges) == n * d // 2:
            return Graph(n, tuple(sorted(edges)))


def is_optimal_by_fractions(objective, rows, x, y) -> bool:
    """The LP optimality certificate in plain Fraction arithmetic: x >= 0 holds
    every (terms, sense, rhs) row, y has each row's sign (<= 0 on '<=',
    >= 0 on '>='), A^T y <= c and c.x = b.y."""
    if any(v < 0 for v in x):
        return False
    aty = [Fraction(0)] * len(objective)
    for (terms, sense, b), yi in zip(rows, y):
        lhs = sum((Fraction(v) * x[j] for j, v in terms), Fraction(0))
        if sense == "<=" and (lhs > b or yi > 0) or sense == ">=" and (lhs < b or yi < 0):
            return False
        for j, v in terms:
            aty[j] += Fraction(v) * yi
    cx = sum((Fraction(c) * v for c, v in zip(objective, x)), Fraction(0))
    by = sum((Fraction(b) * yi for (_, _, b), yi in zip(rows, y)), Fraction(0))
    return all(a <= c for a, c in zip(aty, objective)) and cx == by


def certify_relaxation_by_fractions(G, X, theta, rho, y) -> Fraction:
    """Reference ``simplex.certify_relaxation``: the same checks, in the
    same order and with the same messages, in plain Fraction arithmetic."""
    n = G.n
    for row in X:
        if row[0] or any(a > b for a, b in zip(row, row[1:])):
            raise CertificateError("LP primal point has a negative entry")
    for t in range(1, n + 1):
        if sum(row[t] - row[t - 1] for row in X) > 1:
            raise CertificateError("LP primal point violates a pack row")
    if any(yt > 0 for yt in y):
        raise CertificateError("LP dual has the wrong sign on a pack row")
    value, load = Fraction(0), [Fraction(0)] * n
    for (a, b), (on_a, on_b) in zip(G.edges, theta, strict=True):
        load[a] += on_a
        load[b] += on_b
        for t in range(n):
            z_a, z_b = on_a * rho[a][t], on_b * rho[b][t]
            if z_a < 0 or z_b < 0:
                raise CertificateError("LP dual has the wrong sign on a cover row")
            if z_a + z_b > 1:
                raise CertificateError("LP dual violates a u-column")
            value += max(0, 1 - min(X[a][t], X[b][t]))
    dual = sum(y, Fraction(0))
    for v in range(n):
        tail = 0  # sum of rho[v] over the steps after t
        for t in range(n - 1, -1, -1):
            if y[t] + load[v] * tail > 0:
                raise CertificateError("LP dual violates an x-column")
            tail += rho[v][t]
        dual += load[v] * tail
    if value != dual:
        raise CertificateError("LP primal and dual values differ")
    return value


def expanded_relaxation_pair(G, X, theta, rho, y):
    """The structured pair of ``simplex.certify_relaxation`` as the primal
    point and row duals in ``build_lp``'s column and row order: u[e, t] =
    max(0, 1 - min over v in e of X[v][t - 1]), x[v, t] = X[v][t] -
    X[v][t - 1], pack row t's dual y[t - 1] and cover row (e, v, t)'s
    theta[e, v] rho[v][t - 1]."""
    steps = range(1, G.n + 1)
    u = [max(0, 1 - min(X[v][t - 1] for v in edge)) for edge in G.edges for t in steps]
    x = [X[v][t] - X[v][t - 1] for v in range(G.n) for t in steps]
    cover = [
        share * rho[v][t - 1] for edge, shares in zip(G.edges, theta) for v, share in zip(edge, shares) for t in steps
    ]
    return u + x, list(y) + cover


def in_graphic_base_polytope(G, x) -> bool:
    """x in the base polytope of G's graphic matroid, by enumerating every
    nonempty vertex set U: x >= 0, x(E) = n - (components of G), and
    x(E(U)) <= |U| - 1, a loop at v lying in E({v})."""
    rank = G.n - len(G.components())
    if any(xe < 0 for xe in x) or sum(x) != rank:
        return False
    for U in range(1, 1 << G.n):
        inside = sum(xe for xe, (u, v) in zip(x, G.edges) if (U >> u) & 1 and (U >> v) & 1)
        if inside > U.bit_count() - 1:
            return False
    return True


def in_coverage_base_polytope(G, x) -> bool:
    """x in the base polytope of cov(X) = #edges meeting X, by enumerating
    every vertex set X: x(X) <= cov(X), with equality at X = V."""
    def cov(X):
        return sum(1 for u, v in G.edges if (X >> u) & 1 or (X >> v) & 1)

    full = (1 << G.n) - 1
    if sum(x) != cov(full):
        return False
    return all(sum(x[v] for v in range(G.n) if (X >> v) & 1) <= cov(X) for X in range(1 << G.n))


def graphic_membership_by_min_cuts(G, x) -> bool:
    """x in the base polytope of G's graphic matroid, by the min-cut
    sequence of Padberg and Wolsey ("Trees and cuts", 1983).  With x >= 0,
    zero on every loop and x(E) = r(E), x lies in it exactly when x(E(U))
    <= |U| - 1 for every nonempty vertex set U.  Scaled by L, the lcm of the
    denominators, 2L(|U| - x(E(U))) + 2L x(E) is the capacity of the cut
    around {s} + U in a network with capacity L x_e on each edge e,
    L d_x(w) from s to each vertex w (d_x its x-weighted degree) and 2L from
    each w to t; a min cut with the i-th vertex forced to the s side and the
    earlier ones to the t side covers every U whose first vertex is the
    i-th, and must be at least 2L(x(E) + 1)."""
    n, edges = G.n, list(G.edges)
    if any(xe < 0 for xe in x) or any(xe for xe, (u, v) in zip(x, edges) if u == v):
        return False
    if sum(x) != n - len(G.components()):
        return False
    L = lcm(*(Fraction(xe).denominator for xe in x))
    weights = [int(xe * L) for xe in x]
    s, t = n, n + 1
    degree = [0] * n
    for (u, v), w in zip(edges, weights):
        if u != v:
            degree[u] += w
            degree[v] += w
    bound = sum(degree) + 2 * L  # 2L(x(E) + 1)
    # above any cut that crosses no forced edge
    forced = sum(weights) + sum(degree) + 2 * L * n + 1
    source, sink = list(degree), [2 * L] * n
    terminals = [(s, w) for w in range(n)] + [(w, t) for w in range(n)]
    # a single vertex U never violates, so the last vertex needs no cut
    for i in range(n - 1):
        source[i] = forced
        network = FlowNetwork(n + 2, edges + terminals, weights + source + sink)
        if network.min_cut(s, t)[1] < bound:
            return False
        source[i], sink[i] = degree[i], forced
    return True


def level_sets_tight_by_scan(f, x) -> bool:
    """Whether x(L) = f(L) - f(empty) on every lower level set L = {x <= lam},
    each set found by a scan of all of x per distinct value."""
    for lam in set(x):
        level = [e for e, xe in enumerate(x) if xe <= lam]
        if sum(x[e] for e in level) != f(mask_of(level)) - f(0):
            return False
    return True


def is_linear_extension(poset, schedule) -> bool:
    """Whether ``schedule`` lists every job once, each hyperedge job after
    all of its vertices."""
    if sorted(schedule) != list(range(poset.n_jobs)):
        return False
    n = poset.hypergraph.n
    seen: set[int] = set()
    for job in schedule:
        if job < n:
            seen.add(job)
        elif not poset.hypergraph.edges[job - n] <= seen:
            return False
    return True


def sample_extension(H, seed: int = 0) -> list[int]:
    """One random linear extension: vertices in a uniform random order, each
    edge scheduled immediately once complete, edge ties shuffled."""
    return next(_samples(SchedulingPoset(H), random.Random(seed), 1))


@contextmanager
def wolfe_path():
    """A ``with`` block in which ``min_norm_base`` takes the Fujishige-Wolfe
    path on every ground, however small, for each oracle without a
    decomposed base; it yields a list that grows by one at each Wolfe
    search run."""
    searches, search = [], sfm._exact_min_norm_point
    with mock.patch.object(sfm, "EXACT_SOLVER_CAP", -1), mock.patch.object(
        sfm, "_exact_min_norm_point", lambda *args: searches.append(args) or search(*args)
    ):
        yield searches


def incidence_matroid(G: Graph) -> VectorMatroid:
    """The column matroid of G's oriented incidence matrix (+1/-1 per edge,
    a zero column for a loop): over the rationals, G's graphic matroid."""
    rows = [[0] * G.m for _ in range(G.n)]
    for i, (u, v) in enumerate(G.edges):
        rows[u][i] += 1
        rows[v][i] -= 1
    return VectorMatroid(rows)
