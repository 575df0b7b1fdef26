"""Independent brute-force oracles used to pin expected values, and the
test-only generators (labelled trees, sampled linear extensions).

These deliberately avoid the library's solver code paths: optima come from
enumerating every permutation or subset directly.
"""

import heapq
import random
from fractions import Fraction
from itertools import combinations, permutations, product

from ordolab import GroundSet, Ordering, SetFunctionOracle, build_poset
from ordolab.mlvc import _sample


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


def sparse_rows(rows):
    """Dense (coefficients, sense, rhs) rows as simplex_minimize takes them:
    (terms, sense, rhs), terms the (column, coefficient) pairs of the
    nonzero coefficients."""
    return [([(j, v) for j, v in enumerate(coeffs) if v], sense, rhs) for coeffs, sense, rhs in rows]


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


def _vertices(rows, n):
    """Every vertex of {x >= 0 : rows}: the feasible points where n linearly
    independent constraints (rows or bounds x_j >= 0) are tight."""
    bounds = [([int(j == k) for k in range(n)], ">=", 0) for j in range(n)]
    constraints = list(rows) + bounds
    holds = {"<=": lambda a, b: a <= b, ">=": lambda a, b: a >= b, "==": lambda a, b: a == b}
    found = set()
    for chosen in combinations(constraints, n):
        x = _solve_square([c for c, _, _ in chosen], [b for _, _, b in chosen])
        if x is not None and all(
            holds[sense](sum(a * v for a, v in zip(coeffs, x)), rhs) for coeffs, sense, rhs in constraints
        ):
            found.add(tuple(x))
    return found


def brute_lp(objective, rows):
    """min objective . x subject to rows and x >= 0 by vertex enumeration:
    ("infeasible", None), ("unbounded", None) or ("optimal", value).  The
    region is pointed, so it is empty exactly when it has no vertex, and
    the objective is unbounded exactly when some vertex of the recession
    cone's slice {d >= 0 : A d against 0, sum d = 1} improves it."""
    n = len(objective)

    def cost(x):
        return sum(Fraction(c) * v for c, v in zip(objective, x))

    points = _vertices(rows, n)
    if not points:
        return "infeasible", None
    cone = [(coeffs, sense, 0) for coeffs, sense, _ in rows] + [([1] * n, "==", 1)]
    if any(cost(d) < 0 for d in _vertices(cone, n)):
        return "unbounded", None
    return "optimal", min(map(cost, points))


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


def count_inversions_by_pairs(H, trials: int, seed: int) -> dict:
    """Reference inversion count, one Python loop over the pairs per trial:
    for every incomparable pair (a, b), the number of sampled schedules
    that put a before b, drawing the same samples as the library."""
    poset = build_poset(H)
    pairs = poset.incomparable_pairs()
    counts = {p: 0 for p in pairs}
    rng = random.Random(seed)
    for _ in range(trials):
        schedule = _sample(poset, rng)
        slot = [0] * poset.n_jobs
        for i, job in enumerate(schedule):
            slot[job] = i
        for a, b in pairs:
            if slot[a] < slot[b]:
                counts[(a, b)] += 1
    return counts


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


def sample_extension(H, seed: int = 0) -> list[int]:
    """One random linear extension: vertices in a uniform random order, each
    edge scheduled immediately once complete, edge ties shuffled."""
    return _sample(build_poset(H), random.Random(seed))
