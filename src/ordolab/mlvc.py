"""Latency-cover machinery: the scheduling poset, the balanced
linear-extension sampler, a best-of-N randomized solver, and the exact LP
relaxation, whose optimum is certified by a primal-dual pair built from
the coverage function's minimum-norm base (``solve_lp``), not searched for.
The pair is checked against the relaxation's row and column families
from its structure, in O(m n + n^2) steps (``simplex``); the model's
m n^2 row terms are built only for ``emit_lp``.

Jobs are numbered 0..n-1 for vertices and n..n+h-1 for hyperedges.  A
hyperedge job is preceded by each of its vertices and nothing else, so a
linear extension of the poset is exactly a feasible cover schedule.

The sampler is one generator, ``_samples(poset, rng, count)``: a uniform
vertex order, each hyperedge scheduled as soon as its last vertex is, and
ties between hyperedges completed by the same vertex shuffled.  Its draws
are those of ``rng.shuffle`` on the vertex list and on each tie list,
taken draw for draw from ``rng.getrandbits``, so a seed fixes every
schedule and the state ``rng`` is left in.  ``best_of_n`` costs the
sampled vertex orders in numpy blocks and ``balance_check`` counts
inversions one numpy pass per trial.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby, islice
from typing import Iterator

from .core import Graph, Ordering, ParseError, _nonblank_lines, mlvc_objective
from .matroids import CoverageFunction
from .sfm import min_norm_base
from .simplex import certify_relaxation


@dataclass(frozen=True)
class Hypergraph:
    n: int
    edges: tuple[frozenset[int], ...]

    def __post_init__(self):
        for e in self.edges:
            if not e:
                raise ValueError("hyperedges must be nonempty")
            if any(not 0 <= v < self.n for v in e):
                raise ValueError("hyperedge vertex out of range")

    @property
    def max_edge_size(self) -> int:
        return max((len(e) for e in self.edges), default=0)

    @classmethod
    def from_graph(cls, G: Graph) -> "Hypergraph":
        return cls(G.n, tuple(frozenset(e) for e in G.edges))


@dataclass(frozen=True)
class SchedulingPoset:
    """Precedence structure of the cover-scheduling view of MLSC.

    Vertex jobs have processing time 1 and weight 0; edge jobs have
    processing time 0 and weight 1; v precedes e exactly when v is in e.
    The schedule objective equals the latency-cover objective of the vertex
    order.
    """

    hypergraph: Hypergraph

    @property
    def n_jobs(self) -> int:
        return self.hypergraph.n + len(self.hypergraph.edges)

    def job_members(self, job: int) -> frozenset[int]:
        """A job viewed as a vertex set (vertices are singleton sets)."""
        n = self.hypergraph.n
        if job < n:
            return frozenset((job,))
        return self.hypergraph.edges[job - n]

    def precedes(self, a: int, b: int) -> bool:
        n = self.hypergraph.n
        return a < n <= b and a in self.hypergraph.edges[b - n]

    def incomparable_pairs(self) -> list[tuple[int, int]]:
        """Unordered incomparable job pairs (a, b), a < b, in ascending
        order.  Pairs of nested distinct hyperedges are skipped: the smaller
        always completes first, so they are comparable for scheduling
        purposes.  A vertex and a hyperedge holding it are comparable even
        when the hyperedge is that vertex alone (a loop)."""
        import numpy as np

        n, total = self.hypergraph.n, self.n_jobs
        # job x vertex, in float64 for a BLAS product, exact as entries are at most n
        members = np.zeros((total, n))
        members[np.arange(n), np.arange(n)] = 1
        for j, e in enumerate(self.hypergraph.edges):
            members[n + j, list(e)] = 1
        shared = members @ members.T
        a, b = np.triu_indices(total, 1)
        inside, size = shared[a, b], shared.diagonal()
        a_in_b = inside == size[a]
        b_in_a = inside == size[b]
        # equal member sets: repeated hyperedges, or a vertex below its loop
        keep = ~(a_in_b | b_in_a) | (a_in_b & b_in_a & (a >= n))
        return list(zip(a[keep].tolist(), b[keep].tolist()))


def _samples(poset: SchedulingPoset, rng: random.Random, count: int) -> Iterator[list[int]]:
    """``count`` sampled linear extensions, drawn lazily from ``rng``.

    Each is a uniform random vertex order with every hyperedge scheduled
    right after its last vertex; hyperedges completed by the same vertex are
    put in random order.  The draws are exactly those of ``rng.shuffle`` on
    the vertex list and then on each tie list in schedule order (CPython's
    Fisher-Yates over ``_randbelow``, run inline on ``rng.getrandbits``;
    lists of 0 or 1 items draw nothing).  Nothing is drawn before a
    schedule is asked for.
    """
    H = poset.hypergraph
    n = H.n
    sizes = [len(e) for e in H.edges]
    waiting: list[list[int]] = [[] for _ in range(n)]  # hyperedges of each vertex, ascending
    for j, e in enumerate(H.edges):
        for v in e:
            waiting[v].append(j)
    # rng.shuffle of a list of length L draws, for i = L - 1 down to 1, an
    # r below b = i + 1 from k = b.bit_length() bits: the last L - 1 steps
    top = max([n, *map(len, waiting)])
    steps = [(i, i + 1, (i + 1).bit_length()) for i in range(top - 1, 0, -1)]
    getrandbits = rng.getrandbits

    def shuffle(x: list[int]) -> None:
        for i, b, k in steps[top - len(x):]:
            r = getrandbits(k)
            while r >= b:
                r = getrandbits(k)
            x[i], x[r] = x[r], x[i]

    for _ in range(count):
        remaining = sizes.copy()
        order = list(range(n))
        shuffle(order)
        schedule: list[int] = []
        for v in order:
            schedule.append(v)
            completed = []
            for j in waiting[v]:
                remaining[j] -= 1
                if not remaining[j]:
                    completed.append(n + j)
            if len(completed) > 1:
                shuffle(completed)  # ties between edges broken at random
            schedule += completed
        yield schedule


def exact_pair_probability(poset: SchedulingPoset, a: int, b: int) -> Fraction | None:
    """P(job a is scheduled before job b) under the sampler, or None for
    comparable pairs.  For jobs with member sets A, B the probability is
    (|B - A| + |A & B| / 2) / |A | B|, conditioning on the last vertex."""
    if poset.precedes(a, b) or poset.precedes(b, a):
        return None
    A, B = poset.job_members(a), poset.job_members(b)
    if A != B and (A <= B or B <= A):
        return None
    only_a = len(A - B)
    only_b = len(B - A)
    both = len(A & B)
    return Fraction(2 * only_b + both, 2 * (only_a + only_b + both))


@dataclass(frozen=True)
class BalanceReport:
    """Monte-Carlo inversion frequencies for every incomparable pair."""

    trials: int
    floor: Fraction
    probabilities: dict      # (a, b) unordered pair -> empirical P(a before b)
    worst_pair: tuple[int, int] | None          # None when no pair is incomparable
    worst_probability: float | None
    flagged: tuple[tuple[int, int], ...]


def largest_float_below(q: Fraction) -> float:
    """The largest float strictly below q, so that a float x is below q
    exactly when x <= largest_float_below(q)."""
    below = float(q)
    return math.nextafter(below, -math.inf) if below >= q else below


def _count_inversions(H: Hypergraph, pairs: list[tuple[int, int]], trials: int, seed: int) -> np.ndarray:
    """For every incomparable pair (a, b) of ``pairs``, in order, the number
    of sampled schedules that put a before b; one numpy pass over the pairs
    per trial."""
    import numpy as np

    poset = SchedulingPoset(H)
    first = np.array([a for a, _ in pairs], dtype=np.intp)
    second = np.array([b for _, b in pairs], dtype=np.intp)
    hits = np.zeros(len(pairs), dtype=np.int64)
    slot = np.empty(poset.n_jobs, dtype=np.intp)
    position = np.arange(poset.n_jobs)
    for schedule in _samples(poset, random.Random(seed), trials):
        slot[schedule] = position
        hits += slot[first] < slot[second]
    return hits


def balance_check(H: Hypergraph, trials: int, seed: int = 0, jobs: int = 1) -> BalanceReport:
    """Estimate, for every incomparable job pair, the probability of each
    relative order; flag a pair if its estimate plus three standard errors
    still falls below the 1/(1 + max edge size) floor.  With no
    incomparable pair, the worst pair and its probability are None.

    ``jobs`` splits the trials across worker processes with per-worker
    seeds derived from (seed, worker index); the aggregate is deterministic
    for a fixed (seed, jobs) pair.
    """
    import numpy as np

    if trials < 1:
        raise ValueError("need at least one trial")
    if jobs < 1:
        raise ValueError("need at least one job")
    poset = SchedulingPoset(H)
    pairs = poset.incomparable_pairs()
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        share = [trials // jobs] * jobs
        for i in range(trials % jobs):
            share[i] += 1
        share = [s for s in share if s]
        seeds = [seed * 1_000_003 + w for w in range(len(share))]
        with ProcessPoolExecutor(max_workers=len(share)) as pool:
            counts = sum(pool.map(_count_inversions, [H] * len(share), [pairs] * len(share), share, seeds))
    else:
        counts = _count_inversions(H, pairs, trials, seed)
    floor = Fraction(1, 1 + H.max_edge_size)
    below = largest_float_below(floor)
    p = counts / trials
    probabilities = dict(zip(pairs, p.tolist()))
    # entry 2i is P(a before b) for pairs[i] = (a, b), entry 2i + 1 is
    # P(b before a)
    directed = np.column_stack((p, 1 - p)).ravel()

    def direction(k: int) -> tuple[int, int]:
        a, b = pairs[k // 2]
        return (b, a) if k % 2 else (a, b)

    worst_pair = worst_p = None
    if pairs:
        k = int(directed.argmin())  # the first minimum
        worst_p, worst_pair = float(directed[k]), direction(k)
    # p + 3 sigma >= p, so only directions with p <= below can be flagged
    flagged = []
    for k in np.flatnonzero(directed <= below).tolist():
        q = float(directed[k])
        if q + 3 * (q * (1 - q) / trials) ** 0.5 <= below:
            flagged.append(direction(k))
    return BalanceReport(
        trials=trials,
        floor=floor,
        probabilities=probabilities,
        worst_pair=worst_pair,
        worst_probability=worst_p,
        flagged=tuple(flagged),
    )


#: most schedule entries best_of_n holds at once (about 256 KiB as intp)
SAMPLE_BLOCK_ENTRIES = 2**15


def best_of_n(G: Graph, n_samples: int, seed: int = 0) -> tuple[Ordering, int]:
    """Best MLVC labeling among n sampled linear extensions' vertex orders,
    the first on a tie.  Deterministic for a fixed seed.  The samples are
    costed in blocks, sum over edges of max(pos[u], pos[v]) per row."""
    import numpy as np

    if n_samples < 1:
        raise ValueError("need at least one sample")
    poset = SchedulingPoset(Hypergraph.from_graph(G))
    n = G.n
    u, v = np.array(G.edges, dtype=np.intp).reshape(-1, 2).T
    labels = np.arange(1, n + 1)
    block = max(1, SAMPLE_BLOCK_ENTRIES // max(1, poset.n_jobs))
    samples = _samples(poset, random.Random(seed), n_samples)
    best_val = best_order = None
    while schedules := list(islice(samples, block)):
        sampled = np.array(schedules, dtype=np.intp).reshape(len(schedules), poset.n_jobs)
        orders = sampled[sampled < n].reshape(len(schedules), n)  # vertex orders, row by row
        pos = np.empty_like(orders)
        np.put_along_axis(pos, orders, labels, axis=1)
        costs = np.maximum(pos[:, u], pos[:, v]).sum(axis=1)
        i = int(costs.argmin())
        if best_val is None or costs[i] < best_val:
            best_val, best_order = int(costs[i]), orders[i].tolist()
    return Ordering.from_sequence(best_order), best_val


def mlvc_brute_optimum(G: Graph) -> int:
    """Exhaustive MLVC optimum over all vertex labelings (n <= 9 or so)."""
    from itertools import permutations

    best = None
    for perm in permutations(range(G.n)):
        pi = Ordering.from_sequence(perm)
        val = mlvc_objective(G, pi)
        if best is None or val < best:
            best = val
    return best if best is not None else 0


# ---------------------------------------------------------------------------
# LP relaxation


@dataclass
class LpModel:
    """The packing/covering relaxation of MLVC.

    Variables u[e, t] (edge e still uncovered at time t) and x[v, t]
    (vertex v scheduled at time t), t = 1..n.  Objective: minimize the sum
    of all u.  Constraints: at most one vertex per time step (the n pack
    rows); u[e, t] + sum over t' < t of x[v, t'] >= 1 for every v in e (the
    cover rows, edge by edge, first endpoint then second, t ascending; a
    loop has two identical sets).  ``solve_lp`` reads only the graph; the
    columns and rows are built on first access, for ``emit_lp``.
    """

    graph: Graph

    @property
    def num_vars(self) -> int:
        return self.graph.n * (self.graph.m + self.graph.n)

    @property
    def num_constraints(self) -> int:
        return self.graph.n * (1 + 2 * self.graph.m)

    def __getattr__(self, name: str):
        # var_names, objective, rows and row_names, built together on first
        # access; a row's terms are (column, coefficient) pairs, ascending
        if name not in ("var_names", "objective", "rows", "row_names"):
            raise AttributeError(name)
        G, n, one = self.graph, self.graph.n, Fraction(1)
        steps = range(1, n + 1)
        var_names = [f"u_e{ei}_t{t}" for ei in range(G.m) for t in steps]
        first_x = len(var_names)  # u[e, t] is column e n + t - 1, x[v, t] is first_x + v n + t - 1
        var_names += [f"x_v{v}_t{t}" for v in range(n) for t in steps]
        rows = [([(first_x + v * n + t - 1, one) for v in range(n)], "<=", one) for t in steps]
        row_names = [f"pack_t{t}" for t in steps]
        for ei, edge in enumerate(G.edges):
            for v in edge:
                for t in steps:
                    x_before = [(first_x + v * n + tp - 1, one) for tp in range(1, t)]
                    rows.append(([(ei * n + t - 1, one)] + x_before, ">=", one))
                    row_names.append(f"cover_e{ei}_v{v}_t{t}")
        objective = [one] * first_x + [Fraction(0)] * (n * n)
        self.__dict__.update(var_names=var_names, objective=objective, rows=rows, row_names=row_names)
        return self.__dict__[name]


def build_lp(G: Graph) -> LpModel:
    return LpModel(G)


def solve_lp(model: LpModel) -> Fraction:
    """Exact LP optimum, certified by a constructed primal-dual pair that
    must pass ``simplex.certify_relaxation``, else CertificateError; no
    row is built and nothing is searched for.  The optimum equals
    ``pp_lower_bound`` of the coverage function cov(X) = #edges meeting X,
    and both halves of the pair are read off cov's minimum-norm base x*.

    - Primal: the cells of x*, highest value first, are the Sidney blocks;
      a block of k vertices after offset o schedules each of them 1/k at
      every step o + 1..o + k, and u[e, t] = 1 - min over v in e of the
      part of v scheduled before t.
    - Dual: an orientation theta splits each edge over its endpoints with
      every vertex's load equal to x*_v (``CoverageFunction._edge_shares``;
      Hakimi 1965); a loop puts 1/2 on each of its two cover rows.  With
      mu_1 the largest x*_v and mu_t the (t - 1)-th largest for t >= 2, the
      cover row of (e, v, t) gets theta[e, v] min(1, mu_t / x*_v) (0 where
      x*_v = 0) and pack row t gets -(mu_{t+1} + ... + mu_n).  Per step this
      is Charikar's densest-subgraph LP (APPROX 2000).

    For a d-regular graph on n vertices the value is d n (n + 1) / 4."""
    return certify_relaxation(model.graph, *_sidney_pair(model.graph))


def _sidney_pair(G: Graph):
    """(X, theta, rho, y), the pair of ``solve_lp`` in the form
    ``simplex.certify_relaxation`` reads: X[v][t] the part of v scheduled
    in steps 1..t, theta the parts of each edge on its endpoints, rho[v][t
    - 1] = min(1, mu_t / x*_v) and y[t - 1] the dual of pack row t."""
    n = G.n
    f = CoverageFunction(G)
    base = min_norm_base(f)
    order = sorted(range(n), key=base.__getitem__, reverse=True)
    X, offset = [[Fraction(0)] * (n + 1) for _ in range(n)], 0
    for _, block in groupby(order, key=base.__getitem__):
        block = list(block)
        spread = [min(Fraction(t, len(block)), Fraction(1)) for t in range(1, n - offset + 1)]
        for v in block:
            X[v][offset + 1:] = spread
        offset += len(block)
    mu = [base[order[0]], *(base[v] for v in order[:-1])] if n else []
    rho = [[min(Fraction(1), mu_t / xv) if xv else Fraction(0) for mu_t in mu] for xv in base]
    y = [-sum(mu[t:], Fraction(0)) for t in range(1, n + 1)]
    return X, f._edge_shares(base), rho, y


def emit_lp(model: LpModel) -> str:
    """Serialize the model in LP text format (objective, constraints,
    bounds sections); suitable for external solvers."""
    def term(coef: Fraction, name: str) -> str:
        if coef == 1:
            return f"+ {name}"
        if coef == -1:
            return f"- {name}"
        sign = "+" if coef > 0 else "-"
        return f"{sign} {abs(coef)} {name}"

    lines = [f"\\ MLVC relaxation: n={model.graph.n} m={model.graph.m}"]
    lines.append("Minimize")
    obj_terms = [
        term(c, v) for c, v in zip(model.objective, model.var_names) if c
    ]
    lines.append(" obj: " + " ".join(obj_terms).lstrip("+ "))
    lines.append("Subject To")
    for name, (row_terms, sense, rhs) in zip(model.row_names, model.rows):
        terms = [term(c, model.var_names[j]) for j, c in row_terms]
        body = " ".join(terms).lstrip("+ ")
        lines.append(f" {name}: {body} {sense} {rhs}")
    lines.append("Bounds")
    for v in model.var_names:
        lines.append(f" 0 <= {v}")
    lines.append("End")
    return "\n".join(lines) + "\n"


def regular_lp_value(d: int, n: int) -> Fraction:
    """Closed-form LP optimum d n (n + 1) / 4 for d-regular graphs."""
    return Fraction(d * n * (n + 1), 4)


def clique_gap(n: int) -> tuple[int, Fraction, Fraction]:
    """Integer optimum, fractional value, and their ratio on the clique.

    The integer optimum is sum over i = 2..n of i (i - 1) (all labelings of
    a clique cost the same).  The fractional value evaluates the uniform
    feasible point x[v, t] = 1/n with the minimal u it forces, namely
    u[e, t] = max(0, 1 - (t - 1)/n); that sums to m (n + 1) / 2.
    """
    if n < 2:
        raise ValueError("clique gap needs n >= 2")
    integer_opt = sum(i * (i - 1) for i in range(2, n + 1))
    per_edge = sum(max(Fraction(0), 1 - Fraction(t - 1, n)) for t in range(1, n + 1))
    fractional = Fraction(n * (n - 1), 2) * per_edge
    return integer_opt, fractional, Fraction(integer_opt) / fractional


# hypergraph file format: "n h" header, then h lines of 1-indexed vertices
def parse_hypergraph(text: str) -> Hypergraph:
    lines = list(_nonblank_lines(text))
    if not lines:
        raise ParseError(1, "empty hypergraph file")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 2:
        raise ParseError(lineno, "header must be 'n h'")
    try:
        n, h = int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError(lineno, "header must contain two integers") from None
    if n < 0 or h < 0:
        raise ParseError(lineno, "n and h must be nonnegative")
    if len(lines) - 1 != h:
        raise ParseError(lineno, f"expected {h} hyperedge lines, found {len(lines) - 1}")
    edges = []
    for lineno, line in lines[1:]:
        try:
            vs = [int(x) for x in line.split()]
        except ValueError:
            raise ParseError(lineno, "vertex labels must be integers") from None
        if not vs:
            raise ParseError(lineno, "hyperedge must be nonempty")
        if any(not 1 <= v <= n for v in vs):
            raise ParseError(lineno, f"vertex out of range 1..{n}")
        edges.append(frozenset(v - 1 for v in vs))
    return Hypergraph(n, tuple(edges))
