"""Concrete rank oracles: graphic, uniform, vector, dual, parallel
extensions; the symmetric cut function of a weighted graph and the
coverage function of a graph."""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, isqrt, lcm, prod
from typing import Iterable, Iterator, Sequence

from .core import (
    CertificateError,
    Graph,
    GroundSet,
    ParseError,
    SetFunctionOracle,
    _nonblank_lines,
    check_costs,
    int_dtype,
    integer_vector,
    iter_bits,
    mask_of,
    narrowed,
)
from .flow import FlowNetwork, bounded_orientation, forest_violation


class Matroid(SetFunctionOracle):
    """A rank oracle.  Rank values are nonnegative ints bounded by |S|."""

    def rank(self, subset: int) -> int:
        return self(subset)

    @cached_property
    def full_rank(self) -> int:
        return self.rank(self.full_mask)

    def corank(self, subset: int) -> int:
        """r*(X) = |X| - r(E) + r(E - X)."""
        if subset < 0 or subset >> self.m:
            raise ValueError("subset outside ground set")
        return subset.bit_count() - self.full_rank + self.rank(self.full_mask ^ subset)

    def is_independent(self, subset: int) -> bool:
        return self.rank(subset) == subset.bit_count()

    def is_basis(self, subset: int) -> bool:
        return subset.bit_count() == self.full_rank and self.is_independent(subset)

    def bases(self, limit: int | None = None):
        """Iterate over all basis bitmasks; raise if more than ``limit``."""
        from itertools import combinations

        k = self.full_rank
        count = 0
        for combo in combinations(range(self.m), k):
            mask = mask_of(combo)
            if self.rank(mask) == k:
                count += 1
                if limit is not None and count > limit:
                    raise ValueError(f"matroid has more than {limit} bases")
                yield mask


class UniformMatroid(Matroid):
    """r(S) = min(|S|, k) on m elements."""

    def __init__(self, m: int, k: int):
        if not 0 <= k <= m:
            raise ValueError("need 0 <= k <= m")
        self.k = k
        super().__init__(GroundSet(m))

    def evaluate(self, subset: int) -> int:
        return min(subset.bit_count(), self.k)


class GraphicMatroid(Matroid):
    """Rank of an edge set = n - (components of the subgraph it spans).

    A single query rebuilds a union-find structure, and one union-find pass
    ranks all prefixes of an ordering (``_prefix_values``); the dense table
    is filled in one batched pass instead (see ``_scaled_table``).  Base
    polytope membership is decided exactly by one orientation of the
    scaled point moved from root to root, each finished root leaving the
    graph (``_base_membership``), and the minimum-norm base is built cell
    by cell from the same orientations (``_decomposed_base``).
    """

    def __init__(self, graph: Graph):
        self.graph = graph
        super().__init__(GroundSet(graph.m))

    def _running_ranks(self, elements: Iterable[int]) -> Iterator[int]:
        """The rank of each prefix of ``elements`` (distinct edges), by
        adding the edges one at a time to one union-find structure."""
        parent = list(range(self.graph.n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        rank = 0
        for i in elements:
            u, v = self.graph.edges[i]
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
                rank += 1
            yield rank

    def evaluate(self, subset: int) -> int:
        rank = 0
        for rank in self._running_ranks(iter_bits(subset)):
            pass
        return rank

    def _prefix_values(self, order: Sequence[int]) -> list[int]:
        return [0, *self._running_ranks(order)]

    def _base_membership(self, x: Sequence[Fraction]) -> bool:
        """Whether x lies in the base polytope {x : x(X) <= r(X), x(E) =
        r(E)}, decided exactly.  With x >= 0 and x(E) = r(E), it does
        exactly when x(E(U)) <= |U| - 1 for every nonempty vertex set U
        (Edmonds' forest polytope; a loop at v lies in E({v})).  Scaled by
        L, the lcm of the denominators, that is decided by
        ``flow.forest_violation``: True rests on n - 1 orientations of the
        weights L x_e, one per root r < n - 1 on the graph less the vertices
        before r, each checked in integers to put no load on r and at most L
        on every vertex, so L x(E(U)) <= L(|U| - 1) for every U whose least
        vertex is r (Hakimi 1965); False rests on a vertex set checked in
        integers to violate the bound."""
        L, weights = integer_vector(x)
        if min(weights, default=0) < 0 or sum(weights) != L * self.full_rank:
            return False
        return forest_violation(self.graph.n, self.graph.edges, weights, L)[0] is None

    def _decomposed_base(self) -> list[Fraction]:
        """The minimum-norm base, one cell at a time from the least value
        up (Fujishige 1980; by flows, Cunningham 1985).  Loops take 0.  On
        the multigraph of the live edges, with every cell found so far
        contracted, the next value is lam = min r(X)/|X|, attained on edge
        sets E(U) with (|U| - 1)/|E(U)| = lam: starting from rank/|live|, a
        set U that ``flow.forest_violation`` finds above the bound lam |E(U)|
        <= |U| - 1 (weight p per edge, unit q, lam = p/q) lowers lam to its
        own ratio until none is found.  The cell, the largest X with r(X) =
        lam |X|, is then the live edges inside the tight vertex sets of that
        last pass; they take lam, and each set is contracted to a vertex.
        ``sfm.min_norm_base`` certifies the result."""
        G = self.graph
        parent = list(range(G.n))

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        x = [Fraction(0)] * self.m
        live = [i for i, (u, v) in enumerate(G.edges) if u != v]
        rank = self.full_rank
        while live:
            label: dict[int, int] = {}  # each contracted vertex's index
            edges = []
            for i in live:
                a, b = (label.setdefault(find(w), len(label)) for w in G.edges[i])
                if a == b:
                    raise CertificateError("a live edge lies inside a contracted cell")
                edges.append((a, b))
            lam = Fraction(rank, len(live))
            while True:
                U, tight = forest_violation(len(label), edges, [lam.numerator] * len(edges), lam.denominator)
                if U is None:
                    break
                lam = Fraction(U.bit_count() - 1, sum((U >> a) & (U >> b) & 1 for a, b in edges))
            if not tight:
                raise CertificateError("no vertex set is tight at the least ratio")
            group = {v: Z for Z in tight for v in iter_bits(Z)}
            rep = list(label)
            for Z in tight:
                first, *rest = (rep[v] for v in iter_bits(Z))
                for v in rest:
                    parent[find(v)] = find(first)
                rank -= len(rest)
            kept = []
            for i, (a, b) in zip(live, edges):
                if a in group and group.get(b) == group[a]:
                    x[i] = lam
                else:
                    kept.append(i)
            live = kept
        return x

    def _scaled_table(self) -> tuple[int, np.ndarray]:
        """All 2^m ranks, adding one edge at a time to every edge set built
        so far: rank(S + e) = rank(S) + [e joins two components of S].
        Row S of ``labels`` names each vertex's component in S by its
        smallest vertex; the last edge's labels are never needed."""
        import numpy as np

        vertices = sorted({v for edge in self.graph.edges for v in edge})
        column = {v: i for i, v in enumerate(vertices)}
        labels = np.arange(len(vertices), dtype=int_dtype(len(vertices)))[None, :]
        rank = np.zeros(1, dtype=int_dtype(self.m))
        for i, (u, v) in enumerate(self.graph.edges):
            a, b = labels[:, column[u]], labels[:, column[v]]
            rank = np.concatenate([rank, rank + (a != b)])
            if i + 1 < self.m:
                keep, drop = np.minimum(a, b)[:, None], np.maximum(a, b)[:, None]
                labels = np.concatenate([labels, np.where(labels == drop, keep, labels)])
        return 1, rank


#: most column sets whose annihilators ``VectorMatroid._scaled_table`` holds
#: at once
ANNIHILATOR_BLOCK = 1 << 14


class VectorMatroid(Matroid):
    """Column matroid of an integer matrix, ranked exactly over the
    rationals.

    The dense table is filled in one batched pass that adds one column at a
    time to every column set built so far (see ``_scaled_table``); one
    fraction-free elimination ranks all prefixes of an ordering
    (``_prefix_values``), and a single query is the last of them.
    """

    def __init__(self, rows: Sequence[Sequence[int]]):
        self.rows = tuple(tuple(int(x) for x in row) for row in rows)
        if not self.rows:
            raise ValueError("matrix must have at least one row")
        width = len(self.rows[0])
        if any(len(row) != width for row in self.rows):
            raise ValueError("matrix rows must have equal length")
        super().__init__(GroundSet(width))

    def evaluate(self, subset: int) -> int:
        return self._prefix_values(list(iter_bits(subset)))[-1]

    def _prefix_values(self, order: Sequence[int]) -> list[int]:
        """The rank of each prefix of ``order``, the empty prefix first.
        Each new column is reduced against the pivot columns kept so far,
        in the order they were kept: a pivot (p, u) has u_p != 0 and is
        zero on the rows of the pivots before it, so v <- u_p v - v_p u
        clears row p and keeps the earlier rows clear.  Each step divides
        v by the gcd of its entries; a nonzero remainder is kept as a
        pivot on its first nonzero row.  Once the pivots fill the rows, no
        later column can raise the rank."""
        pivots: list[tuple[int, list[int]]] = []
        ranks = [0]
        for j in order:
            if len(pivots) < len(self.rows):
                v = [row[j] for row in self.rows]
                for p, u in pivots:
                    if v[p]:
                        v = [u[p] * a - v[p] * b for a, b in zip(v, u)]
                        g = gcd(*v)
                        v = [a // g for a in v] if g > 1 else v
                if any(v):
                    pivots.append((next(i for i, a in enumerate(v) if a), v))
            ranks.append(len(pivots))
        return ranks

    def _scaled_table(self) -> tuple[int, np.ndarray]:
        """All 2^m ranks from one k x k integer matrix N_S per column set S,
        whose nonzero rows span the annihilator {y : y.a_j = 0, j in S};
        N_empty = I.  Adding a column v to S raises the rank exactly when
        w = N_S v is nonzero; then, with p the first index where w_p != 0,
        N_{S+v} = w_p N_S - w (x) N_S[p], whose row p is zero.  Over the
        rationals each row is divided by the gcd of its entries, so every
        nonzero row is the primitive vector of a line spanned by r x r
        minors of the matrix, at most the Hadamard bound H in magnitude.

        The low columns are built in one batch of states; each block of
        those is then extended over the remaining columns and fills its
        columns of the (2^high, 2^low) table, so at most about
        ``ANNIHILATOR_BLOCK`` states are held at once."""
        import numpy as np

        k, m = len(self.rows), self.m
        cols = [[row[j] for row in self.rows] for j in range(m)]
        # each column norm rounded up to an integer above it, so H >= 1
        norms = sorted((isqrt(sum(x * x for x in c)) + 1 for c in cols), reverse=True)
        H = prod(norms[:k])
        dtype = int_dtype(2 * k * max((abs(x) for c in cols for x in c), default=0) * H * H)
        cols = np.array(cols, dtype=dtype).reshape(m, k)
        rank_dtype = int_dtype(m)

        def extend(N, rank, vectors, keep_last):
            for i, v in enumerate(vectors):
                w = N @ v
                grows = (w != 0).any(axis=1)
                rank = np.concatenate([rank, rank + grows])
                if i + 1 < len(vectors) or keep_last:
                    N = _adjoin(N, w, grows)
            return N, rank

        block_bits = ANNIHILATOR_BLOCK.bit_length() - 1
        low = min(m, block_bits)
        high = m - low
        N, rank = extend(
            np.eye(k, dtype=dtype)[None], np.zeros(1, dtype=rank_dtype), cols[:low], high > 0
        )
        if not high:
            return 1, rank
        table = np.empty((1 << high, 1 << low), dtype=rank_dtype)
        width = max(1, ANNIHILATOR_BLOCK >> high)
        for start in range(0, 1 << low, width):
            stop = start + width
            _, ranks = extend(N[start:stop], rank[start:stop], cols[low:], False)
            table[:, start:stop] = ranks.reshape(1 << high, -1)
        return 1, table.reshape(-1)


def _adjoin(N: np.ndarray, w: np.ndarray, grows: np.ndarray) -> np.ndarray:
    """The annihilator matrices of every set S, then of every S + v, for a
    column v with w = N v: N_{S+v} = w_p N_S - w (x) N_S[p] where w != 0, p
    its first nonzero index, rows divided by their gcds; N_{S+v} = N_S where
    w = 0."""
    import numpy as np

    out = np.concatenate([N, N])
    index = np.flatnonzero(grows)
    N, w = N[index], w[index]
    rows = np.arange(len(index))
    p = np.argmax(w != 0, axis=1)
    new = w[rows, p][:, None, None] * N - w[:, :, None] * N[rows, p][:, None, :]
    g = np.gcd.reduce(new, axis=2)
    g[g == 0] = 1
    new //= g[:, :, None]
    out[len(grows) + index] = new
    return out


class DualMatroid(Matroid):
    """The dual of a matroid: rank via the corank formula of the base."""

    def __init__(self, base: Matroid):
        self.base = base
        super().__init__(base.ground)

    def evaluate(self, subset: int) -> int:
        return self.base.corank(subset)


class ParallelExtension(Matroid):
    """A matroid with each element replaced by a class of parallel copies.

    The rank of an expanded subset equals the rank of its projection onto
    the original elements.
    """

    def __init__(self, base: Matroid, parent_of: Sequence[int]):
        self.base = base
        self.parent_of = tuple(parent_of)
        super().__init__(GroundSet(len(self.parent_of)))

    def project(self, subset: int) -> int:
        mask = 0
        for i in iter_bits(subset):
            mask |= 1 << self.parent_of[i]
        return mask

    def evaluate(self, subset: int) -> int:
        return self.base.rank(self.project(subset))


def duplicate(M: Matroid, costs: Sequence[int]) -> tuple[ParallelExtension, list[list[int]]]:
    """Expand element e into costs[e] parallel copies.

    Returns the expanded matroid and, per original element, the list of its
    copy labels (the first copy of e keeps e's relative order).
    """
    check_costs(costs, M.m)
    parent_of: list[int] = []
    groups: list[list[int]] = []
    for e, c in enumerate(costs):
        group = []
        for _ in range(c):
            group.append(len(parent_of))
            parent_of.append(e)
        groups.append(group)
    return ParallelExtension(M, parent_of), groups


class CutFunction(SetFunctionOracle):
    """Total weight of edges with exactly one endpoint in S.

    Symmetric (f(S) = f(V - S)), submodular, and zero on both the empty set
    and the full vertex set.  The ground set is the vertex set.  The weights
    are kept as integers over their common denominator D: evaluation sums
    integers, the dense table is filled in one pass per edge, and
    ``sfm.st_min_cut`` takes s-t cuts from an exact integer maximum flow by
    shortest augmenting paths on ``network`` (``flow.FlowNetwork``).
    """

    def __init__(self, graph: Graph):
        self.graph = graph
        weights = [Fraction(graph.weight(i)) for i in range(graph.m)]
        #: D, the common denominator of the edge weights
        self.scale = lcm(*(w.denominator for w in weights))
        #: D * weight of each edge
        self.capacities = tuple(w.numerator * (self.scale // w.denominator) for w in weights)
        self.network = FlowNetwork(graph.n, graph.edges, self.capacities)
        super().__init__(GroundSet(graph.n))

    def evaluate(self, subset: int) -> Fraction:
        total = sum(
            c for (u, v), c in zip(self.graph.edges, self.capacities) if ((subset >> u) ^ (subset >> v)) & 1
        )
        return Fraction(total, self.scale)

    def _scaled_table(self) -> tuple[int, np.ndarray]:
        """All 2^n cut values times D, one numpy pass per edge adding its
        scaled weight wherever the edge crosses; then divided by the gcd of
        D and the entries, so the denominator is the least one of the values."""
        import numpy as np

        masks = np.arange(1 << self.m, dtype=np.int64)
        table = np.zeros(1 << self.m, dtype=int_dtype(sum(self.capacities)))
        for (u, v), c in zip(self.graph.edges, self.capacities):
            table += c * (((masks >> u) ^ (masks >> v)) & 1).astype(table.dtype)
        g = gcd(self.scale, int(np.gcd.reduce(table)))
        return self.scale // g, narrowed(table // g)


class CoverageFunction(SetFunctionOracle):
    """cov(X) = the number of edges with an endpoint in X.

    Monotone, submodular and normalized; the ground set is the vertex set.
    Edge weights are ignored, and a loop at v counts once when v is in X.
    The dense table is filled in one pass per edge; the minimum-norm base
    is built densest cell first from load-bounded orientations
    (``_decomposed_base``), which also decide base polytope membership.
    """

    def __init__(self, graph: Graph):
        self.graph = graph
        super().__init__(GroundSet(graph.n))

    def evaluate(self, subset: int) -> int:
        return sum(((subset >> u) | (subset >> v)) & 1 for u, v in self.graph.edges)

    def _base_membership(self, x: Sequence[Fraction]) -> bool:
        """Whether x lies in the base polytope, decided exactly.  As cov(X)
        = m - |E(V - X)|, E(Y) the edges and loops inside Y, it does when
        x(V) = m and x(Y) >= |E(Y)| for every Y: when the edges can be
        oriented with each vertex's load at most x_v, a loop on its vertex
        (Hakimi 1965).  True rests on such an orientation, checked in
        integers (``_orientation``); a stuck drain answers False."""
        return self._orientation(x) is not None

    def _orientation(self, x: Sequence[Fraction]) -> tuple[list[tuple[int, int]], list[int]] | None:
        """``flow.bounded_orientation``'s (pairs, share) for x scaled by L,
        the lcm of its denominators: each edge weighs L, and a loop's weight
        is taken off its vertex's capacity L x_v; None when x(V) != m or no
        such orientation exists.  The last x's answer is kept, so the MLVC
        dual (``_edge_shares``) reuses the certificate's orientation."""
        G = self.graph
        L, cap = integer_vector(x)
        if sum(cap) != L * G.m:
            return None
        key, cached = (L, tuple(cap)), getattr(self, "_oriented", None)
        if cached is None or cached[0] != key:
            for a, b in G.edges:
                cap[a] -= L * (a == b)
            pairs, share, _ = bounded_orientation(G.n, G.edges, [L] * G.m, cap)
            cached = self._oriented = (key, None if share is None else (pairs, share))
        return cached[1]

    def _edge_shares(self, x: Sequence[Fraction]) -> list[tuple[Fraction, Fraction]]:
        """For each edge (a, b), its parts on a and b, summing to 1, with
        every vertex's load x_v for x in the base polytope, else
        CertificateError; a loop's parts are 1/2 and 1/2, one per cover row
        of the MLVC relaxation.  They are the shares of ``_orientation``;
        the merged share of parallel copies is split evenly over them."""
        oriented = self._orientation(x)
        if oriented is None:
            raise CertificateError("no orientation keeps every load within its capacity")
        pairs, share = oriented
        part = {(a, b): Fraction(1, 2) for a, b in self.graph.edges if a == b}  # part[a, b]: the part on a
        for (u, v), on_u, on_v in zip(pairs, share[::2], share[1::2]):
            part[u, v], part[v, u] = Fraction(on_u, on_u + on_v), Fraction(on_v, on_u + on_v)
        return [(part[a, b], part[b, a]) for a, b in self.graph.edges]

    def _decomposed_base(self) -> list[Fraction]:
        """The minimum-norm base, one cell at a time from the greatest
        value down (Fujishige 1980; densest subgraphs, Goldberg 1984).  The
        vertices given a value leave the graph: an edge to one of them
        becomes a loop on its other endpoint, and an edge inside them drops
        out.  The next value is rho = max |E(Y)|/|Y| over the vertex sets Y
        left, E(Y) the edges and loops inside Y: starting from the density
        of all of them, rho = p/q, ``flow.bounded_orientation`` gives each
        edge weight q and each vertex capacity p - q loops(v); a set
        holding more than its capacity is denser than rho and raises rho
        to its own density until the orientation fits.  Its set of full
        vertices that no share leaves is then the largest densest set, the
        cell, which takes rho.  ``sfm.min_norm_base`` certifies the
        result."""
        G, n = self.graph, self.graph.n
        x: list = [None] * n
        left = n
        while left:
            edges, loops = [], [0] * n
            for a, b in G.edges:
                if x[a] is None and x[b] is None and a != b:
                    edges.append((a, b))
                elif x[a] is None or x[b] is None:
                    loops[a if x[a] is None else b] += 1
            rho = Fraction(len(edges) + sum(loops), left)
            while True:
                p, q = rho.numerator, rho.denominator
                _, share, U = bounded_orientation(n, edges, [q] * len(edges), [p - q * k for k in loops])
                if share is not None:
                    break
                inside = sum((U >> a) & (U >> b) & 1 for a, b in edges) + sum(loops[v] for v in iter_bits(U))
                rho = Fraction(inside, U.bit_count())
            cell = [v for v in iter_bits(U) if x[v] is None]
            if not cell:
                raise CertificateError("no vertex set is tight at the greatest density")
            for v in cell:
                x[v] = rho
            left -= len(cell)
        return x

    def _scaled_table(self) -> tuple[int, np.ndarray]:
        """All 2^n values, one numpy OR pass per edge adding 1 wherever
        the edge meets the set."""
        import numpy as np

        masks = np.arange(1 << self.m, dtype=np.int64)
        table = np.zeros(1 << self.m, dtype=int_dtype(self.graph.m))
        for u, v in self.graph.edges:
            table += (((masks >> u) | (masks >> v)) & 1).astype(table.dtype)
        return 1, table


def fundamental_circuit(M: Matroid, basis: int, e: int) -> int:
    """The unique circuit inside basis + e, for e outside the basis.

    For graphic matroids this is the spanning-tree path between the
    endpoints of e, plus e itself.
    """
    if not M.is_basis(basis):
        raise ValueError("given set is not a basis")
    if (basis >> e) & 1:
        raise ValueError("element already belongs to the basis")
    k = M.full_rank
    circuit = 1 << e
    with_e = basis | (1 << e)
    for b in iter_bits(basis):
        # b lies on the circuit iff swapping it for e keeps a basis
        if M.rank(with_e ^ (1 << b)) == k:
            circuit |= 1 << b
    return circuit


# matrix file format: "k m" header, then k rows of m integers
def parse_matrix(text: str) -> VectorMatroid:
    lines = list(_nonblank_lines(text))
    if not lines:
        raise ParseError(1, "empty matrix file")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 2:
        raise ParseError(lineno, "header must be 'k m'")
    try:
        k, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError(lineno, "header must contain two integers") from None
    if k < 1 or m < 1:
        raise ParseError(lineno, "k and m must be positive")
    if len(lines) - 1 != k:
        raise ParseError(lineno, f"expected {k} matrix rows, found {len(lines) - 1}")
    rows = []
    for lineno, line in lines[1:]:
        parts = line.split()
        if len(parts) != m:
            raise ParseError(lineno, f"expected {m} entries")
        try:
            rows.append([int(x) for x in parts])
        except ValueError:
            raise ParseError(lineno, "matrix entries must be integers") from None
    return VectorMatroid(rows)
