"""Ground sets, orderings, set-function oracles, and the ordering objectives.

Subsets of a ground set {0, ..., m-1} are represented as int bitmasks
throughout the library.  Oracle values, bounds and certificates are exact
(``int`` and :class:`fractions.Fraction`), so bound comparisons in the
solvers are decidable equalities.  The exhaustive solvers work on one dense
integer table per oracle (``SetFunctionOracle.dense_values``): the values
times a common denominator, in a numpy integer array whose dtype is chosen
from a bound on the values, with exact Python ints beyond int64.  The only
floating-point arithmetic is the Fujishige-Wolfe search in ``sfm`` beyond
the exact cap, whose output is re-evaluated exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import comb, gcd, lcm
from typing import Iterator, Mapping, Sequence

import numpy as np

#: Largest ground set the exhaustive (2^m) solvers accept; enforced by
#: ``SetFunctionOracle.dense_values`` alone.
EXACT_SOLVER_CAP = 20


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(elements) -> int:
    mask = 0
    for e in elements:
        mask |= 1 << e
    return mask


class CertificateError(AssertionError):
    """An internal consistency check failed: a computed optimum, minimizer
    lattice or breakpoint did not verify.  Distinct from the ValueErrors
    raised for invalid input."""


# ---------------------------------------------------------------------------
# exact integer tables


def int_dtype(bound: int) -> np.dtype:
    """The narrowest numpy integer dtype holding every integer of magnitude
    at most ``bound``; object (exact Python ints) beyond int64."""
    for dtype in (np.int8, np.int16, np.int32, np.int64):
        if bound <= np.iinfo(dtype).max:
            return np.dtype(dtype)
    return np.dtype(object)


def max_abs(table: np.ndarray) -> int:
    return int(abs(table).max()) if table.size else 0


def narrowed(table: np.ndarray) -> np.ndarray:
    """The same integers in the narrowest dtype that holds them."""
    return table.astype(int_dtype(max_abs(table)), copy=False)


@lru_cache(maxsize=EXACT_SOLVER_CAP + 1)
def size_order(m: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """All m-bit masks by size, ascending within a size (intp), and the
    offset of each size's block.  Cached for every size its callers pass,
    m <= EXACT_SOLVER_CAP."""
    counts = np.zeros(1, dtype=np.int8)
    for _ in range(m):
        counts = np.concatenate([counts, counts + 1])
    starts = (0, *accumulate(comb(m, k) for k in range(m + 1)))
    # filled size by size: a stable argsort peaks 6 MB higher at m = 20
    order = np.empty(1 << m, dtype=np.intp)
    for k, a in enumerate(starts[:-1]):
        order[a : starts[k + 1]] = np.flatnonzero(counts == k)
    order.flags.writeable = False
    return order, starts


# ---------------------------------------------------------------------------
# exact linear systems

_RHS = -1  # the key of the right-hand side in a row of ``solve_exact``


def solve_exact(
    rows: Sequence[Mapping[int, Fraction]], rhs: Sequence[Fraction]
) -> list[Fraction] | None:
    """A solution z of the square system M z = rhs, exact, with M given by
    sparse rows (column -> value); None if the system is inconsistent.
    Free variables of a singular M are set to 0.

    Each row is scaled to integers.  Gauss-Jordan elimination pivots on the
    lowest-index free row with a nonzero in the column, updates only the
    rows with a nonzero there, and divides each updated row by the gcd of
    its entries.
    """
    work = []
    for row, b in zip(rows, rhs):
        row = [(j, Fraction(v)) for j, v in (*row.items(), (_RHS, b))]
        scale = lcm(*(v.denominator for _, v in row))
        work.append(_primitive({j: v.numerator * (scale // v.denominator) for j, v in row}))
    free = set(range(len(work)))
    pivots = []
    for col in range(len(work)):
        p = min((i for i in free if col in work[i]), default=None)
        if p is None:
            continue
        free.remove(p)
        pivots.append((col, p))
        prow, lead = work[p], work[p][col]
        for i, row in enumerate(work):
            if col in row and i != p:
                g = gcd(lead, row[col])
                s, t = lead // g, row[col] // g
                new = {j: s * v for j, v in row.items()}
                for j, v in prow.items():
                    new[j] = new.get(j, 0) - t * v
                work[i] = _primitive(new)
    # a row left without a pivot has no nonzero coefficient: 0 = its rhs
    if any(work[i] for i in free):
        return None
    z = [Fraction(0)] * len(work)
    for col, p in pivots:
        z[col] = Fraction(work[p].get(_RHS, 0), work[p][col])
    return z


def _primitive(row: dict[int, int]) -> dict[int, int]:
    """The nonzero entries of an integer row, divided by their gcd."""
    row = {j: v for j, v in row.items() if v}
    g = gcd(*row.values())
    return {j: v // g for j, v in row.items()} if g > 1 else row


@dataclass(frozen=True)
class GroundSet:
    """A set of m elements labelled 0..m-1.

    Grounds of any size are representable (masks are plain ints), but the
    exact enumeration paths stop at EXACT_SOLVER_CAP.
    """

    m: int

    def __post_init__(self):
        if self.m < 0:
            raise ValueError("ground set size must be nonnegative")

    @property
    def full_mask(self) -> int:
        return (1 << self.m) - 1


@dataclass(frozen=True)
class Ordering:
    """A bijection element -> position in 1..m.

    ``positions[e]`` is the 1-based slot of element ``e``.  Orderings are
    the universal solution object: every solver returns one.
    """

    positions: tuple[int, ...]

    def __post_init__(self):
        m = len(self.positions)
        if sorted(self.positions) != list(range(1, m + 1)):
            raise ValueError("positions must be a bijection onto 1..m")

    @property
    def m(self) -> int:
        return len(self.positions)

    @classmethod
    def from_sequence(cls, seq: Sequence[int]) -> "Ordering":
        """Build from the elements listed in position order."""
        positions = [0] * len(seq)
        for i, e in enumerate(seq):
            if not 0 <= e < len(seq):
                raise ValueError(f"element {e} out of range")
            positions[e] = i + 1
        return cls(tuple(positions))

    @classmethod
    def identity(cls, m: int) -> "Ordering":
        return cls(tuple(range(1, m + 1)))

    def sequence(self) -> tuple[int, ...]:
        """Elements in position order."""
        seq = [0] * self.m
        for e, p in enumerate(self.positions):
            seq[p - 1] = e
        return tuple(seq)

    def position(self, element: int) -> int:
        return self.positions[element]

    def prefix_masks(self) -> Iterator[int]:
        """The m nested prefix sets, smallest first."""
        mask = 0
        for e in self.sequence():
            mask |= 1 << e
            yield mask

    def reversed(self) -> "Ordering":
        m = self.m
        return Ordering(tuple(m + 1 - p for p in self.positions))

    def to_labels(self) -> list[int]:
        return list(self.sequence())


class SetFunctionOracle:
    """Evaluation interface for f: 2^E -> Q with f(empty) = 0.

    Values are exact ints or Fractions.  Oracles must be pure (same subset,
    same value) and are immutable after construction apart from the
    memoised table, so they may be shared across threads.  ``dense_values``
    builds the one integer table that every enumeration-based solver reads;
    subclasses with a faster way to fill all 2^m entries override
    ``_scaled_table``, and those that extend a prefix by one element cheaply
    (union-find for a graphic matroid) override ``_prefix_values``.
    """

    #: ``_base_membership(x)``, for classes that decide exactly whether x
    #: lies in the base polytope (``GraphicMatroid`` and
    #: ``CoverageFunction``: by orientations); None elsewhere.
    #: ``sfm.min_norm_base`` certifies a base of such a class by that test,
    #: and other bases by a Wolfe finish that assumes f is submodular.
    _base_membership = None

    def __init__(self, ground: GroundSet):
        self.ground = ground
        self._dense: np.ndarray | None = None
        #: D, the common denominator of the dense table, once it is built
        self.dense_denominator: int | None = None

    @property
    def m(self) -> int:
        return self.ground.m

    @property
    def full_mask(self) -> int:
        return self.ground.full_mask

    def evaluate(self, subset: int):
        raise NotImplementedError

    def __call__(self, subset: int):
        if subset < 0 or subset >> self.ground.m:
            raise ValueError("subset outside ground set")
        return self.evaluate(subset)

    def _prefix_values(self, order: Sequence[int]) -> list:
        """f on the len(order) + 1 prefixes of ``order``, a sequence of
        distinct elements, the empty prefix first; one call per prefix."""
        return [self(0), *map(self, accumulate(1 << e for e in order))]

    def dense_values(self) -> np.ndarray:
        """D * f(S) for all 2^m bitmasks S, as one integer array.  Cached.

        D is the least common denominator of the values, kept as
        ``dense_denominator`` (1 for integer-valued oracles).  The dtype is
        the narrowest numpy integer type holding every entry, or object
        (exact Python ints) when int64 could overflow.  Callers choose the
        dtype of their own arithmetic the same way, from a bound computed
        up front, so every dtype runs the same code.  Grounds beyond
        EXACT_SOLVER_CAP raise ValueError.
        """
        if self._dense is None:
            if self.m > EXACT_SOLVER_CAP:
                raise ValueError(
                    f"ground set of size {self.m} exceeds the exact cap ({EXACT_SOLVER_CAP})"
                )
            D, table = self._scaled_table()
            if table[0] != 0:
                raise ValueError("oracle is not normalized: f(empty) != 0")
            self._dense, self.dense_denominator = table, D
        return self._dense

    def _scaled_table(self) -> tuple[int, np.ndarray]:
        """(D, D * f over all bitmasks), D the least common denominator of
        the values; one oracle call per subset."""
        values = [self.evaluate(s) for s in range(1 << self.m)]
        D = lcm(*(v.denominator for v in values))
        ints = [v.numerator * (D // v.denominator) for v in values]
        return D, narrowed(np.array(ints, dtype=object))


class ModularOracle(SetFunctionOracle):
    """f(S) = sum of per-element weights; f(S) = |S| by default."""

    def __init__(self, weights: Sequence = None, m: int = None):
        if weights is None:
            weights = [1] * m
        self.weights = tuple(weights)
        if any(w < 0 for w in self.weights):
            raise ValueError("modular weights must be nonnegative")
        super().__init__(GroundSet(len(self.weights)))

    def evaluate(self, subset: int):
        return sum(self.weights[e] for e in iter_bits(subset))


def _check_ground(f: SetFunctionOracle, sigma: Ordering) -> None:
    if f.m != sigma.m:
        raise ValueError(
            f"ground-set mismatch: oracle has {f.m} elements, "
            f"ordering has {sigma.m}"
        )


def mlop_objective(f: SetFunctionOracle, sigma: Ordering):
    """Sum of f over all m prefix sets of the ordering."""
    _check_ground(f, sigma)
    return sum(f._prefix_values(sigma.sequence())[1:])


def weighted_mlop_objective(f: SetFunctionOracle, costs: Sequence[int], sigma: Ordering):
    """Sum of f(prefix_i) * cost(element at position i), costs positive ints."""
    _check_ground(f, sigma)
    if len(costs) != f.m:
        raise ValueError("cost vector length does not match ground set")
    for c in costs:
        if not isinstance(c, int) or c <= 0:
            raise ValueError("costs must be strictly positive integers")
    total = 0
    mask = 0
    for e in sigma.sequence():
        mask |= 1 << e
        total += f(mask) * costs[e]
    return total


# ---------------------------------------------------------------------------
# graphs


@dataclass(frozen=True)
class Graph:
    """A (multi)graph on vertices 0..n-1 with optional positive edge weights."""

    n: int
    edges: tuple[tuple[int, int], ...]
    weights: tuple[Fraction, ...] | None = None

    def __post_init__(self):
        for u, v in self.edges:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u}, {v}) out of vertex range")
        if self.weights is not None:
            if len(self.weights) != len(self.edges):
                raise ValueError("weight vector length does not match edge count")
            if any(w <= 0 for w in self.weights):
                raise ValueError("edge weights must be positive")

    @property
    def m(self) -> int:
        return len(self.edges)

    def weight(self, i: int) -> Fraction:
        if self.weights is None:
            return Fraction(1)
        return self.weights[i]

    def degrees(self) -> list[int]:
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def is_simple(self) -> bool:
        seen = set()
        for u, v in self.edges:
            if u == v or (min(u, v), max(u, v)) in seen:
                return False
            seen.add((min(u, v), max(u, v)))
        return True

    def regular_degree(self) -> int | None:
        """The common degree if the graph is regular, else None."""
        deg = self.degrees()
        if self.n and any(d != deg[0] for d in deg):
            return None
        return deg[0] if self.n else 0

    def complement(self) -> "Graph":
        if not self.is_simple():
            raise ValueError("complement requires a simple graph")
        present = {(min(u, v), max(u, v)) for u, v in self.edges}
        edges = tuple(
            (u, v)
            for u in range(self.n)
            for v in range(u + 1, self.n)
            if (u, v) not in present
        )
        return Graph(self.n, edges)

    def components(self) -> list[list[int]]:
        parent = list(range(self.n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, v in self.edges:
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
        groups: dict[int, list[int]] = {}
        for v in range(self.n):
            groups.setdefault(find(v), []).append(v)
        return list(groups.values())


def mlvc_objective(G: Graph, pi: Ordering) -> int:
    """Sum over edges of max{pi(u), pi(v)}: min-latency vertex cover cost."""
    if pi.m != G.n:
        raise ValueError("ordering does not match vertex set")
    pos = pi.positions
    return sum(max(pos[u], pos[v]) for u, v in G.edges)


def msvc_objective(G: Graph, pi: Ordering) -> int:
    """Sum over edges of min{pi(u), pi(v)}: min-sum vertex cover cost."""
    if pi.m != G.n:
        raise ValueError("ordering does not match vertex set")
    pos = pi.positions
    return sum(min(pos[u], pos[v]) for u, v in G.edges)


def mla_objective(G: Graph, pi: Ordering) -> int:
    """Sum over edges of |pi(u) - pi(v)|: linear arrangement cost."""
    if pi.m != G.n:
        raise ValueError("ordering does not match vertex set")
    pos = pi.positions
    return sum(abs(pos[u] - pos[v]) for u, v in G.edges)


# ---------------------------------------------------------------------------
# graph text format: "n m" header, then m lines "u v [w]" with 1-indexed
# vertices and an optional positive rational weight.


class ParseError(ValueError):
    """Instance-file parse failure with a 1-based line position."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _nonblank_lines(text: str):
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield i, line


def parse_graph(text: str) -> Graph:
    lines = list(_nonblank_lines(text))
    if not lines:
        raise ParseError(1, "empty graph file")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 2:
        raise ParseError(lineno, "header must be 'n m'")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError(lineno, "header must contain two integers") from None
    if n < 0 or m < 0:
        raise ParseError(lineno, "n and m must be nonnegative")
    if len(lines) - 1 != m:
        raise ParseError(lineno, f"expected {m} edge lines, found {len(lines) - 1}")
    edges = []
    weights = []
    weighted = False
    for lineno, line in lines[1:]:
        parts = line.split()
        if len(parts) not in (2, 3):
            raise ParseError(lineno, "edge line must be 'u v [w]'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(lineno, "vertex labels must be integers") from None
        if not (1 <= u <= n and 1 <= v <= n):
            raise ParseError(lineno, f"vertex out of range 1..{n}")
        edges.append((u - 1, v - 1))
        if len(parts) == 3:
            weighted = True
            try:
                w = Fraction(parts[2])
            except (ValueError, ZeroDivisionError):
                raise ParseError(lineno, "weight must be a rational number") from None
            if w <= 0:
                raise ParseError(lineno, "weight must be positive")
            weights.append(w)
        else:
            weights.append(Fraction(1))
    return Graph(n, tuple(edges), tuple(weights) if weighted else None)


def format_graph(G: Graph) -> str:
    out = [f"{G.n} {G.m}"]
    for i, (u, v) in enumerate(G.edges):
        if G.weights is None:
            out.append(f"{u + 1} {v + 1}")
        else:
            out.append(f"{u + 1} {v + 1} {G.weights[i]}")
    return "\n".join(out) + "\n"


def biconnected_components(G: Graph) -> list[list[int]]:
    """The blocks of G as lists of edge indices (bridges are 1-edge blocks)."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(G.n)]
    loop_blocks: list[list[int]] = []
    for i, (u, v) in enumerate(G.edges):
        if u == v:
            loop_blocks.append([i])
            continue
        adj[u].append((v, i))
        adj[v].append((u, i))
    number = [0] * G.n
    low = [0] * G.n
    counter = 0
    edge_stack: list[int] = []
    blocks: list[list[int]] = []
    visited_edge = [False] * G.m

    for root in range(G.n):
        if number[root]:
            continue
        counter += 1
        number[root] = low[root] = counter
        stack = [(root, iter(adj[root]), -1)]
        while stack:
            v, it, parent_edge = stack[-1]
            advanced = False
            for w, ei in it:
                if ei == parent_edge or visited_edge[ei]:
                    continue
                visited_edge[ei] = True
                edge_stack.append(ei)
                if number[w] == 0:
                    counter += 1
                    number[w] = low[w] = counter
                    stack.append((w, iter(adj[w]), ei))
                    advanced = True
                    break
                low[v] = min(low[v], number[w])
            if advanced:
                continue
            stack.pop()
            if stack:
                u = stack[-1][0]
                low[u] = min(low[u], low[v])
                if low[v] >= number[u]:
                    # u is a cut vertex (or the root): pop one block,
                    # delimited by the tree edge that entered v
                    block = []
                    while True:
                        ei = edge_stack.pop()
                        block.append(ei)
                        if ei == parent_edge:
                            break
                    blocks.append(block)
    return loop_blocks + blocks
