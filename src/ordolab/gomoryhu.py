"""Gomory-Hu trees for graph cut functions, with the ordering bounds they
induce.

Construction uses Gusfield's scheme (no contraction; Gusfield, SIAM J.
Comput. 1990, and Queyranne 1998 for symmetric submodular functions), one
``sfm.st_min_cut`` per vertex: an exact integer maximum flow by shortest
augmenting paths (``flow``), checked before use.  Every edge of the result
is then re-checked against the defining cut property: the tree side of the
edge must have the edge's weight w, and the minimum cut between its
endpoints must be at least w.
The second half is read from the certified cut values Gusfield computed:
a chain of solved vertex pairs, each of value at least w, joins the
endpoints.  Only an edge without such a chain is cut again.
A tree that fails raises ``CertificateError``; there is no second
construction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Mapping, Sequence

from .core import CertificateError, Graph, Ordering, SetFunctionOracle
from .matroids import CutFunction
from .sfm import st_min_cut
from .solve import exact_mlop_dp


@dataclass(frozen=True)
class GomoryHuTree:
    """A spanning tree on the oracle's ground set.  For each tree edge
    (s, t), the component of s in the tree minus that edge is a minimum
    s-t cut, of value equal to the edge weight."""

    n: int
    edges: tuple[tuple[int, int, Fraction], ...]

    def __post_init__(self):
        if len(self.edges) != self.n - 1:
            raise ValueError("a tree on n vertices has n - 1 edges")
        if -1 in self._rooted[1]:
            raise ValueError("edges do not form a spanning tree")

    def total_weight(self) -> Fraction:
        return sum((w for _, _, w in self.edges), Fraction(0))

    @cached_property
    def _rooted(self) -> tuple[list[int], list[int], list[int]]:
        """The parent edge, depth and subtree bitmask of each vertex, from
        one search rooted at vertex 0.  A vertex the search does not reach
        has depth -1."""
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        for i, (a, b, _) in enumerate(self.edges):
            adj[a].append((b, i))
            adj[b].append((a, i))
        parent, depth = [-1] * self.n, [-1] * self.n
        depth[0] = 0
        reached = [0]
        for u in reached:
            for w, i in adj[u]:
                if depth[w] < 0:
                    parent[w], depth[w] = i, depth[u] + 1
                    reached.append(w)
        subtree = [1 << v for v in range(self.n)]
        for u in reversed(reached[1:]):
            subtree[self._other_end(parent[u], u)] |= subtree[u]
        return parent, depth, subtree

    def _other_end(self, edge_index: int, v: int) -> int:
        a, b, _ = self.edges[edge_index]
        return b if a == v else a

    def path_edges(self, a: int, b: int) -> list[int]:
        """Edge indices on the unique tree path, from b's end to a's."""
        parent, depth, _ = self._rooted
        from_b, from_a = [], []
        while a != b:
            if depth[b] >= depth[a]:
                from_b.append(parent[b])
                b = self._other_end(parent[b], b)
            else:
                from_a.append(parent[a])
                a = self._other_end(parent[a], a)
        return from_b + from_a[::-1]

    def cut_side(self, edge_index: int) -> int:
        """Bitmask of the component of the edge's first endpoint in the tree
        minus that edge."""
        parent, _, subtree = self._rooted
        a, b, _ = self.edges[edge_index]
        if parent[a] == edge_index:
            return subtree[a]
        return ((1 << self.n) - 1) & ~subtree[b]


def _verify_cut_property(
    f: CutFunction, tree: GomoryHuTree, solved: Mapping[frozenset[int], Fraction] | None = None
) -> bool:
    """Every tree edge (s, t, w): its tree side X has f(X) = w, so the
    minimum s-t cut value is at most w, and it is at least w.  The lower
    bound is read from ``solved`` (certified minimum cut values by vertex
    pair): a chain of solved pairs from s to t whose values are all at
    least w proves it, because every set holding s and not t separates
    some consecutive pair of the chain.  Only an edge that no chain
    reaches is solved again."""
    adjacency: dict[int, list[tuple[int, Fraction]]] = {v: [] for v in range(tree.n)}
    for pair, value in (solved or {}).items():
        a, b = pair
        adjacency[a].append((b, value))
        adjacency[b].append((a, value))
    for i, (s, t, w) in enumerate(tree.edges):
        if f(tree.cut_side(i)) != w:
            return False
        reached, stack = {s}, [s]
        while stack and t not in reached:
            for u, value in adjacency[stack.pop()]:
                if value >= w and u not in reached:
                    reached.add(u)
                    stack.append(u)
        if t not in reached and st_min_cut(f, s, t)[1] != w:
            return False
    return True


def _gusfield(
    f: CutFunction, order: Sequence[int]
) -> tuple[GomoryHuTree, dict[frozenset[int], Fraction]]:
    """The tree, and the minimum cut value of every vertex pair whose s-t
    cut it solved.  Predecessor swaps and reassignments can put a weight on
    a tree edge whose endpoints were never cut against each other."""
    root = order[0]
    pred = {v: root for v in order}
    weight: dict[int, Fraction] = {}
    solved: dict[frozenset[int], Fraction] = {}
    for v in order[1:]:
        pv = pred[v]
        side, value = st_min_cut(f, v, pv)
        weight[v] = solved[frozenset((v, pv))] = value
        for u in order:
            if u != v and u != root and pred[u] == pv and (side >> u) & 1:
                pred[u] = v
        gp = pred.get(pv)
        if pv != root and (side >> gp) & 1:
            pred[v] = gp
            pred[pv] = v
            weight[v] = weight[pv]
            weight[pv] = value
    edges = tuple((v, pred[v], weight[v]) for v in order[1:])
    return GomoryHuTree(f.m, edges), solved


def build_gh_tree(f: CutFunction, seed: int | None = None) -> GomoryHuTree:
    """Gomory-Hu tree of a graph's cut function, cut by checked flows; any
    other oracle raises ValueError.  A cut function is symmetric, with
    f(empty) = f(all) = 0, by construction.

    ``seed`` shuffles the pivot order (distinct seeds generally give
    distinct trees; their total weight is an invariant of f).  Every edge
    is verified against the cut property; a failure raises
    CertificateError.
    """
    if not isinstance(f, CutFunction):
        raise ValueError("Gomory-Hu trees are built for graph cut functions only")
    if f.m < 2:
        raise ValueError("need at least two ground elements")
    order = list(range(f.m))
    if seed is not None:
        random.Random(seed).shuffle(order)
    tree, solved = _gusfield(f, order)
    if not _verify_cut_property(f, tree, solved):
        raise CertificateError("Gusfield tree violates the Gomory-Hu cut property")
    return tree


def gh_lower_bound(tree: GomoryHuTree) -> Fraction:
    """Total tree weight; never exceeds the optimal ordering cost of f."""
    return tree.total_weight()


#: Largest tree ``gh_upper_bound`` lays out, by the subset DP on its cut
#: function.
GH_UPPER_BOUND_CAP = 12


def gh_upper_bound(f: SetFunctionOracle, tree: GomoryHuTree) -> tuple[Fraction, Ordering]:
    """Optimal ordering cost of the tree itself, an upper bound for f.

    Equivalently the weighted linear arrangement of the tree: each tree
    edge (x, y, w) pays w * |pi(x) - pi(y)|, so the weight-0 edges joining
    a disconnected graph's components are left out.  Solved exactly by the
    subset DP; trees beyond GH_UPPER_BOUND_CAP vertices raise ValueError.
    """
    if f.m != tree.n:
        raise ValueError("oracle and tree ground sets differ")
    if tree.n > GH_UPPER_BOUND_CAP:
        raise ValueError(f"tree of {tree.n} vertices exceeds the upper-bound cap ({GH_UPPER_BOUND_CAP})")
    edges = [(a, b, w) for a, b, w in tree.edges if w]
    graph = Graph(tree.n, tuple((a, b) for a, b, _ in edges), tuple(w for _, _, w in edges))
    value, sigma = exact_mlop_dp(CutFunction(graph))
    return Fraction(value), sigma


def matching_certificate(
    T1: GomoryHuTree, T2: GomoryHuTree
) -> list[tuple[int, int]]:
    """A perfect matching pairing each edge e of T1 with an edge e' of T2
    such that the endpoints of e are separated in T2 - e'.

    Existence is guaranteed (Hall's condition holds for the separation
    graph of any two trees on the same ground set); failure raises.
    """
    if T1.n != T2.n:
        raise ValueError("trees live on different ground sets")
    n_edges = T1.n - 1
    adjacency: list[list[int]] = []
    for a, b, _ in T1.edges:
        adjacency.append(T2.path_edges(a, b))

    match_of_right = [-1] * n_edges

    def augment(left: int, visited: set[int]) -> bool:
        for right in adjacency[left]:
            if right in visited:
                continue
            visited.add(right)
            if match_of_right[right] == -1 or augment(match_of_right[right], visited):
                match_of_right[right] = left
                return True
        return False

    matched = 0
    for left in range(n_edges):
        if augment(left, set()):
            matched += 1
    if matched != n_edges:
        raise CertificateError("separation graph has no perfect matching")
    return [(match_of_right[r], r) for r in range(n_edges)]


def gh_weight_invariance(f: CutFunction, runs: int, seed: int = 0) -> bool:
    """Build several trees under shuffled pivot orders and test that all
    total weights agree exactly."""
    if runs < 2:
        raise ValueError("need at least two runs")
    totals = {build_gh_tree(f, seed=seed + i).total_weight() for i in range(runs)}
    return len(totals) == 1
