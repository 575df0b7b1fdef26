"""Exact maximum flows and load-bounded orientations on undirected
multigraphs with integer capacities, all found by one search.

An orientation splits each edge's weight into integer shares on its two
endpoints; a vertex's load sums its shares.  ``_drain`` moves excess load
off a vertex along shortest paths of positive shares to vertices with
slack, one breadth-first search per path that stops at the first vertex
with slack (Edmonds and Karp 1972); an edge's share on its tail is the
residual capacity of an arc.  ``bounded_orientation`` finds shares with
every load within a given capacity, and ``forest_violation`` bounds the
weight inside every vertex set by one orientation moved from root to root
(Hakimi 1965), each root leaving the graph once its turn is done: a set
needs only the orientation of its least vertex (Padberg and Wolsey 1983).
Both start from the same greedy shares, and each verdict is checked in
integers.

``FlowNetwork.min_cut`` drains a load on s larger than any cut into t, the
only vertex with room for it, with every residual capacity starting at the
edge's capacity.  The flow is checked in integers before it is used:

- each edge carries at most its capacity, in either direction;
- flow is conserved at every vertex other than s and t;
- t is not reachable from s in the residual graph.

Then every edge leaving the set X that s reaches in the residual graph is
saturated outward, so the flow value equals the capacity of the cut
around X, and by weak duality both are optimal.  X is the smallest
minimum cut that contains s: a minimum cut is saturated by every maximum
flow, so no residual path leaves it.  A failed check raises
``CertificateError``; a caller that knows the cut function compares the
value with it as well.

Three users: a graph's cut function takes its s-t cuts from ``min_cut``
(``sfm.st_min_cut``); the graphic matroid builds its minimum-norm base
cell by cell from the violators and tight sets of ``forest_violation``
(``GraphicMatroid._decomposed_base``) and decides base polytope
membership by it (``_base_membership``); and the coverage function builds
its base from the overfull and tight sets of ``bounded_orientation``
(``CoverageFunction._decomposed_base``) and spreads each edge over its
endpoints by it (``_edge_shares``), to decide its base polytope membership
and for the MLVC relaxation's dual.
"""

from __future__ import annotations

from operator import add, gt
from typing import Sequence

from .core import CertificateError


class FlowNetwork:
    """An undirected multigraph on vertices 0..n-1 with nonnegative integer
    edge capacities.  Parallel edges are merged and self-loops dropped;
    neither changes a cut.  ``edges`` lists the distinct vertex pairs in the
    order of their first appearance, with their summed ``capacities``; the
    orientations of this module use the same arcs, and ``min_cut`` runs
    their search."""

    def __init__(self, n: int, edges: Sequence[tuple[int, int]], capacities: Sequence[int]):
        merged: dict[tuple[int, int], int] = {}
        for (u, v), c in zip(edges, capacities):
            if u != v:
                key = (u, v) if u < v else (v, u)
                merged[key] = merged.get(key, 0) + c
        self.n = n
        self.edges = list(merged)
        self.capacities = list(merged.values())
        # arc 2i runs u -> v along edge i = (u, v), arc 2i + 1 runs v -> u
        self._head = [w for u, v in self.edges for w in (v, u)]
        self._out: list[list[int]] = [[] for _ in range(n)]
        for i, (u, v) in enumerate(self.edges):
            self._out[u].append(2 * i)
            self._out[v].append(2 * i + 1)

    def min_cut(self, s: int, t: int) -> tuple[int, int]:
        """(X, value): the smallest minimum s-t cut X, a bitmask containing
        s, and its capacity, read off a checked maximum flow; s != t."""
        return _certify(self, _max_flow(self, s, t), s, t)


def _max_flow(net: FlowNetwork, s: int, t: int) -> list[int]:
    """A maximum s-t flow: the net flow along each edge (u, v), negative when
    it runs from v to u.  s holds more load than any cut carries and only t
    has room for it, so draining s saturates a minimum cut; the residual
    capacities are the shares of ``_drain``."""
    residual = [c for c in net.capacities for _ in range(2)]
    load, cap = [0] * net.n, [0] * net.n
    load[s] = cap[t] = sum(net.capacities) + 1
    _drain(net, residual, load, cap, s)
    return [c - residual[2 * i] for i, c in enumerate(net.capacities)]


def _certify(net: FlowNetwork, flow: list[int], s: int, t: int) -> tuple[int, int]:
    """(X, value) for a flow that passes every check of the module
    docstring, X the set reachable from s; else CertificateError."""
    excess = [0] * net.n
    for (u, v), c, x in zip(net.edges, net.capacities, flow):
        if not -c <= x <= c:
            raise CertificateError("flow exceeds an edge capacity")
        excess[u] -= x
        excess[v] += x
    if any(excess[v] for v in range(net.n) if v != s and v != t):
        raise CertificateError("flow is not conserved")
    residual = [r for c, x in zip(net.capacities, flow) for r in (c - x, c + x)]
    head, out = net._head, net._out
    reached = [False] * net.n
    reached[s] = True
    queue = [s]
    for v in queue:
        for a in out[v]:
            w = head[a]
            if residual[a] > 0 and not reached[w]:
                reached[w] = True
                queue.append(w)
    if reached[t]:
        raise CertificateError("t is reachable from s in the residual graph: flow not maximum")
    return sum(1 << v for v in queue), excess[t]


def forest_violation(
    n: int, edges: Sequence[tuple[int, int]], weights: Sequence[int], unit: int
) -> tuple[int | None, list[int]]:
    """(U, tight): U is None when w(E(U)) <= unit * (|U| - 1) for every
    nonempty vertex set U (a loop at v lies in E({v})), else a bitmask U
    that violates it, and tight is empty; the weights w are nonnegative
    integers.  When no U violates, tight lists the maximal vertex sets U
    with |U| >= 2 and w(E(U)) = unit * (|U| - 1), which are disjoint.

    One orientation splits each edge's weight into integer shares on its
    endpoints; load(v) sums v's shares.  The roots r = 0, ..., n - 2 take
    their turns in order, root r on G_r = G - {0, ..., r - 1} with capacity
    0 at r and ``unit`` at each later vertex.  Excess load moves along
    shortest paths of arcs that leave a vertex through a positive share to
    a vertex with slack, and the shares are then checked in integers: each
    is >= 0, each edge of G_r's sum to its weight and every other edge's to
    0 (weights read off the edges and r alone), load(r) = 0 and every load
    within its capacity.  G_r holds every edge of E(U) for each U whose
    least vertex is r, so w(E(U)) <= load(U) <= unit * (|U| - 1) for every
    such U; U = {n - 1} holds only loops, checked to weigh 0, and every
    nonempty U has a least vertex.  Once its turn is done, r leaves the
    orientation (``_remove_root``).  Excess that cannot move reaches a U in
    G_r with no slack and no share on an edge leaving it, so w(E(U)) =
    load(U) > capacity(U) >= unit * (|U| - 1), which is checked on the
    given edges before U is returned.  A failed check raises
    ``CertificateError``.

    In the same pass, Z_r, the vertices of G_r that reach no vertex with
    slack (``_unreached``, less the finished roots), holds r, each of its
    vertices is full and no share leaves it, so w(E(Z_r)) = unit * (|Z_r| -
    1); a tight set whose least vertex is r has no slack and no share
    leaving it either, so it lies in Z_r.  With no violator, two tight sets
    that meet unite into a tight set, so the maximal ones are disjoint, and
    each is found at its least vertex: a root in no set found so far lies
    in no tight set with an earlier root, whose own Z would have held it,
    so its Z_r of two or more vertices is the maximal tight set holding
    it; a root inside a set already found is skipped."""
    for (u, v), w in zip(edges, weights):
        if u == v and w:
            return _overfull(edges, weights, 1 << u, 0, n), []
    net = FlowNetwork(n, edges, weights)
    share, load = _greedy_shares(net)
    cap = [unit] * n
    tight, found = [], 0
    for r in range(n - 1):
        cap[r] = 0
        for v in range(r, n):
            if load[v] > cap[v]:
                reached = _drain(net, share, load, cap, v)
                if reached:
                    return _overfull(edges, weights, reached, unit * (reached.bit_count() - 1), n), []
        _check_orientation(net, share, cap, r)
        if not (found >> r) & 1:
            Z = _unreached(net, share, load, cap) >> r << r
            if Z & (Z - 1):
                tight.append(Z)
                found |= Z
        _remove_root(net, share, load, r)
    return None, tight


def bounded_orientation(
    n: int, edges: Sequence[tuple[int, int]], weights: Sequence[int], cap: Sequence[int]
) -> tuple[list[tuple[int, int]], list[int] | None, int]:
    """(pairs, share, U) for integer shares of each edge's weight on its two
    endpoints with load(v) <= cap[v] at every vertex; the weights are
    nonnegative integers.  As in ``FlowNetwork``, loops are dropped and
    parallel edges merged: ``pairs`` lists the distinct vertex pairs (u,
    v), u < v, and share[2i], share[2i + 1] sit on u and v of pairs[i].

    When every load fits, the shares are checked in integers, and U is the
    set of vertices that reach no vertex with slack (``_unreached``): each
    of them is full and no share leaves U, so U holds exactly cap(U) of
    weight inside, and every such set lies in U.  When the weights sum to
    the capacities, every load equals its capacity.  Excess that cannot
    move reaches a vertex set U whose inside weight, checked in integers,
    exceeds cap(U), so no such orientation exists (Hakimi 1965); share is
    then None."""
    net = FlowNetwork(n, edges, weights)
    share, load = _greedy_shares(net)
    for v in range(n):
        if load[v] > cap[v]:
            reached = _drain(net, share, load, cap, v)
            if reached:
                bound = sum(cap[u] for u in range(n) if (reached >> u) & 1)
                return net.edges, None, _overfull(net.edges, net.capacities, reached, bound, n)
    _check_orientation(net, share, cap)
    return net.edges, share, _unreached(net, share, load, cap)


def _greedy_shares(net: FlowNetwork) -> tuple[list[int], list[int]]:
    """(share, load) with each edge's whole weight on its endpoint of least
    load so far.  share[2i] sits on the tail of arc 2i (u of edge i = (u,
    v)), share[2i + 1] on v; moving share along arc a lowers share[a], like
    residual capacity."""
    share, load = [], [0] * net.n
    for (u, v), w in zip(net.edges, net.capacities):
        on_u = load[u] <= load[v]
        share += (w, 0) if on_u else (0, w)
        load[u if on_u else v] += w
    return share, load


def _drain(net: FlowNetwork, share: list[int], load: list[int], cap: list[int], s: int) -> int:
    """Move load off s along shortest paths of positive-share arcs to
    vertices with slack until load(s) <= cap(s); 0 then, else the bitmask
    of the vertices s reaches when no vertex with slack is left."""
    head, out = net._head, net._out
    while load[s] > cap[s]:
        parent = [-1] * net.n  # the arc that reached each vertex
        parent[s] = -2
        queue = [s]
        t = -1
        for v in queue:
            for a in out[v]:
                w = head[a]
                if share[a] > 0 and parent[w] == -1:
                    parent[w] = a
                    if load[w] < cap[w]:
                        t = w
                        break
                    queue.append(w)
            if t >= 0:
                break
        if t < 0:
            return sum(1 << v for v in queue)
        path = []
        v = t
        while v != s:
            path.append(parent[v])
            v = head[parent[v] ^ 1]
        delta = min(load[s] - cap[s], cap[t] - load[t], *(share[a] for a in path))
        for a in path:
            share[a] -= delta
            share[a ^ 1] += delta
        load[s] -= delta
        load[t] += delta
    return 0


def _check_orientation(net: FlowNetwork, share: list[int], cap: Sequence[int], low: int = 0) -> None:
    """CertificateError unless the shares orient every edge of ``net`` on
    vertices >= low, put no share on an edge at a vertex below low, and
    leave load(v) <= cap[v] at every vertex; a vertex below low then has
    load 0."""
    # edges list each pair (u, v) with u < v
    weights = [c if u >= low else 0 for (u, _), c in zip(net.edges, net.capacities)]
    if min(share, default=0) < 0 or list(map(add, share[::2], share[1::2])) != weights:
        raise CertificateError("orientation shares do not split an edge's weight")
    # out[v] lists the arcs whose tail is v, each holding v's share
    load = [sum(map(share.__getitem__, arcs)) for arcs in net._out[low:]]
    if any(map(gt, load, cap[low:])):
        raise CertificateError("orientation exceeds a vertex capacity")


def _remove_root(net: FlowNetwork, share: list[int], load: list[int], r: int) -> None:
    """Take a finished root r out of the orientation: load(r) = 0, so each
    edge at r lies wholly on its other end, whose load loses that share."""
    head = net._head
    for a in net._out[r]:
        load[head[a]] -= share[a ^ 1]
        share[a ^ 1] = 0


def _unreached(net: FlowNetwork, share: list[int], load: list[int], cap: Sequence[int]) -> int:
    """The bitmask of the vertices from which no path of positive-share arcs
    leads to a vertex with slack: one breadth-first search back from the
    vertices with slack, along arcs whose reverse holds a positive share."""
    head, out = net._head, net._out
    reached = [load[v] < cap[v] for v in range(net.n)]
    queue = [v for v in range(net.n) if reached[v]]
    for w in queue:
        for a in out[w]:
            v = head[a]
            if share[a ^ 1] > 0 and not reached[v]:
                reached[v] = True
                queue.append(v)
    return sum(1 << v for v in range(net.n) if not reached[v])


def _overfull(edges: Sequence[tuple[int, int]], weights: Sequence[int], U: int, bound: int, n: int) -> int:
    """U, once the weight of the edges inside it is checked to exceed
    ``bound``; else CertificateError."""
    inside = sum(w for (u, v), w in zip(edges, weights) if (U >> u) & 1 and (U >> v) & 1)
    if not 0 < U < 1 << n or inside <= bound:
        raise CertificateError("vertex set does not hold more weight than its bound")
    return U
