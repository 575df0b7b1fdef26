"""Exact maximum flows on undirected multigraphs with integer capacities.

``FlowNetwork.min_cut`` runs Dinic's algorithm (Dinic 1970): breadth-first
levels in the residual graph, then a blocking flow along level-increasing
arcs, found by an iterative depth-first search with one current-arc pointer
per vertex, so no recursion limit is reached however long a path gets.
Every flow is checked in integers before it is used:

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

Two users: a graph's cut function takes its s-t cuts here
(``CutFunction._st_min_cut``), and the graphic matroid decides whether a
point lies in its base polytope by one min cut per vertex, on one network
whose terminal capacities change between cuts
(``GraphicMatroid._base_membership``).
"""

from __future__ import annotations

from typing import Sequence

from .core import CertificateError


class FlowNetwork:
    """An undirected multigraph on vertices 0..n-1 with nonnegative integer
    edge capacities.  Parallel edges are merged and self-loops dropped;
    neither changes a cut.  ``edges`` lists the distinct vertex pairs in the
    order of their first appearance, and ``capacities[i]`` may be changed
    between cuts: each cut reads the capacities anew."""

    def __init__(self, n: int, edges: Sequence[tuple[int, int]], capacities: Sequence[int]):
        merged: dict[tuple[int, int], int] = {}
        for (u, v), c in zip(edges, capacities):
            if u != v:
                key = (min(u, v), max(u, v))
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
        return _certify(self, _dinic(self, s, t), s, t)


def _levels(net: FlowNetwork, residual: list[int], s: int) -> list[int]:
    """Breadth-first distance from s along arcs with residual capacity;
    -1 where unreachable."""
    head, out = net._head, net._out
    level = [-1] * net.n
    level[s] = 0
    queue = [s]
    for v in queue:
        below = level[v] + 1
        for a in out[v]:
            w = head[a]
            if level[w] < 0 and residual[a] > 0:
                level[w] = below
                queue.append(w)
    return level


def _dinic(net: FlowNetwork, s: int, t: int) -> list[int]:
    """A maximum s-t flow: the net flow along each edge (u, v), negative when
    it runs from v to u."""
    head, out = net._head, net._out
    residual = [c for c in net.capacities for _ in range(2)]
    while True:
        level = _levels(net, residual, s)
        if level[t] < 0:
            break
        current = [0] * net.n
        path: list[int] = []
        v = s
        while True:
            if v == t:
                delta = min(residual[a] for a in path)
                for a in path:
                    residual[a] -= delta
                    residual[a ^ 1] += delta
                # resume from the tail of the first saturated arc
                k = next(j for j, a in enumerate(path) if not residual[a])
                v = head[path[k] ^ 1]
                del path[k:]
                continue
            arcs, i, below = out[v], current[v], level[v] + 1
            end = len(arcs)
            while i < end:
                a = arcs[i]
                if residual[a] > 0 and level[head[a]] == below:
                    break
                i += 1
            current[v] = i
            if i < end:
                path.append(a)
                v = head[a]
            elif path:
                # dead end: retreat and skip the arc that led here
                v = head[path.pop() ^ 1]
                current[v] += 1
            else:
                break
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
    level = _levels(net, residual, s)
    if level[t] >= 0:
        raise CertificateError("t is reachable from s in the residual graph: flow not maximum")
    return sum(1 << v for v in range(net.n) if level[v] >= 0), excess[t]
