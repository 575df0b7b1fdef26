"""Seeded instance generator for the benchmark.

Deliberately independent of ``ordolab.instances`` and ``ordolab.core``: a
change to the package must not silently change the benchmark's traffic.
Graphs are ``(n, edges, weights)`` with 0-based vertices and ``weights``
either ``None`` or a list of positive ints; hypergraphs are ``(n, edges)``
with each edge a sorted tuple.  The ``*_text`` functions write the CLI's
instance file formats (1-based vertices).
"""

from __future__ import annotations

import random


def connected_graph(n: int, m: int, rng: random.Random, weights: tuple[int, int] | None = None):
    """A random connected simple graph: a random spanning tree plus extra
    edges drawn from the remaining pairs, in shuffled edge order."""
    if not n - 1 <= m <= n * (n - 1) // 2:
        raise ValueError(f"no connected simple graph with n={n}, m={m}")
    perm = list(range(n))
    rng.shuffle(perm)
    edges = {tuple(sorted((perm[i], perm[rng.randrange(i)]))) for i in range(1, n)}
    pool = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges]
    edges = sorted(edges) + rng.sample(pool, m - len(edges))
    rng.shuffle(edges)
    edges = [(u, v) if rng.random() < 0.5 else (v, u) for u, v in edges]
    w = None if weights is None else [rng.randint(*weights) for _ in edges]
    return n, edges, w


def simple_graph(n: int, m: int, rng: random.Random):
    """A uniformly random simple graph with exactly m edges (may be
    disconnected and have isolated vertices)."""
    pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return n, rng.sample(pool, m), None


def cactus(m: int, rng: random.Random):
    """A random connected cactus with exactly m edges: cycles of length 3-5
    and bridges glued at random existing vertices, relabelled at random."""
    n = 1
    edges = []
    while len(edges) < m:
        budget = m - len(edges)
        anchor = rng.randrange(n)
        if budget >= 3 and rng.random() < 0.7:
            length = rng.randint(3, min(5, budget))
            cycle = [anchor] + list(range(n, n + length - 1))
            n += length - 1
            edges += [(cycle[i], cycle[(i + 1) % length]) for i in range(length)]
        else:
            edges.append((anchor, n))
            n += 1
    return relabel((n, edges, None), rng)


def regular_graph(n: int, d: int, rng: random.Random):
    """A random simple d-regular graph by the configuration model with
    restarts."""
    if n * d % 2 or d >= n:
        raise ValueError(f"no simple {d}-regular graph on {n} vertices")
    while True:
        stubs = [v for v in range(n) for _ in range(d)]
        rng.shuffle(stubs)
        edges = set()
        for a, b in zip(stubs[::2], stubs[1::2]):
            if a == b or (min(a, b), max(a, b)) in edges:
                break
            edges.add((min(a, b), max(a, b)))
        else:
            return relabel((n, sorted(edges), None), rng)


def layered_graph(rng: random.Random):
    """A graph with a planted three-step principal partition (n=14, m=22):
    a random 4-regular block on 7 vertices (14 edges, rank 6), a 7-cycle
    through one block vertex (rank 6 more), and one pendant bridge.

    Returns the graph and the expected chain as sorted 1-based edge labels,
    with critical values 3/7, 6/7 and 1.
    """
    _, block, _ = regular_graph(7, 4, rng)
    cycle = [rng.randrange(7)] + list(range(7, 13))
    tagged = [(e, 0) for e in block]
    tagged += [((cycle[i], cycle[(i + 1) % 7]), 1) for i in range(7)]
    tagged.append(((rng.randrange(13), 13), 2))
    rng.shuffle(tagged)
    perm = list(range(14))
    rng.shuffle(perm)
    edges = [(perm[u], perm[v]) for (u, v), _ in tagged]
    chain = [[i + 1 for i, (_, layer) in enumerate(tagged) if layer < top] for top in range(4)]
    return (14, edges, None), chain


def named_regular(name: str):
    """The small regular graphs of the LP workload, before relabelling."""
    if name.startswith("C"):
        n = int(name[1:])
        return n, [(i, (i + 1) % n) for i in range(n)], None
    if name == "K4":
        return 4, [(u, v) for u in range(4) for v in range(u + 1, 4)], None
    if name == "K3,3":
        return 6, [(i, 3 + j) for i in range(3) for j in range(3)], None
    if name == "prism":
        return 6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)], None
    raise ValueError(f"unknown graph {name!r}")


def relabel(graph, rng: random.Random):
    """The same graph with vertices permuted and edges shuffled."""
    n, edges, weights = graph
    perm = list(range(n))
    rng.shuffle(perm)
    order = list(range(len(edges)))
    rng.shuffle(order)
    new_edges = [(perm[edges[i][0]], perm[edges[i][1]]) for i in order]
    new_weights = None if weights is None else [weights[i] for i in order]
    return n, new_edges, new_weights


def uniform_hypergraph(n: int, h: int, k: int, rng: random.Random):
    """h distinct random k-subsets of n vertices."""
    edges = set()
    while len(edges) < h:
        edges.add(tuple(sorted(rng.sample(range(n), k))))
    edges = sorted(edges)
    rng.shuffle(edges)
    return n, edges


def integer_matrix(k: int, m: int, lo: int, hi: int, rng: random.Random):
    """A k x m matrix of integers in [lo, hi] with no zero column."""
    while True:
        rows = [[rng.randint(lo, hi) for _ in range(m)] for _ in range(k)]
        if all(any(row[j] for row in rows) for j in range(m)):
            return rows


def graph_text(graph) -> str:
    n, edges, weights = graph
    lines = [f"{n} {len(edges)}"]
    for i, (u, v) in enumerate(edges):
        lines.append(f"{u + 1} {v + 1}" + ("" if weights is None else f" {weights[i]}"))
    return "\n".join(lines) + "\n"


def matrix_text(rows) -> str:
    return "\n".join([f"{len(rows)} {len(rows[0])}"] + [" ".join(map(str, r)) for r in rows]) + "\n"


def hypergraph_text(hypergraph) -> str:
    n, edges = hypergraph
    return "\n".join([f"{n} {len(edges)}"] + [" ".join(str(v + 1) for v in e) for e in edges]) + "\n"
