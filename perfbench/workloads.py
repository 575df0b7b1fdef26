"""The benchmark's workloads.

A workload is a round of CLI calls on freshly generated instances; the run
repeats rounds, each with its own instances, until its time is up.  Every
call carries the check that validates its report.  Instances come from
``Random(f"{workload}:{seed}:{round}")`` and reach the program only as
instance files.

Two workloads: everything within the exact cap, where no Wolfe solve runs,
and everything beyond it.  The Gomory-Hu and latency-cover calls ride in
the first rather than in workloads of their own: on a shared 2-vCPU VM,
timings drift by up to 25% over stretches of about ten seconds, so a run
must last about 50 s to be steady, and the benchmark's total time budget
affords runs that long for two workloads only.
"""

from __future__ import annotations

import random
from collections import namedtuple
from fractions import Fraction
from functools import partial

import check
import gen

Call = namedtuple("Call", "label argv check")

Workload = namedtuple("Workload", "name why params build")


def _cli(rng, *args):
    """argv for one call: one job, and a seed for the commands that use one."""
    return ["--jobs", "1", "--seed", str(rng.randrange(1 << 30)), *args]


def matroid_calls(rng, write):
    calls = []

    g = gen.connected_graph(8, 15, rng)
    path, f, ctx = write("graphic.graph", gen.graph_text(g)), check.graph_rank(g), {}
    calls += [
        Call("solve.dp_s", _cli(rng, "solve", "--input", path), partial(check.solve, f=f, m=15, ctx=ctx)),
        Call("approx_s", _cli(rng, "approx", "--input", path), partial(check.approx, f=f, m=15, ctx=ctx)),
        Call("partition_s", _cli(rng, "partition", "--input", path), partial(check.partition, f=f, m=15, ctx=ctx)),
    ]

    rows = gen.integer_matrix(5, 13, -2, 2, rng)
    path, f, ctx = write("vector.matrix", gen.matrix_text(rows)), check.matrix_rank(rows), {}
    calls += [
        Call("solve.dp_s", _cli(rng, "solve", "--kind", "matrix", "--input", path),
             partial(check.solve, f=f, m=13, ctx=ctx)),
        Call("approx_s", _cli(rng, "approx", "--kind", "matrix", "--input", path),
             partial(check.approx, f=f, m=13, ctx=ctx)),
    ]

    c = gen.cactus(14, rng)
    path, f, ctx = write("cactus.graph", gen.graph_text(c)), check.graph_rank(c), {}
    calls += [
        Call("solve.dp_s", _cli(rng, "solve", "--input", path), partial(check.solve, f=f, m=14, ctx=ctx)),
        Call("solve.cactus_s", _cli(rng, "solve", "--exact", "cactus", "--input", path),
             partial(check.solve, f=f, m=14, ctx=ctx, expected_key="dp")),
    ]

    b = gen.connected_graph(6, 9, rng)
    path, f, ctx = write("rank5.graph", gen.graph_text(b)), check.graph_rank(b), {}
    calls += [
        Call("solve.dp_s", _cli(rng, "solve", "--input", path), partial(check.solve, f=f, m=9, ctx=ctx)),
        Call("solve.fixed-basis_s", _cli(rng, "solve", "--exact", "fixed-basis", "--input", path),
             partial(check.fixed_basis, f=f, m=9, ctx=ctx)),
    ]

    a = gen.simple_graph(6, 9, rng)
    path = write("apex.graph", gen.graph_text(a))
    calls.append(Call("reduce.apex_s", _cli(rng, "reduce", "--from", "mlvc", "--to", "graphic-mlop", "--input", path),
                      partial(check.apex, graph=a)))
    return calls


def minnorm_calls(rng, write):
    g, chain = gen.layered_graph(rng)
    path, f, ctx = write("layered.graph", gen.graph_text(g)), check.graph_rank(g), {}
    expected = (chain, [Fraction(3, 7), Fraction(6, 7), Fraction(1)])
    return [
        Call("approx_s", _cli(rng, "approx", "--input", path), partial(check.approx, f=f, m=22, ctx=ctx)),
        Call("partition_s", _cli(rng, "partition", "--input", path),
             partial(check.partition, f=f, m=22, ctx=ctx, expected=expected)),
    ]


def gomory_hu_calls(rng, write):
    g = gen.connected_graph(11, 22, rng, weights=(1, 5))
    path = write("weighted.graph", gen.graph_text(g))
    return [Call("ghtree_s", _cli(rng, "ghtree", "--runs", "2", "--input", path),
                 partial(check.ghtree, graph=g, runs=2))]


def cover_calls(rng, write):
    calls = []
    for name in ("K4", "C5", "C7"):
        g = gen.relabel(gen.named_regular(name), rng)
        path = write(f"{name}.graph", gen.graph_text(g))
        calls.append(Call("mlvc.lp_s", _cli(rng, "mlvc", "--lp", "--input", path), partial(check.lp, graph=g)))

    g = gen.regular_graph(40, 4, rng)
    path = write("regular40.graph", gen.graph_text(g))
    labeling = list(range(1, 41))
    rng.shuffle(labeling)
    calls += [
        Call("mlvc.sample_s", _cli(rng, "mlvc", "--sample", "200", "--input", path),
             partial(check.sample, graph=g, samples=200)),
        Call("mlvc.balance_s", _cli(rng, "mlvc", "--balance", "100", "--input", path),
             partial(check.balance, hypergraph=g[:2], trials=100)),
        Call("reduce.msvc_s", _cli(rng, "reduce", "--from", "mlvc", "--to", "msvc", "--labeling",
                                   ",".join(map(str, labeling)), "--input", path),
             partial(check.msvc, graph=g, positions=labeling)),
    ]

    h = gen.uniform_hypergraph(12, 10, 3, rng)
    path = write("uniform3.hypergraph", gen.hypergraph_text(h))
    calls.append(Call("mlvc.balance_s", _cli(rng, "mlvc", "--kind", "hypergraph", "--balance", "400", "--input", path),
                      partial(check.balance, hypergraph=h, trials=400)))
    return calls


def exhaustive(rng, write):
    return matroid_calls(rng, write) + gomory_hu_calls(rng, write) + cover_calls(rng, write)


WORKLOADS = {w.name: w for w in (
    Workload(
        "exhaustive",
        "all grounds within the exact cap: dense 2^m tables, subset DP, enumerative SFM (also per s-t cut), "
        "rational simplex, sampler; no Wolfe solve",
        {
            "graphic": "random connected, n=8, m=15: solve dp, approx, partition",
            "vector": "5x13 integer matrix, entries in [-2, 2], no zero column: solve dp, approx",
            "cactus": "random cactus, m=14, cycles of 3-5: solve dp and --exact cactus, cross-checked",
            "rank5": "random connected, n=6, m=9: solve dp and --exact fixed-basis, cross-checked",
            "apex": "random simple graph, n=6, m=9: reduce mlvc -> graphic-mlop (apex ground <= 15)",
            "weighted": "random connected, n=11, m=22, integer weights 1-5: ghtree --runs 2 (upper-bound DP)",
            "lp": "K4, C5, C7 randomly relabelled: mlvc --lp",
            "regular40": "random 4-regular, n=40, m=80: mlvc --sample 200, --balance 100, reduce mlvc -> msvc",
            "uniform3": "12 vertices, 10 random 3-sets: mlvc --kind hypergraph --balance 400",
        },
        exhaustive,
    ),
    Workload(
        "minnorm",
        "grounds beyond the exact cap: Fujishige-Wolfe and its 2m probe solves, no dense table",
        {
            "layered": "n=14, m=22: random 4-regular block on 7 vertices, a 7-cycle through it, a pendant "
                       "bridge; planted chain with critical values 3/7, 6/7, 1: approx, partition",
        },
        minnorm_calls,
    ),
)}


def round_calls(workload: str, seed: int, index: int, write) -> list:
    """The calls of one round, with its instance files written."""
    return WORKLOADS[workload].build(random.Random(f"{workload}:{seed}:{index}"), write)
