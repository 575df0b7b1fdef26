"""The scheduling view of latency cover: balanced sampling and the LP.

Viewing vertices as unit jobs and edges as zero-length weighted jobs that
must wait for their endpoints, a uniformly random vertex schedule (edges
inserted the moment they complete) inverts every incomparable job pair with
probability at least 1/(1 + max edge size).  Best-of-N over this sampler is
a strong heuristic, and the LP relaxation, solved in floats and certified
in exact rationals, pins down the fractional baseline: d n (n+1)/4 on
d-regular graphs, with a 4/3 gap on cliques.
"""

from ordolab import (
    Hypergraph,
    SchedulingPoset,
    balance_check,
    best_of_n,
    build_lp,
    clique_gap,
    emit_lp,
    exact_pair_probability,
    mlvc_brute_optimum,
    solve_lp,
)
from ordolab.instances import complete_graph, cycle_graph

# Exact inversion probabilities vs a Monte-Carlo run on K4.
H = Hypergraph.from_graph(complete_graph(4))
poset = SchedulingPoset(H)
report = balance_check(H, trials=20_000, seed=0)
print(f"K4 sampler, floor {report.floor}, worst empirical "
      f"{report.worst_probability:.3f}, flagged pairs: {list(report.flagged)}")
a, b = report.worst_pair
print(f"worst pair exact probability: {exact_pair_probability(poset, a, b)}")

# Best-of-N sampling against the brute-force optimum.
for G, name in ((cycle_graph(4), "C4"), (cycle_graph(5), "C5")):
    _, value = best_of_n(G, 500, seed=0)
    print(f"{name}: best of 500 samples = {value}, optimum = {mlvc_brute_optimum(G)}")

# The LP relaxation: its optimum certified by a constructed primal-dual pair.
model = build_lp(cycle_graph(4))
print(f"\nC4 relaxation: {model.num_vars} variables, "
      f"{model.num_constraints} constraints, optimum = {solve_lp(model)}")
print("first lines of the emitted model:")
print("\n".join(emit_lp(model).splitlines()[:4]))

# The clique integrality gap is exactly 4/3 at every size.
for n in (3, 8, 32):
    integer_opt, fractional, ratio = clique_gap(n)
    print(f"K{n}: integer {integer_opt}, fractional {fractional}, ratio {ratio}")
