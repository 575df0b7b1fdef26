"""Gomory-Hu trees for symmetric cut functions, and the ordering bounds
they induce.

The tree's total weight is a lower bound on the optimal ordering cost of
the cut function (tight when the tree is a path); laying the tree itself
out optimally gives an upper bound.  Total weight is an invariant: every
Gomory-Hu tree of a fixed function weighs the same.
"""

from ordolab import (
    CutFunction,
    build_gh_tree,
    exact_mlop_dp,
    gh_lower_bound,
    gh_upper_bound,
    gh_weight_invariance,
    matching_certificate,
)
from ordolab.instances import complete_graph, path_graph, star_graph

# A path: the tree is the path itself and the lower bound is tight.
f = CutFunction(path_graph(4))
tree = build_gh_tree(f)
print("P4 tree edges:", [(u, v, str(w)) for u, v, w in tree.edges])
print("lower bound", gh_lower_bound(tree), "= exact optimum", exact_mlop_dp(f)[0])

# A star: bounds straddle the optimum.
f = CutFunction(star_graph(3))
tree = build_gh_tree(f)
upper, sigma = gh_upper_bound(f, tree)
print(f"\nstar: lower {gh_lower_bound(tree)}, optimum {exact_mlop_dp(f)[0]}, "
      f"upper {upper} via layout {list(sigma.sequence())}")

# Unit K4: every pairwise minimum cut is a singleton of value 3.
f = CutFunction(complete_graph(4))
value = build_gh_tree(f).total_weight()
print(f"\nunit K4 tree objective: {value} (three tree edges, each cut value 3)")
print("total weight invariant over 10 shuffled builds:",
      gh_weight_invariance(f, runs=10, seed=0))

# Any two trees on the same ground set admit a perfect separation matching;
# this is the combinatorial engine behind the lower bound.
t1 = build_gh_tree(f, seed=1)
t2 = build_gh_tree(f, seed=5)
print("separation matching between two builds:", matching_certificate(t1, t2))
