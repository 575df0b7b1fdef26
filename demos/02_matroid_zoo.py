"""The rank oracles: graphic, uniform, vector, dual, parallel extensions,
and the uniformity decision through the ordering optimum."""

from ordolab import (
    DualMatroid,
    Graph,
    GraphicMatroid,
    UniformMatroid,
    VectorMatroid,
    duplicate,
    exact_mlop_dp,
    fundamental_circuit,
    mask_of,
    uniform_closed_form,
)
from ordolab.instances import bowtie, complete_graph

# Uniform: rank is size capped at k.
u23 = UniformMatroid(3, 2)
print("U(3,2) rank of a pair:", u23.rank(0b011))

# Graphic: rank = vertices - components of the picked subgraph.
k3 = GraphicMatroid(complete_graph(3))
print("K3 rank of all edges:", k3.rank(0b111))

# Vector: exact integer rank, no floating point.  Huge entries are fine.
big = 10**12
vm = VectorMatroid([[big, big + 1], [big - 1, big]])
print("near-singular integer matrix still has exact rank:", vm.rank(0b11))

# Dual rank via the corank formula, and the double dual is the original.
dual = DualMatroid(k3)
print("dual rank of everything:", dual.rank(0b111), "(m - r(E) = 1)")

# Parallel copies: integer costs become duplicated elements.
expanded, groups = duplicate(GraphicMatroid(Graph(2, ((0, 1),))), [3])
print("one edge copied 3 times, rank of all copies:", expanded.rank(0b111))

# Fundamental circuits: the unique circuit closed by adding e to a basis.
bt = GraphicMatroid(bowtie())
basis = mask_of((0, 1, 3, 4))
print("bowtie circuit closed by the left chord:",
      bin(fundamental_circuit(bt, basis, 2)))

# Is a vector matroid uniform?  Compare the exact ordering optimum with the
# closed form for the uniform matroid of the same rank.
def is_uniform(M):
    return exact_mlop_dp(M)[0] == uniform_closed_form(M.full_rank, M.m)


print("[[1,0,1],[0,1,1]] uniform?", is_uniform(VectorMatroid([[1, 0, 1], [0, 1, 1]])))
print("[[1,0,1],[0,1,0]] uniform?", is_uniform(VectorMatroid([[1, 0, 1], [0, 1, 0]])))
