"""Executable instance transformations with exact objective-transfer
certificates: MLVC <-> MSVC complement shift, matroid duality, weighted <->
unweighted expansion, the apex reduction of MLVC to weighted graphic
ordering, and the regular-graph MLA/MLVC shift."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .core import (
    CertificateError,
    Graph,
    Ordering,
    mla_objective,
    mlop_objective,
    mlvc_objective,
    msvc_objective,
    weighted_mlop_objective,
)
from .matroids import DualMatroid, GraphicMatroid, Matroid, duplicate
from .solve import exact_weighted_mlop_dp


@dataclass(frozen=True)
class ReductionCertificate:
    """An exact affine identity source = scale * target + shift between the
    objective values of a source instance and its reduced target."""

    kind: str
    source_value: Fraction
    target_value: Fraction
    scale: Fraction
    shift: Fraction
    description: str = ""

    def __post_init__(self):
        if not self.holds():
            raise CertificateError(
                f"{self.kind}: certificate identity violated "
                f"({self.source_value} != {self.scale} * {self.target_value} "
                f"+ {self.shift})"
            )

    def holds(self) -> bool:
        return self.source_value == self.scale * self.target_value + self.shift


def mlvc_msvc_shift(G: Graph, pi: Ordering):
    """MLVC on G equals MSVC on the complement under the reversed labeling,
    shifted by (n^3 - n)/3 - (n + 1) |E(complement)|."""
    if not G.is_simple():
        raise ValueError("complement shift requires a simple graph")
    n = G.n
    comp = G.complement()
    pi_rev = pi.reversed()
    shift = Fraction(n**3 - n, 3) - (n + 1) * comp.m
    cert = ReductionCertificate(
        kind="mlvc-msvc",
        source_value=Fraction(mlvc_objective(G, pi)),
        target_value=Fraction(msvc_objective(comp, pi_rev)),
        scale=Fraction(1),
        shift=shift,
        description="MLVC(G, pi) = shift + MSVC(complement, n+1-pi)",
    )
    return comp, pi_rev, cert


def dual_transfer(M: Matroid, sigma: Ordering):
    """Prefix rank sums transfer to the dual matroid under the reversed
    ordering, shifted by C(m+1, 2) - (m+1)(m - r(E)).

    The shift is brute-force verified across matroid families; the naive
    substitution r(X) = |X| - r(E) + r*(E - X) that would give a
    -r(E)*m shift is wrong whenever r(E) != m - r(E).
    """
    dual = DualMatroid(M)
    sigma_rev = sigma.reversed()
    m = M.m
    shift = m * (m + 1) // 2 - (m + 1) * (m - M.full_rank)
    cert = ReductionCertificate(
        kind="dual-transfer",
        source_value=Fraction(mlop_objective(M, sigma)),
        target_value=Fraction(mlop_objective(dual, sigma_rev)),
        scale=Fraction(1),
        shift=Fraction(shift),
        description="rank prefix sum = shift + corank prefix sum (reversed)",
    )
    return dual, sigma_rev, cert


def regular_shift(G: Graph, pi: Ordering) -> ReductionCertificate:
    """On a k-regular graph, MLA = 2*MLVC - k*C(n+1, 2) for every labeling."""
    k = G.regular_degree()
    if k is None:
        raise ValueError("graph is not regular")
    n = G.n
    return ReductionCertificate(
        kind="regular-mla-mlvc",
        source_value=Fraction(mla_objective(G, pi)),
        target_value=Fraction(mlvc_objective(G, pi)),
        scale=Fraction(2),
        shift=Fraction(-k * n * (n + 1) // 2),
        description="MLA(G, pi) = 2 MLVC(G, pi) - k C(n+1, 2)",
    )


def weighted_to_unweighted(M: Matroid, costs: Sequence[int], sigma: Ordering | None = None):
    """Replace integer costs by parallel copies: the weighted prefix
    objective of (M, costs) under sigma equals the plain prefix objective of
    the expanded matroid under the block expansion of sigma."""
    N, groups = duplicate(M, costs)
    if sigma is None:
        sigma = Ordering.identity(M.m)
    expanded: list[int] = []
    for e in sigma.sequence():
        expanded.extend(groups[e])
    sigma_exp = Ordering.from_sequence(expanded)
    cert = ReductionCertificate(
        kind="weighted-unweighted",
        source_value=Fraction(weighted_mlop_objective(M, list(costs), sigma)),
        target_value=Fraction(mlop_objective(N, sigma_exp)),
        scale=Fraction(1),
        shift=Fraction(0),
        description="weighted objective = objective on the parallel expansion",
    )
    return N, sigma_exp, cert


# ---------------------------------------------------------------------------
# MLVC -> weighted graphic ordering via an apex vertex


@dataclass(frozen=True)
class ApexReduction:
    """MLVC instance G recast as weighted graphic-matroid ordering.

    The apex graph adds a hub adjacent to every kept vertex; hub ("star")
    edges carry cost k = 9 m^2 + 2 and original edges cost 1.  In any
    optimal weighted ordering the star-edge prefix ranks are pairwise
    distinct, and reading them off recovers an optimal vertex labeling.
    """

    original: Graph
    kept: tuple[int, ...]          # non-isolated original vertices, ascending
    apex_graph: Graph              # kept vertices 0..n'-1, hub = n'
    costs: tuple[int, ...]
    k: int
    star_edge_of: tuple[int, ...]  # apex-edge index of (hub, v) per kept v

    @property
    def base_offset(self) -> int:
        """k * (1 + 2 + ... + n'), the constant separating the two optima."""
        n = len(self.kept)
        return self.k * n * (n + 1) // 2

    def recover_labeling(self, sigma: Ordering) -> Ordering:
        """Extract the vertex labeling from a good ordering of the apex
        graph; isolated original vertices are appended at the end.  An
        ordering whose star ranks collide raises CertificateError: the
        reduction claims that every optimal ordering is good."""
        sequence = sigma.sequence()
        ranks = GraphicMatroid(self.apex_graph)._prefix_values(sequence)[1:]
        rank_at_edge = dict(zip(sequence, ranks))
        n = len(self.kept)
        labels = [rank_at_edge[self.star_edge_of[i]] for i in range(n)]
        if sorted(labels) != list(range(1, n + 1)):
            raise CertificateError("ordering is not good: star ranks collide")
        positions = [0] * self.original.n
        for i, v in enumerate(self.kept):
            positions[v] = labels[i]
        kept = set(self.kept)
        next_pos = n + 1
        for v in range(self.original.n):
            if v not in kept:
                positions[v] = next_pos
                next_pos += 1
        return Ordering(tuple(positions))


def mlvc_to_weighted_graphic(G: Graph) -> ApexReduction:
    """Build the apex instance for a simple graph (isolated vertices are
    stripped first; they never affect the MLVC cost)."""
    if not G.is_simple():
        raise ValueError("apex reduction requires a simple graph")
    degrees = G.degrees()
    kept = tuple(v for v in range(G.n) if degrees[v] > 0)
    if not kept:
        raise ValueError("graph has no edges after stripping isolated vertices")
    index = {v: i for i, v in enumerate(kept)}
    n = len(kept)
    m = G.m
    k = 9 * m * m + 2
    edges = [(index[u], index[v]) for u, v in G.edges]
    costs = [1] * m
    star_edge_of = []
    for i in range(n):
        star_edge_of.append(len(edges))
        edges.append((n, i))  # hub is vertex n
        costs.append(k)
    return ApexReduction(
        original=G,
        kept=kept,
        apex_graph=Graph(n + 1, tuple(edges)),
        costs=tuple(costs),
        k=k,
        star_edge_of=tuple(star_edge_of),
    )


def solve_mlvc_via_apex(G: Graph):
    """Solve MLVC exactly through the apex reduction (desk scale only).

    Returns (labeling, mlvc value, reduction, certificate); the certificate
    ties the weighted ordering optimum to the recovered MLVC value.
    """
    red = mlvc_to_weighted_graphic(G)
    matroid = GraphicMatroid(red.apex_graph)
    weighted_opt, sigma = exact_weighted_mlop_dp(matroid, list(red.costs))
    pi = red.recover_labeling(sigma)
    value = mlvc_objective(G, pi)
    cert = ReductionCertificate(
        kind="mlvc-apex",
        source_value=Fraction(weighted_opt),
        target_value=Fraction(value),
        scale=Fraction(1),
        shift=Fraction(red.base_offset),
        description="weighted apex optimum = MLVC optimum + k * C(n+1, 2)",
    )
    return pi, value, red, cert
