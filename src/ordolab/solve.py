"""Exact and approximate solvers for the linear ordering objective.

``exact_mlop_dp`` is the brute-force ground truth of the whole library: a
subset dynamic program over all 2^m prefix sets.  ``approx_monotone_mlop``
orders the ground set along a linear extension of the principal partition
and certifies the result with exact lower/upper bounds and the guarantee
factor 2 - (1 + linearity)/(1 + m).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from typing import Iterable, Sequence

import numpy as np

from .core import (
    EXACT_SOLVER_CAP,
    CertificateError,
    Graph,
    Ordering,
    SetFunctionOracle,
    biconnected_components,
    int_dtype,
    iter_bits,
    mask_of,
    max_abs,
    mlop_objective,
    popcounts,
    unscale,
)
from .matroids import GraphicMatroid, Matroid, fundamental_circuit
from .partition import PrincipalPartition, compute_principal_partition, linearity_stats


@dataclass(frozen=True)
class BoundCertificate:
    """Certified sandwich for one approximation run.

    lower <= exact optimum <= achieved <= upper, and
    upper <= guarantee * lower, all as exact rationals.
    """

    lower: Fraction
    upper: Fraction
    guarantee: Fraction
    achieved: Fraction
    trivial: bool = False


def uniform_closed_form(k: int, m: int) -> int:
    """Optimal ordering cost of the rank-k uniform matroid on m elements:
    C(k+1, 2) + k(m - k)."""
    if not 0 <= k <= m:
        raise ValueError("need 0 <= k <= m")
    return k * (k + 1) // 2 + k * (m - k)


def _dp_tables(table: np.ndarray, m: int, costs: Sequence[int] | None):
    """Shared subset-DP core on an integer table, by popcount layers:
    best(S) = min over e in S of best(S - e) + table[S] * cost(e), with
    choice(S) the smallest such e (cost 1 when unweighted)."""
    costs = costs or (1,) * m
    # bounds every best(S) and candidate, and every cost
    bound = m * (max_abs(table) + 1) * max(costs)
    dtype = int_dtype(bound + 1)
    best = np.zeros(1 << m, dtype=int_dtype(bound))
    choice = np.zeros(1 << m, dtype=np.int8)
    sizes = popcounts(m)
    for k in range(1, m + 1):
        layer = np.flatnonzero(sizes == k)
        charge = table[layer].astype(dtype)
        layer_best = np.full(len(layer), bound + 1, dtype=dtype)
        layer_choice = np.zeros(len(layer), dtype=np.int8)
        for e in range(m):
            # ascending e with a strict < keeps the smallest minimizing e
            holders = np.flatnonzero((layer >> e) & 1)
            cand = best[layer[holders] ^ (1 << e)].astype(dtype) + charge[holders] * costs[e]
            better = cand < layer_best[holders]
            layer_best[holders[better]] = cand[better]
            layer_choice[holders[better]] = e
        best[layer] = layer_best
        choice[layer] = layer_choice
    return best, choice


def _exact_dp(f: SetFunctionOracle, costs: tuple[int, ...] | None, cap: int):
    """The subset DP on f's table and one optimal ordering read back from
    its choices (unit costs when ``costs`` is None)."""
    m = f.m
    if m > cap:
        raise ValueError(f"ground set of size {m} exceeds the exact cap ({cap})")
    if m == 0:
        return 0, Ordering(())
    best, choice = _dp_tables(f.dense_values(cap=cap), m, costs)
    seq_rev = []
    S = f.full_mask
    while S:
        e = int(choice[S])
        seq_rev.append(e)
        S ^= 1 << e
    value = unscale(best[f.full_mask], f.dense_denominator)
    return value, Ordering.from_sequence(tuple(reversed(seq_rev)))


def exact_mlop_dp(f: SetFunctionOracle, cap: int = EXACT_SOLVER_CAP):
    """Exact optimum of the prefix-sum objective, with one optimal ordering.

    Runs the dynamic program best(S) = f(S) + min over e in S of best(S - e)
    over all 2^m subsets; only feasible at desk scale.
    """
    return _exact_dp(f, None, cap)


def exact_weighted_mlop_dp(
    f: SetFunctionOracle, costs: Sequence[int], cap: int = EXACT_SOLVER_CAP
):
    """Exact optimum of the cost-weighted prefix objective."""
    if len(costs) != f.m:
        raise ValueError("cost vector length does not match ground set")
    for c in costs:
        if not isinstance(c, int) or c <= 0:
            raise ValueError("costs must be strictly positive integers")
    return _exact_dp(f, tuple(costs), cap)


# ---------------------------------------------------------------------------
# principal-partition bounds and the approximation algorithm


def _check_partition(f: SetFunctionOracle, pp: PrincipalPartition) -> None:
    if pp.sets[-1] != f.full_mask:
        raise ValueError("partition does not match the oracle's ground set")
    for lam, lo, hi in zip(pp.critical_values, pp.sets, pp.sets[1:]):
        if lam * (hi.bit_count() - lo.bit_count()) != f(hi) - f(lo):
            raise ValueError("partition critical values do not match the oracle")


def pp_lower_bound(f: SetFunctionOracle, pp: PrincipalPartition) -> Fraction:
    """Lower bound on every ordering's objective from the partition chain:
    (m+1) f(E)/2 minus half the cross terms f(P_i)|P_{i-1}| - f(P_{i-1})|P_i|."""
    _check_partition(f, pp)
    m = f.m
    total = Fraction(m + 1, 2) * f(f.full_mask)
    for lo, hi in zip(pp.sets, pp.sets[1:]):
        total -= Fraction(f(hi) * lo.bit_count() - f(lo) * hi.bit_count(), 2)
    return total


def pp_upper_bound(f: SetFunctionOracle, pp: PrincipalPartition) -> Fraction:
    """Upper bound on the objective of any linear extension of the chain."""
    _check_partition(f, pp)
    m = f.m
    fE = Fraction(f(f.full_mask))
    kappa = linearity_stats(f).kappa
    total = fE * m - fE * fE / (2 * kappa) + fE / 2
    for lo, hi in zip(pp.sets, pp.sets[1:]):
        flo, fhi = f(lo), f(hi)
        total -= (fE - fhi) * (hi.bit_count() - lo.bit_count())
        total += Fraction(flo * (fhi - flo)) / kappa
    return total


def approx_monotone_mlop(f: SetFunctionOracle):
    """Order the ground set along a linear extension of the principal
    partition of f (its zero set is the first cell), and certify the
    result.

    Returns (ordering, BoundCertificate).  The achieved objective is at most
    guarantee = 2 - (1 + linearity)/(1 + m) times the exact optimum.
    """
    m = f.m
    if f(f.full_mask) == 0:
        order = Ordering.identity(m)
        zero = Fraction(0)
        return order, BoundCertificate(zero, zero, Fraction(1), zero, trivial=True)

    pp = compute_principal_partition(f)
    sequence = []
    for cell in pp.cells():
        sequence.extend(sorted(iter_bits(cell), key=lambda e: (f(1 << e), e)))
    sigma = Ordering.from_sequence(sequence)

    achieved = Fraction(mlop_objective(f, sigma))
    lower = pp_lower_bound(f, pp)
    upper = pp_upper_bound(f, pp)
    stats = linearity_stats(f)
    guarantee = 2 - Fraction(1 + stats.linearity, 1 + m)
    return sigma, BoundCertificate(lower, upper, guarantee, achieved)


# ---------------------------------------------------------------------------
# fixed-basis formulation


def fixed_basis_objective(M: Matroid, basis_order: Sequence[int]) -> int:
    """Full ordering cost induced by a basis and an ordering of it.

    Equals C(k+1, 2) plus, over the non-basis elements, the largest position
    among the basis elements of their fundamental circuit.  This matches the
    cost of the insertion extension built by ``fixed_basis_extension``.
    """
    basis_order = tuple(basis_order)
    basis = mask_of(basis_order)
    if len(basis_order) != basis.bit_count():
        raise ValueError("basis ordering repeats an element")
    return _ordered_cost(_circuit_supports(M, basis), basis_order)


def _circuit_supports(M: Matroid, basis: int) -> list[tuple[int, tuple[int, ...]]]:
    """(e, basis elements of e's fundamental circuit) for every element e
    outside the basis; a loop's support is empty."""
    if not M.is_basis(basis):
        raise ValueError("given set is not a basis")
    return [
        (e, tuple(b for b in iter_bits(fundamental_circuit(M, basis, e)) if b != e))
        for e in range(M.m)
        if not (basis >> e) & 1
    ]


def _ordered_cost(supports, basis_order: Sequence[int]) -> int:
    k = len(basis_order)
    pos = {b: i + 1 for i, b in enumerate(basis_order)}
    # loops have a singleton circuit and contribute rank 0
    return k * (k + 1) // 2 + sum(
        max((pos[b] for b in support), default=0) for _, support in supports
    )


def fixed_basis_extension(M: Matroid, basis_order: Sequence[int]) -> Ordering:
    """The insertion extension: basis elements in order, each non-basis
    element placed right after the last basis element of its circuit."""
    basis_order = tuple(basis_order)
    pos = {b: i for i, b in enumerate(basis_order)}
    head: list[int] = []  # loops go before every basis element
    buckets: list[list[int]] = [[] for _ in basis_order]
    for e, support in _circuit_supports(M, mask_of(basis_order)):
        if support:
            buckets[max(pos[b] for b in support)].append(e)
        else:
            head.append(e)
    sequence: list[int] = sorted(head)
    for i, b in enumerate(basis_order):
        sequence.append(b)
        sequence.extend(sorted(buckets[i]))
    return Ordering.from_sequence(sequence)


def _search_bases(M: Matroid, bases: Sequence[int]):
    """Best (value, basis permutation) over the given bases; ties broken by
    the lexicographically smallest permutation, so chunked searches merge
    deterministically.  The circuits depend on the basis only, so they are
    computed once per basis."""
    best = None
    for basis in bases:
        supports = _circuit_supports(M, basis)
        for perm in permutations(iter_bits(basis)):
            val = _ordered_cost(supports, perm)
            if best is None or (val, perm) < best:
                best = (val, perm)
    return best


def small_basis_exact(
    M: Matroid,
    basis_enumerator: Iterable[int] | None = None,
    max_bases: int = 20000,
    max_rank: int = 8,
    jobs: int = 1,
):
    """Exact optimum by searching bases and their orderings.

    Feasible whenever the basis count and the rank are small; the search
    space is (number of bases) * k!.  ``jobs`` splits the basis list across
    processes; the result is identical for any job count.
    """
    k = M.full_rank
    if k > max_rank:
        raise ValueError(f"rank {k} exceeds the basis-permutation cap ({max_rank})")
    bases = basis_enumerator if basis_enumerator is not None else M.bases(limit=max_bases)
    bases = list(bases)
    if not bases:
        raise ValueError("matroid has no basis")
    if jobs > 1 and len(bases) > 1:
        from concurrent.futures import ProcessPoolExecutor

        chunks = [bases[i::jobs] for i in range(jobs) if bases[i::jobs]]
        with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            partials = list(pool.map(_search_bases, [M] * len(chunks), chunks))
        best = min(p for p in partials if p is not None)
    else:
        best = _search_bases(M, bases)
    best_val, best_order = best
    sigma = fixed_basis_extension(M, best_order)
    check = mlop_objective(M, sigma)
    if check != best_val:
        raise CertificateError("insertion extension does not achieve the stated cost")
    return best_val, sigma


# ---------------------------------------------------------------------------
# cactus graphs


def is_cactus(G: Graph) -> bool:
    """Every block is a single edge or a cycle (simple graphs only)."""
    if not G.is_simple():
        return False
    for block in biconnected_components(G):
        if len(block) == 1:
            continue
        vertices = set()
        for ei in block:
            vertices.update(G.edges[ei])
        if len(block) != len(vertices):
            return False
    return True


def cactus_exact(G: Graph):
    """Exact graphic-matroid ordering optimum for a cactus graph.

    Cycle blocks are taken in ascending size (ties by smallest edge label),
    each block's tree edges first and its closing chord immediately after;
    bridges, being coloops, come last.
    """
    if not G.is_simple():
        raise ValueError("cactus solver requires a simple graph")
    blocks = biconnected_components(G)
    cycles = []
    bridges = []
    for block in blocks:
        if len(block) == 1:
            bridges.append(block[0])
            continue
        vertices = set()
        for ei in block:
            vertices.update(G.edges[ei])
        if len(block) != len(vertices):
            raise ValueError("input graph is not a cactus")
        cycles.append(sorted(block))
    cycles.sort(key=lambda b: (len(b), b[0]))
    sequence: list[int] = []
    for block in cycles:
        sequence.extend(block[:-1])
        sequence.append(block[-1])  # chord: the block's largest edge label
    sequence.extend(sorted(bridges))
    sigma = Ordering.from_sequence(sequence)
    value = mlop_objective(GraphicMatroid(G), sigma)
    return value, sigma


# ---------------------------------------------------------------------------
# structure checker for optimal matroid orderings


def has_flat_prefix_structure(M: Matroid, sigma: Ordering) -> bool:
    """Check that each union of rank plateaus of the ordering is a flat:
    no outside element can be added without raising the rank.  Holds for
    every optimal ordering of a matroid."""
    full = M.full_mask
    prefix = 0
    prev_rank = 0
    boundaries = []
    for mask in sigma.prefix_masks():
        r = M.rank(mask)
        if r > prev_rank and prefix:
            boundaries.append(prefix)
        prefix = mask
        prev_rank = r
    for F in boundaries:
        rF = M.rank(F)
        for e in iter_bits(full ^ F):
            if M.rank(F | (1 << e)) == rF:
                return False
    return True
