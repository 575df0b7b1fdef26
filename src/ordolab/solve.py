"""Exact and approximate solvers for the linear ordering objective.

``exact_mlop_dp`` is the brute-force ground truth of the whole library: a
subset DP over all 2^m prefix sets, one keyed minimum per block of equal
sizes, whose read-back ordering is re-costed exactly.  ``approx_monotone_mlop``
orders the ground set along a linear extension of the principal partition
and certifies it with exact bounds and the factor 2 - (1 + linearity)/(1 + m).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .core import (
    CertificateError,
    Graph,
    Ordering,
    SetFunctionOracle,
    biconnected_components,
    check_costs,
    int_dtype,
    iter_bits,
    mask_of,
    max_abs,
    mlop_objective,
    size_order,
)
from .matroids import GraphicMatroid, Matroid, fundamental_circuit
from .partition import LinearityStats, PrincipalPartition, compute_principal_partition


@dataclass(frozen=True)
class BoundCertificate:
    """Certified sandwich for one approximation run.

    lower <= exact optimum <= achieved <= upper, and
    upper <= guarantee * lower, all as exact rationals.  The chain
    lower <= achieved <= upper <= guarantee * lower is checked on
    construction (CertificateError otherwise), except in the trivial case.
    """

    lower: Fraction
    upper: Fraction
    guarantee: Fraction
    achieved: Fraction
    trivial: bool = False

    def __post_init__(self):
        if not self.trivial and not self.lower <= self.achieved <= self.upper <= self.guarantee * self.lower:
            raise CertificateError(
                f"bound chain violated: lower {self.lower}, achieved {self.achieved}, "
                f"upper {self.upper}, guarantee {self.guarantee}"
            )


def uniform_closed_form(k: int, m: int) -> int:
    """Optimal ordering cost of the rank-k uniform matroid on m elements:
    C(k+1, 2) + k(m - k)."""
    if not 0 <= k <= m:
        raise ValueError("need 0 <= k <= m")
    return k * (k + 1) // 2 + k * (m - k)


#: (mask, element) pairs one pass of the subset DP gathers at once
DP_BLOCK_ENTRIES = 1 << 16


def _dp_tables(table: np.ndarray, m: int, costs: Sequence[int]):
    """The subset DP best(S) = min over e in S of best(S - e) + table[S] *
    cost(e) as (key, w), key[S] = best(S) * 2^w + e with w = m.bit_length():
    keys order by value, then by e, so one minimum keeps the least e.
    Masks go by size in blocks of at most DP_BLOCK_ENTRIES (mask, element)
    pairs, each gathering the keys of all S ^ (1 << e), clearing their tags
    and adding table[S] * cost(e) * 2^w + e.  An S + e not yet computed
    holds s * 2^w; as |best(S)| <= |S| A C (A = max|table|, C = max cost),
    a real candidate minus a sentinel one is at most (|S| - 1) A C +
    A (C - 1) - s <= m A C - s < 0 for s = m A C + 1.  Every candidate lies
    within (2 s + 1) * 2^w, which picks the dtype."""
    import numpy as np

    w = m.bit_length()
    s = m * max_abs(table) * max(costs, default=1) + 1
    dtype = int_dtype((2 * s + 1) << w)
    key = np.full(1 << m, s << w, dtype=dtype)
    key[0] = 0
    bits = 1 << np.arange(m)[:, None]
    weights = np.array([c << w for c in costs], dtype=dtype)[:, None]
    tags = np.arange(m, dtype=dtype)[:, None]
    order, starts = size_order(m)
    step = max(1, DP_BLOCK_ENTRIES // max(m, 1))
    for k in range(1, m + 1):
        for lo in range(starts[k], starts[k + 1], step):
            rows = order[lo : min(lo + step, starts[k + 1])]
            cand = key[rows ^ bits]
            cand &= ~((1 << w) - 1)
            cand += table[rows].astype(dtype) * weights
            cand += tags
            key[rows] = cand.min(axis=0)
    return key, w


def _exact_dp(f: SetFunctionOracle, costs: tuple[int, ...]):
    """The subset DP on f's table: the value key[E] >> w and one optimal
    ordering read back through the tags key[S] & (2^w - 1).  Its cost is
    recomputed in integers from the table; a tag outside its set, or a
    cost other than the value, raises CertificateError."""
    table = f.dense_values()
    key, w = _dp_tables(table, f.m, costs)
    value = residual = int(key[f.full_mask]) >> w
    seq, S = [], f.full_mask
    while S:
        e = int(key[S]) & ((1 << w) - 1)
        if not (S >> e) & 1:
            raise CertificateError("subset DP tag names an element outside its set")
        residual -= int(table[S]) * costs[e]
        seq.append(e)
        S ^= 1 << e
    if residual:
        raise CertificateError("read-back ordering does not achieve the subset DP value")
    D = f.dense_denominator
    return (value if D == 1 else Fraction(value, D)), Ordering.from_sequence(seq[::-1])


def exact_mlop_dp(f: SetFunctionOracle):
    """Exact optimum of the prefix-sum objective, with one optimal ordering,
    by the subset DP over all 2^m sets (up to EXACT_SOLVER_CAP elements)."""
    return _exact_dp(f, (1,) * f.m)


def exact_weighted_mlop_dp(f: SetFunctionOracle, costs: Sequence[int]):
    """Exact optimum of the cost-weighted prefix objective."""
    check_costs(costs, f.m)
    return _exact_dp(f, tuple(costs))


# ---------------------------------------------------------------------------
# principal-partition bounds and the approximation algorithm


def _lower_bound(m: int, pp: PrincipalPartition) -> Fraction:
    values = pp.values
    total = Fraction(m + 1, 2) * values[-1]
    for lo, hi, flo, fhi in zip(pp.sets, pp.sets[1:], values, values[1:]):
        total -= Fraction(fhi * lo.bit_count() - flo * hi.bit_count(), 2)
    return total


def _upper_bound(m: int, pp: PrincipalPartition, kappa: Fraction) -> Fraction:
    values = pp.values
    fE = values[-1]
    total = fE * m - fE * fE / (2 * kappa) + fE / 2
    for lo, hi, flo, fhi in zip(pp.sets, pp.sets[1:], values, values[1:]):
        total -= (fE - fhi) * (hi.bit_count() - lo.bit_count())
        total += flo * (fhi - flo) / kappa
    return total


def pp_lower_bound(f: SetFunctionOracle, pp: PrincipalPartition) -> Fraction:
    """Lower bound on every ordering's objective from the partition chain:
    (m+1) f(E)/2 minus half the cross terms f(P_i)|P_{i-1}| - f(P_{i-1})|P_i|.
    The chain is the caller's, so f is read on each of its sets: ValueError
    unless pp ends at f's ground set and f equals ``pp.values`` there."""
    if pp.sets[-1] != f.full_mask or any(f(S) != v for S, v in zip(pp.sets, pp.values)):
        raise ValueError("partition does not match the oracle")
    return _lower_bound(f.m, pp)


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
    singles = f.singleton_values
    sequence = []
    for cell in pp.cells():
        sequence.extend(sorted(iter_bits(cell), key=lambda e: (singles[e], e)))
    sigma = Ordering.from_sequence(sequence)

    achieved = Fraction(mlop_objective(f, sigma))
    # f on the chain is pp.values, checked tight with the base: no call reads it again
    kappa = max(map(Fraction, singles))
    stats = LinearityStats(kappa, pp.values[-1] / kappa, m)
    lower = _lower_bound(m, pp)
    upper = _upper_bound(m, pp, kappa)
    guarantee = 2 - Fraction(1 + stats.linearity, 1 + m)
    return sigma, BoundCertificate(lower, upper, guarantee, achieved)


# ---------------------------------------------------------------------------
# fixed-basis formulation


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


#: Largest rank and basis count ``small_basis_exact`` searches.
SMALL_BASIS_MAX_RANK = 8
SMALL_BASIS_MAX_BASES = 20000


def _search_bases(bases: Sequence[int], every_basis: Sequence[int], m: int) -> tuple[int, tuple[int, ...]]:
    """The least (value, basis order) over every order of the given bases,
    by one subset DP over all of them at once; ties go to the
    lexicographically least order, so chunked searches merge
    deterministically.

    An order's value is k(k+1)/2 plus, for each of its prefixes P_0, ...,
    P_{k-1}, the number of circuit supports not inside P_i.  b lies in the
    support of e, outside B, exactly when B - b + e is a basis, so each
    support is read off ``every_basis`` (all of them, also when ``bases`` is
    one worker's share) with no rank call.  In blocks of at most
    DP_BLOCK_ENTRIES / (k 2^k) bases, cnt[S] counts the supports not inside
    S (a sum over subsets of the supports' local masks), and togo[S], the
    least sum over the prefixes from S on, is filled one popcount layer at a
    time from E down; each order takes at each step the least local index
    that keeps togo, and one lexsort picks the least (value, order)."""
    import numpy as np

    k = bases[0].bit_count()
    # completes[I] holds every x that makes the (k-1)-set I + x a basis
    completes: dict[int, int] = {}
    for B in every_basis:
        for b in iter_bits(B):
            completes[B ^ 1 << b] = completes.get(B ^ 1 << b, 0) | 1 << b
    masks, starts = size_order(k)
    bit = 1 << np.arange(k)
    taken = (masks[:, None] & bit) != 0
    block = max(1, DP_BLOCK_ENTRIES // max(1, k << k))
    togo_0 = np.empty(len(bases), dtype=np.int64)
    orders = np.empty((len(bases), k), dtype=np.intp)
    for lo in range(0, len(bases), block):
        chunk = bases[lo : lo + block]
        rows = np.arange(len(chunk))
        local = []  # (row, local support mask) per element outside each basis
        for r, B in enumerate(chunk):
            supports = dict.fromkeys((e for e in range(m) if not (B >> e) & 1), 0)
            for i, b in enumerate(iter_bits(B)):
                for e in iter_bits(completes[B ^ 1 << b] & ~B):
                    supports[e] |= 1 << i
            local.extend(r << k | sup for sup in supports.values())
        # inside[S] = number of supports inside S, summed over subsets
        inside = np.bincount(np.array(local, dtype=np.intp), minlength=len(chunk) << k)
        inside = inside.reshape(len(chunk), 1 << k)
        for i in range(k):
            half = inside.reshape(len(chunk), -1, 2, 1 << i)
            half[:, :, 1] += half[:, :, 0]
        cnt = (m - k) - inside
        togo = np.zeros_like(cnt)
        step = np.zeros(cnt.shape, dtype=np.intp)
        for size in range(k - 1, -1, -1):
            layer = masks[starts[size] : starts[size + 1]]
            cand = togo[:, layer[:, None] | bit]
            # an element already in S: above every togo, which is at most k (m - k)
            cand[:, taken[starts[size] : starts[size + 1]]] = m * k + 1
            step[:, layer] = cand.argmin(axis=2)
            togo[:, layer] = cand.min(axis=2) + cnt[:, layer]
        elements = np.array([list(iter_bits(B)) for B in chunk], dtype=np.intp).reshape(len(chunk), k)
        S = np.zeros(len(chunk), dtype=np.intp)
        for t in range(k):
            i = step[rows, S]
            orders[lo : lo + len(chunk), t] = elements[rows, i]
            S |= 1 << i
        togo_0[lo : lo + len(chunk)] = togo[:, 0]
    best = np.lexsort((*orders.T[::-1], togo_0))[0]
    return k * (k + 1) // 2 + int(togo_0[best]), tuple(orders[best].tolist())


def small_basis_exact(M: Matroid, jobs: int = 1):
    """Exact optimum by searching bases and their orderings.

    Feasible whenever the basis count and the rank are small: one subset DP
    over the 2^k sets of every basis at once, in numpy, with k at most
    SMALL_BASIS_MAX_RANK and at most SMALL_BASIS_MAX_BASES bases.  The
    insertion extension of the best order is re-costed by the oracle.
    ``jobs`` splits the basis list across processes, each holding every
    basis for the exchange lookups; the result is identical for any job
    count.
    """
    if jobs < 1:
        raise ValueError("need at least one job")
    k = M.full_rank
    if k > SMALL_BASIS_MAX_RANK:
        raise ValueError(f"rank {k} exceeds the basis-permutation cap ({SMALL_BASIS_MAX_RANK})")
    bases = list(M.bases(limit=SMALL_BASIS_MAX_BASES))
    if not bases:
        raise ValueError("matroid has no basis")
    if jobs > 1 and len(bases) > 1:
        from concurrent.futures import ProcessPoolExecutor

        chunks = [bases[i::jobs] for i in range(jobs) if bases[i::jobs]]
        n = len(chunks)
        with ProcessPoolExecutor(max_workers=n) as pool:
            best = min(pool.map(_search_bases, chunks, [bases] * n, [M.m] * n))
    else:
        best = _search_bases(bases, bases, M.m)
    best_val, best_order = best
    sigma = fixed_basis_extension(M, best_order)
    check = mlop_objective(M, sigma)
    if check != best_val:
        raise CertificateError("insertion extension does not achieve the stated cost")
    return best_val, sigma


# ---------------------------------------------------------------------------
# cactus graphs


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
