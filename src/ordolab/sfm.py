"""Submodular function minimization through the minimum-norm base.

For a submodular f, the minimum-norm base x* of B(f - f(empty)) answers
every minimization with a modular offset: min_X f(X) - lambda*|X| is
f(empty) + sum_e min(x*_e - lambda, 0), attained by {x* < lambda} and
{x* <= lambda}, the minimal and maximal minimizers.  ``min_norm_base``
computes x* exactly and certifies it, on every path with its lower level
sets checked tight; ``minimize_offset`` reads both sets off it unevaluated.

A graphic matroid or a coverage function builds x* exactly at every size,
one cell of equal values at a time, each cell found by a parametric
search over checked orientations (``_decomposed_base``, ``flow``).  Its
point is certified when every lower level set is tight and the class's
exact base polytope test, ``_base_membership``, accepts it, which makes
it the minimum-norm base whether or not f is submodular; otherwise
``CertificateError`` is raised, with no other path tried.

Any other oracle, up to the exact cap, has x* read off its dense integer
table D*f: the strict vertices of the lower convex hull of the per-size
minima g(k) = min_{|X|=k} D*f(X) must have unique, nested argmins, and x*
takes the hull slope on the cell where an element enters.  With x*(X) <=
f(X) checked on all 2^m subsets, x* is the minimum-norm point of
{x : x(X) <= f(X), x(E) = f(E)} with tight level sets, so every answer is
exact for any oracle.  Beyond the cap, one Fujishige-Wolfe search runs in
exact arithmetic from the greedy vertex of the identity order.  Each
greedy vertex reads f on the m + 1 prefixes of its order through the
oracle's ``_prefix_values``; the Gram products of the active vertices
are kept as rows, one row and column added per vertex, and each affine
minimizer is solved from its nonsingular bordered Gram system by one
fraction-free elimination, ``_solve_nonsingular``.  Each point is formed
in integers over one common denominator.  The point passes Wolfe's
optimality test exactly, is a convex combination of its active vertices, and
satisfies x*(X) <= f(X) on the 2m singletons and co-singletons.  Beyond
those sets it is the minimum-norm base only if f is submodular.  A failed
check raises ``CertificateError``.  No step of any base uses floating
point.

``st_min_cut`` cuts graph cut functions only, by checked flows: an exact
integer maximum flow (``flow``, shortest augmenting paths, the search that
also builds the graphic orientations) whose value must equal the cut
function on the flow's side, with no table built.

References: Fujishige, Math. OR 1980 (lexicographically optimal base, and
its decomposition algorithm) and Submodular Functions and Optimization,
2nd ed. 2005, Thm 7.15; Cunningham, J. ACM 1985 (graphic bases by flows);
Goldberg 1984 (densest subgraphs); Nagano, Kawahara, Aihara, ICML 2011;
Wolfe, Math. Prog. 1976; Chakrabarty, Jain, Kothari, NeurIPS 2014;
Hakimi, J. Franklin Inst. 1965 (orientations with bounded in-degrees).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Sequence

from .core import (
    EXACT_SOLVER_CAP,
    CertificateError,
    SetFunctionOracle,
    int_dtype,
    integer_vector,
    iter_bits,
    max_abs,
    size_order,
)
from .matroids import CutFunction

OUTSIDE_BASE_POLYTOPE = "min-norm base lies outside the base polytope: oracle not submodular?"


@dataclass(frozen=True)
class SfmResult:
    """Minimum value plus the minimal and maximal minimizers.

    Both reported sets attain the minimum, the minimal one is contained in
    the maximal one, and every other minimizer lies between them.
    """

    min_value: Fraction
    minimal_minimizer: int
    maximal_minimizer: int


def minimize_offset(f: SetFunctionOracle, lam: Fraction) -> SfmResult:
    """Exact global minimum of f(X) - lam*|X| over all subsets, read off the
    certified minimum-norm base x* with no oracle call but f(empty): lo =
    {x* < lam} and hi = {x* <= lam} are level sets of x*, or empty, which
    ``min_norm_base`` checked tight, so on both f(S) - lam*|S| = f(empty) +
    sum_e min(x*_e - lam, 0), as S holds every e with x*_e < lam and none
    above."""
    lam = Fraction(lam)
    x = min_norm_base(f)
    value = f(0) + sum(min(xe - lam, 0) for xe in x)
    lo = sum(1 << e for e, xe in enumerate(x) if xe < lam)
    hi = sum(1 << e for e, xe in enumerate(x) if xe <= lam)
    return SfmResult(Fraction(value), lo, hi)


def min_norm_base(f: SetFunctionOracle) -> list[Fraction]:
    """The exact minimum-norm base x* of B(f - f(empty)), certified, else
    CertificateError.  A graphic matroid or a coverage function builds it
    by decomposition at every size (``_decomposed_base``), any other oracle
    off the dense table up to EXACT_SOLVER_CAP and by the exact
    Fujishige-Wolfe search beyond it.  Every path's point has its level
    sets checked tight, and its base polytope membership decided exactly
    (``_certified``; on the table, all 2^m subsets), with no assumption on
    f, except beyond the cap, whose membership relies on submodularity."""
    g0 = None
    if f._decomposed_base is not None:
        x = f._decomposed_base()
    elif f.m <= EXACT_SOLVER_CAP:
        x = _table_base(f)
    else:
        # f(empty), read once for both checks of the Wolfe point
        g0 = f(0)
        x = _wolfe_base(f, g0)
    if not _certified(f, x, g0):
        raise CertificateError(
            "min-norm base has a lower level set that is not tight, or lies outside the base polytope"
        )
    return x


def _lower_hull(g: Sequence) -> list[int]:
    """The strict vertices k of the lower convex hull of the points
    (k, g[k]), ascending; collinear points are not vertices."""
    hull = [0]
    for k in range(1, len(g)):
        while len(hull) > 1 and (
            (hull[-1] - hull[-2]) * (g[k] - g[hull[-2]])
            <= (g[hull[-1]] - g[hull[-2]]) * (k - hull[-2])
        ):
            hull.pop()
        hull.append(k)
    return hull


def _table_base(f: SetFunctionOracle) -> list[Fraction]:
    import numpy as np

    table = f.dense_values()
    D, m = f.dense_denominator, f.m
    order, starts = size_order(m)
    by_size = table[order]
    g = np.minimum.reduceat(by_size, starts[:-1]).tolist()
    hull = _lower_hull(g)
    # x* takes the hull slope on the cell where an element enters the
    # chain of argmins; L*D*x* is integral, L the lcm of the cell sizes
    L = lcm(*(b - a for a, b in zip(hull, hull[1:])))
    scaled = [0] * m
    prev = 0
    for a, b in zip(hull, hull[1:]):
        hits = np.flatnonzero(by_size[starts[b]:starts[b + 1]] == g[b])
        if len(hits) != 1:
            raise CertificateError("minimizer of a hull size is not unique")
        S = int(order[starts[b] + hits[0]])
        if prev & ~S:
            raise CertificateError("minimizers of the hull sizes do not nest")
        for e in iter_bits(S & ~prev):
            scaled[e] = (g[b] - g[a]) * (L // (b - a))
        prev = S
    # x*(X) <= f(X) on all 2^m subsets, as L*D*x*(X) <= L*D*f(X)
    dtype = int_dtype(L * max_abs(table) + sum(map(abs, scaled)))
    lhs = np.zeros(1 << m, dtype=dtype)
    for e, w in enumerate(scaled):
        np.add(lhs[: 1 << e], w, out=lhs[1 << e : 2 << e])
    if np.any(lhs > np.multiply(table, L, dtype=dtype)):
        raise CertificateError(OUTSIDE_BASE_POLYTOPE)
    return [Fraction(w, L * D) for w in scaled]


def st_min_cut(f: CutFunction, s: int, t: int) -> tuple[int, Fraction]:
    """A minimum s-t cut of a graph's cut function: the smallest X with s in
    X and t out of X, minimizing f(X).  Returns (cut set, value).

    Read off an exact integer maximum flow by shortest augmenting paths,
    checked before use (``flow``), whose value must also equal D * f(side);
    no table is built.  Any other oracle raises ValueError."""
    if not isinstance(f, CutFunction):
        raise ValueError("s-t cuts are taken from graph cut functions only")
    if s == t:
        raise ValueError("s and t must differ")
    side, value = f.network.min_cut(s, t)
    if value != f.scale * f(side):
        raise CertificateError("flow value differs from the cut function")
    return side, Fraction(value, f.scale)


# ---------------------------------------------------------------------------
# Fujishige-Wolfe path (grounds beyond the enumeration cap)


def _exact_min_norm_point(m: int, greedy_vertex) -> tuple[list[Fraction], list[Fraction]]:
    """Wolfe's algorithm for the minimum-norm point of the base polytope, in
    exact arithmetic, started from the greedy vertex of the identity order
    with coefficient 1.  ``greedy_vertex(order)`` returns the exact vertex
    for an ordering of the ground set.  Returns the coefficients c and the
    point x = sum c_i V_i, with x.q >= x.x for the greedy vertex q at x."""
    # each active vertex V_i kept as the integer vector U_i = d_i V_i, with
    # the rows of the Gram products U_i.U_j
    d0, u0 = integer_vector(greedy_vertex(list(range(m))))
    d, U, c, gram = [d0], [u0], [Fraction(1)], [[sum(map(mul, u0, u0))]]
    while True:
        # x = sum (c_i / d_i) U_i as the integer vector X = L x, L the least
        # common denominator of the c_i / d_i
        L, w = integer_vector([ci / di for ci, di in zip(c, d)])
        X = [sum(map(mul, w, col)) for col in zip(*U)]
        dq, uq = integer_vector(greedy_vertex(sorted(range(m), key=X.__getitem__)))
        # x.q >= x.x, that is L X.(d_q q) >= d_q X.X
        if L * sum(map(mul, X, uq)) >= dq * sum(map(mul, X, X)):
            return c, [Fraction(Xe, L) for Xe in X]
        # x is the least-norm point of the affine hull of V, so x.v = x.x
        # on that hull and x.q < x.x puts q outside it: V + q is affinely
        # independent, and so is every subset the minor cycles keep
        products = [sum(map(mul, uq, u)) for u in U]
        for row, p in zip(gram, products):
            row.append(p)
        gram.append([*products, sum(map(mul, uq, uq))])
        d, U, c = d + [dq], U + [uq], c + [Fraction(0)]
        # minor cycles: toward the affine minimizer of V until it is convex
        while True:
            # the point of least norm in the affine hull of V is sum b_i V_i
            # for the solution (mu, b) of [[0, 1^T], [1, V V^T]] (mu, b) =
            # (1, 0), nonsingular as V is affinely independent; in beta_j =
            # b_j / d_j its rows are integer: sum d_j beta_j = 1,
            # d_i mu + sum U_i.U_j beta_j = 0
            bordered = [[0, *d]] + [[di, *row] for di, row in zip(d, gram)]
            beta = _solve_nonsingular(bordered, [1] + [0] * len(d))[1:]
            b = [dj * bj for dj, bj in zip(d, beta)]
            if all(bi >= 0 for bi in b):
                c = b
                break
            theta = min(ci / (ci - bi) for ci, bi in zip(c, b) if bi < 0)
            c = [theta * bi + (1 - theta) * ci for ci, bi in zip(c, b)]
            keep = [i for i, ci in enumerate(c) if ci > 0]
            U, d, c = ([seq[i] for i in keep] for seq in (U, d, c))
            gram = [[gram[i][j] for j in keep] for i in keep]


def _solve_nonsingular(rows: list[list[int]], rhs: list[int]) -> list[Fraction]:
    """The solution z of the square integer system rows z = rhs, exact, by
    one fraction-free elimination (Bareiss 1968) that swaps in the first
    row with a nonzero in each column.  The system must be nonsingular: a
    column with no such row raises CertificateError.  Every elimination
    step's division is exact, and the last pivot is +-det, so det z is
    integral and back substitution runs in integers too."""
    n = len(rows)
    a = [[*row, b] for row, b in zip(rows, rhs)]
    prev = 1
    for k in range(n):
        p = next((i for i in range(k, n) if a[i][k]), None)
        if p is None:
            raise CertificateError("bordered Gram system is singular: Wolfe's active set is affinely dependent")
        a[k], a[p] = a[p], a[k]
        pivot, top = a[k][k], a[k][k + 1 :]
        for row in a[k + 1 :]:
            lead = row[k]
            row[k + 1 :] = [(pivot * v - lead * t) // prev for v, t in zip(row[k + 1 :], top)]
        prev = pivot
    z = [0] * n
    for k in reversed(range(n)):
        z[k] = (prev * a[k][n] - sum(map(mul, a[k][k + 1 : n], z[k + 1 :]))) // a[k][k]
    return [Fraction(zk, prev) for zk in z]


def _wolfe_base(f: SetFunctionOracle, g0) -> list[Fraction]:
    """Wolfe's search on h = f - f(empty), g0 = f(empty), in exact
    arithmetic, checked by ``_finished_base``."""
    m = f.m
    if m == 0:
        return []

    def greedy_vertex(order: list[int]) -> list:
        values = f._prefix_values(order)
        out = [0] * m
        for i, e in enumerate(order):
            out[e] = values[i + 1] - values[i]
        return out

    return _finished_base(f, *_exact_min_norm_point(m, greedy_vertex), g0)


def _certified(f: SetFunctionOracle, x: list[Fraction], g0=None) -> bool:
    """Whether every lower level set L = {x <= lam} is tight, x(L) = h(L),
    h = f - f(empty), and x lies in B(h) by the class's exact test
    ``_base_membership``, if any.  Then for every y in B(h), summing over
    the level sets L_1 < ... < L_k with values lam_1 < ... < lam_k, <x, y>
    = sum_i (lam_i - lam_{i+1}) y(L_i) + lam_k y(E) >= <x, x>, as y(L_i) <=
    h(L_i) = x(L_i): x is the point of B(h) of least norm, whether or not f
    is submodular (Fujishige 2005, lexicographically optimal base).  The
    level sets, prefixes of one stable sort of x that end before a larger
    value, are compared in integers, d x against d h (h off the dense table
    once built, else with g0 = f(empty), read here unless given), d the
    least common denominator of x."""
    table, D = f._dense, f.dense_denominator
    if table is None and g0 is None:
        g0 = f(0)
    d, scaled = integer_vector(x)
    order = sorted(range(len(x)), key=scaled.__getitem__)
    level, total = 0, 0
    for k, e in enumerate(order):
        level |= 1 << e
        total += scaled[e]
        if (k + 1 == len(order) or scaled[order[k + 1]] != scaled[e]) and total != d * (
            f(level) - g0 if table is None else Fraction(int(table[level]), D)
        ):
            return False
    return getattr(f, "_base_membership", lambda _: True)(x)


def _finished_base(f: SetFunctionOracle, c: list[Fraction], x: list[Fraction], g0) -> list[Fraction]:
    """x, the exact Wolfe point with coefficients c, checked: a convex
    combination, and x*(X) <= h(X) = f(X) - g0 on the 2m sets {e} and E - e
    (a necessary condition of x* lying in the base polytope)."""
    if any(ci < 0 for ci in c) or sum(c) != 1:
        raise CertificateError("min-norm point is not a convex combination of its active set")
    full = f.full_mask
    total = sum(x)
    for e in range(f.m):
        if x[e] > f(1 << e) - g0 or total - x[e] > f(full ^ (1 << e)) - g0:
            raise CertificateError(OUTSIDE_BASE_POLYTOPE)
    return x
