"""Submodular function minimization through the minimum-norm base.

For a submodular f, the minimum-norm base x* of B(f - f(empty)) answers
every minimization with a modular offset: min_X f(X) - lambda*|X| is
f(empty) + sum_e min(x*_e - lambda, 0), attained by {x* < lambda} and
{x* <= lambda}, the minimal and maximal minimizers.  ``min_norm_base``
computes x* exactly and certifies it; ``minimize_offset`` reads one base
and re-evaluates both level sets.

Up to the exact cap, x* is read off the oracle's dense integer table D*f:
the strict vertices of the lower convex hull of the per-size minima
g(k) = min_{|X|=k} D*f(X) must have unique, nested argmins, and x* takes
the hull slope on the cell where an element enters.  With x*(X) <= f(X)
checked on all 2^m subsets, x* is the minimum-norm point of
{x : x(X) <= f(X), x(E) = f(E)} with tight level sets, so every answer is
exact for any oracle.  Beyond the cap, one Fujishige-Wolfe search in
floating point keeps the exact greedy vertex of every active point; each
vertex reads f on the m + 1 prefixes of its order through the oracle's
``_prefix_values`` (one union-find pass for a graphic matroid).

- A class with an exact base polytope test, ``_base_membership`` (the
  graphic matroid and coverage, by checked orientations, ``flow``), rounds the
  search's point: the elements sorted by it take the slopes of the
  lower convex hull of f along that order.  The rounded point is certified
  when every lower level set is tight and the membership test accepts it,
  which makes it the minimum-norm base whether or not f is submodular.  If
  either check fails, Wolfe's cycles finish the search exactly (below) and
  the finished point must pass the same certificate.
- Any other class takes Wolfe's exact finish, each affine minimizer solved
  from its bordered Gram system by ``core.solve_exact``.  The point passes
  Wolfe's optimality test exactly, is a convex combination of its active
  vertices, and satisfies x*(X) <= f(X) on the 2m singletons and
  co-singletons.  Beyond those sets it is the minimum-norm base only if f
  is submodular.

A failed check raises ``CertificateError``.

``st_min_cut`` cuts graph cut functions only, by checked flows: an exact
integer maximum flow (``flow``, shortest augmenting paths, the search that
also builds the graphic orientations) whose value must equal the cut
function on the flow's side, with no table built.

References: Fujishige, Math. OR 1980 (lexicographically optimal base) and
Submodular Functions and Optimization, 2nd ed. 2005, Thm 7.15; Nagano,
Kawahara, Aihara, ICML 2011; Wolfe, Math. Prog. 1976; Chakrabarty, Jain,
Kothari, NeurIPS 2014; Hakimi, J. Franklin Inst. 1965 (orientations with
bounded in-degrees).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Sequence

import numpy as np

from .core import (
    EXACT_SOLVER_CAP,
    CertificateError,
    SetFunctionOracle,
    int_dtype,
    iter_bits,
    max_abs,
    size_order,
    solve_exact,
)
from .matroids import CutFunction

WOLFE_TOL = 1e-9
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
    minimum-norm base; both level sets must attain it, else
    CertificateError."""
    lam = Fraction(lam)
    x = min_norm_base(f)
    value = f(0) + sum(min(xe - lam, 0) for xe in x)
    lo = sum(1 << e for e, xe in enumerate(x) if xe < lam)
    hi = sum(1 << e for e, xe in enumerate(x) if xe <= lam)
    for S in (lo, hi):
        if f(S) - lam * S.bit_count() != value:
            raise CertificateError("min-norm level sets do not attain the minimum")
    return SfmResult(Fraction(value), lo, hi)


def min_norm_base(f: SetFunctionOracle) -> list[Fraction]:
    """The exact minimum-norm base x* of B(f - f(empty)), certified, else
    CertificateError.  Up to EXACT_SOLVER_CAP it is read off the dense
    table (certified for any oracle); beyond it the Fujishige-Wolfe search
    runs.  There a graphic matroid's or a coverage function's base is
    certified by orientations (tight level sets and exact base polytope
    membership, with no assumption on f); for other classes the
    certificate relies on f being submodular."""
    return _table_base(f) if f.m <= EXACT_SOLVER_CAP else _wolfe_base(f)


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


def _affine_minimizer(S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    m = S.shape[0]
    M = S @ S.T
    M = np.concatenate([np.ones((m, 1)), M], axis=1)
    top = np.hstack([np.zeros((1, 1)), np.ones((1, m))])
    M = np.concatenate([top, M], axis=0)
    rhs = np.hstack([np.ones(1), np.zeros(m)])
    sol = np.linalg.lstsq(M, rhs, rcond=None)[0][1:]
    return sol, S.T @ sol


def _min_norm_point(n: int, greedy_vertex) -> tuple[list[list[Fraction]], np.ndarray]:
    """Wolfe's algorithm for the minimum-norm point of the base polytope, in
    floating point.  ``greedy_vertex(order)`` returns the exact vertex for
    an ordering of the ground set.  Returns the exact vertices of the final
    active set and their float coefficients."""

    def vertex(w: np.ndarray) -> list[Fraction]:
        # linear optimization over the base polytope: order w ascending
        return greedy_vertex(np.argsort(w, kind="stable").tolist())

    V = [vertex(np.zeros(n))]
    S = np.array(V, dtype=float)
    x = S[0]
    coeff = np.array([1.0])
    for _ in range(200 * (n + 1) ** 2):
        exact_q = vertex(x)
        q = np.array(exact_q, dtype=float)
        scale = max(float(np.max(np.abs(S))) ** 2, float(q @ q), 1.0)
        if float(x @ q) >= float(x @ x) - WOLFE_TOL * scale:
            break
        if np.any(np.all(np.abs(S - q) < WOLFE_TOL, axis=1)):
            break
        S = np.vstack([S, q])
        V.append(exact_q)
        coeff = np.hstack([coeff, 0.0])
        while True:
            b, y = _affine_minimizer(S)
            if np.all(b >= -WOLFE_TOL):
                coeff, x = np.clip(b, 0.0, None), y
                break
            diff = coeff - b
            positive = diff > WOLFE_TOL
            theta = np.min(coeff[positive] / diff[positive])
            coeff = theta * b + (1 - theta) * coeff
            keep = coeff > WOLFE_TOL
            if not np.any(keep):
                keep[int(np.argmax(coeff))] = True
            S = S[keep]
            V = [v for v, k in zip(V, keep) if k]
            coeff = coeff[keep]
            coeff = coeff / coeff.sum()
            x = S.T @ coeff
    return V, coeff


def _exact_min_norm_point(V: list[list[Fraction]], coeff: np.ndarray, greedy_vertex):
    """Wolfe's algorithm in exact arithmetic, started from the float search's
    final active set, which is usually already optimal.  The float search
    stops at a tolerance, so a point within it of the optimum gets the
    remaining major cycles here.  Returns the coefficients c and the point
    x = sum c_i V_i, with x.q >= x.x for the greedy vertex q at x."""
    m = len(V[0])
    c = [Fraction(float(a)) for a in coeff]
    total = sum(c)
    c = [a / total for a in c]
    # each active vertex V_i also as the integer vector U_i = d_i V_i
    d, U = (list(t) for t in zip(*map(_integer_vector, V)))
    while True:
        # minor cycles: toward the affine minimizer of V until it is convex
        while True:
            # the point of least norm in the affine hull of V is sum b_i V_i
            # for a solution (mu, b) of [[0, 1^T], [1, V V^T]] (mu, b) = (1, 0),
            # a system that is always consistent; in beta_j = b_j / d_j its
            # rows are integer: sum d_j beta_j = 1, d_i mu + sum U_i.U_j beta_j = 0
            k = len(V)
            bordered = [dict(enumerate(d, 1))] + [
                {0: di, **{j: sum(map(mul, u, w)) for j, w in enumerate(U, 1)}} for di, u in zip(d, U)
            ]
            beta = solve_exact(bordered, [1] + [0] * k)[1:]
            b = [dj * bj for dj, bj in zip(d, beta)]
            if all(bi >= 0 for bi in b):
                c = b
                break
            theta = min(ci / (ci - bi) for ci, bi in zip(c, b) if bi < 0)
            c = [theta * bi + (1 - theta) * ci for ci, bi in zip(c, b)]
            V, U, d = ([t for t, ci in zip(seq, c) if ci > 0] for seq in (V, U, d))
            c = [ci for ci in c if ci > 0]
        x = [sum(ci * v[e] for ci, v in zip(c, V)) for e in range(m)]
        q = greedy_vertex(sorted(range(m), key=x.__getitem__))
        if sum(xe * qe for xe, qe in zip(x, q)) >= sum(xe * xe for xe in x):
            return c, x
        dq, uq = _integer_vector(q)
        V, U, d = V + [q], U + [uq], d + [dq]
        c = c + [Fraction(0)]


def _integer_vector(v: list[Fraction]) -> tuple[int, list[int]]:
    """(d, d v), d the least common denominator of v's entries."""
    d = lcm(*(ve.denominator for ve in v))
    return d, [ve.numerator * (d // ve.denominator) for ve in v]


def _wolfe_base(f: SetFunctionOracle) -> list[Fraction]:
    """Float Wolfe search on h = f - f(empty), then an exact base.  A class
    with an exact base polytope test rounds the search's point and
    certifies it (``_certified``); if that fails, Wolfe's cycles finish the
    search exactly and the finished point must pass the same certificate.
    Any other class takes the exact finish, checked by ``_finished_base``."""
    m = f.m
    if m == 0:
        return []

    def greedy_vertex(order: list[int]) -> list:
        values = f._prefix_values(order)
        out = [0] * m
        for i, e in enumerate(order):
            out[e] = values[i + 1] - values[i]
        return out

    V, coeff = _min_norm_point(m, greedy_vertex)
    if f._base_membership is None:
        return _finished_base(f, *_exact_min_norm_point(V, coeff, greedy_vertex))
    x = _rounded_base(f, np.array(V, dtype=float).T @ coeff)
    if _certified(f, x):
        return x
    x = _exact_min_norm_point(V, coeff, greedy_vertex)[1]
    if not _certified(f, x):
        raise CertificateError(
            "min-norm base has a lower level set that is not tight, or lies outside the base polytope"
        )
    return x


def _rounded_base(f: SetFunctionOracle, point: np.ndarray) -> list[Fraction]:
    """The elements in ascending order of ``point`` (stable), and on each
    cell between consecutive vertices of the lower convex hull of
    (k, f(first k elements)) the hull's slope: the minimum-norm base
    whenever ``point`` orders its level sets correctly."""
    order = np.argsort(point, kind="stable").tolist()
    g = f._prefix_values(order)
    x = [Fraction(0)] * f.m
    hull = _lower_hull(g)
    for a, b in zip(hull, hull[1:]):
        slope = Fraction(g[b] - g[a], b - a)
        for e in order[a:b]:
            x[e] = slope
    return x


def _certified(f: SetFunctionOracle, x: list[Fraction]) -> bool:
    """Whether x is certified as the minimum-norm base of B(h), h = f -
    f(empty): every lower level set L = {x <= lam} is tight, x(L) = h(L),
    and x lies in B(h) by the class's exact test ``_base_membership``.
    Then for every y in B(h), summing over the level sets L_1 < ... < L_k
    with values lam_1 < ... < lam_k, <x, y> = sum_i (lam_i - lam_{i+1})
    y(L_i) + lam_k y(E) >= <x, x>, as y(L_i) <= h(L_i) = x(L_i): x is the
    point of B(h) of least norm, whether or not f is submodular (Fujishige
    2005, lexicographically optimal base).  The level sets are the
    prefixes of one stable sort of x that end before a larger value."""
    g0 = f(0)
    order = sorted(range(len(x)), key=x.__getitem__)
    level, total = 0, 0
    for k, e in enumerate(order):
        level |= 1 << e
        total += x[e]
        if (k + 1 == len(order) or x[order[k + 1]] != x[e]) and total != f(level) - g0:
            return False
    return f._base_membership(x)


def _finished_base(f: SetFunctionOracle, c: list[Fraction], x: list[Fraction]) -> list[Fraction]:
    """x, the exact Wolfe finish with coefficients c, checked: a convex
    combination, and x*(X) <= h(X) on the 2m sets {e} and E - e (a
    necessary condition of x* lying in the base polytope)."""
    if any(ci < 0 for ci in c) or sum(c) != 1:
        raise CertificateError("min-norm point is not a convex combination of its active set")
    g0 = f(0)
    full = f.full_mask
    total = sum(x)
    for e in range(f.m):
        if x[e] > f(1 << e) - g0 or total - x[e] > f(full ^ (1 << e)) - g0:
            raise CertificateError(OUTSIDE_BASE_POLYTOPE)
    return x
