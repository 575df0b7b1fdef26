"""Submodular function minimization with a modular offset.

``minimize_offset`` finds min_X f(X) - lambda*|X| together with the two
lattice-extreme minimizers.  Grounds up to the exact cap are solved by a
vectorized scan of the oracle's dense integer table (D*f, see
``SetFunctionOracle.dense_values``): for lambda = p/q it minimizes
q*D*f(X) - p*D*|X| over all masks, exactly, and AND/OR-reduces the
argmins to the lattice endpoints.  Larger grounds go through one
Fujishige-Wolfe minimum-norm-point search in floating point that keeps the
exact greedy vertex of every active point.  The search is finished in exact
rationals from its final active set (usually already optimal, so one exact
affine solve), giving a point x* that passes Wolfe's optimality test
exactly.  x* is then certified: its coefficients are a convex combination,
and x*(X) <= f(X) - lambda*|X| holds on every singleton and co-singleton X.
For a submodular f, x* is the minimum-norm base, the minimum is the sum of
its negative entries, and {x* < 0} and {x* <= 0} are the minimal and
maximal minimizers; both are re-evaluated exactly.  A failed check raises
``CertificateError``; there is no fallback.

References for the min-norm-point route:
  Wolfe, "Finding the nearest point in a polytope", Math. Prog. 1976.
  Fujishige, Hayashi, Isotani, RIMS preprint 1571, 2006.
  Fujishige, Submodular Functions and Optimization, 2nd ed. 2005, Thm 7.15.
  Chakrabarty, Jain, Kothari, "Provable submodular function minimization
  using Wolfe's algorithm", NeurIPS 2014.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import (
    EXACT_SOLVER_CAP,
    CertificateError,
    ContractedOracle,
    SetFunctionOracle,
    int_dtype,
    max_abs,
    popcounts,
)

WOLFE_TOL = 1e-9


@dataclass(frozen=True)
class SfmResult:
    """Minimum value plus the minimal and maximal minimizers.

    Both reported sets attain the minimum, the minimal one is contained in
    the maximal one, and every other minimizer lies between them.
    """

    min_value: Fraction
    minimal_minimizer: int
    maximal_minimizer: int


def minimize_offset(
    f: SetFunctionOracle,
    lam: Fraction,
    method: str = "auto",
    enum_cap: int = EXACT_SOLVER_CAP,
) -> SfmResult:
    """Exact global minimum of f(X) - lam*|X| over all subsets.

    The caller is responsible for f being submodular; both paths verify
    their result (the lattice of minimizers, or the min-norm certificate)
    and raise CertificateError if it fails.
    """
    lam = Fraction(lam)
    if method == "auto":
        method = "enumerate" if f.m <= enum_cap else "wolfe"
    if method == "enumerate":
        return _minimize_enumerate(f, lam, enum_cap)
    if method == "wolfe":
        return _minimize_wolfe(f, lam)
    raise ValueError(f"unknown method {method!r}")


def _minimize_enumerate(f: SetFunctionOracle, lam: Fraction, enum_cap: int) -> SfmResult:
    if f.m > enum_cap:
        raise ValueError(
            f"ground set of size {f.m} exceeds the enumeration cap ({enum_cap})"
        )
    table = f.dense_values(cap=enum_cap)
    D = f.dense_denominator
    p, q = lam.numerator, lam.denominator
    # q*D*(f(X) - lam*|X|) over all masks X; the bound also covers q and p*D
    dtype = int_dtype(q * (max_abs(table) + 1) + abs(p) * D * (f.m + 1))
    g = table.astype(dtype)
    g *= q
    g -= np.multiply(popcounts(f.m), p * D, dtype=dtype)
    best = g.min()
    argmins = np.flatnonzero(g == best)
    lo = int(np.bitwise_and.reduce(argmins))
    hi = int(np.bitwise_or.reduce(argmins))
    if g[lo] != best or g[hi] != best:
        raise CertificateError("minimizers do not form a lattice: oracle not submodular?")
    return SfmResult(Fraction(int(best), q * D), lo, hi)


def constrained_min(
    f: SetFunctionOracle,
    lam: Fraction,
    include: int = 0,
    exclude: int = 0,
) -> SfmResult:
    """Minimum of f(X) - lam*|X| over sets with include <= X <= E - exclude."""
    if include & exclude:
        raise ValueError("include and exclude sets overlap")
    if include < 0 or include >> f.m or exclude < 0 or exclude >> f.m:
        raise ValueError("constraint sets outside ground set")
    lam = Fraction(lam)
    free = [e for e in range(f.m) if not ((include | exclude) >> e) & 1]
    if not free and include == 0:
        value = f(0)
        return SfmResult(Fraction(value), 0, 0)
    g = ContractedOracle(f, include, free)
    inner = minimize_offset(g, lam)
    offset = f(include) - lam * include.bit_count()
    return SfmResult(
        inner.min_value + offset,
        include | g.embed(inner.minimal_minimizer),
        include | g.embed(inner.maximal_minimizer),
    )


def st_min_cut(f: SetFunctionOracle, s: int, t: int) -> tuple[int, Fraction]:
    """A minimum s-t cut of a symmetric oracle: X with s in X, t out of X,
    minimizing f(X).  Returns (cut set, value)."""
    if s == t:
        raise ValueError("s and t must differ")
    res = constrained_min(f, Fraction(0), include=1 << s, exclude=1 << t)
    return res.minimal_minimizer, res.min_value


def check_symmetry(f: SetFunctionOracle, rng=None, samples: int = 16) -> bool:
    """Spot-check f(S) == f(complement) plus f(empty) == f(full) == 0."""
    import random

    full = f.full_mask
    if f(0) != 0 or f(full) != 0:
        return False
    rng = rng or random.Random(0)
    for _ in range(samples):
        S = rng.randrange(1 << f.m)
        if f(S) != f(full ^ S):
            return False
    return True


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


def _exact_affine_coefficients(V: list[list[Fraction]]) -> list[Fraction]:
    """Coefficients c, summing to 1, of the point of least norm in the
    affine hull of V: the exact solution of
    [[0, 1^T], [1, V V^T]] (mu, c) = (1, 0), by Gauss-Jordan elimination.
    The system is always consistent; free variables of a singular one are
    set to 0, and the caller checks the coefficients it gets."""
    k = len(V)
    rows = [[Fraction(0)] + [Fraction(1)] * k + [Fraction(1)]]
    for u in V:
        rows.append([Fraction(1)] + [sum(a * b for a, b in zip(u, v)) for v in V] + [Fraction(0)])
    pivots = []
    for col in range(k + 1):
        r = len(pivots)
        pivot = next((i for i in range(r, k + 1) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        lead = rows[r][col]
        rows[r] = [a / lead for a in rows[r]]
        for i in range(k + 1):
            if i != r and rows[i][col]:
                factor = rows[i][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
    sol = [Fraction(0)] * (k + 1)
    for r, col in enumerate(pivots):
        sol[col] = rows[r][-1]
    return sol[1:]


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
    while True:
        # minor cycles: toward the affine minimizer of V until it is convex
        while True:
            b = _exact_affine_coefficients(V)
            if all(bi >= 0 for bi in b):
                c = b
                break
            theta = min(ci / (ci - bi) for ci, bi in zip(c, b) if bi < 0)
            c = [theta * bi + (1 - theta) * ci for ci, bi in zip(c, b)]
            V = [v for v, ci in zip(V, c) if ci > 0]
            c = [ci for ci in c if ci > 0]
        x = [sum(ci * v[e] for ci, v in zip(c, V)) for e in range(m)]
        q = greedy_vertex(sorted(range(m), key=x.__getitem__))
        if sum(xe * qe for xe, qe in zip(x, q)) >= sum(xe * xe for xe in x):
            return c, x
        V = V + [q]
        c = c + [Fraction(0)]


def _minimize_wolfe(f: SetFunctionOracle, lam: Fraction) -> SfmResult:
    """Float Wolfe search, finished and certified in exact arithmetic.

    With h(X) = f(X) - lam*|X| - f(empty), the exact point x* passes Wolfe's
    optimality test x*.q >= x*.x* at the greedy vertex q for x*, is checked
    to be a convex combination of its active vertices, and to satisfy
    x*(X) <= h(X) on the 2m sets {e} and E - e (a cheap necessary condition
    of x* lying in the base polytope).  The minimum is then x*^-(E),
    attained exactly by {x* < 0} and {x* <= 0}, which are re-evaluated."""
    m = f.m
    g0 = f(0)
    if m == 0:
        return SfmResult(Fraction(g0), 0, 0)

    def h(S: int) -> Fraction:
        return f(S) - lam * S.bit_count() - g0

    def greedy_vertex(order: list[int]) -> list[Fraction]:
        out = [Fraction(0)] * m
        mask = 0
        prev = Fraction(0)
        for e in order:
            mask |= 1 << e
            cur = h(mask)
            out[e] = cur - prev
            prev = cur
        return out

    c, x = _exact_min_norm_point(*_min_norm_point(m, greedy_vertex), greedy_vertex)
    if any(ci < 0 for ci in c) or sum(c) != 1:
        raise CertificateError("min-norm point is not a convex combination of its active set")
    full = f.full_mask
    total = sum(x)
    for e in range(m):
        if x[e] > h(1 << e) or total - x[e] > h(full ^ (1 << e)):
            raise CertificateError("min-norm point lies outside the base polytope: oracle not submodular?")
    lo = sum(1 << e for e in range(m) if x[e] < 0)
    hi = sum(1 << e for e in range(m) if x[e] <= 0)
    value = sum(xe for xe in x if xe < 0)
    if h(lo) != value or h(hi) != value:
        raise CertificateError("min-norm level sets do not attain the minimum")
    return SfmResult(Fraction(value + g0), lo, hi)
