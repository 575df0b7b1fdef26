"""Submodular function minimization with a modular offset.

``minimize_offset`` finds min_X f(X) - lambda*|X| together with the two
lattice-extreme minimizers.  Grounds up to the exact cap are solved by a
vectorized scan of the oracle's dense integer table (D*f, see
``SetFunctionOracle.dense_values``): for lambda = p/q it minimizes
q*D*f(X) - p*D*|X| over all masks, exactly, and AND/OR-reduces the
argmins to the lattice endpoints.  Larger grounds go through a
Fujishige-Wolfe minimum-norm-point solve in floating point, followed by
level-set rounding at tolerance 1e-9, exact re-evaluation, a
+/-1-element exchange check, and element-wise probes for the lattice
endpoints.  A failed internal check raises ``CertificateError``.

References for the min-norm-point route:
  Wolfe, "Finding the nearest point in a polytope", Math. Prog. 1976.
  Fujishige, Hayashi, Isotani, RIMS preprint 1571, 2006.
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

    The caller is responsible for f being submodular; the lattice structure
    of the minimizers is verified and a CertificateError is raised if it
    fails.
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
    method: str = "auto",
    enum_cap: int = EXACT_SOLVER_CAP,
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
    inner = minimize_offset(g, lam, method=method, enum_cap=enum_cap)
    offset = f(include) - lam * include.bit_count()
    return SfmResult(
        inner.min_value + offset,
        include | g.embed(inner.minimal_minimizer),
        include | g.embed(inner.maximal_minimizer),
    )


def st_min_cut(f: SetFunctionOracle, s: int, t: int, **kwargs) -> tuple[int, Fraction]:
    """A minimum s-t cut of a symmetric oracle: X with s in X, t out of X,
    minimizing f(X).  Returns (cut set, value)."""
    if s == t:
        raise ValueError("s and t must differ")
    res = constrained_min(f, Fraction(0), include=1 << s, exclude=1 << t, **kwargs)
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


def _greedy_base_vertex(w: np.ndarray, marginals) -> np.ndarray:
    """Linear optimization over the base polytope: order w ascending and take
    marginal gains along that chain."""
    order = np.argsort(w, kind="stable")
    return marginals(order)


def _affine_minimizer(S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    m = S.shape[0]
    M = S @ S.T
    M = np.concatenate([np.ones((m, 1)), M], axis=1)
    top = np.hstack([np.zeros((1, 1)), np.ones((1, m))])
    M = np.concatenate([top, M], axis=0)
    rhs = np.hstack([np.ones(1), np.zeros(m)])
    sol = np.linalg.lstsq(M, rhs, rcond=None)[0][1:]
    return sol, S.T @ sol


def _min_norm_point(n: int, marginals) -> np.ndarray:
    """Wolfe's algorithm for the minimum-norm point of the base polytope."""
    x = _greedy_base_vertex(np.zeros(n), marginals)
    S = x.reshape((1, n))
    coeff = np.array([1.0])
    for _ in range(200 * (n + 1) ** 2):
        q = _greedy_base_vertex(x, marginals)
        scale = max(float(np.max(np.abs(S))) ** 2, float(q @ q), 1.0)
        if float(x @ q) >= float(x @ x) - WOLFE_TOL * scale:
            break
        if np.any(np.all(np.abs(S - q) < WOLFE_TOL, axis=1)):
            break
        S = np.vstack([S, q])
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
            coeff = coeff[keep]
            coeff = coeff / coeff.sum()
            x = S.T @ coeff
    return x


def _local_exchange_check(g, candidate: int, m: int) -> int:
    """Greedy +/-1-element improvement of an exactly evaluated candidate."""
    best = g(candidate)
    improved = True
    while improved:
        improved = False
        for e in range(m):
            neighbor = candidate ^ (1 << e)
            v = g(neighbor)
            if v < best:
                best, candidate = v, neighbor
                improved = True
    return candidate


def _wolfe_value(f: SetFunctionOracle, lam: Fraction) -> Fraction:
    """Minimum of f(X) - lam*|X| via min-norm point, rounded and exactly
    re-evaluated.  Returns the value only."""
    m = f.m

    def g(S: int) -> Fraction:
        return f(S) - lam * S.bit_count()

    def marginals(order: np.ndarray) -> np.ndarray:
        out = np.empty(m)
        mask = 0
        prev = Fraction(0)
        for e in order:
            mask |= 1 << int(e)
            cur = g(mask)
            out[int(e)] = float(cur - prev)
            prev = cur
        return out

    x = _min_norm_point(m, marginals)
    # level-set rounding: strictly-negative coordinates give the minimal
    # minimizer candidate, nonpositive ones the maximal
    cand_lo = sum(1 << e for e in range(m) if x[e] < -WOLFE_TOL)
    cand_hi = sum(1 << e for e in range(m) if x[e] < WOLFE_TOL)
    cand_lo = _local_exchange_check(g, cand_lo, m)
    cand_hi = _local_exchange_check(g, cand_hi, m)
    return min(g(cand_lo), g(cand_hi), g(0))


def _offset_min_value(
    f: SetFunctionOracle, lam: Fraction, include: int, exclude: int
) -> Fraction:
    """Constrained minimum value only (no lattice extraction, no recursion)."""
    free = [e for e in range(f.m) if not ((include | exclude) >> e) & 1]
    g = ContractedOracle(f, include, free)
    offset = f(include) - lam * include.bit_count()
    if g.m <= EXACT_SOLVER_CAP:
        return _minimize_enumerate(g, lam, EXACT_SOLVER_CAP).min_value + offset
    return _wolfe_value(g, lam) + offset


def _minimize_wolfe(f: SetFunctionOracle, lam: Fraction) -> SfmResult:
    m = f.m

    def g(S: int) -> Fraction:
        return f(S) - lam * S.bit_count()

    best = _wolfe_value(f, lam)
    # element-wise probes: e belongs to the maximal minimizer iff forcing it
    # in still attains the optimum, and to the minimal iff forcing it out
    # does not
    hi = 0
    lo = 0
    for e in range(m):
        forced_in = _offset_min_value(f, lam, 1 << e, 0)
        if forced_in < best:
            raise CertificateError("min-norm rounding missed the optimum")
        if forced_in == best:
            hi |= 1 << e
        forced_out = _offset_min_value(f, lam, 0, 1 << e)
        if forced_out < best:
            raise CertificateError("min-norm rounding missed the optimum")
        if forced_out > best:
            lo |= 1 << e
    if g(hi) != best or g(lo) != best:
        raise CertificateError("rounding failed to certify the minimizer lattice")
    return SfmResult(best, lo, hi)
