"""Principal partitions, critical values, and the zero-set contraction.

The principal partition of a monotone submodular f that is positive off the
empty set is the nested chain of maximal minimizers of f(X) - lambda*|X| as
lambda sweeps upward, with the critical values at which the minimizer jumps.
Critical values are found by a discrete-Newton recursion over exact
rationals, so no breakpoint can be missed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import CertificateError, ContractedOracle, SetFunctionOracle
from .sfm import minimize_offset


@dataclass(frozen=True)
class PrincipalPartition:
    """Nested sets empty = P_0 < P_1 < ... < P_s = E with critical values
    lambda_1 < ... < lambda_s.

    Each critical value equals the exact growth ratio
    (f(P_i) - f(P_{i-1})) / (|P_i| - |P_{i-1}|), and each P_i minimizes f
    among all subsets of its cardinality.
    """

    sets: tuple[int, ...]
    critical_values: tuple[Fraction, ...]
    trivial: bool = False

    def __post_init__(self):
        if len(self.sets) < 2:
            raise ValueError("partition chain needs at least the empty and full set")
        if self.sets[0] != 0:
            raise ValueError("chain must start at the empty set")
        for a, b in zip(self.sets, self.sets[1:]):
            if a & ~b or a == b:
                raise ValueError("chain sets must be strictly nested")
        if not self.trivial and len(self.critical_values) != len(self.sets) - 1:
            raise ValueError("need one critical value per chain step")
        for a, b in zip(self.critical_values, self.critical_values[1:]):
            if a >= b:
                raise ValueError("critical values must be strictly increasing")

    @property
    def s(self) -> int:
        return len(self.sets) - 1

    def cells(self) -> list[int]:
        """The difference masks P_i - P_{i-1}."""
        return [b & ~a for a, b in zip(self.sets, self.sets[1:])]


@dataclass(frozen=True)
class LinearityStats:
    """Steepness kappa = max singleton value, linearity = f(E)/kappa."""

    kappa: Fraction
    linearity: Fraction
    m: int

    def __post_init__(self):
        if self.kappa <= 0:
            raise ValueError("steepness must be positive for a nontrivial function")
        if not 1 <= self.linearity <= self.m:
            raise ValueError("linearity must lie in [1, m]")


def zero_set_contract(f: SetFunctionOracle) -> tuple[int, ContractedOracle]:
    """Split off the maximal zero set U of a normalized monotone submodular f.

    Returns (U, f') where f'(S) = f(U | S) - f(U) on the remaining elements;
    f' is positive on every nonempty subset.  Any optimal ordering of f
    places U as a prefix, so solving f' loses nothing.
    """
    if f(0) != 0:
        raise ValueError("oracle is not normalized: f(empty) != 0")
    res = minimize_offset(f, Fraction(0))
    if res.min_value != 0:
        raise ValueError("oracle takes negative values; not monotone normalized")
    U = res.maximal_minimizer
    kept = [e for e in range(f.m) if not (U >> e) & 1]
    return U, ContractedOracle(f, U, kept)


def compute_principal_partition(f: SetFunctionOracle) -> PrincipalPartition:
    """The maximal-minimizer chain of f with its exact critical values.

    Requires f(S) = 0 iff S is empty (contract the zero set away first).
    The identically-zero oracle yields the trivial two-set chain with no
    critical values.
    """
    if f.m == 0:
        raise ValueError("empty ground set")
    if f(0) != 0:
        raise ValueError("oracle is not normalized: f(empty) != 0")
    m = f.m
    full = f.full_mask
    if f(full) == 0:
        return PrincipalPartition((0, full), (), trivial=True)
    zero_set = minimize_offset(f, Fraction(0)).maximal_minimizer
    if zero_set != 0:
        raise ValueError(
            "f vanishes on a nonempty set; apply zero_set_contract first"
        )

    chain: list[tuple[Fraction, int]] = []

    def refine(lo: int, hi: int) -> None:
        size_gap = hi.bit_count() - lo.bit_count()
        if size_gap == 0:
            return
        lam = Fraction(f(hi) - f(lo), size_gap)
        res = minimize_offset(f, lam)
        touched = f(lo) - lam * lo.bit_count()
        if res.min_value == touched:
            # lam is the unique breakpoint between lo and hi
            if res.minimal_minimizer != lo or res.maximal_minimizer != hi:
                raise CertificateError(
                    "breakpoint structure violated; oracle not submodular?"
                )
            chain.append((lam, hi))
        else:
            mid = res.maximal_minimizer
            refine(lo, mid)
            refine(mid, hi)

    refine(0, full)
    chain.sort(key=lambda t: t[0])
    sets = (0,) + tuple(S for _, S in chain)
    lambdas = tuple(lam for lam, _ in chain)
    return PrincipalPartition(sets, lambdas)


def linearity_stats(f: SetFunctionOracle) -> LinearityStats:
    """Exact steepness and linearity of a nontrivial normalized monotone f."""
    total = f(f.full_mask)
    if total == 0:
        raise ValueError("trivial function: f(E) = 0")
    kappa = max(Fraction(f(1 << e)) for e in range(f.m))
    return LinearityStats(kappa, Fraction(total) / kappa, f.m)
