"""Principal partitions, critical values, and the zero-set contraction.

The principal partition of a monotone submodular f that is positive off the
empty set is the nested chain of maximal minimizers of f(X) - lambda*|X| as
lambda sweeps upward, with the critical values at which the minimizer jumps.
Both are read off the minimum-norm base x* of f (``sfm.min_norm_base``;
certified for any oracle within the exact cap, relying on submodularity
beyond it): the critical values are the distinct values of x*, and the
chain sets are {x* <= lambda}, each checked tight, f(S) = x*(S).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import CertificateError, ContractedOracle, SetFunctionOracle, iter_bits
from .sfm import min_norm_base, minimize_offset


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
        if not self.sets or self.sets[0] != 0:
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
    An identically-zero oracle yields the trivial chain with no critical
    values."""
    if f(0) != 0:
        raise ValueError("oracle is not normalized: f(empty) != 0")
    full = f.full_mask
    if f(full) == 0:
        return PrincipalPartition((0, full) if full else (0,), (), trivial=True)
    x = min_norm_base(f)
    if min(x) <= 0:
        raise ValueError("f vanishes on a nonempty set; apply zero_set_contract first")
    lambdas = tuple(sorted(set(x)))
    sets = tuple(sum(1 << e for e, xe in enumerate(x) if xe <= lam) for lam in lambdas)
    for S in sets:
        if f(S) != sum(x[e] for e in iter_bits(S)):
            raise CertificateError("chain set of the min-norm base is not tight")
    return PrincipalPartition((0,) + sets, lambdas)


def linearity_stats(f: SetFunctionOracle) -> LinearityStats:
    """Exact steepness and linearity of a nontrivial normalized monotone f."""
    total = f(f.full_mask)
    if total == 0:
        raise ValueError("trivial function: f(E) = 0")
    kappa = max(Fraction(f(1 << e)) for e in range(f.m))
    return LinearityStats(kappa, Fraction(total) / kappa, f.m)
