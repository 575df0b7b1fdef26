"""Principal partitions and critical values.

The principal partition of a normalized monotone submodular f is the nested
chain of maximal minimizers of f(X) - lambda*|X| as lambda sweeps upward,
with the critical values at which the minimizer jumps.  Both are read off
the minimum-norm base x* of f (``sfm.min_norm_base``; certified with no
assumption on f for graphic matroids and coverage functions at every size
and for any oracle within the exact cap, relying on submodularity for
other oracles beyond it): the critical values are the distinct values of
x*, and the chain sets are its lower level sets {x* <= lambda}, which
``min_norm_base`` has checked tight, f(S) = x*(S).  The maximal zero set
{x* = 0} of f is the chain's first step, at lambda = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import SetFunctionOracle

# partition.minimize_offset stays importable: perfbench's tracer self-test
# patches and checks it under this name
from .sfm import min_norm_base, minimize_offset  # noqa: F401


@dataclass(frozen=True)
class PrincipalPartition:
    """Nested sets empty = P_0 < P_1 < ... < P_s = E with critical values
    lambda_1 < ... < lambda_s.

    Each critical value equals the exact growth ratio
    (f(P_i) - f(P_{i-1})) / (|P_i| - |P_{i-1}|), and each P_i minimizes f
    among all subsets of its cardinality.  lambda_1 = 0 exactly when f has
    a nonempty zero set, which is then P_1; an empty ground has the chain
    (empty,) and no critical values.
    """

    sets: tuple[int, ...]
    critical_values: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.sets or self.sets[0] != 0:
            raise ValueError("chain must start at the empty set")
        for a, b in zip(self.sets, self.sets[1:]):
            if a & ~b or a == b:
                raise ValueError("chain sets must be strictly nested")
        if len(self.critical_values) != len(self.sets) - 1:
            raise ValueError("need one critical value per chain step")
        for a, b in zip(self.critical_values, self.critical_values[1:]):
            if a >= b:
                raise ValueError("critical values must be strictly increasing")

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


def compute_principal_partition(f: SetFunctionOracle) -> PrincipalPartition:
    """The maximal-minimizer chain of a normalized monotone f with its exact
    critical values, read off one certified minimum-norm base.  An
    identically-zero f yields the chain (empty, E) with the critical value 0."""
    if f(0) != 0:
        raise ValueError("oracle is not normalized: f(empty) != 0")
    x = min_norm_base(f)
    if min(x, default=0) < 0:
        raise ValueError("oracle takes negative values; not monotone normalized")
    lambdas = tuple(sorted(set(x)))
    sets = tuple(sum(1 << e for e, xe in enumerate(x) if xe <= lam) for lam in lambdas)
    return PrincipalPartition((0,) + sets, lambdas)


def linearity_stats(f: SetFunctionOracle) -> LinearityStats:
    """Exact steepness and linearity of a nontrivial normalized monotone f."""
    total = f(f.full_mask)
    if total == 0:
        raise ValueError("trivial function: f(E) = 0")
    kappa = max(map(Fraction, f.singleton_values))
    return LinearityStats(kappa, Fraction(total) / kappa, f.m)
