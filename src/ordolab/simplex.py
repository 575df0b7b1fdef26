"""Certified linear programming: a float simplex search, checked exactly.

``simplex_minimize`` minimizes c.x subject to '<=' and '>=' rows and
x >= 0, starting from a feasible basis that the caller names.

1. Search.  A one-phase Bland tableau in float64 numpy (a slack column
   per '<=' row, a surplus column per '>=' row; one outer-product row
   update per pivot).  The start basis is pivoted in first; a singular or
   infeasible one raises ``ValueError``.  The search ends in an optimal
   basis, or in an improving ray, which raises ``CertificateError``.
2. Candidate.  The primal point and the row duals (the reduced costs of
   each row's slack or surplus) are read off the final tableau and
   rounded to rationals with ``Fraction.limit_denominator``.
3. Certificate.  The candidate is checked exactly: x >= 0 satisfying
   every row, duals y with the sign each sense requires, A^T y <= c and
   c.x = b.y.  The rows are checked in integers, each row scaled by its
   own denominator and x and y put over common denominators.
4. Recovery.  If the rounded candidate fails, the final basis is solved
   exactly by ``core.solve_exact``, the integer Gauss-Jordan solver that
   also finishes the Wolfe search in ``sfm`` (B x_B = b, B^T y = c_B).
   If that candidate fails too, ``CertificateError`` is raised.

Every value returned is therefore backed by an exact primal-dual check; no
pivot is taken in Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

import numpy as np

from .core import CertificateError, solve_exact

#: zero tolerance of the float search; the exact check decides correctness
TOL = 1e-9
#: largest denominator of a rounded candidate; larger ones are recovered
#: from the final basis
ROUND_DENOMINATOR = 10**6


def simplex_minimize(
    objective: Sequence[Fraction],
    rows: Sequence[tuple[Sequence[tuple[int, Fraction]], str, Fraction]],
    basis: Sequence[int],
) -> tuple[Fraction, list[Fraction]]:
    """Minimize objective . x subject to the rows and x >= 0.

    Each row is (terms, sense, rhs): terms are (column, coefficient) pairs
    and sense is '<=' or '>='.  Column n + i is row i's slack ('<=') or
    surplus ('>='), where n is the number of objective entries.  ``basis``
    names one column per row; their basic solution must be feasible.
    Returns (optimal value, primal solution), both exact and certified by
    an exact dual solution.  Raises ValueError on a malformed model or
    start basis, and CertificateError on an improving ray or when no
    certificate checks.
    """
    lp = _Lp(objective, rows)
    T, basis = lp.tableau(basis)
    if _search(T, basis) is not None:
        raise CertificateError("simplex search found an improving ray; the model must be bounded")
    candidate = lp.rounded_candidate(T, basis)
    if not _is_optimal(lp, *candidate):
        candidate = lp.exact_candidate(basis)
        if candidate is None or not _is_optimal(lp, *candidate):
            raise CertificateError("simplex optimality failed its exact certificate")
    x, _ = candidate
    return _dot(lp.c, x), x


# ---------------------------------------------------------------------------
# the float search


def _search(T: np.ndarray, basis: list[int]) -> int | None:
    """Bland pivots on the cost row T[-1] until no column has a negative
    reduced cost.  Returns None at the optimum, or the entering column of
    an improving ray."""
    m = len(basis)
    cost = T[-1, :-1]
    while True:
        candidates = np.flatnonzero(cost < -TOL)
        if not candidates.size:
            return None
        enter = int(candidates[0])
        column = T[:m, enter]
        rows = np.flatnonzero(column > TOL)
        if not rows.size:
            return enter
        ratios = T[rows, -1] / column[rows]
        tied = rows[ratios <= ratios.min() + TOL]
        leave = min(tied.tolist(), key=basis.__getitem__)
        _pivot(T, basis, leave, enter)


def _pivot(T: np.ndarray, basis: list[int], leave: int, enter: int) -> None:
    T[leave] /= T[leave, enter]
    column = T[:, enter].copy()
    column[leave] = 0.0
    rows = np.flatnonzero(column)  # the rows this pivot changes
    T[rows] -= np.outer(column[rows], T[leave])
    T[:, enter] = 0.0
    T[leave, enter] = 1.0
    basis[leave] = enter


# ---------------------------------------------------------------------------
# the model, its candidates and their exact checks


class _Lp:
    """The rows, kept sparse and exact, and the column layout of the
    tableau: structural columns, then one slack or surplus per row."""

    def __init__(self, objective, rows):
        self.c = [_exact(v) for v in objective]
        self.n = n = len(self.c)
        self.rows: list[tuple[list[tuple[int, Fraction]], str]] = []
        self.rhs: list[Fraction] = []
        #: each row times its own scale s, in integers: (terms, rhs, s)
        self.scaled: list[tuple[list[tuple[int, int]], int, int]] = []
        for terms, sense, rhs in rows:
            if sense not in ("<=", ">="):
                raise ValueError(f"row sense must be '<=' or '>=', not {sense!r}")
            if any(not 0 <= j < n for j, _ in terms):
                raise ValueError("term column outside the objective")
            terms, rhs = [(j, _exact(v)) for j, v in terms if v], _exact(rhs)
            self.rows.append((terms, sense))
            self.rhs.append(rhs)
            scale = lcm(rhs.denominator, *(v.denominator for _, v in terms))
            self.scaled.append(([(j, _times(v, scale)) for j, v in terms], _times(rhs, scale), scale))
        #: the coefficient of row i's own column n + i
        self.sign = [1 if sense == "<=" else -1 for _, sense in self.rows]

    def tableau(self, start: Sequence[int]) -> tuple[np.ndarray, list[int]]:
        """Constraint rows, then the reduced costs, with the start basis
        pivoted in; the last column holds the basic values (and minus the
        objective).  Each start column is pivoted on the unclaimed row
        where its entry is largest."""
        m, n = len(self.rows), self.n
        if len(start) != m or any(not 0 <= k < n + m for k in start):
            raise ValueError("start basis needs one column of the tableau per row")
        T = np.zeros((m + 1, n + m + 1))
        for i, ((terms, _), rhs) in enumerate(zip(self.rows, self.rhs)):
            for j, v in terms:
                T[i, j] = float(v)
            T[i, n + i] = self.sign[i]
            T[i, -1] = float(rhs)
        T[m, :n] = [float(v) for v in self.c]
        basis, free = [-1] * m, np.ones(m, dtype=bool)
        for k in start:
            entries = np.where(free, np.abs(T[:m, k]), 0.0)
            i = int(entries.argmax())
            if entries[i] <= TOL:
                raise ValueError("start basis is singular")
            free[i] = False
            _pivot(T, basis, i, k)
        if (T[:m, -1] < -TOL).any():
            raise ValueError("start basis is infeasible")
        return T, basis

    def _structural(self, basis: list[int], values) -> list[Fraction]:
        x = [Fraction(0)] * self.n
        for k, v in zip(basis, values):
            if k < self.n:
                x[k] = v
        return x

    def rounded_candidate(self, T, basis):
        """(x, y) read off the final tableau and rounded: the basic values,
        and y_i = -sign_i times the reduced cost of row i's own column."""
        x = self._structural(basis, map(_rational, T[: len(basis), -1].tolist()))
        return x, [-sign * _rational(d) for sign, d in zip(self.sign, T[-1, self.n : -1].tolist())]

    def exact_candidate(self, basis):
        """(x, y) from B x_B = b and B^T y = c_B, or None if either system
        is inconsistent."""
        columns = [{} for _ in range(self.n)]
        for i, (terms, _) in enumerate(self.rows):
            for j, v in terms:
                columns[j][i] = v
        columns += [{i: Fraction(sign)} for i, sign in enumerate(self.sign)]
        B_T = [columns[k] for k in basis]  # row p of B^T is basis column p
        B = [{} for _ in basis]
        for p, column in enumerate(B_T):
            for i, v in column.items():
                B[i][p] = v
        x_B = solve_exact(B, self.rhs)
        y = solve_exact(B_T, [self.c[k] if k < self.n else Fraction(0) for k in basis])
        return None if x_B is None or y is None else (self._structural(basis, x_B), y)


def _rational(v: float) -> Fraction:
    return Fraction(v).limit_denominator(ROUND_DENOMINATOR)


def _exact(v) -> int | Fraction:
    """v if it is already an int or a Fraction, else its exact Fraction."""
    return v if isinstance(v, (int, Fraction)) else Fraction(v)


def _times(v: int | Fraction, scale: int) -> int:
    """v * scale for a multiple scale of v's denominator."""
    return v.numerator * (scale // v.denominator)


def _dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    return sum((a * b for a, b in zip(u, v) if a and b), Fraction(0))


def _is_optimal(lp: _Lp, x: list[Fraction], y: list[Fraction]) -> bool:
    """x is feasible (x >= 0, every row holds in its sense), y has each
    row's sign (<= 0 on '<=', >= 0 on '>='), A^T y <= c and c.x = b.y.

    The rows are checked in integers: x = X / D over a common denominator
    D, row i is scaled by its s_i, and y_i / s_i = Z_i / F over a common
    F, so row i holds when its scaled terms against X compare with its
    scaled rhs times D, and F A^T y is the sum of the scaled rows times Z."""
    if any(v < 0 for v in x):
        return False
    D = lcm(*(v.denominator for v in x))
    X = [_times(v, D) for v in x]
    F = lcm(*(yi.denominator * s for yi, (_, _, s) in zip(y, lp.scaled)))
    Z = [_times(yi, F // s) for yi, (_, _, s) in zip(y, lp.scaled)]
    aty = [0] * lp.n  # F A^T y
    for (terms, b, _), (_, sense), zi in zip(lp.scaled, lp.rows, Z):
        lhs, bD = sum(a * X[j] for j, a in terms), b * D
        if sense == "<=" and (lhs > bD or zi > 0) or sense == ">=" and (lhs < bD or zi < 0):
            return False
        if zi:
            for j, a in terms:
                aty[j] += a * zi
    return (all(a * cj.denominator <= cj.numerator * F for a, cj in zip(aty, lp.c))
            and _dot(lp.c, x) == _dot(lp.rhs, y))
