"""Certified linear programming: a float simplex search, checked exactly.

``simplex_minimize`` minimizes c.x subject to linear rows and x >= 0.

1. Search.  A two-phase Bland tableau in float64 numpy (slack, surplus and
   artificial columns; one outer-product row update per pivot) ends in a
   final basis and a verdict: optimal, infeasible or unbounded.
2. Candidate.  The vectors behind the verdict are read off the final
   tableau and rounded to rationals with ``Fraction.limit_denominator``:
   the primal point, the row duals (the reduced costs of each row's unit
   column), or the improving ray.
3. Certificate.  The candidate is checked in exact Fractions over the
   sparse rows.  An optimum needs a primal-dual pair: x >= 0 satisfying
   every row, duals y with the sign each sense requires, A^T y <= c and
   c.x = b.y.  Infeasibility needs a Farkas vector: sign-feasible y with
   A^T y <= 0 and b.y > 0.  Unboundedness needs a feasible point and a ray
   d >= 0 with A d compatible with every sense and c.d < 0.
4. Recovery.  If the rounded candidate fails, the final basis is solved
   exactly by ``core.solve_exact``, the integer Gauss-Jordan solver that
   also finishes the Wolfe search in ``sfm`` (B x_B = b, B^T y = c_B,
   B w = a_q; a singular B gets its free variables set to 0).  That
   candidate is checked instead.  If it fails too, or a system is
   inconsistent, ``CertificateError`` is raised.

Every value, ``LpInfeasible`` and ``LpUnbounded`` returned or raised is
therefore backed by an exact check; no pivot is taken in Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Sequence

import numpy as np

from .core import CertificateError, solve_exact


class LpInfeasible(Exception):
    pass


class LpUnbounded(Exception):
    pass


#: zero tolerance of the float search; the exact check decides correctness
TOL = 1e-9
#: largest denominator of a rounded candidate; larger ones are recovered
#: from the final basis
ROUND_DENOMINATOR = 10**6

FLIPPED = {"<=": ">=", ">=": "<=", "==": "=="}


def simplex_minimize(
    objective: Sequence[Fraction],
    rows: Sequence[tuple[Sequence[tuple[int, Fraction]], str, Fraction]],
) -> tuple[Fraction, list[Fraction]]:
    """Minimize objective . x subject to the rows and x >= 0.

    Each row is (terms, sense, rhs): terms are (column, coefficient) pairs
    and sense is one of '<=', '>=', '=='.  Returns (optimal value, primal
    solution), both exact and certified by an exact dual solution.  Raises
    LpInfeasible or LpUnbounded with a checked certificate, or
    CertificateError when no certificate checks.
    """
    lp = _Lp(objective, rows)
    T, basis = lp.tableau()
    if lp.first_art < lp.total:
        _run_phase(T, basis, 1, np.ones(lp.total, dtype=bool))
        if -T[-1, -1] > TOL:
            _certify(
                lambda y: _is_farkas(lp, y),
                lambda: (lp.rounded_duals(T, 1),),
                lambda: (lp.exact_duals(basis, 1),),
                "infeasibility",
            )
            raise LpInfeasible("constraints are inconsistent")
        # a basic artificial at zero leaves on any other nonzero entry
        for i, k in enumerate(basis):
            if k >= lp.first_art:
                nonzero = np.flatnonzero(np.abs(T[i, : lp.first_art]) > TOL)
                if nonzero.size:
                    _pivot(T, basis, i, int(nonzero[0]))
    allowed = np.arange(lp.total) < lp.first_art
    enter = _run_phase(T, basis, 2, allowed)
    if enter is not None:
        _certify(
            lambda x, d: _is_feasible(lp, x, lp.rhs) and _is_ray(lp, d),
            lambda: (lp.rounded_point(T, basis), lp.rounded_ray(T, basis, enter)),
            lambda: (lp.exact_point(basis), lp.exact_ray(basis, enter)),
            "unboundedness",
        )
        raise LpUnbounded("objective unbounded below")
    x, _ = _certify(
        lambda x, y: _is_optimal(lp, x, y),
        lambda: (lp.rounded_point(T, basis), lp.rounded_duals(T, 2)),
        lambda: (lp.exact_point(basis), lp.exact_duals(basis, 2)),
        "optimality",
    )
    return _dot(lp.c, x), x


# ---------------------------------------------------------------------------
# the float search


def _run_phase(T: np.ndarray, basis: list[int], phase: int, allowed: np.ndarray) -> int | None:
    """Bland pivots on the cost row T[-phase] (phase 2's costs sit in row
    -2, phase 1's in row -1) until no allowed column has a negative reduced
    cost.  Returns None at the optimum, or the entering column of an
    improving ray."""
    m = len(basis)
    cost = T[-phase, :-1]
    while True:
        candidates = np.flatnonzero((cost < -TOL) & allowed)
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
    """The rows normalized to b >= 0, kept sparse and exact, and the column
    layout of the tableau: structural columns, then one slack per '<=' row,
    one surplus per '>=' row, one artificial per '>=' or '==' row."""

    def __init__(self, objective, rows):
        self.c = [Fraction(v) for v in objective]
        self.n = n = len(self.c)
        self.rows: list[tuple[list[tuple[int, Fraction]], str]] = []
        self.rhs: list[Fraction] = []
        for terms, sense, rhs in rows:
            if any(not 0 <= j < n for j, _ in terms):
                raise ValueError("term column outside the objective")
            terms = [(j, Fraction(v)) for j, v in terms if v]
            rhs = Fraction(rhs)
            if rhs < 0:
                terms = [(j, -v) for j, v in terms]
                rhs = -rhs
                sense = FLIPPED[sense]
            self.rows.append((terms, sense))
            self.rhs.append(rhs)
        senses = [sense for _, sense in self.rows]
        slack = [(i, 1) for i, s in enumerate(senses) if s == "<="]
        surplus = [(i, -1) for i, s in enumerate(senses) if s == ">="]
        art = [(i, 1) for i, s in enumerate(senses) if s != "<="]
        #: (row, sign) of each column from n on
        self.aux = slack + surplus + art
        self.first_art = n + len(slack) + len(surplus)
        self.total = self.first_art + len(art)
        self.unit = [0] * len(self.rows)
        for k, (i, _) in enumerate(slack):
            self.unit[i] = n + k
        for k, (i, _) in enumerate(art):
            self.unit[i] = self.first_art + k

    def tableau(self) -> tuple[np.ndarray, list[int]]:
        """Constraint rows, then the phase-2 and phase-1 reduced costs; the
        last column holds b (and minus each phase's objective)."""
        m, n = len(self.rows), self.n
        T = np.zeros((m + 2, self.total + 1))
        for i, ((terms, _), rhs) in enumerate(zip(self.rows, self.rhs)):
            for j, v in terms:
                T[i, j] = float(v)
            T[i, -1] = float(rhs)
        for k, (i, sign) in enumerate(self.aux):
            T[i, n + k] = sign
        T[m, :n] = [float(v) for v in self.c]
        art_rows = [i for i, k in enumerate(self.unit) if k >= self.first_art]
        T[m + 1, self.first_art : self.total] = 1.0
        T[m + 1] -= T[art_rows].sum(axis=0)
        return T, list(self.unit)

    def _cost(self, k: int, phase: int) -> Fraction:
        """Column k's cost in the given phase."""
        if phase == 1:
            return Fraction(int(k >= self.first_art))
        return self.c[k] if k < self.n else Fraction(0)

    def _structural(self, basis: list[int], values) -> list[Fraction]:
        x = [Fraction(0)] * self.n
        for k, v in zip(basis, values):
            if k < self.n:
                x[k] = v
        return x

    # rounded candidates, read off the final tableau

    def rounded_point(self, T, basis):
        return self._structural(basis, map(_rational, T[: len(basis), -1].tolist()))

    def rounded_duals(self, T, phase):
        reduced = T[-phase].tolist()
        return [self._cost(k, phase) - _rational(reduced[k]) for k in self.unit]

    def rounded_ray(self, T, basis, enter):
        return self._ray(basis, enter, map(_rational, T[: len(basis), enter].tolist()))

    # exact candidates, solved from the final basis

    @cached_property
    def _columns(self) -> list[dict[int, Fraction]]:
        columns = [{} for _ in range(self.n)]
        for i, (terms, _) in enumerate(self.rows):
            for j, v in terms:
                columns[j][i] = v
        return columns + [{i: Fraction(sign)} for i, sign in self.aux]

    def _basis_rows(self, basis) -> list[dict[int, Fraction]]:
        """B by rows: entry (i, p) is row i of basis column p."""
        B = [{} for _ in basis]
        for p, k in enumerate(basis):
            for i, v in self._columns[k].items():
                B[i][p] = v
        return B

    def exact_point(self, basis):
        x_B = solve_exact(self._basis_rows(basis), self.rhs)
        return None if x_B is None else self._structural(basis, x_B)

    def exact_duals(self, basis, phase):
        return solve_exact([self._columns[k] for k in basis], [self._cost(k, phase) for k in basis])

    def exact_ray(self, basis, enter):
        a = self._columns[enter]
        w = solve_exact(self._basis_rows(basis), [a.get(i, Fraction(0)) for i in range(len(basis))])
        return None if w is None else self._ray(basis, enter, w)

    def _ray(self, basis, enter, w):
        """The edge direction raising column ``enter`` from the basis, given
        w = B^-1 a_enter (the basic variables fall by w)."""
        d = self._structural(basis, (-v for v in w))
        if enter < self.n:
            d[enter] = Fraction(1)
        return d


def _certify(check, rounded, exact, verdict: str):
    """The rounded candidate if it passes ``check``, else the exact one from
    the final basis; CertificateError if neither does."""
    candidate = rounded()
    if check(*candidate):
        return candidate
    candidate = exact()
    if None not in candidate and check(*candidate):
        return candidate
    raise CertificateError(f"simplex {verdict} failed its exact certificate")


def _rational(v: float) -> Fraction:
    return Fraction(v).limit_denominator(ROUND_DENOMINATOR)


def _dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    return sum((a * b for a, b in zip(u, v) if a and b), Fraction(0))


def _holds(lhs: Fraction, sense: str, rhs: Fraction) -> bool:
    if sense == "<=":
        return lhs <= rhs
    if sense == ">=":
        return lhs >= rhs
    return lhs == rhs


def _is_feasible(lp: _Lp, x: list[Fraction], rhs: Sequence[Fraction]) -> bool:
    """x >= 0 and every row of A x against ``rhs`` holds in its sense."""
    return all(v >= 0 for v in x) and all(
        _holds(sum((v * x[j] for j, v in terms if x[j]), Fraction(0)), sense, b)
        for (terms, sense), b in zip(lp.rows, rhs)
    )


def _is_dual_feasible(lp: _Lp, y: list[Fraction], c: Sequence[Fraction]) -> bool:
    """y has each row's sign (<= 0 on '<=', >= 0 on '>=') and A^T y <= c."""
    aty = [Fraction(0)] * lp.n
    for (terms, sense), yi in zip(lp.rows, y):
        if sense == "<=" and yi > 0 or sense == ">=" and yi < 0:
            return False
        if yi:
            for j, v in terms:
                aty[j] += v * yi
    return all(a <= cj for a, cj in zip(aty, c))


def _is_optimal(lp: _Lp, x, y) -> bool:
    return (
        _is_feasible(lp, x, lp.rhs)
        and _is_dual_feasible(lp, y, lp.c)
        and _dot(lp.c, x) == _dot(lp.rhs, y)
    )


def _is_farkas(lp: _Lp, y) -> bool:
    return _is_dual_feasible(lp, y, [Fraction(0)] * lp.n) and _dot(lp.rhs, y) > 0


def _is_ray(lp: _Lp, d) -> bool:
    return _is_feasible(lp, d, [Fraction(0)] * len(lp.rows)) and _dot(lp.c, d) < 0
