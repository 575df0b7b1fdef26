"""The exact optimality check of a linear program's primal-dual pair.

``certify_optimum`` checks that x is optimal for: minimize c.x subject to
'<=' and '>=' rows and x >= 0, given row duals y.  It checks x >= 0
satisfying every row, y with the sign each sense requires, A^T y <= c and
c.x = b.y; by weak duality x and y are then both optimal.  The rows are
checked in integers, each row scaled by its own denominator and x and y
put over common denominators.  Nothing is searched for: the caller
constructs the pair (``mlvc.solve_lp``).

The module keeps its name because the benchmark's tracer
(``perfbench/tracing.py``) imports every traced module by name.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

from .core import CertificateError


def certify_optimum(
    objective: Sequence[Fraction],
    rows: Sequence[tuple[Sequence[tuple[int, Fraction]], str, Fraction]],
    x: Sequence[Fraction],
    y: Sequence[Fraction],
) -> Fraction:
    """c.x, once (x, y) passes the check of the module docstring; else
    CertificateError.  Each row is (terms, sense, rhs): terms are (column,
    coefficient) pairs and sense is '<=' or '>='; y_i must be <= 0 on a
    '<=' row and >= 0 on a '>=' row.

    With x = X / D over a common denominator D, row i scaled by its s_i and
    y_i / s_i = Z_i / F over a common F, row i holds when its scaled terms
    against X compare with its scaled rhs times D, and F A^T y is the sum
    of the scaled rows times Z."""
    if len(x) != len(objective) or len(y) != len(rows):
        raise ValueError("need one primal value per column and one dual value per row")
    if any(v < 0 for v in x):
        raise CertificateError("LP primal point has a negative entry")
    scales = [lcm(rhs.denominator, *(a.denominator for _, a in terms)) for terms, _, rhs in rows]
    D = lcm(*(v.denominator for v in x))
    X = [_times(v, D) for v in x]
    F = lcm(*(yi.denominator * s for yi, s in zip(y, scales)))
    aty = [0] * len(objective)  # F A^T y
    for (terms, sense, rhs), s, yi in zip(rows, scales, y):
        if sense not in ("<=", ">="):
            raise ValueError(f"row sense must be '<=' or '>=', not {sense!r}")
        scaled = [(j, _times(a, s)) for j, a in terms]
        lhs, bD, zi = sum(a * X[j] for j, a in scaled), _times(rhs, s) * D, _times(yi, F // s)
        if lhs > bD if sense == "<=" else lhs < bD:
            raise CertificateError("LP primal point violates a row")
        if zi > 0 if sense == "<=" else zi < 0:
            raise CertificateError("LP dual has the wrong sign on a row")
        if zi:
            for j, a in scaled:
                aty[j] += a * zi
    c = [Fraction(cj) for cj in objective]
    if any(a * cj.denominator > cj.numerator * F for a, cj in zip(aty, c)):
        raise CertificateError("LP dual violates a column: A^T y > c")
    value = _dot(c, x)
    if value != _dot([rhs for _, _, rhs in rows], y):
        raise CertificateError("LP primal and dual values differ")
    return value


def _times(v: int | Fraction, scale: int) -> int:
    """v * scale for a multiple scale of v's denominator."""
    return v.numerator * (scale // v.denominator)


def _dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    return sum((a * b for a, b in zip(u, v) if a and b), Fraction(0))
