"""The exact optimality check of the MLVC relaxation's primal-dual pair
(``mlvc.solve_lp``), read off its structure with no row of the model built.

The pair is X[v][t], the part of v scheduled in steps 1..t (X[v][0] = 0),
so x[v, t] = X[v][t] - X[v][t - 1]; theta[e], the parts of edge e on its
two endpoints; rho[v][t - 1], so that cover row (e, v, t) carries the dual
theta[e, v] rho[v][t - 1]; and y[t - 1], the dual of pack row t.  With
u[e, t] = max(0, 1 - min over v in e of X[v][t - 1]) every cover row holds,
and ``certify_relaxation`` checks the other families in O(m n + n^2)
steps: x >= 0, the pack rows, the dual signs (y <= 0, theta rho >= 0), the
u-columns theta[e, a] rho[a] + theta[e, b] rho[b] <= 1, the x-columns
y_t + load(v) (sum of rho[v] after t) <= 0 with load(v) the sum of theta
over v's cover rows, and equal objectives.  By weak duality both halves
are then optimal.  A failed check raises ``CertificateError``.  The checks
run in integers: each of X, theta, rho and y is scaled by its own least
common denominator, and every comparison is made over a common one.

The module keeps its name until the next change to the benchmark, whose
tracer (``perfbench/tracing.py``) imports every traced module by name.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from math import lcm
from typing import Sequence

from .core import CertificateError, Graph, integer_vector


def _scaled(rows: Sequence[Sequence]) -> tuple[int, list[list[int]]]:
    """(d, rows times d), d the least common denominator of every entry."""
    d, flat = integer_vector([entry for row in rows for entry in row])
    entries = iter(flat)
    return d, [list(islice(entries, len(row))) for row in rows]


def certify_relaxation(
    G: Graph,
    X: Sequence[Sequence[Fraction]],
    theta: Sequence[tuple[Fraction, Fraction]],
    rho: Sequence[Sequence[Fraction]],
    y: Sequence[Fraction],
) -> Fraction:
    """The optimum, sum u, once the pair passes every check of the module
    docstring; else CertificateError.  A loop has two identical cover rows
    per step, one per part.  X, theta, rho and y are scaled by their least
    common denominators L_X, L_theta, L_rho and L_y."""
    n = G.n
    L_X, X = _scaled(X)
    L_theta, theta = _scaled(theta)
    L_rho, rho = _scaled(rho)
    L_y, y = integer_vector(y)
    for row in X:
        if row[0] or any(a > b for a, b in zip(row, row[1:])):
            raise CertificateError("LP primal point has a negative entry")
    for t in range(1, n + 1):
        if sum(row[t] - row[t - 1] for row in X) > L_X:
            raise CertificateError("LP primal point violates a pack row")
    if any(yt > 0 for yt in y):
        raise CertificateError("LP dual has the wrong sign on a pack row")
    one = L_theta * L_rho  # the cover duals theta rho in units of 1 / one
    value, load = 0, [0] * n
    for (a, b), (on_a, on_b) in zip(G.edges, theta, strict=True):
        load[a] += on_a
        load[b] += on_b
        for rho_a, rho_b, X_a, X_b in zip(rho[a], rho[b], X[a], X[b]):
            z_a, z_b = on_a * rho_a, on_b * rho_b
            if z_a < 0 or z_b < 0:
                raise CertificateError("LP dual has the wrong sign on a cover row")
            if z_a + z_b > one:
                raise CertificateError("LP dual violates a u-column")
            value += max(0, L_X - min(X_a, X_b))
    S = lcm(L_y, one)  # the x-columns and the dual value in units of 1 / S
    y = [yt * (S // L_y) for yt in y]
    dual = sum(y)
    for v in range(n):
        weight = load[v] * (S // one)
        tail = 0  # sum of rho[v] over the steps after t
        for t in range(n - 1, -1, -1):
            if y[t] + weight * tail > 0:
                raise CertificateError("LP dual violates an x-column")
            tail += rho[v][t]
        dual += weight * tail
    if value * S != dual * L_X:
        raise CertificateError("LP primal and dual values differ")
    return Fraction(value, L_X)
