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
are then optimal.  A failed check raises ``CertificateError``.

The module keeps its name until the next change to the benchmark, whose
tracer (``perfbench/tracing.py``) imports every traced module by name.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .core import CertificateError, Graph


def certify_relaxation(
    G: Graph,
    X: Sequence[Sequence[Fraction]],
    theta: Sequence[tuple[Fraction, Fraction]],
    rho: Sequence[Sequence[Fraction]],
    y: Sequence[Fraction],
) -> Fraction:
    """The optimum, sum u, once the pair passes every check of the module
    docstring; else CertificateError.  A loop has two identical cover rows
    per step, one per part."""
    n = G.n
    for row in X:
        if row[0] or any(a > b for a, b in zip(row, row[1:])):
            raise CertificateError("LP primal point has a negative entry")
    for t in range(1, n + 1):
        if sum(row[t] - row[t - 1] for row in X) > 1:
            raise CertificateError("LP primal point violates a pack row")
    if any(yt > 0 for yt in y):
        raise CertificateError("LP dual has the wrong sign on a pack row")
    value, load = Fraction(0), [Fraction(0)] * n
    for (a, b), (on_a, on_b) in zip(G.edges, theta, strict=True):
        load[a] += on_a
        load[b] += on_b
        for t in range(n):
            z_a, z_b = on_a * rho[a][t], on_b * rho[b][t]
            if z_a < 0 or z_b < 0:
                raise CertificateError("LP dual has the wrong sign on a cover row")
            if z_a + z_b > 1:
                raise CertificateError("LP dual violates a u-column")
            value += max(0, 1 - min(X[a][t], X[b][t]))
    dual = sum(y, Fraction(0))
    for v in range(n):
        tail = 0  # sum of rho[v] over the steps after t
        for t in range(n - 1, -1, -1):
            if y[t] + load[v] * tail > 0:
                raise CertificateError("LP dual violates an x-column")
            tail += rho[v][t]
        dual += load[v] * tail
    if value != dual:
        raise CertificateError("LP primal and dual values differ")
    return value
