"""Operator-fold conjugation series: one ``LinearOperator`` per product, scaling and sum.

The test-only reference for ``tccr.reconstruct.conjugation_series``, which runs
the same fold on ``(cols, vals)`` column maps and makes one operator at the end.
The body is the series as it was written on operators, unchanged.
"""

from tccr.fock import LinearOperator


def conjugation_series(t: LinearOperator, inner: LinearOperator, mu: float) -> LinearOperator:
    """sum_{n>=0} mu^n t^n inner t*^n, with the tail beyond the cap in closed form."""
    if not abs(mu) < 1:
        raise ValueError(f"|mu| must be < 1, got {mu}")
    t_star = t.adjoint()
    total = term = inner
    factor = 1.0
    for _ in range(t.basis.cap):
        term = t @ term @ t_star
        factor *= mu
        total = total + factor * term
    tail = mu ** (t.basis.cap + 1) / (1.0 - mu)
    return total + tail * (t @ term @ t_star)
