"""Dense input for monomial operators.

The test-only converse of ``LinearOperator.matrix``: tests that write an
operator as a square array convert it here, since ``LinearOperator`` takes
only a ``Monomial``.
"""

import numpy as np

from tccr.fock import LinearOperator, Monomial


def monomial_of_dense(mat: np.ndarray) -> Monomial:
    """The monomial form of a square matrix; ValueError if a row or column has two nonzeros."""
    nonzero = mat != 0
    per_row = np.count_nonzero(nonzero, axis=1)
    if per_row.max() > 1 or np.count_nonzero(nonzero, axis=0).max() > 1:
        raise ValueError("matrix is not monomial: a row or column holds two nonzeros")
    cols = np.where(per_row == 1, nonzero.argmax(axis=1), -1)
    # an empty row reads its (zero) last entry
    return Monomial(cols, mat[np.arange(mat.shape[0]), cols])


def dense_operator(basis, mat) -> LinearOperator:
    """The operator of a square array on ``basis``; ValueError unless its shape is (dim, dim) and it is monomial."""
    mat = np.asarray(mat, dtype=complex)
    if mat.shape != (basis.dim, basis.dim):
        raise ValueError(f"matrix shape {mat.shape} does not match basis dimension {basis.dim}")
    return LinearOperator(basis, monomial_of_dense(mat))
