"""Dense one-slot matrices and a Kronecker-product tensor word evaluator.

The test-only reference for ``tccr.relations.tensor_word_matrix``, which
evaluates the same words by index arithmetic on monomial operators.
"""

import numpy as np

from tccr.relations import DEFECT, SHIFT, SHIFT_STAR


def shift_matrix(cap: int) -> np.ndarray:
    """One-slot raise: e_n -> e_{n+1} for n < cap, e_cap -> 0."""
    mat = np.zeros((cap + 1, cap + 1), dtype=complex)
    for n in range(cap):
        mat[n + 1, n] = 1.0
    return mat


def defect_matrix(cap: int) -> np.ndarray:
    """1 - S S^* on one slot: the projection onto the slot vacuum e_0."""
    s = shift_matrix(cap)
    return np.eye(cap + 1, dtype=complex) - s @ s.conj().T


def tensor_word_kron(word, cap: int) -> np.ndarray:
    """Dense tensor word: each slot's symbols multiplied left to right, slots joined by np.kron."""
    s = shift_matrix(cap)
    lookup = {SHIFT: s, SHIFT_STAR: s.conj().T, DEFECT: defect_matrix(cap)}
    eye = np.eye(cap + 1, dtype=complex)
    out = np.eye(1, dtype=complex)
    for slot in word if word else ((),):
        mat = eye
        for symbol in slot:
            mat = mat @ lookup[symbol]
        out = np.kron(out, mat)
    return out
