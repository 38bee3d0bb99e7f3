"""Truncated-Fock-space linear algebra.

The state space is a tensor product of ``slots`` one-sided chains, each
truncated at occupation ``cap``.  Basis vectors are occupation tuples
``(n_1, ..., n_m)`` with ``0 <= n_k <= cap``, enumerated lexicographically
with the vacuum ``(0, ..., 0)`` at index 0.

Operators are tied to such a basis and stored in one of two forms, picked
from the operator's structure:

* **monomial** -- at most one nonzero per row and per column, stored as one
  column index and one value per row (:class:`Monomial`).  Every generator of
  the Fock models is a weighted lattice shift, so generators, their products,
  stages, defects, positive parts and polar isometries all take this form;
  products, adjoints and scalar multiples are O(dim) gathers, and polar
  factors, square roots of diagonal operators and norms are exact
  elementwise formulas.
* **dense** -- a read-only ``(dim, dim)`` complex array, for everything else
  (sums whose column maps collide, random test matrices).  It is also the
  reference the monomial paths are tested against.

Relations between shift-type operators hold exactly away from the cap; the
``core_residual`` helper measures a relation only on vectors far enough from
the cap that truncation cannot leak in.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "CapacityError",
    "TruncationError",
    "NotPositiveError",
    "BasisMismatchError",
    "FockBasis",
    "Monomial",
    "LinearOperator",
    "PolarPair",
    "enumerate_basis",
    "operator_norm",
    "psd_sqrt",
    "polar_left",
    "core_residual",
    "spectral_norm",
]

DEFAULT_DIM_LIMIT = 20000
DIM_LIMIT_ENV = "TCCR_DIM_LIMIT"

MultiIndex = tuple[int, ...]


class CapacityError(ValueError):
    """A requested basis or table exceeds the configured size limit."""


class TruncationError(ValueError):
    """The truncation cap is too small for the requested computation."""


class NotPositiveError(ValueError):
    """A matrix expected to be positive semidefinite is not."""


class BasisMismatchError(ValueError):
    """Two operators attached to different bases were combined."""


def _dim_limit() -> int:
    raw = os.environ.get(DIM_LIMIT_ENV)
    if raw is None:
        return DEFAULT_DIM_LIMIT
    try:
        return int(raw)
    except ValueError as exc:
        raise ValueError(f"{DIM_LIMIT_ENV} must be an integer, got {raw!r}") from exc


@dataclass(frozen=True)
class FockBasis:
    """Lexicographic enumeration of occupation tuples with a per-slot cap."""

    slots: int
    cap: int

    def __post_init__(self) -> None:
        if self.slots < 1:
            raise ValueError(f"slots must be >= 1, got {self.slots}")
        if self.cap < 1:
            raise ValueError(f"cap must be >= 1, got {self.cap}")

    @property
    def dim(self) -> int:
        return (self.cap + 1) ** self.slots

    def states(self) -> Iterable[MultiIndex]:
        """All occupation tuples in index order (vacuum first)."""
        return itertools.product(range(self.cap + 1), repeat=self.slots)

    def index_of(self, state: Sequence[int]) -> int:
        """Row/column index of an occupation tuple (mixed-radix, slot 1 most significant)."""
        if len(state) != self.slots:
            raise ValueError(f"state has {len(state)} entries, basis has {self.slots} slots")
        idx = 0
        for n in state:
            if not 0 <= n <= self.cap:
                raise ValueError(f"occupation {n} outside 0..{self.cap}")
            idx = idx * (self.cap + 1) + n
        return idx

    def state_at(self, index: int) -> MultiIndex:
        if not 0 <= index < self.dim:
            raise ValueError(f"index {index} outside basis of dimension {self.dim}")
        digits = []
        for _ in range(self.slots):
            digits.append(index % (self.cap + 1))
            index //= self.cap + 1
        return tuple(reversed(digits))

    def stride(self, slot: int) -> int:
        """Index step of one quantum in ``slot`` (0-based; slot 0 most significant)."""
        return (self.cap + 1) ** (self.slots - 1 - slot)

    def occupations(self) -> np.ndarray:
        """(dim, slots) integer array of all occupation tuples in index order."""
        radix = self.cap + 1
        strides = radix ** np.arange(self.slots - 1, -1, -1, dtype=np.int64)
        return (np.arange(self.dim, dtype=np.int64)[:, None] // strides) % radix

    def core_mask(self, level: int) -> np.ndarray:
        """Boolean mask of basis vectors with every occupation <= level."""
        if level < 0:
            raise ValueError(f"core level must be >= 0, got {level}")
        return (self.occupations() <= level).all(axis=1)


def enumerate_basis(slots: int, cap: int, *, dim_limit: int | None = None) -> FockBasis:
    """Build a basis, enforcing the capacity limit (env ``TCCR_DIM_LIMIT`` overrides)."""
    if slots < 1 or cap < 1:
        raise ValueError(f"slots and cap must be >= 1, got slots={slots}, cap={cap}")
    limit = _dim_limit() if dim_limit is None else dim_limit
    dim = (cap + 1) ** slots
    if dim > limit:
        raise CapacityError(
            f"basis dimension {dim} = ({cap}+1)^{slots} exceeds limit {limit}"
        )
    return FockBasis(slots=slots, cap=cap)


@dataclass(frozen=True, eq=False)
class Monomial:
    """An operator with at most one nonzero per row and per column.

    Row ``r`` holds ``vals[r]`` in column ``cols[r]``; ``cols[r] = -1`` marks
    an empty row.  A :class:`LinearOperator` keeps a canonical, read-only copy:
    empty rows hold the value 0, no stored value is exactly 0, and no two rows
    share a column (construction raises ``ValueError`` otherwise).
    """

    cols: np.ndarray
    vals: np.ndarray


def _canonical(cols: np.ndarray, vals: np.ndarray) -> Monomial | None:
    """Drop exact zeros and freeze; None when two rows share a column."""
    empty = (cols < 0) | (vals == 0)
    cols = np.where(empty, -1, cols)
    vals = np.where(empty, 0j, vals)
    if np.bincount(cols[~empty], minlength=1).max() > 1:
        return None
    cols.flags.writeable = False
    vals.flags.writeable = False
    return Monomial(cols, vals)


def _monomial_of_dense(mat: np.ndarray) -> Monomial | None:
    """The monomial form of a square matrix, or None if a row or column has two nonzeros."""
    nonzero = mat != 0
    per_row = np.count_nonzero(nonzero, axis=1)
    if per_row.max() > 1 or np.count_nonzero(nonzero, axis=0).max() > 1:
        return None
    cols = np.where(per_row == 1, nonzero.argmax(axis=1), -1)
    # an empty row reads its (zero) last entry
    return _canonical(cols, mat[np.arange(mat.shape[0]), cols])


@dataclass(frozen=True, eq=False)
class LinearOperator:
    """Complex operator attached to a basis, stored monomial or dense.

    ``data`` is a square array or a :class:`Monomial`; a dense array with at
    most one nonzero per row and per column is stored monomial.  ``matrix``
    gives the dense array in either case.  Arithmetic is closed over one
    basis; combining operators on different bases raises
    :class:`BasisMismatchError`.  Stored arrays are frozen after
    construction, so operators can be shared freely across threads.
    Equality is identity; use :meth:`allclose` for numeric comparison.
    """

    basis: FockBasis
    data: np.ndarray | Monomial = field(repr=False)

    def __post_init__(self) -> None:
        dim = self.basis.dim
        if isinstance(self.data, Monomial):
            cols = np.asarray(self.data.cols, dtype=np.intp)
            vals = np.asarray(self.data.vals, dtype=complex)
            if cols.shape != (dim,) or vals.shape != (dim,):
                raise ValueError(
                    f"monomial arrays of shapes {cols.shape}, {vals.shape} do not match "
                    f"basis dimension {dim}"
                )
            if cols.min() < -1 or cols.max() >= dim:
                raise ValueError(f"monomial column index outside -1..{dim - 1}")
            mono = _canonical(cols, vals)
            if mono is None:
                raise ValueError("monomial rows share a column")
            object.__setattr__(self, "data", mono)
            return
        mat = np.asarray(self.data, dtype=complex)
        if mat.shape != (dim, dim):
            raise ValueError(
                f"matrix shape {mat.shape} does not match basis dimension {dim}"
            )
        mono = _monomial_of_dense(mat)
        if mono is not None:
            object.__setattr__(self, "data", mono)
            return
        mat = np.ascontiguousarray(mat)
        mat.flags.writeable = False
        object.__setattr__(self, "data", mat)

    @property
    def monomial(self) -> Monomial | None:
        """The monomial form, or None for a dense operator."""
        return self.data if isinstance(self.data, Monomial) else None

    @property
    def matrix(self) -> np.ndarray:
        """Read-only dense matrix (assembled on each access for a monomial operator)."""
        mono = self.monomial
        if mono is None:
            return self.data
        dim = self.basis.dim
        mat = np.zeros((dim, dim), dtype=complex)
        live = mono.cols >= 0
        mat[np.flatnonzero(live), mono.cols[live]] = mono.vals[live]
        mat.flags.writeable = False
        return mat

    def _check_same_basis(self, other: "LinearOperator") -> None:
        if self.basis != other.basis:
            raise BasisMismatchError(
                f"operators live on different bases: {self.basis} vs {other.basis}"
            )

    def adjoint(self) -> "LinearOperator":
        mono = self.monomial
        if mono is None:
            return LinearOperator(self.basis, self.data.conj().T)
        live = mono.cols >= 0
        cols = np.full(self.basis.dim, -1, dtype=np.intp)
        vals = np.zeros(self.basis.dim, dtype=complex)
        cols[mono.cols[live]] = np.flatnonzero(live)
        vals[mono.cols[live]] = mono.vals[live].conj()
        return LinearOperator(self.basis, Monomial(cols, vals))

    def __matmul__(self, other: "LinearOperator") -> "LinearOperator":
        self._check_same_basis(other)
        left, right = self.monomial, other.monomial
        if left is not None and right is not None:
            # (L R)[r] = L[r, c] R[c, R.cols[c]] with c = L.cols[r]
            live = left.cols >= 0
            mid = left.cols[live]
            cols = np.full(self.basis.dim, -1, dtype=np.intp)
            vals = np.zeros(self.basis.dim, dtype=complex)
            cols[live] = right.cols[mid]
            vals[live] = left.vals[live] * right.vals[mid]
            return LinearOperator(self.basis, Monomial(cols, vals))
        return LinearOperator(self.basis, self.matrix @ other.matrix)

    def _combine(self, other: "LinearOperator", op: np.ufunc) -> "LinearOperator":
        """Entrywise ``op`` (add or subtract); monomial when the column maps merge injectively."""
        self._check_same_basis(other)
        left, right = self.monomial, other.monomial
        if left is not None and right is not None:
            clash = (left.cols >= 0) & (right.cols >= 0) & (left.cols != right.cols)
            if not clash.any():
                cols = np.where(left.cols >= 0, left.cols, right.cols)
                try:
                    return LinearOperator(self.basis, Monomial(cols, op(left.vals, right.vals)))
                except ValueError:  # the merged rows share a column
                    pass
        return LinearOperator(self.basis, op(self.matrix, other.matrix))

    def __add__(self, other: "LinearOperator") -> "LinearOperator":
        return self._combine(other, np.add)

    def __sub__(self, other: "LinearOperator") -> "LinearOperator":
        return self._combine(other, np.subtract)

    def __neg__(self) -> "LinearOperator":
        mono = self.monomial
        if mono is None:
            return LinearOperator(self.basis, -self.data)
        return LinearOperator(self.basis, Monomial(mono.cols, -mono.vals))

    def __mul__(self, scalar: complex) -> "LinearOperator":
        mono = self.monomial
        if mono is None:
            return LinearOperator(self.basis, self.data * complex(scalar))
        return LinearOperator(self.basis, Monomial(mono.cols, mono.vals * complex(scalar)))

    __rmul__ = __mul__

    def power(self, k: int) -> "LinearOperator":
        if k < 0:
            raise ValueError("negative powers are not defined")
        out = identity(self.basis)
        for _ in range(k):
            out = out @ self
        return out

    def _max_abs_entry(self) -> float:
        """Largest entry modulus (0 for the zero operator)."""
        mono = self.monomial
        return float(np.max(np.abs(self.data if mono is None else mono.vals)))

    def is_hermitian(self, tol: float = 1e-10) -> bool:
        return (self - self.adjoint())._max_abs_entry() <= tol

    def allclose(self, other: "LinearOperator", tol: float = 1e-12) -> bool:
        return (self - other)._max_abs_entry() <= tol

    def to_json_dict(self) -> dict:
        """Row-major [re, im] dump for golden-file comparisons."""
        return {
            "slots": self.basis.slots,
            "cap": self.basis.cap,
            "matrix": [
                [[float(z.real), float(z.imag)] for z in row] for row in self.matrix
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "LinearOperator":
        basis = FockBasis(slots=data["slots"], cap=data["cap"])
        mat = np.array(
            [[complex(re, im) for re, im in row] for row in data["matrix"]],
            dtype=complex,
        )
        return cls(basis, mat)


def identity(basis: FockBasis) -> LinearOperator:
    return LinearOperator(basis, Monomial(np.arange(basis.dim), np.ones(basis.dim, dtype=complex)))


def zero(basis: FockBasis) -> LinearOperator:
    return LinearOperator(basis, Monomial(np.full(basis.dim, -1), np.zeros(basis.dim, dtype=complex)))


@dataclass(frozen=True, eq=False)
class PolarPair:
    """Factors of a left polar decomposition A = positive_part @ isometric_part."""

    isometric_part: LinearOperator
    positive_part: LinearOperator


def _require_finite(values: np.ndarray) -> None:
    if not np.all(np.isfinite(values)):
        raise ValueError("operator has non-finite entries")


def operator_norm(a: LinearOperator) -> float:
    """Largest singular value of the matrix (largest entry modulus when monomial)."""
    mono = a.monomial
    if mono is not None:
        _require_finite(mono.vals)
        return a._max_abs_entry()
    _require_finite(a.data)
    if a.basis.dim == 1:
        return float(abs(a.data[0, 0]))
    return float(np.linalg.norm(a.data, 2))


def spectral_norm(matrix: np.ndarray) -> float:
    """Largest singular value of a rectangular block, via the Hermitian Gram form.

    Cheaper than a full SVD for the tall thin blocks produced by core
    projections; accuracy is limited only by eigvalsh rounding.
    """
    if matrix.size == 0:
        return 0.0
    gram = matrix.conj().T @ matrix
    top = float(np.linalg.eigvalsh(gram)[-1])
    return float(np.sqrt(max(top, 0.0)))


def psd_sqrt(a: LinearOperator, *, psd_tol: float = 1e-10, clamp_tol: float = 1e-12) -> LinearOperator:
    """Hermitian PSD square root via eigendecomposition.

    Eigenvalues below ``-psd_tol`` raise :class:`NotPositiveError`; tiny
    eigenvalues (below ``clamp_tol``) are clamped to zero before the root.
    A diagonal input is its own eigendecomposition, so the same checks and
    the clamp run elementwise on its diagonal.
    """
    mono = a.monomial
    if mono is not None and np.all((mono.cols < 0) | (mono.cols == np.arange(a.basis.dim))):
        diag = mono.vals
        asym = float(np.max(np.abs(diag - diag.conj())))
        if asym > 1e-10:
            raise NotPositiveError(f"matrix is not Hermitian (max asymmetry {asym:.3e})")
        eigvals = ((diag + diag.conj()) / 2.0).real
        low = float(eigvals.min())
        if low < -psd_tol:
            raise NotPositiveError(f"matrix has negative eigenvalue {low:.6e}")
        root = np.sqrt(np.where(eigvals < clamp_tol, 0.0, eigvals))
        return LinearOperator(a.basis, Monomial(np.arange(a.basis.dim), root))
    if not a.is_hermitian(tol=1e-10):
        asym = float(np.max(np.abs(a.matrix - a.matrix.conj().T)))
        raise NotPositiveError(f"matrix is not Hermitian (max asymmetry {asym:.3e})")
    herm = (a.matrix + a.matrix.conj().T) / 2.0
    eigvals, eigvecs = np.linalg.eigh(herm)
    low = float(eigvals[0])
    if low < -psd_tol:
        raise NotPositiveError(f"matrix has negative eigenvalue {low:.6e}")
    clamped = np.where(eigvals < clamp_tol, 0.0, eigvals)
    root = (eigvecs * np.sqrt(clamped)) @ eigvecs.conj().T
    root = (root + root.conj().T) / 2.0
    return LinearOperator(a.basis, root)


def polar_left(a: LinearOperator, rank_tol: float = 1e-8) -> PolarPair:
    """Left polar decomposition A = C @ S with C PSD and S a partial isometry.

    S is assembled from the SVD factors restricted to singular values above
    ``rank_tol`` relative to the largest one, so its initial space is the
    closure of range(A*) and its final space is range(A).  The zero operator
    decomposes as (0, 0).  For a monomial A the singular values are the entry
    moduli |v|, so C = diag(|v|) row by row and S keeps v/|v| where |v| passes
    the same relative threshold.
    """
    if rank_tol <= 0:
        raise ValueError(f"rank_tol must be positive, got {rank_tol}")
    mono = a.monomial
    if mono is not None:
        _require_finite(mono.vals)
        mags = np.abs(mono.vals)
        smax = float(mags.max())
        if smax == 0.0:
            z = zero(a.basis)
            return PolarPair(isometric_part=z, positive_part=z)
        keep = mags > rank_tol * smax
        # real and imaginary parts over |v| separately: a complex division by a
        # subnormal |v| overflows
        phases = np.zeros(a.basis.dim, dtype=complex)
        phases.real[keep] = mono.vals.real[keep] / mags[keep]
        phases.imag[keep] = mono.vals.imag[keep] / mags[keep]
        isometric = LinearOperator(a.basis, Monomial(mono.cols, phases))
        positive = LinearOperator(a.basis, Monomial(np.arange(a.basis.dim), mags))
        return PolarPair(isometric_part=isometric, positive_part=positive)
    u, s, vh = np.linalg.svd(a.matrix)
    smax = float(s[0]) if s.size else 0.0
    if smax == 0.0:
        z = zero(a.basis)
        return PolarPair(isometric_part=z, positive_part=z)
    keep = s > rank_tol * smax
    ur = u[:, keep]
    vhr = vh[keep, :]
    isometric = LinearOperator(a.basis, ur @ vhr)
    positive = LinearOperator(a.basis, (u * s) @ u.conj().T)
    return PolarPair(isometric_part=isometric, positive_part=positive)


def core_residual(lhs: LinearOperator, rhs: LinearOperator, degree: int) -> float:
    """Norm of (LHS - RHS) restricted to vectors at least ``degree`` below the cap.

    ``degree`` is the longest generator word appearing in the relation; a word
    of that length cannot push a vector with all occupations <= cap - degree
    past the cap, so a true relation gives exactly zero up to float rounding.
    A monomial difference has norm max|v| over the entries in core columns
    (exactly 0 when there are none).
    """
    lhs._check_same_basis(rhs)
    basis = lhs.basis
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    if degree > basis.cap:
        raise TruncationError(
            f"relation degree {degree} exceeds cap {basis.cap}; increase the truncation"
        )
    mask = basis.core_mask(basis.cap - degree)
    diff = lhs - rhs
    mono = diff.monomial
    if mono is not None:
        live = mono.cols >= 0
        kept = mono.vals[live][mask[mono.cols[live]]]
        return float(np.max(np.abs(kept), initial=0.0))
    return spectral_norm(diff.data[:, mask])
