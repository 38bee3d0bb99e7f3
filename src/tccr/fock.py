"""Truncated-Fock-space linear algebra.

The state space is a tensor product of ``slots`` one-sided chains, each
truncated at occupation ``cap``.  Basis vectors are occupation tuples
``(n_1, ..., n_m)`` with ``0 <= n_k <= cap``, enumerated lexicographically
with the vacuum ``(0, ..., 0)`` at index 0.

Operators are tied to such a basis and are monomial: at most one nonzero per
row and per column, stored as one column index and one value per row
(:class:`Monomial`).  Every generator of the Fock models is a weighted lattice
shift, so generators, their products, stages, defects, positive parts and
polar isometries all take this form.  Products, adjoints and scalar multiples
are O(dim) gathers; polar factors, square roots and norms are exact
elementwise formulas.  A sum whose column maps collide is not monomial and
raises ``ValueError``; ``LinearOperator.matrix`` is a dense view for tests.

The public constructor ``LinearOperator(basis, monomial)`` validates its
input in full.  The closed operations on canonical operands (``adjoint``,
unary ``-``, ``@``, scalar ``*``, ``identity`` and ``zero``) are canonical
by construction: they keep the column map injective and in range, so their
results skip that check, and ``@`` and ``*`` only drop the exact zeros they
can create.  ``+`` and ``-`` stay fully checked, because two column maps can
collide.  All four run through private functions on ``(cols, vals)`` pairs,
which a fold of many steps can call without making an operator per step.
Core masks are built once per basis and shared read-only.

Relations between shift-type operators hold exactly away from the cap; the
``core_residual`` helper measures a relation only on vectors far enough from
the cap that truncation cannot leak in.
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass, field

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
# psd_sqrt: eigenvalues below -PSD_TOL raise, those below CLAMP_TOL become 0
PSD_TOL = 1e-10
CLAMP_TOL = 1e-12

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
    # core level -> read-only mask; levels above the cap share the cap's all-true mask
    _core_masks: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.slots < 1:
            raise ValueError(f"slots must be >= 1, got {self.slots}")
        if self.cap < 1:
            raise ValueError(f"cap must be >= 1, got {self.cap}")

    @property
    def dim(self) -> int:
        return (self.cap + 1) ** self.slots

    def stride(self, slot: int) -> int:
        """Index step of one quantum in ``slot`` (0-based; slot 0 most significant)."""
        return (self.cap + 1) ** (self.slots - 1 - slot)

    def occupations(self) -> np.ndarray:
        """(dim, slots) integer array of all occupation tuples in index order."""
        radix = self.cap + 1
        strides = radix ** np.arange(self.slots - 1, -1, -1, dtype=np.int64)
        return (np.arange(self.dim, dtype=np.int64)[:, None] // strides) % radix

    def core_mask(self, level: int) -> np.ndarray:
        """Read-only boolean mask of basis vectors with every occupation <= level, kept per basis."""
        if level < 0:
            raise ValueError(f"core level must be >= 0, got {level}")
        level = min(level, self.cap)
        mask = self._core_masks.get(level)
        if mask is None:
            mask = (self.occupations() <= level).all(axis=1)
            mask.flags.writeable = False
            self._core_masks[level] = mask
        return mask


def enumerate_basis(slots: int, cap: int) -> FockBasis:
    """Build a basis, enforcing the capacity limit (env ``TCCR_DIM_LIMIT`` overrides)."""
    if slots < 1 or cap < 1:
        raise ValueError(f"slots and cap must be >= 1, got slots={slots}, cap={cap}")
    limit = _dim_limit()
    # (cap+1)^slots >= 2^slots > limit once slots reaches the limit's bit length, so the power is not taken
    dim = (cap + 1) ** slots if slots < limit.bit_length() else None
    if dim is None or dim > limit:
        shown = f"{dim} = " if dim is not None and dim.bit_length() <= 64 else ""
        raise CapacityError(f"basis dimension {shown}({cap}+1)^{slots} exceeds limit {limit}")
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


class _Canonical(Monomial):
    """Arrays already in canonical form, made by a closed operation on canonical operands.

    ``LinearOperator`` only freezes them; any other input is validated in full.
    """


def _closed(basis: FockBasis, cols: np.ndarray, vals: np.ndarray) -> "LinearOperator":
    """Operator from canonical ``np.intp`` and complex arrays of length ``basis.dim``, fresh or frozen."""
    return LinearOperator(basis, _Canonical(cols, vals))


# The arithmetic of canonical column maps, shared by the operator methods and by
# ``reconstruct.conjugation_series``: each takes and returns ``(cols, vals)`` pairs.


def _drop_zeros(cols: np.ndarray, vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Empty, in place, the rows of fresh arrays whose column is -1 or whose value is an exact 0.

    A product can underflow to 0, a scalar can be 0, and ``inf * 0`` in an
    empty row is NaN; such rows are emptied too, as the constructor does.
    """
    empty = (cols < 0) | (vals == 0)
    np.copyto(cols, -1, where=empty)
    np.copyto(vals, 0, where=empty)
    return cols, vals


def _product(left: tuple, right: tuple) -> tuple[np.ndarray, np.ndarray]:
    """(L R)[r] = L[r, c] R[c, R.cols[c]] with c = L.cols[r]."""
    (lcols, lvals), (rcols, rvals) = left, right
    # an empty row of L reads the last row of R through index -1 and is marked empty again
    cols = rcols[lcols]
    np.copyto(cols, -1, where=lcols < 0)
    return _drop_zeros(cols, lvals * rvals[lcols])


def _scaled(mono: tuple, scalar: complex) -> tuple[np.ndarray, np.ndarray]:
    cols, vals = mono
    return _drop_zeros(cols.copy(), vals * complex(scalar))


def _merge(left: tuple, right: tuple, op: np.ufunc) -> tuple[np.ndarray, np.ndarray]:
    """Entrywise ``op`` (add or subtract); ValueError unless the column maps merge injectively."""
    (lcols, lvals), (rcols, rvals) = left, right
    if np.any((lcols >= 0) & (rcols >= 0) & (lcols != rcols)):
        raise ValueError("sum is not monomial: a row holds two nonzeros")
    cols, vals = _drop_zeros(np.where(lcols >= 0, lcols, rcols), op(lvals, rvals))
    _require_injective(cols)
    return cols, vals


def _require_injective(cols: np.ndarray) -> None:
    if np.bincount(cols[cols >= 0], minlength=1).max() > 1:
        raise ValueError("monomial rows share a column")


@dataclass(frozen=True, eq=False)
class LinearOperator:
    """Complex monomial operator attached to a basis.

    ``monomial`` must be a :class:`Monomial`; anything else raises
    ``ValueError``.  ``matrix`` is a dense read-only view for tests and
    diagnostics.  Arithmetic is closed over one basis; combining
    operators on different bases raises :class:`BasisMismatchError`, and a sum
    that would hold two nonzeros in a row or column raises ``ValueError``.
    Stored arrays are frozen after construction, so operators can be shared
    freely.  Equality is identity.
    """

    basis: FockBasis
    monomial: Monomial = field(repr=False)

    def __post_init__(self) -> None:
        data = self.monomial
        if type(data) is _Canonical:
            data.cols.flags.writeable = False
            data.vals.flags.writeable = False
            # stored as a plain Monomial, so passing it to the constructor again validates it
            object.__setattr__(self, "monomial", Monomial(data.cols, data.vals))
            return
        if not isinstance(data, Monomial):
            raise ValueError(f"an operator is given as a Monomial, not {type(data).__name__}")
        dim = self.basis.dim
        cols = np.array(data.cols, dtype=np.intp)
        vals = np.array(data.vals, dtype=complex)
        if cols.shape != (dim,) or vals.shape != (dim,):
            raise ValueError(
                f"monomial arrays of shapes {cols.shape}, {vals.shape} do not match "
                f"basis dimension {dim}"
            )
        if cols.min() < -1 or cols.max() >= dim:
            raise ValueError(f"monomial column index outside -1..{dim - 1}")
        # canonical form: exact zeros dropped, empty rows hold (-1, 0)
        cols, vals = _drop_zeros(cols, vals)
        _require_injective(cols)
        cols.flags.writeable = False
        vals.flags.writeable = False
        object.__setattr__(self, "monomial", Monomial(cols, vals))

    @property
    def matrix(self) -> np.ndarray:
        """Read-only dense matrix, assembled on each access."""
        mono = self.monomial
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

    @property
    def _pair(self) -> tuple[np.ndarray, np.ndarray]:
        return self.monomial.cols, self.monomial.vals

    def adjoint(self) -> "LinearOperator":
        mono = self.monomial
        dim = self.basis.dim
        # an empty row scatters through index -1 into one extra slot, which is cut off
        cols = np.full(dim + 1, -1, dtype=np.intp)
        vals = np.zeros(dim + 1, dtype=complex)
        cols[mono.cols] = np.arange(dim)
        vals[mono.cols] = mono.vals.conj()
        return _closed(self.basis, cols[:dim], vals[:dim])

    def __matmul__(self, other: "LinearOperator") -> "LinearOperator":
        self._check_same_basis(other)
        return _closed(self.basis, *_product(self._pair, other._pair))

    def _combine(self, other: "LinearOperator", op: np.ufunc) -> "LinearOperator":
        self._check_same_basis(other)
        return _closed(self.basis, *_merge(self._pair, other._pair, op))

    def __add__(self, other: "LinearOperator") -> "LinearOperator":
        return self._combine(other, np.add)

    def __sub__(self, other: "LinearOperator") -> "LinearOperator":
        return self._combine(other, np.subtract)

    def __neg__(self) -> "LinearOperator":
        mono = self.monomial
        # empty rows keep +0, not -0
        vals = np.negative(mono.vals, out=np.zeros(self.basis.dim, dtype=complex), where=mono.cols >= 0)
        return _closed(self.basis, mono.cols, vals)

    def __mul__(self, scalar: complex) -> "LinearOperator":
        return _closed(self.basis, *_scaled(self._pair, scalar))

    __rmul__ = __mul__


def identity(basis: FockBasis) -> LinearOperator:
    return _closed(basis, np.arange(basis.dim, dtype=np.intp), np.ones(basis.dim, dtype=complex))


def zero(basis: FockBasis) -> LinearOperator:
    return _closed(basis, np.full(basis.dim, -1, dtype=np.intp), np.zeros(basis.dim, dtype=complex))


@dataclass(frozen=True, eq=False)
class PolarPair:
    """Factors of a left polar decomposition A = positive_part @ isometric_part."""

    isometric_part: LinearOperator
    positive_part: LinearOperator


def _require_finite(values: np.ndarray) -> None:
    if not np.all(np.isfinite(values)):
        raise ValueError("operator has non-finite entries")


def operator_norm(a: LinearOperator) -> float:
    """Largest singular value: the largest entry modulus of a monomial operator."""
    vals = a.monomial.vals
    _require_finite(vals)
    return float(np.max(np.abs(vals)))


def spectral_norm(matrix: np.ndarray) -> float:
    """Largest singular value of a dense block, via the Hermitian Gram form."""
    if matrix.size == 0:
        return 0.0
    gram = matrix.conj().T @ matrix
    top = float(np.linalg.eigvalsh(gram)[-1])
    return float(np.sqrt(max(top, 0.0)))


def _entries_norm(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray) -> float:
    """Spectral norm of the matrix holding ``vals`` at distinct positions ``(rows, cols)``.

    The largest modulus if no row or column holds two nonzeros, else the largest dense norm
    of the blocks sharing no row or column, found by spreading the smallest entry number
    along shared rows and columns until nothing changes; memory follows the largest block.
    """
    nonzero = vals != 0
    rows, cols, vals = rows[nonzero], cols[nonzero], vals[nonzero]
    if np.bincount(rows, minlength=1).max() <= 1 and np.bincount(cols, minlength=1).max() <= 1:
        return float(np.max(np.abs(vals), initial=0.0))
    lines = [np.unique(line, return_inverse=True)[1] for line in (rows, cols)]
    label, spread = None, np.arange(len(vals))
    while not np.array_equal(label, spread):
        label = spread
        for line in lines:
            low = np.full(line.max() + 1, len(vals))
            np.minimum.at(low, line, spread)
            spread = low[line]
    order = np.argsort(label, kind="stable")
    best = 0.0
    for block in np.split(order, np.flatnonzero(np.diff(label[order])) + 1):
        r, c = (np.unique(line[block], return_inverse=True)[1] for line in lines)
        dense = np.zeros((r.max() + 1, c.max() + 1), dtype=complex)
        dense[r, c] = vals[block]
        best = max(best, spectral_norm(dense))
    return best


def psd_sqrt(a: LinearOperator) -> LinearOperator:
    """PSD square root of a Hermitian monomial operator.

    Entries that differ from the conjugate of their mirror entry by more than
    1e-10 raise :class:`NotPositiveError`.  A Hermitian monomial operator with
    an off-diagonal entry z holds the 2x2 block ((0, z), (conj z, 0)), whose
    eigenvalue -|z| is negative, so it raises too.  A diagonal operator is its
    own eigendecomposition: eigenvalues below ``-PSD_TOL`` raise, and those
    below ``CLAMP_TOL`` are clamped to zero before the root.
    """
    mono = a.monomial
    rows = np.arange(a.basis.dim)
    live = np.flatnonzero(mono.cols >= 0)
    mirror_col = mono.cols[live]
    # the entry (c, r) mirroring (r, c), or 0 when row c holds another column
    mirror = np.where(mono.cols[mirror_col] == live, mono.vals[mirror_col].conj(), 0)
    asym = float(np.max(np.abs(mono.vals[live] - mirror), initial=0.0))
    if asym > 1e-10:
        raise NotPositiveError(f"matrix is not Hermitian (max asymmetry {asym:.3e})")
    off = mirror_col != live
    if off.any():
        low = -float(np.max(np.abs(mono.vals[live][off])))
        raise NotPositiveError(f"matrix has negative eigenvalue {low:.6e} (an off-diagonal pair)")
    eigvals = mono.vals.real
    low = float(eigvals.min())
    if low < -PSD_TOL:
        raise NotPositiveError(f"matrix has negative eigenvalue {low:.6e}")
    root = np.sqrt(np.where(eigvals < CLAMP_TOL, 0.0, eigvals))
    return LinearOperator(a.basis, Monomial(rows, root))


def polar_left(a: LinearOperator, rank_tol: float = 1e-8) -> PolarPair:
    """Left polar decomposition A = C @ S with C PSD and S a partial isometry.

    The singular values of a monomial A are its entry moduli |v|, so
    C = diag(|v|) row by row, and S keeps the phase v/|v| of every entry with
    |v| > ``rank_tol`` * max|v|.  The initial space of S is then the closure
    of range(A*) and its final space is range(A).  The zero operator
    decomposes as (0, 0).
    """
    if not (math.isfinite(rank_tol) and rank_tol > 0):
        raise ValueError(f"rank_tol must be finite and > 0, got {rank_tol}")
    mono = a.monomial
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


def core_residual(lhs: LinearOperator, rhs: LinearOperator, degree: int) -> float:
    """Norm of (LHS - RHS) restricted to vectors at least ``degree`` below the cap.

    ``degree`` is the longest generator word appearing in the relation; a word
    of that length cannot push a vector with all occupations <= cap - degree
    past the cap, so a true relation gives exactly zero up to float rounding.
    The sides' core entries are merged row by row and measured blockwise by ``_entries_norm``.
    """
    lhs._check_same_basis(rhs)
    basis = lhs.basis
    if isinstance(degree, bool) or not isinstance(degree, numbers.Integral) or degree < 0:
        raise ValueError(f"degree must be an int >= 0, got {degree!r}")
    if degree > basis.cap:
        raise TruncationError(
            f"relation degree {degree} exceeds cap {basis.cap}; increase the truncation"
        )
    (lcols, lvals), (rcols, rvals) = lhs._pair, rhs._pair
    # column -1 reads the appended False; a row with one column on both sides holds their difference
    core = np.append(basis.core_mask(basis.cap - degree), False)
    lkeep, rkeep = core[lcols], core[rcols] & (rcols != lcols)
    lvals = np.where(lcols == rcols, lvals - rvals, lvals)
    rows = np.r_[np.flatnonzero(lkeep), np.flatnonzero(rkeep)]
    return _entries_norm(rows, np.r_[lcols[lkeep], rcols[rkeep]], np.r_[lvals[lkeep], -rvals[rkeep]])
