"""Concrete operator families on truncated bases.

Three builders live here:

* ``build_irrep`` -- the catalog of partial-isometry families, one class per
  integer ``j`` in ``0..d``.  For ``i <= j`` the i-th generator is a shift on
  slot ``i`` cut down by vacuum projections on the earlier slots; generator
  ``j+1`` is a phase times the joint vacuum projection; later generators are
  zero.  Class ``j = d`` is the vacuum-cyclic (Fock) family.
* ``build_fock_tccr`` -- the deformed generators ``a_i`` in closed form as
  weighted lattice raises.  The weights are an implementation choice, not an
  input: they are validated elsewhere against the series reconstruction and
  the exact rewriting engine.
* ``build_qccr_single`` -- the one-mode deformed generator with
  ``a* a = 1 + q a a*``.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .fock import FockBasis, LinearOperator, Monomial, enumerate_basis, zero

__all__ = [
    "IrrepSpec",
    "GeneratorFamily",
    "TccrFamily",
    "build_irrep",
    "build_fock_tccr",
    "build_qccr_single",
    "geometric_sum",
]

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class IrrepSpec:
    """Parameters selecting one family from the catalog.

    ``class_j = d`` is the vacuum-cyclic class; ``class_j = 0`` is the scalar
    class, realized as ``exp(i*phase)`` times the identity on a single slot.
    """

    d: int
    class_j: int
    cap: int
    phase: float = 0.0

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError(f"d must be >= 1, got {self.d}")
        if not 0 <= self.class_j <= self.d:
            raise ValueError(f"class_j must lie in 0..{self.d}, got {self.class_j}")
        if self.cap < 1:
            raise ValueError(f"cap must be >= 1, got {self.cap}")
        phase = float(self.phase) % TWO_PI
        # a tiny negative phase rounds up to the modulus itself, which is the phase 0
        object.__setattr__(self, "phase", 0.0 if phase == TWO_PI else phase)

    @property
    def slots(self) -> int:
        return max(self.class_j, 1)


class _LetterTables:
    """Letter tables of a family of generators ``ops``, built on first use."""

    @functools.cached_property
    def letter_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """Column forms of a_1, a_1*, .., a_d, a_d*, as (2d, dim+1) arrays.

        Column c of letter k holds ``vals[k, c]`` in row ``rows[k, c]``, and the last column is
        a dead entry (-1, 0); a letter's column form is its adjoint's row form, conjugated.
        """
        dim = self.basis.dim
        rows = np.full((2 * len(self.ops), dim + 1), -1, dtype=np.intp)
        vals = np.zeros(rows.shape, dtype=complex)
        for k, op in enumerate(self.ops):
            for code, mono in ((2 * k, op.adjoint().monomial), (2 * k + 1, op.monomial)):
                rows[code, :dim], vals[code, :dim] = mono.cols, mono.vals.conj()
        return rows, vals


@dataclass(frozen=True, eq=False)
class GeneratorFamily(_LetterTables):
    """d partial isometries t_1..t_d on a shared basis."""

    basis: FockBasis
    ops: tuple[LinearOperator, ...]
    spec: IrrepSpec | None = None
    word_cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def d(self) -> int:
        return len(self.ops)


@dataclass(frozen=True, eq=False)
class TccrFamily(_LetterTables):
    """d deformed generators a_1..a_d with deformation parameter mu."""

    basis: FockBasis
    ops: tuple[LinearOperator, ...]
    mu: float
    word_cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def d(self) -> int:
        return len(self.ops)


def build_irrep(spec: IrrepSpec) -> GeneratorFamily:
    """Build one family from the catalog on ``max(class_j, 1)`` slots."""
    basis = enumerate_basis(spec.slots, spec.cap)
    occ = basis.occupations()
    rows = np.arange(basis.dim)
    j = spec.class_j

    ops: list[LinearOperator] = []
    for i in range(1, spec.d + 1):
        if i <= j:
            # row q receives the raise of slot i from q - stride when the earlier slots are empty
            hit = (occ[:, i - 1] >= 1) & ~occ[:, : i - 1].any(axis=1)
            cols = np.where(hit, rows - basis.stride(i - 1), -1)
            ops.append(LinearOperator(basis, Monomial(cols, hit.astype(complex))))
        elif i == j + 1:
            phase = cmath.exp(1j * spec.phase)
            # j = 0: phase times the identity; otherwise phase times the joint vacuum projection
            cols = rows if j == 0 else np.where(rows == 0, 0, -1)
            ops.append(LinearOperator(basis, Monomial(cols, np.full(basis.dim, phase))))
        else:
            ops.append(zero(basis))
    return GeneratorFamily(basis=basis, ops=tuple(ops), spec=spec)


def geometric_sum(x: float, terms: int) -> float:
    """sum of x^k for k = 0..terms-1, summed directly (stable at x = 0)."""
    total = 0.0
    power = 1.0
    for _ in range(terms):
        total += power
        power *= x
    return total


def build_fock_tccr(d: int, mu: float, cap: int) -> TccrFamily:
    """Vacuum-cyclic deformed generators as weighted lattice raises.

    a_i sends the state (n_1, .., n_d) to mu^(n_1+..+n_{i-1}) * w(n_i) times
    the state with n_i raised, where w(n)^2 = 1 + mu^2 + .. + mu^(2n); the
    raise dies at the cap.  The adjoints kill the vacuum, and the deformed
    relations hold exactly below the cap.
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if not abs(mu) < 1:
        raise ValueError(f"|mu| must be < 1, got {mu}")
    basis = enumerate_basis(d, cap)
    weights = np.array([math.sqrt(geometric_sum(mu * mu, n + 1)) for n in range(cap)])
    mu_powers = np.array([float(mu) ** n for n in range(cap + 1)])
    occ = basis.occupations()
    rows = np.arange(basis.dim)

    ops = []
    prefix = np.ones(basis.dim)  # mu to the quanta in the slots before slot i, slot by slot
    for i in range(d):
        # row q is the raise of q - stride, whose slot i holds one quantum less
        hit = occ[:, i] >= 1
        cols = np.where(hit, rows - basis.stride(i), -1)
        vals = np.where(hit, prefix * weights[np.maximum(occ[:, i] - 1, 0)], 0.0)
        ops.append(LinearOperator(basis, Monomial(cols, vals)))
        prefix = prefix * mu_powers[occ[:, i]]
    return TccrFamily(basis=basis, ops=tuple(ops), mu=float(mu))


def build_qccr_single(q: float, cap: int) -> LinearOperator:
    """One-mode generator with a* a = 1 + q a a* below the cap, |q| < 1."""
    if not abs(q) < 1:
        raise ValueError(f"|q| must be < 1, got {q}")
    basis = enumerate_basis(1, cap)
    vals = [0.0] + [math.sqrt(geometric_sum(q, n + 1)) for n in range(cap)]
    return LinearOperator(basis, Monomial(np.arange(-1, cap), np.array(vals)))
