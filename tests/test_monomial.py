"""Differential tests: every monomial fast path against dense numpy on ``.matrix``.

The references below are the dense formulas (``@`` on arrays, SVD polar
factors, ``eigh`` square roots, 2-norms of core blocks), evaluated on the
dense matrices of the same operators.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tccr.families import IrrepSpec, build_fock_tccr, build_irrep
from tccr.fock import (
    LinearOperator,
    Monomial,
    NotPositiveError,
    core_residual,
    enumerate_basis,
    identity,
    operator_norm,
    polar_left,
    psd_sqrt,
    zero,
)
from tccr.reconstruct import generators_from_isometries, positive_part_squared

SIZES = ((1, 6), (2, 4), (3, 3))
PHASES = (0.0, math.pi / 3, math.pi)
MU = 0.5


def ref_polar(mat, rank_tol=1e-8):
    """SVD polar factors and the spread s_max / s_min of the kept singular values.

    The SVD's singular vectors, and so its isometric factor, carry an error of
    about eps times that spread.
    """
    u, s, vh = np.linalg.svd(mat)
    if s[0] == 0:
        return np.zeros_like(mat), np.zeros_like(mat), 1.0
    keep = s > rank_tol * s[0]
    return u[:, keep] @ vh[keep], (u * s) @ u.conj().T, s[0] / s[keep][-1]


def ref_psd_sqrt(mat, clamp_tol=1e-12):
    w, v = np.linalg.eigh((mat + mat.conj().T) / 2.0)
    root = (v * np.sqrt(np.where(w < clamp_tol, 0.0, w))) @ v.conj().T
    return (root + root.conj().T) / 2.0


def ref_core_residual(lhs, rhs, basis, degree):
    mask = np.array([all(n <= basis.cap - degree for n in s) for s in basis.states()])
    return float(np.linalg.norm((lhs - rhs)[:, mask], 2))


def gap(x, y):
    return float(np.max(np.abs(x - y)))


def is_monomial_matrix(mat):
    nz = mat != 0
    return nz.sum(axis=0).max() <= 1 and nz.sum(axis=1).max() <= 1


def pool(d, cap, class_j, phase):
    """Generators, adjoints, range projections and the whole stage trace of one family."""
    fam = build_irrep(IrrepSpec(d=d, class_j=class_j, cap=cap, phase=phase))
    ops = list(fam.ops) + [t.adjoint() for t in fam.ops] + [t @ t.adjoint() for t in fam.ops]
    rebuilt, trace = generators_from_isometries(fam, MU)
    ops += list(rebuilt.ops) + list(trace.stages.values())
    ops += list(trace.positive_parts) + list(trace.defects)
    return fam.basis, ops


def all_pools():
    for d, cap in SIZES:
        for class_j in range(d + 1):
            for phase in PHASES if class_j < d else (0.0,):
                yield pytest.param(d, cap, class_j, phase, id=f"d{d}-cap{cap}-j{class_j}-phi{phase:.2f}")


def random_monomial(basis, rng, tiny=False):
    dim = basis.dim
    cols = rng.permutation(dim)
    cols[rng.random(dim) < 0.3] = -1
    vals = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    if tiny:
        vals[rng.random(dim) < 0.2] *= 1e-12
    return LinearOperator(basis, Monomial(cols, vals))


class TestStorageForm:
    @pytest.mark.parametrize("d,cap,class_j,phase", all_pools())
    def test_stage_calculus_stays_monomial(self, d, cap, class_j, phase):
        _, ops = pool(d, cap, class_j, phase)
        for op in ops:
            assert is_monomial_matrix(op.matrix)
            again = LinearOperator(op.basis, op.matrix)
            assert np.array_equal(again.monomial.cols, op.monomial.cols)
            assert np.array_equal(again.matrix, op.matrix)

    def test_dense_input_with_two_nonzeros_in_a_line_is_rejected(self):
        basis = enumerate_basis(1, 2)
        row = np.zeros((3, 3), dtype=complex)
        row[0, 0] = row[0, 2] = 1.0
        for mat in (row, row.T):
            with pytest.raises(ValueError, match="not monomial"):
                LinearOperator(basis, mat)

    def test_random_dense_matrix_is_rejected(self):
        rng = np.random.default_rng(1)
        basis = enumerate_basis(2, 4)
        with pytest.raises(ValueError, match="not monomial"):
            LinearOperator(basis, rng.standard_normal((25, 25)) + 1j * rng.standard_normal((25, 25)))

    def test_exact_zeros_are_dropped(self):
        basis = enumerate_basis(2, 3)
        one = identity(basis)
        for empty in (0.0 * one, one - one, zero(basis), -zero(basis)):
            assert np.all(empty.monomial.cols == -1)
            assert np.all(empty.monomial.vals == 0)
            assert np.all(empty.matrix == 0)

    def test_invalid_monomials_rejected(self):
        basis = enumerate_basis(1, 2)
        ones = np.ones(3)
        with pytest.raises(ValueError, match="share a column"):
            LinearOperator(basis, Monomial(np.array([0, 0, 1]), ones))
        with pytest.raises(ValueError, match="outside"):
            LinearOperator(basis, Monomial(np.array([0, 1, 3]), ones))
        with pytest.raises(ValueError, match="do not match"):
            LinearOperator(basis, Monomial(np.array([0, 1]), ones[:2]))

    def test_matrix_is_read_only(self):
        op = build_irrep(IrrepSpec(d=2, class_j=2, cap=3)).ops[0]
        with pytest.raises(ValueError):
            op.matrix[0, 0] = 1.0


class TestArithmetic:
    @pytest.mark.parametrize("d,cap,class_j,phase", all_pools())
    def test_products_adjoints_and_scalars(self, d, cap, class_j, phase):
        _, ops = pool(d, cap, class_j, phase)
        for x in ops:
            assert np.array_equal(x.adjoint().matrix, x.matrix.conj().T)
            assert np.array_equal((-x).matrix, -x.matrix)
            assert np.array_equal(((0.5 - 2j) * x).matrix, x.matrix * (0.5 - 2j))
        for x, y in itertools.product(ops[:12], ops):
            assert gap((x @ y).matrix, x.matrix @ y.matrix) <= 1e-14

    def test_sums_with_compatible_column_maps_stay_monomial(self):
        fam = build_irrep(IrrepSpec(d=2, class_j=2, cap=5))
        t1, t2 = fam.ops
        cases = [
            (t1 @ t1.adjoint(), t2 @ t2.adjoint()),  # two diagonals
            (t1, 2.0 * t1),  # one column map
            (t1, t1.power(5).adjoint()),  # disjoint rows and columns: a cyclic shift
            (identity(fam.basis), -(t1 @ t1.adjoint())),  # cancellation leaves a projection
        ]
        for x, y in cases:
            for got, want in ((x + y, x.matrix + y.matrix), (x - y, x.matrix - y.matrix)):
                assert np.array_equal(got.matrix, want)

    def test_sums_with_clashing_column_maps_are_rejected(self):
        fam = build_irrep(IrrepSpec(d=2, class_j=2, cap=5))
        t1, t2 = fam.ops
        cases = [
            (t1, t1.adjoint(), "a row holds two nonzeros"),
            (t1, t2, "share a column"),  # two rows land in one column
        ]
        for x, y, message in cases:
            for combine in (x.__add__, x.__sub__):
                with pytest.raises(ValueError, match=message):
                    combine(y)


def validated(basis, cols, vals):
    """The public constructor's canonical form of raw arrays."""
    return LinearOperator(basis, Monomial(cols, vals))


def raw_adjoint(x):
    mono, dim = x.monomial, x.basis.dim
    rows = np.flatnonzero(mono.cols >= 0)
    cols, vals = np.full(dim, -1), np.zeros(dim, dtype=complex)
    cols[mono.cols[rows]], vals[mono.cols[rows]] = rows, mono.vals[rows].conj()
    return cols, vals


def raw_product(x, y):
    left, right = x.monomial, y.monomial
    live = left.cols >= 0
    mid = np.where(live, left.cols, 0)
    cols = np.where(live, right.cols[mid], -1)
    vals = np.where(live, left.vals * right.vals[mid], 0)
    return cols, vals


def assert_same_operator(got, want):
    """Equal column maps and bit-identical values (NaN and the sign of 0 included), all read-only."""
    assert type(got.monomial) is Monomial
    assert np.array_equal(got.monomial.cols, want.monomial.cols)
    assert np.array_equal(got.monomial.vals, want.monomial.vals, equal_nan=True)
    assert np.array_equal(got.monomial.vals.view(np.uint64), want.monomial.vals.view(np.uint64))
    assert got.monomial.cols.dtype == want.monomial.cols.dtype
    for array in (got.monomial.cols, got.monomial.vals):
        assert not array.flags.writeable


SCALARS = (0.5 - 2j, 0.0, -0.0, math.inf, -math.inf, complex(0, math.inf), math.nan)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
class TestCanonicalByConstruction:
    """Closed operations skip validation; their results must equal the validated raw arrays."""

    def check_unary(self, x, scalars=SCALARS):
        basis = x.basis
        assert_same_operator(x.adjoint(), validated(basis, *raw_adjoint(x)))
        assert_same_operator(-x, validated(basis, x.monomial.cols, -x.monomial.vals))
        for s in scalars:
            want = validated(basis, x.monomial.cols, x.monomial.vals * complex(s))
            assert_same_operator(x * s, want)
            assert_same_operator(s * x, want)

    @pytest.mark.parametrize("d,cap,class_j,phase", all_pools())
    def test_stage_pool(self, d, cap, class_j, phase):
        basis, ops = pool(d, cap, class_j, phase)
        ops = ops + [identity(basis), zero(basis)]
        for x in ops:
            self.check_unary(x)
        for x, y in itertools.product(ops, repeat=2):
            assert_same_operator(x @ y, validated(basis, *raw_product(x, y)))

    @pytest.mark.parametrize("slots,cap", [(1, 6), (2, 4), (3, 3)])
    def test_identity_and_zero(self, slots, cap):
        basis = enumerate_basis(slots, cap)
        dim = basis.dim
        assert_same_operator(identity(basis), validated(basis, np.arange(dim), np.ones(dim)))
        assert_same_operator(zero(basis), validated(basis, np.full(dim, -1), np.zeros(dim)))

    def test_empty_operator(self):
        basis = enumerate_basis(2, 3)
        empty = zero(basis)
        self.check_unary(empty)
        for other in (empty, identity(basis), random_monomial(basis, np.random.default_rng(0))):
            for x, y in ((empty, other), (other, empty)):
                product = x @ y
                assert_same_operator(product, validated(basis, *raw_product(x, y)))
                assert np.all(product.monomial.cols == -1)

    def test_subnormal_products_underflow_to_dropped_rows(self):
        basis = enumerate_basis(1, 3)
        tiny = LinearOperator(basis, Monomial(np.array([1, 2, 3, -1]), np.array([5e-320, 3e-200, 1e-160j, 0])))
        for x, y in itertools.product((tiny, tiny.adjoint()), repeat=2):
            product = x @ y
            assert_same_operator(product, validated(basis, *raw_product(x, y)))
        square = tiny @ tiny
        assert list(square.monomial.cols) == [-1, -1, -1, -1]
        self.check_unary(tiny, scalars=(1e-200, 5e-324, 0.0))
        assert np.all((tiny * 1e-200).monomial.cols[:2] == -1)

    @pytest.mark.parametrize("scalar", [math.inf, -math.inf, math.nan, complex(math.nan, 1.0)])
    def test_non_finite_scalars_leave_empty_rows_empty(self, scalar):
        rng = np.random.default_rng(3)
        basis = enumerate_basis(2, 3)
        for x in (random_monomial(basis, rng), random_monomial(basis, rng, tiny=True), zero(basis)):
            scaled = x * scalar
            assert_same_operator(scaled, validated(basis, x.monomial.cols, x.monomial.vals * complex(scalar)))
            # inf * 0 = NaN in an empty row must not revive it
            assert np.array_equal(scaled.monomial.cols, x.monomial.cols)
            blown = scaled @ x.adjoint()
            assert_same_operator(blown, validated(basis, *raw_product(scaled, x.adjoint())))

    def test_a_stored_monomial_is_validated_again_on_another_basis(self):
        op = identity(enumerate_basis(1, 3))
        with pytest.raises(ValueError, match="do not match"):
            LinearOperator(enumerate_basis(1, 4), op.monomial)


class TestDecompositions:
    @pytest.mark.parametrize("d,cap,class_j,phase", all_pools())
    def test_polar_left_matches_svd(self, d, cap, class_j, phase):
        basis, ops = pool(d, cap, class_j, phase)
        rng = np.random.default_rng(d * 100 + cap * 10 + class_j)
        ops = ops + [random_monomial(basis, rng, tiny=True) for _ in range(3)]
        for op in ops:
            pair = polar_left(op)
            iso, pos, spread = ref_polar(op.matrix)
            scale = max(operator_norm(op), 1.0)
            assert gap(pair.isometric_part.matrix, iso) <= 1e-13 * spread
            assert gap(pair.positive_part.matrix, pos) <= 1e-12 * scale

    def test_polar_left_of_subnormal_entries_has_unit_phases(self):
        basis = enumerate_basis(1, 2)
        op = LinearOperator(basis, Monomial(np.array([1, 2, -1]), np.array([3e-310 + 4e-310j, 5e-310, 0])))
        phases = polar_left(op).isometric_part.monomial.vals
        assert np.allclose(phases[:2], [0.6 + 0.8j, 1.0], atol=1e-9)

    @pytest.mark.parametrize("d,cap,class_j,phase", all_pools())
    def test_psd_sqrt_of_diagonal_matches_eigh(self, d, cap, class_j, phase):
        fam = build_irrep(IrrepSpec(d=d, class_j=class_j, cap=cap, phase=phase))
        for t in fam.ops:
            for square in (positive_part_squared(t, MU), t @ t.adjoint()):
                root = psd_sqrt(square)
                assert gap(root.matrix, ref_psd_sqrt(square.matrix)) <= 1e-12

    def test_psd_sqrt_diagonal_errors_and_clamp(self):
        basis = enumerate_basis(1, 2)
        with pytest.raises(NotPositiveError, match="negative eigenvalue -1"):
            psd_sqrt(LinearOperator(basis, np.diag([1.0, -1.0, 0.0])))
        with pytest.raises(NotPositiveError, match="Hermitian"):
            psd_sqrt(LinearOperator(basis, np.diag([1.0, 1j, 0.0])))
        wobble = np.diag([4.0, -5e-11, 1e-13])
        root = psd_sqrt(LinearOperator(basis, wobble))
        assert np.array_equal(root.matrix, np.diag([2.0, 0.0, 0.0]).astype(complex))
        assert gap(root.matrix, ref_psd_sqrt(wobble.astype(complex))) <= 1e-15

    def test_psd_sqrt_of_non_diagonal_monomials_raises(self):
        basis = enumerate_basis(1, 2)
        cycle = LinearOperator(basis, Monomial(np.array([1, 2, 0]), np.ones(3)))
        with pytest.raises(NotPositiveError, match="Hermitian"):
            psd_sqrt(cycle)
        # a Hermitian swap holds the block ((0, z), (conj z, 0)) with eigenvalue -|z|
        z = 0.6 - 0.8j
        swap = LinearOperator(basis, Monomial(np.array([1, 0, 2]), np.array([z, z.conjugate(), 2.0])))
        assert np.linalg.eigvalsh(swap.matrix)[0] == pytest.approx(-1.0, abs=1e-15)
        with pytest.raises(NotPositiveError, match="negative eigenvalue -1.0"):
            psd_sqrt(swap)

    @pytest.mark.parametrize("d,cap,class_j,phase", all_pools())
    def test_norms_and_core_residuals_match_dense(self, d, cap, class_j, phase):
        basis, ops = pool(d, cap, class_j, phase)
        for op in ops:
            assert operator_norm(op) == pytest.approx(np.linalg.norm(op.matrix, 2), abs=1e-13)
        # relation-shaped pairs: t* t against the defect, and products against their reverses
        fam = build_irrep(IrrepSpec(d=d, class_j=class_j, cap=cap, phase=phase))
        pairs = [(t.adjoint() @ t, p) for t, p in zip(fam.ops, ops[-len(fam.ops) - 1:])]
        pairs += [(x @ y, y @ x) for x, y in itertools.product(fam.ops, repeat=2)]
        pairs += [(x, x) for x in ops[:6]]
        for lhs, rhs in pairs:
            for degree in (0, 1, 2):
                got = core_residual(lhs, rhs, degree)
                want = ref_core_residual(lhs.matrix, rhs.matrix, basis, degree)
                assert got == pytest.approx(want, abs=1e-13)

    def test_core_residual_of_equal_operators_is_exactly_zero(self):
        fam = build_fock_tccr(3, MU, 4)
        for a in fam.ops:
            assert core_residual(a @ a.adjoint(), a @ a.adjoint(), 2) == 0.0

    def test_core_residual_with_clashing_difference_uses_the_dense_block(self):
        fam = build_irrep(IrrepSpec(d=2, class_j=2, cap=5))
        t1 = fam.ops[0]
        got = core_residual(t1, t1.adjoint(), 1)
        with pytest.raises(ValueError, match="not monomial"):
            t1 - t1.adjoint()
        assert got == pytest.approx(ref_core_residual(t1.matrix, t1.adjoint().matrix, fam.basis, 1), abs=1e-13)


letters = st.tuples(st.integers(0, 2), st.booleans())


@given(
    d=st.integers(1, 3),
    cap=st.integers(2, 4),
    mu=st.floats(-0.95, 0.95),
    class_seed=st.integers(0, 3),
    phase=st.sampled_from(PHASES),
    word=st.lists(letters, min_size=1, max_size=5),
)
@settings(max_examples=60, deadline=None)
def test_random_words_match_the_dense_path(d, cap, mu, class_seed, phase, word):
    class_j = class_seed % (d + 1)
    irrep = build_irrep(IrrepSpec(d=d, class_j=class_j, cap=cap, phase=phase))
    deformed = build_fock_tccr(d, mu, cap)
    for fam in (irrep, deformed):
        op, ref = identity(fam.basis), np.eye(fam.basis.dim, dtype=complex)
        for index, starred in word:
            letter = fam.ops[index % d]
            if starred:
                letter = letter.adjoint()
            op, ref = op @ letter, ref @ letter.matrix
        assert gap(op.matrix, ref) <= 1e-13
        assert operator_norm(op) == pytest.approx(np.linalg.norm(ref, 2), abs=1e-12)
        # a singular value within rounding of the rank cut may land on either side of it
        sv = np.linalg.svd(ref, compute_uv=False)
        assume(np.all(np.abs(sv - 1e-8 * sv[0]) > 1e-14 * sv[0]))
        iso, pos, spread = ref_polar(ref)
        pair = polar_left(op)
        assert gap(pair.isometric_part.matrix, iso) <= 1e-13 * spread
        assert gap(pair.positive_part.matrix, pos) <= 1e-10
        square = op @ op.adjoint()
        assert gap(psd_sqrt(square).matrix, ref_psd_sqrt(square.matrix)) <= 1e-10
        assert core_residual(op, zero(fam.basis), 1) == pytest.approx(
            ref_core_residual(ref, np.zeros_like(ref), fam.basis, 1), abs=1e-12
        )
