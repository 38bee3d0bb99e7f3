import numpy as np
import pytest

from tccr.families import IrrepSpec, build_fock_tccr, build_irrep, geometric_sum
from tccr.fock import (
    BasisMismatchError,
    CapacityError,
    LinearOperator,
    NotPositiveError,
    TruncationError,
    core_residual,
    enumerate_basis,
    identity,
    operator_norm,
    polar_left,
    psd_sqrt,
    zero,
)
from test_monomial import random_monomial


class TestEnumerateBasis:
    def test_two_slots_cap_one(self):
        basis = enumerate_basis(2, 1)
        assert list(basis.states()) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_one_slot_cap_three(self):
        basis = enumerate_basis(1, 3)
        assert list(basis.states()) == [(0,), (1,), (2,), (3,)]

    def test_size_and_vacuum(self):
        basis = enumerate_basis(3, 9)
        states = list(basis.states())
        assert basis.dim == 1000
        assert len(states) == 1000
        assert len(set(states)) == 1000
        assert states[0] == (0, 0, 0)

    def test_index_roundtrip(self):
        basis = enumerate_basis(3, 2)
        for k in range(basis.dim):
            assert basis.index_of(basis.state_at(k)) == k

    @pytest.mark.parametrize("slots,cap", [(1, 1), (1, 6), (2, 3), (3, 4), (4, 2)])
    def test_occupations_and_core_mask_match_the_state_list(self, slots, cap):
        basis = enumerate_basis(slots, cap)
        states = np.array(list(basis.states()), dtype=int).reshape(basis.dim, slots)
        assert np.array_equal(basis.occupations(), states)
        for level in range(cap + 1):
            assert np.array_equal(basis.core_mask(level), (states <= level).all(axis=1))

    @pytest.mark.parametrize("slots,cap", [(1, 1), (1, 6), (2, 3), (3, 4), (4, 2)])
    def test_core_masks_are_kept_per_basis_and_read_only(self, slots, cap):
        basis = enumerate_basis(slots, cap)
        fresh = enumerate_basis(slots, cap)
        for level in range(cap + 3):
            mask = basis.core_mask(level)
            assert np.array_equal(mask, (basis.occupations() <= level).all(axis=1))
            assert basis.core_mask(level) is mask
            with pytest.raises(ValueError):
                mask[0] = False
        assert basis.core_mask(cap + 2) is basis.core_mask(cap)
        # the memo is invisible to equality, hashing and repr
        assert basis == fresh and hash(basis) == hash(fresh)
        assert repr(basis) == repr(fresh) == f"FockBasis(slots={slots}, cap={cap})"
        with pytest.raises(ValueError, match="core level"):
            basis.core_mask(-1)

    def test_capacity_error_names_dimension(self):
        with pytest.raises(CapacityError, match="100000"):
            enumerate_basis(5, 9)

    def test_capacity_env_override(self, monkeypatch):
        monkeypatch.setenv("TCCR_DIM_LIMIT", "10")
        with pytest.raises(CapacityError):
            enumerate_basis(1, 10)
        monkeypatch.setenv("TCCR_DIM_LIMIT", "100000")
        assert enumerate_basis(5, 9).dim == 100000


class TestOperatorNorm:
    def test_identity(self):
        basis = enumerate_basis(2, 3)
        assert operator_norm(identity(basis)) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("d,cap", [(1, 6), (2, 4), (3, 3)])
    def test_shift_generators_have_norm_one(self, d, cap):
        fam = build_irrep(IrrepSpec(d=d, class_j=d, cap=cap))
        for op in fam.ops:
            sv = np.linalg.svd(op.matrix, compute_uv=False)
            assert sv[0] == pytest.approx(1.0, abs=1e-12)
            assert operator_norm(op) == pytest.approx(1.0, abs=1e-12)

    def test_fock_generator_norm_matches_geometric_sum(self):
        mu, cap = 0.5, 10
        fam = build_fock_tccr(1, mu, cap)
        expected = np.sqrt((1 - mu ** (2 * cap)) / (1 - mu * mu))
        brute = np.linalg.svd(fam.ops[0].matrix, compute_uv=False)[0]
        assert brute == pytest.approx(expected, rel=1e-12)
        assert operator_norm(fam.ops[0]) == pytest.approx(expected, rel=1e-10)

    def test_norm_of_product_with_adjoint_squares(self):
        rng = np.random.default_rng(7)
        basis = enumerate_basis(2, 3)
        for _ in range(5):
            a = random_monomial(basis, rng)
            lhs = operator_norm(a @ a.adjoint())
            assert lhs == pytest.approx(operator_norm(a) ** 2, rel=1e-8)

    def test_non_finite_entries_rejected(self):
        basis = enumerate_basis(1, 1)
        bad = LinearOperator(basis, np.array([[np.nan, 0], [0, 1]], dtype=complex))
        with pytest.raises(ValueError, match="non-finite"):
            operator_norm(bad)


class TestAdjoint:
    def test_involution_is_bitwise(self):
        rng = np.random.default_rng(3)
        basis = enumerate_basis(2, 4)
        a = random_monomial(basis, rng)
        assert np.array_equal(a.adjoint().adjoint().matrix, a.matrix)

    def test_reverses_composition(self):
        rng = np.random.default_rng(4)
        basis = enumerate_basis(2, 4)
        a, b = random_monomial(basis, rng), random_monomial(basis, rng)
        lhs = (a @ b).adjoint().matrix
        rhs = (b.adjoint() @ a.adjoint()).matrix
        scale = np.max(np.abs(lhs))
        assert np.max(np.abs(lhs - rhs)) <= 1e-13 * scale

    def test_basis_mixing_rejected(self):
        a = identity(enumerate_basis(1, 3))
        b = identity(enumerate_basis(1, 4))
        with pytest.raises(BasisMismatchError):
            a @ b


class TestPsdSqrt:
    def test_identity(self):
        basis = enumerate_basis(1, 4)
        root = psd_sqrt(identity(basis))
        assert np.allclose(root.matrix, np.eye(basis.dim), atol=1e-13)

    def test_scaled_identity(self):
        basis = enumerate_basis(1, 4)
        root = psd_sqrt(4.0 * identity(basis))
        assert np.allclose(root.matrix, 2.0 * np.eye(basis.dim), atol=1e-12)

    def test_weighted_range_sum_of_fock_shift(self):
        # T^2 = sum_n mu^(2(n-1)) t^n t*^n is diagonal; its root has entries
        # sqrt((1 - mu^(2 n_1)) / (1 - mu^2)) wherever the first slot is occupied.
        mu, cap, d = 0.5, 6, 2
        fam = build_irrep(IrrepSpec(d=d, class_j=d, cap=cap))
        t1 = fam.ops[0]
        total = zero(fam.basis)
        power = t1
        for n in range(1, cap + 1):
            total = total + mu ** (2 * (n - 1)) * (power @ power.adjoint())
            power = power @ t1
        root = psd_sqrt(total)
        expected = np.zeros((fam.basis.dim, fam.basis.dim), dtype=complex)
        for k, state in enumerate(fam.basis.states()):
            n1 = state[0]
            if n1 >= 1:
                expected[k, k] = np.sqrt((1 - mu ** (2 * n1)) / (1 - mu * mu))
        assert np.max(np.abs(root.matrix - expected)) <= 1e-12

    def test_square_roundtrip_on_random_psd(self):
        rng = np.random.default_rng(11)
        basis = enumerate_basis(2, 3)
        for _ in range(5):
            x = random_monomial(basis, rng)
            b = x @ x.adjoint()
            b = (1.0 / operator_norm(b)) * b
            root = psd_sqrt(b @ b)
            assert np.max(np.abs(root.matrix - b.matrix)) <= 1e-8

    def test_not_psd_reports_eigenvalue(self):
        basis = enumerate_basis(1, 1)
        flipped = LinearOperator(basis, np.diag([1.0, -1.0]).astype(complex))
        with pytest.raises(NotPositiveError, match="-1"):
            psd_sqrt(flipped)

    def test_non_hermitian_rejected(self):
        basis = enumerate_basis(1, 1)
        skew = LinearOperator(basis, np.array([[0, 1], [0, 0]], dtype=complex))
        with pytest.raises(NotPositiveError, match="Hermitian"):
            psd_sqrt(skew)

    def test_tiny_negative_eigenvalues_clamped(self):
        basis = enumerate_basis(1, 1)
        wobble = LinearOperator(basis, np.diag([1.0, -5e-11]).astype(complex))
        root = psd_sqrt(wobble)
        assert root.matrix[1, 1] == 0.0


class TestPolarLeft:
    def test_zero_operator(self):
        basis = enumerate_basis(1, 3)
        pair = polar_left(zero(basis))
        assert np.all(pair.isometric_part.matrix == 0)
        assert np.all(pair.positive_part.matrix == 0)

    def test_unitary_input(self):
        # a random phased permutation
        rng = np.random.default_rng(5)
        basis = enumerate_basis(1, 5)
        q = np.zeros((basis.dim, basis.dim), dtype=complex)
        q[np.arange(basis.dim), rng.permutation(basis.dim)] = np.exp(2j * np.pi * rng.random(basis.dim))
        u = LinearOperator(basis, q)
        pair = polar_left(u)
        assert np.max(np.abs(pair.isometric_part.matrix - q)) <= 1e-12
        assert np.max(np.abs(pair.positive_part.matrix - np.eye(basis.dim))) <= 1e-12

    def test_fock_generator_polar_is_the_plain_shift(self):
        fam = build_fock_tccr(2, 0.5, 8)
        shifts = build_irrep(IrrepSpec(d=2, class_j=2, cap=8))
        pair = polar_left(fam.ops[0])
        assert np.max(np.abs(pair.isometric_part.matrix - shifts.ops[0].matrix)) <= 1e-12

    @pytest.mark.parametrize("dim_spec", [(1, 4), (1, 8), (2, 3)])
    def test_roundtrip_on_random_matrices(self, dim_spec):
        slots, cap = dim_spec
        rng = np.random.default_rng(hash(dim_spec) % 2**32)
        basis = enumerate_basis(slots, cap)
        for _ in range(50):
            a = random_monomial(basis, rng)
            pair = polar_left(a)
            rebuilt = pair.positive_part @ pair.isometric_part
            assert operator_norm(rebuilt - a) <= 1e-10 * max(operator_norm(a), 1.0)

    def test_partial_isometry_contract(self):
        rng = np.random.default_rng(13)
        basis = enumerate_basis(1, 6)
        a = random_monomial(basis, rng)
        s = polar_left(a).isometric_part
        assert operator_norm(s @ s.adjoint() @ s - s) <= 1e-10

    def test_positive_part_is_root_of_range_gram(self):
        rng = np.random.default_rng(17)
        basis = enumerate_basis(1, 6)
        a = random_monomial(basis, rng)
        pair = polar_left(a)
        c2 = pair.positive_part @ pair.positive_part
        assert operator_norm(c2 - a @ a.adjoint()) <= 1e-9 * operator_norm(a) ** 2
        assert np.linalg.eigvalsh(pair.positive_part.matrix)[0] >= -1e-12


class TestCoreResidual:
    def test_equal_operators_give_zero(self):
        basis = enumerate_basis(2, 4)
        one = identity(basis)
        for degree in (0, 2, 4):
            assert core_residual(one, one, degree) == 0.0

    def test_isometry_relation_below_cap(self):
        fam = build_irrep(IrrepSpec(d=2, class_j=2, cap=6))
        t1 = fam.ops[0]
        assert core_residual(t1.adjoint() @ t1, identity(fam.basis), 2) <= 1e-12

    def test_corrupted_relation_is_order_one(self):
        fam = build_irrep(IrrepSpec(d=2, class_j=2, cap=6))
        t1 = fam.ops[0]
        assert core_residual(t1.adjoint() @ t1, zero(fam.basis), 2) >= 1 - 1e-12

    def test_degree_beyond_cap_rejected(self):
        basis = enumerate_basis(1, 4)
        with pytest.raises(TruncationError, match="degree 5"):
            core_residual(identity(basis), identity(basis), 5)

    def test_truncated_isometry_defect_is_quarantined(self):
        # t* t = 1 fails only on the top slice; the core projection hides it
        fam = build_irrep(IrrepSpec(d=1, class_j=1, cap=5))
        t = fam.ops[0]
        gap = t.adjoint() @ t - identity(fam.basis)
        assert operator_norm(gap) == pytest.approx(1.0, abs=1e-12)
        assert core_residual(t.adjoint() @ t, identity(fam.basis), 2) <= 1e-14

