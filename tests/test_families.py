import math

import numpy as np
import pytest

from tccr.families import (
    TWO_PI,
    IrrepSpec,
    build_fock_tccr,
    build_irrep,
    build_qccr_single,
    geometric_sum,
)
from tccr.fock import core_residual, identity, operator_norm, zero
from tccr.relations import fock_generator_slots, pi_residuals, tccr_residuals

from kron_reference import defect_matrix, shift_matrix, tensor_word_kron

PHASES = (0.0, math.pi / 3, math.pi)


class TestIrrepSpec:
    def test_class_j_range(self):
        with pytest.raises(ValueError):
            IrrepSpec(d=2, class_j=3, cap=4)
        with pytest.raises(ValueError):
            IrrepSpec(d=2, class_j=-1, cap=4)

    def test_phase_normalized(self):
        spec = IrrepSpec(d=1, class_j=1, cap=4, phase=2 * math.pi + 1.0)
        assert spec.phase == pytest.approx(1.0)

    @pytest.mark.parametrize("phase", [-1e-17, -1e-300])
    def test_tiny_negative_phase_is_zero(self, phase):
        # float(phase) % TWO_PI rounds to TWO_PI itself here, outside [0, 2 pi)
        spec = IrrepSpec(d=2, class_j=1, cap=4, phase=phase)
        assert spec.phase == 0.0 and 0.0 <= spec.phase < TWO_PI

    @pytest.mark.parametrize("phase", [math.inf, -math.inf, math.nan])
    def test_non_finite_phase_is_rejected(self, phase):
        with pytest.raises(ValueError, match="phase must be finite"):
            IrrepSpec(d=1, class_j=0, cap=2, phase=phase)

    def test_slots(self):
        assert IrrepSpec(d=3, class_j=0, cap=4).slots == 1
        assert IrrepSpec(d=3, class_j=2, cap=4).slots == 2


class TestBuildIrrep:
    def test_top_class_d2_matches_explicit_tensors(self):
        cap = 4
        fam = build_irrep(IrrepSpec(d=2, class_j=2, cap=cap))
        # t1 = S (x) 1 and t2 = D (x) S
        for i, op in enumerate(fam.ops, start=1):
            assert np.array_equal(op.matrix, tensor_word_kron(fock_generator_slots(2, i), cap))

    def test_class_one_with_phase_pi(self):
        cap = 4
        fam = build_irrep(IrrepSpec(d=2, class_j=1, cap=cap, phase=math.pi))
        assert np.allclose(fam.ops[0].matrix, shift_matrix(cap), atol=1e-15)
        assert np.allclose(fam.ops[1].matrix, -defect_matrix(cap), atol=1e-12)

    def test_scalar_class(self):
        fam = build_irrep(IrrepSpec(d=2, class_j=0, cap=4, phase=0.0))
        assert np.allclose(fam.ops[0].matrix, np.eye(fam.basis.dim), atol=1e-15)
        assert np.all(fam.ops[1].matrix == 0)
        report = pi_residuals(fam)
        assert report.all_passed
        assert report.worst().residual == 0.0

    def test_generators_beyond_phase_slot_vanish(self):
        fam = build_irrep(IrrepSpec(d=3, class_j=1, cap=3))
        assert np.all(fam.ops[2].matrix == 0)

    @pytest.mark.parametrize("d,cap", [(1, 8), (2, 8), (3, 8), (4, 4)])
    def test_relations_over_all_classes_and_phases(self, d, cap):
        for class_j in range(d + 1):
            for phase in PHASES:
                fam = build_irrep(IrrepSpec(d=d, class_j=class_j, cap=cap, phase=phase))
                report = pi_residuals(fam)
                assert report.all_passed, (class_j, phase, report.worst())

    @pytest.mark.parametrize("d,cap", [(2, 6), (3, 4)])
    def test_partial_isometry_contract(self, d, cap):
        fam = build_irrep(IrrepSpec(d=d, class_j=d, cap=cap))
        for op in fam.ops:
            assert core_residual(op @ op.adjoint() @ op, op, 3) <= 1e-10

    def test_vacuum_killed_by_adjoints_in_top_class(self):
        fam = build_irrep(IrrepSpec(d=3, class_j=3, cap=4))
        for op in fam.ops:
            assert np.max(np.abs(op.adjoint().matrix[:, 0])) == 0.0

    def test_phase_is_modded_out_of_relations(self):
        fam = build_irrep(IrrepSpec(d=2, class_j=1, cap=6, phase=1.234))
        assert pi_residuals(fam).all_passed


class TestBuildFockTccr:
    def test_undeformed_single_mode_is_the_shift(self):
        fam = build_fock_tccr(1, 0.0, 6)
        assert np.array_equal(fam.ops[0].matrix, shift_matrix(6))

    def test_two_quanta_vacuum_norm(self):
        # ||a^2 vacuum||^2 = w(0)^2 w(1)^2 = 1 * (1 + mu^2)
        mu = 0.5
        fam = build_fock_tccr(1, mu, 6)
        vac = np.zeros(fam.basis.dim)
        vac[0] = 1.0
        vec = fam.ops[0].matrix @ (fam.ops[0].matrix @ vac)
        assert np.vdot(vec, vec).real == pytest.approx(1.25, abs=1e-14)

    def test_cross_slot_weight_carries_mu_factor(self):
        mu, cap = 0.7, 4
        fam = build_fock_tccr(2, mu, cap)
        src = fam.basis.index_of((1, 0))
        dst = fam.basis.index_of((1, 1))
        assert fam.ops[1].matrix[dst, src] == pytest.approx(mu * 1.0, abs=1e-15)

    def test_vacuum_annihilated_by_adjoints(self):
        fam = build_fock_tccr(3, 0.6, 3)
        for op in fam.ops:
            assert np.max(np.abs(op.adjoint().matrix[:, 0])) == 0.0

    @pytest.mark.parametrize("mu", [-0.9, -0.5, 0.0, 0.3, 0.7])
    def test_relations_hold_on_core(self, mu):
        fam = build_fock_tccr(2, mu, 8)
        report = tccr_residuals(fam)
        assert report.all_passed, report.worst()

    def test_undeformed_family_coincides_with_top_class(self):
        fam = build_fock_tccr(3, 0.0, 4)
        shifts = build_irrep(IrrepSpec(d=3, class_j=3, cap=4))
        for a, t in zip(fam.ops, shifts.ops):
            assert np.array_equal(a.matrix, t.matrix)

    def test_norm_bound_and_monotone_truncation(self):
        mu = 0.9
        bound = 1 / (1 - mu * mu)
        values = []
        for cap in (4, 6, 8, 10):
            fam = build_fock_tccr(1, mu, cap)
            val = operator_norm(fam.ops[0] @ fam.ops[0].adjoint())
            assert val <= bound + 1e-10
            assert val == pytest.approx((1 - mu ** (2 * cap)) / (1 - mu * mu), abs=1e-10)
            values.append(val)
        assert values == sorted(values)
        assert values[-1] < bound

    def test_lower_products_vanish_but_not_their_reverses(self):
        # only the ordered products t_j t_i with j > i die; t_1 t_2 survives
        fam = build_irrep(IrrepSpec(d=2, class_j=2, cap=6))
        t1, t2 = fam.ops
        assert core_residual(t2 @ t1, zero(fam.basis), 2) <= 1e-12
        assert operator_norm(t1 @ t2) > 0.9


class TestBuildQccrSingle:
    def test_q_zero_is_the_shift(self):
        assert np.array_equal(build_qccr_single(0.0, 6).matrix, shift_matrix(6))

    @pytest.mark.parametrize("q", [0.3, -0.5, 0.9])
    def test_relation_residual(self, q):
        op = build_qccr_single(q, 10)
        lhs = op.adjoint() @ op
        rhs = identity(op.basis) + q * (op @ op.adjoint())
        assert core_residual(lhs, rhs, 2) <= 1e-12

    def test_negative_q_keeps_weights_real_positive(self):
        op = build_qccr_single(-0.5, 8)
        sv = np.linalg.svd(op.matrix, compute_uv=False)
        assert np.all(sv >= 0)
        for n in range(8):
            assert geometric_sum(-0.5, n + 1) > 0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            build_qccr_single(1.0, 4)
        with pytest.raises(ValueError):
            build_qccr_single(-1.2, 4)
