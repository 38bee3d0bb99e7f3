import math

import numpy as np
import pytest

from tccr.families import IrrepSpec, TccrFamily, build_fock_tccr, build_irrep, build_qccr_single
from tccr.fock import LinearOperator, core_residual, identity, operator_norm, polar_left, psd_sqrt
from tccr.reconstruct import (
    PreconditionError,
    conjugation_series,
    generators_from_isometries,
    isometries_from_generators,
    positive_part_squared,
    roundtrip_check,
    verify_stage_identities,
    weighted_range_series,
)
from tccr.relations import tccr_residuals


def max_entry_gap(ops_a, ops_b):
    return max(np.max(np.abs(a.matrix - b.matrix)) for a, b in zip(ops_a, ops_b))


# Reference: the power-table formulas that the single conjugation series replaced.
def ref_powers(op, upto):
    out = [identity(op.basis)]
    for _ in range(upto):
        out.append(out[-1] @ op)
    return out


def ref_weighted_range_series(t, ratio):
    cap = t.basis.cap
    powers = ref_powers(t, cap + 1)
    total = powers[1] @ powers[1].adjoint()
    factor = 1.0
    for n in range(2, cap + 1):
        factor *= ratio
        total = total + factor * (powers[n] @ powers[n].adjoint())
    tail = ratio**cap / (1.0 - ratio)
    return total + tail * (powers[cap + 1] @ powers[cap + 1].adjoint())


def ref_conjugation_series(t, inner, mu):
    cap = t.basis.cap
    powers = ref_powers(t, cap + 1)
    total = inner
    factor = 1.0
    for n in range(1, cap + 1):
        factor *= mu
        total = total + factor * (powers[n] @ inner @ powers[n].adjoint())
    tail = mu ** (cap + 1) / (1.0 - mu)
    return total + tail * (powers[cap + 1] @ inner @ powers[cap + 1].adjoint())


class TestSingleSeriesAgainstPowerTables:
    @pytest.mark.parametrize("cap", [2, 4, 6])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_every_class_phase_and_mu(self, d, cap):
        gaps = []
        for j in range(d + 1):
            # the top class j = d has no phase generator
            for phase in (0.0,) if j == d else (0.0, math.pi / 3, math.pi):
                fam = build_irrep(IrrepSpec(d=d, class_j=j, cap=cap, phase=phase))
                for mu in (-0.7, 0.0, 0.5, 0.9):
                    for t in fam.ops:
                        gaps.append(max_entry_gap(
                            [positive_part_squared(t, mu), weighted_range_series(t, mu)],
                            [ref_weighted_range_series(t, mu * mu), ref_weighted_range_series(t, mu)],
                        ))
                        for inner in fam.ops + (t @ t.adjoint(),):
                            gaps.append(max_entry_gap(
                                [conjugation_series(t, inner, mu)], [ref_conjugation_series(t, inner, mu)]
                            ))
        assert max(gaps) <= 1e-13


class TestWeightedRangeSeries:
    def test_nilpotent_shift_matches_direct_sum(self):
        fam = build_irrep(IrrepSpec(d=2, class_j=2, cap=6))
        t1, mu = fam.ops[0], 0.5
        direct = 0.0 * identity(fam.basis)
        power = t1
        for n in range(1, 7):
            direct = direct + mu ** (2 * (n - 1)) * (power @ power.adjoint())
            power = power @ t1
        got = positive_part_squared(t1, mu)
        assert np.max(np.abs(got.matrix - direct.matrix)) <= 1e-14

    def test_phase_generator_gets_its_geometric_tail(self):
        # powers of the phase generator never vanish, so the plain cap-length
        # sum misses a mu^(2 cap) tail; the closed-form tail restores the limit
        mu, cap, phase = 0.5, 8, math.pi / 3
        fam = build_irrep(IrrepSpec(d=2, class_j=1, cap=cap, phase=phase))
        t2 = fam.ops[1]
        got = positive_part_squared(t2, mu)
        defect = t2 @ t2.adjoint()
        expected = (1.0 / (1.0 - mu * mu)) * defect
        assert np.max(np.abs(got.matrix - expected.matrix)) <= 1e-12

    @pytest.mark.parametrize("mu", [1.0, 1.5, -1.0])
    def test_series_rejects_mu_outside_the_unit_disc(self, mu):
        fam = build_irrep(IrrepSpec(d=1, class_j=1, cap=3))
        t = fam.ops[0]
        for series in (
            lambda: conjugation_series(t, t @ t.adjoint(), mu),
            lambda: weighted_range_series(t, mu),
            lambda: positive_part_squared(t, mu),
        ):
            with pytest.raises(ValueError, match="must be < 1"):
                series()

    def test_conjugation_series_undeformed_collapses(self):
        fam = build_irrep(IrrepSpec(d=2, class_j=2, cap=5))
        inner = fam.ops[1]
        got = conjugation_series(fam.ops[0], inner, 0.0)
        assert np.array_equal(got.matrix, inner.matrix)


class TestIsometriesFromGenerators:
    def test_fock_family_recovers_the_shift_class(self):
        fam = build_fock_tccr(2, 0.5, 8)
        hats = isometries_from_generators(fam)
        shifts = build_irrep(IrrepSpec(d=2, class_j=2, cap=8))
        for hat, t in zip(hats.ops, shifts.ops):
            assert core_residual(hat, t, 3) <= 1e-10
        assert max_entry_gap(hats.ops, shifts.ops) <= 1e-12

    def test_undeformed_input_is_fixed(self):
        fam = build_fock_tccr(2, 0.0, 6)
        hats = isometries_from_generators(fam)
        assert max_entry_gap(hats.ops, fam.ops) <= 1e-12

    @pytest.mark.parametrize("q", [0.25, 0.49])
    def test_single_mode_polar_identity(self, q):
        # one deformed mode with ratio q corresponds to deformation sqrt(q)
        cap = 12
        op = build_qccr_single(q, cap)
        fam = TccrFamily(basis=op.basis, ops=(op,), mu=math.sqrt(q))
        s = isometries_from_generators(fam).ops[0]
        assert core_residual(s.adjoint() @ s, identity(op.basis), 2) <= 1e-10
        rebuilt = psd_sqrt(weighted_range_series(s, q)) @ s
        assert core_residual(rebuilt, op, 1) <= 1e-8

    def test_gate_rejects_non_family(self):
        fam = build_fock_tccr(2, 0.5, 6)
        broken = TccrFamily(basis=fam.basis, ops=(fam.ops[0], fam.ops[0]), mu=0.5)
        with pytest.raises(PreconditionError) as err:
            isometries_from_generators(broken)
        assert not err.value.report.all_passed


class TestGeneratorsFromIsometries:
    def test_undeformed_series_collapses_to_input(self):
        t = build_irrep(IrrepSpec(d=2, class_j=2, cap=6))
        tilde, _ = generators_from_isometries(t, 0.0)
        assert max_entry_gap(tilde.ops, t.ops) <= 1e-12

    def test_single_mode_weights(self):
        mu, cap = 0.5, 8
        t = build_irrep(IrrepSpec(d=1, class_j=1, cap=cap))
        tilde, _ = generators_from_isometries(t, mu)
        expected = np.zeros((cap + 1, cap + 1), dtype=complex)
        for n in range(cap):
            expected[n + 1, n] = math.sqrt((1 - mu ** (2 * (n + 1))) / (1 - mu * mu))
        assert np.max(np.abs(tilde.ops[0].matrix - expected)) <= 1e-12

    def test_three_modes_satisfy_deformed_relations(self):
        t = build_irrep(IrrepSpec(d=3, class_j=3, cap=6))
        tilde, _ = generators_from_isometries(t, 0.7)
        report = tccr_residuals(tilde)
        assert report.all_passed, report.worst()

    def test_reconstruction_validates_closed_form_weights(self):
        # the stage series on the shift class must reproduce the closed-form family
        for mu in (0.3, 0.7, -0.5):
            t = build_irrep(IrrepSpec(d=2, class_j=2, cap=6))
            tilde, _ = generators_from_isometries(t, mu)
            closed = build_fock_tccr(2, mu, 6)
            assert max_entry_gap(tilde.ops, closed.ops) <= 1e-12

    def test_trace_contents(self):
        mu = 0.5
        t = build_irrep(IrrepSpec(d=2, class_j=2, cap=6))
        tilde, trace = generators_from_isometries(t, mu)
        assert set(trace.stages) == {(1, 1), (2, 1), (2, 2)}
        for i in (1, 2):
            stage_ii = trace.stages[(i, i)]
            direct = trace.positive_parts[i - 1] @ t.ops[i - 1]
            assert operator_norm(stage_ii - direct) <= 1e-10
        for j, p in enumerate(trace.defects):
            assert core_residual(p @ p, p, 4) <= 1e-10
            assert np.max(np.abs(p.matrix - p.adjoint().matrix)) <= 1e-10
        assert max_entry_gap(tilde.ops, [trace.stages[(1, 1)], trace.stages[(2, 1)]]) == 0

    def test_non_fock_class_still_produces_deformed_family(self):
        t = build_irrep(IrrepSpec(d=2, class_j=1, cap=8, phase=math.pi / 3))
        tilde, _ = generators_from_isometries(t, 0.5)
        report = tccr_residuals(tilde)
        assert report.all_passed, report.worst()

    def test_gate_rejects_non_family(self):
        t = build_irrep(IrrepSpec(d=2, class_j=2, cap=5))
        from tccr.families import GeneratorFamily

        broken = GeneratorFamily(basis=t.basis, ops=(t.ops[0], t.ops[0]))
        with pytest.raises(PreconditionError):
            generators_from_isometries(broken, 0.5)

    def test_mu_validation(self):
        t = build_irrep(IrrepSpec(d=1, class_j=1, cap=4))
        with pytest.raises(ValueError):
            generators_from_isometries(t, 1.0)


class TestStageIdentitySuite:
    def test_two_modes_all_instances_pass(self):
        t = build_irrep(IrrepSpec(d=2, class_j=2, cap=8))
        report = verify_stage_identities(t, 0.5)
        assert report.all_passed, report.worst()

    def test_check_inventory_for_three_modes(self):
        t = build_irrep(IrrepSpec(d=3, class_j=3, cap=6))
        report = verify_stage_identities(t, 0.3)
        groups = {}
        for check in report.checks:
            groups.setdefault(check.id.split("/")[0], 0)
            groups[check.id.split("/")[0]] += 1
        assert groups["stage_step"] == 3
        assert groups["defect_fix"] == 4
        assert groups["annihilate"] == 16
        assert groups["powers"] == 27
        assert groups["level_diag"] == 6
        assert groups["cross_kill"] == 4
        assert groups["exchange_own"] == 3
        assert groups["exchange_down"] == 1
        assert report.all_passed, report.worst()

    def test_power_identity_direct_instance(self):
        # t*^2 t^2 equals the level defect below the cap
        t = build_irrep(IrrepSpec(d=2, class_j=2, cap=6))
        t2 = t.ops[1]
        p1 = identity(t.basis) - t.ops[0] @ t.ops[0].adjoint()
        lhs = t2.adjoint() @ t2.adjoint() @ t2 @ t2
        assert core_residual(lhs, p1, 4) <= 1e-10

    def test_diagonal_relation_at_top_level(self):
        mu = 0.5
        t = build_irrep(IrrepSpec(d=1, class_j=1, cap=8))
        tilde, _ = generators_from_isometries(t, mu)
        a1 = tilde.ops[0]
        rhs = identity(t.basis) + (mu * mu) * (a1 @ a1.adjoint())
        assert core_residual(a1.adjoint() @ a1, rhs, 2) <= 1e-10

    def test_non_fock_class_suite(self):
        t = build_irrep(IrrepSpec(d=2, class_j=1, cap=6, phase=math.pi))
        report = verify_stage_identities(t, 0.5)
        assert report.all_passed, report.worst()


class TestProofEquivalents:
    """Identities used along the way in the generator-to-isometry direction."""

    def setup_method(self):
        self.mu = 0.5
        self.fam = build_fock_tccr(3, self.mu, 6)
        pairs = [polar_left(op) for op in self.fam.ops]
        self.s = [p.isometric_part for p in pairs]
        self.c = [p.positive_part for p in pairs]

    def test_positive_parts_square_to_range_grams(self):
        for op, c in zip(self.fam.ops, self.c):
            assert operator_norm(c @ c - op @ op.adjoint()) <= 1e-9

    def test_weight_exchange_with_own_isometry(self):
        mu = self.mu
        for i in range(3):
            c2 = self.c[i] @ self.c[i]
            rhs_inner = identity(self.fam.basis) + (mu * mu) * c2
            for j in range(i):
                cj2 = self.c[j] @ self.c[j]
                rhs_inner = rhs_inner - (1 - mu * mu) * cj2
            lhs = c2 @ self.s[i]
            rhs = self.s[i] @ rhs_inner
            assert core_residual(lhs, rhs, 3) <= 1e-8, i

    def test_weight_exchange_across_modes(self):
        mu = self.mu
        for i in range(3):
            c2 = self.c[i] @ self.c[i]
            for j in range(3):
                if j == i:
                    continue
                lhs = c2 @ self.s[j]
                if j < i:
                    rhs = (mu * mu) * (self.s[j] @ c2)
                else:
                    rhs = self.s[j] @ c2
                assert core_residual(lhs, rhs, 3) <= 1e-8, (i, j)

    def test_weights_commute(self):
        for i in range(3):
            for j in range(i):
                gap = self.c[i] @ self.c[j] - self.c[j] @ self.c[i]
                assert operator_norm(gap) <= 1e-8

    def test_isometries_commute_across_modes(self):
        for i in range(3):
            for j in range(i):
                assert operator_norm(self.s[i] @ self.s[j] - self.s[j] @ self.s[i]) <= 1e-8
                gap = self.s[i].adjoint() @ self.s[j] - self.s[j] @ self.s[i].adjoint()
                assert core_residual(gap, 0.0 * gap, 2) <= 1e-8

    def test_conjugation_expansion_recovers_generators(self):
        # a_i = sum_n mu^n S_1^n (1 - S_1 S_1*) a_i S_1*^n
        s1 = self.s[0]
        cut = identity(self.fam.basis) - s1 @ s1.adjoint()
        for i in range(1, 3):
            reduced = cut @ self.fam.ops[i]
            expanded = conjugation_series(s1, reduced, self.mu)
            assert core_residual(expanded, self.fam.ops[i], 3) <= 1e-8, i

    def test_positive_series_part_commutes_with_range_projection(self):
        t = build_irrep(IrrepSpec(d=2, class_j=2, cap=6))
        _, trace = generators_from_isometries(t, self.mu)
        for op, pos in zip(t.ops, trace.positive_parts):
            proj = op @ op.adjoint()
            assert operator_norm(pos @ proj - proj @ pos) <= 1e-10


class TestRoundtrip:
    def test_fock_class_two_modes(self):
        t = build_irrep(IrrepSpec(d=2, class_j=2, cap=8))
        fam = build_fock_tccr(2, 0.5, 8)
        report = roundtrip_check(t, 0.5, a=fam)
        assert report.all_passed, report.worst()

    def test_undeformed_roundtrip_is_exact(self):
        t = build_irrep(IrrepSpec(d=2, class_j=2, cap=6))
        report = roundtrip_check(t, 0.0, tolerance=1e-12)
        assert report.all_passed, report.worst()

    def test_non_fock_class_roundtrip(self):
        t = build_irrep(IrrepSpec(d=2, class_j=1, cap=8, phase=0.0))
        report = roundtrip_check(t, 0.5)
        assert report.all_passed, report.worst()

    def test_scalar_class_roundtrip(self):
        t = build_irrep(IrrepSpec(d=1, class_j=0, cap=6, phase=math.pi / 3))
        report = roundtrip_check(t, 0.5)
        assert report.all_passed, report.worst()
