import json
import math
import random
import tracemalloc

import numpy as np
import pytest

import tccr.symbolic
from tccr import relations
from tccr.cli import main
from tccr.families import IrrepSpec, TccrFamily, build_fock_tccr, build_irrep
from tccr.fock import TruncationError, core_residual, operator_norm
from tccr.relations import (
    DEFECT,
    SHIFT,
    SHIFT_STAR,
    Relation,
    RelationSet,
    apply_collapse,
    fock_generator_slots,
    norm_bound_check,
    norm_domination_sample,
    pi_relations,
    pi_residuals,
    collapse_check,
    qccr_relations,
    qccr_residuals,
    tccr_relations,
    tccr_residuals,
    tensor_word_matrix,
    tensor_word_product,
)
from tccr.reconstruct import isometries_from_generators, roundtrip_check
from tccr.report import Check, VerificationReport, merge_reports
from tccr.symbolic import NcPolynomial, evaluate_poly, evaluate_word, gen, gen_star, parse_polynomial, random_polynomial, word_norms
from tccr.families import build_qccr_single

from kron_reference import defect_matrix, shift_matrix, tensor_word_kron
from test_monomial import ref_core_residual


class TestRelationSets:
    def test_tccr_counts(self):
        for d in (1, 2, 3):
            rels = tccr_relations(d).relations
            assert len(rels) == d + d * (d - 1) + d * (d - 1) // 2

    def test_pi_counts(self):
        for d in (1, 2, 3):
            rels = pi_relations(d).relations
            assert len(rels) == d + d * (d - 1) + d * (d - 1) // 2

    def test_qccr_single_relation(self):
        assert len(qccr_relations().relations) == 1

    def test_labels_unique(self):
        labels = [r.label for r in tccr_relations(3).relations]
        assert len(labels) == len(set(labels))

    def test_degree_matches_longest_word(self):
        for rels in (tccr_relations(3), pi_relations(3), qccr_relations()):
            assert {rel.degree for rel in rels.relations} == {2}
        assert Relation("x", NcPolynomial.generator(1), NcPolynomial.zero()).degree == 1

    def test_duplicate_labels_rejected(self):
        rel = Relation("same", NcPolynomial.generator(1), NcPolynomial.zero())
        with pytest.raises(ValueError, match="duplicate"):
            RelationSet(kind="broken", relations=(rel, rel))


class TestTccrResiduals:
    def test_fock_family_passes(self):
        report = tccr_residuals(build_fock_tccr(3, 0.7, 8))
        assert report.all_passed, report.worst()

    def test_undeformed_family_passes(self):
        report = tccr_residuals(build_fock_tccr(2, 0.0, 6))
        assert report.all_passed
        assert report.worst().residual <= 1e-14

    def test_duplicated_generator_fails_loudly(self):
        fam = build_fock_tccr(2, 0.5, 6)
        broken = TccrFamily(basis=fam.basis, ops=(fam.ops[0], fam.ops[0]), mu=0.5)
        report = tccr_residuals(broken)
        failed = {c.id for c in report.failures()}
        assert "tccr/diag/i2" in failed
        diag2 = next(c for c in report.checks if c.id == "tccr/diag/i2")
        assert diag2.residual > 0.1

    def test_randomly_corrupted_generator_fails_loudly(self):
        from tccr.fock import LinearOperator, Monomial

        rng = np.random.default_rng(31)
        fam = build_fock_tccr(2, 0.5, 6)
        a2 = fam.ops[1].monomial
        for _ in range(5):
            # noise of max modulus 0.5 on the values of a2's own support
            noise = rng.standard_normal(fam.basis.dim) + 1j * rng.standard_normal(fam.basis.dim)
            noise = np.where(a2.cols >= 0, noise, 0)
            noise *= 0.5 / np.max(np.abs(noise))
            bumped = LinearOperator(fam.basis, Monomial(a2.cols, a2.vals + noise))
            report = tccr_residuals(
                TccrFamily(basis=fam.basis, ops=(fam.ops[0], bumped), mu=0.5)
            )
            assert max(c.residual for c in report.checks) > 0.1


class TestPiResiduals:
    def test_top_class_passes(self):
        report = pi_residuals(build_irrep(IrrepSpec(d=3, class_j=3, cap=8)))
        assert report.all_passed, report.worst()

    def test_phase_cancels_in_every_relation(self):
        for phase in (0.4, 2.0, 5.5):
            fam = build_irrep(IrrepSpec(d=2, class_j=1, cap=6, phase=phase))
            assert pi_residuals(fam).all_passed

    def test_single_generator_single_diag(self):
        report = pi_residuals(build_irrep(IrrepSpec(d=1, class_j=1, cap=6)))
        assert report.total == 1
        assert report.checks[0].id == "pi/diag/i1"

    def test_adjoint_relations_have_matching_residuals(self):
        cases = [
            (build_irrep(IrrepSpec(d=2, class_j=2, cap=6)), pi_relations(2), 0.0),
            (build_fock_tccr(2, 0.5, 6), tccr_relations(2), 0.5),
        ]
        for fam, relset, mu in cases:
            for rel, adj in zip(relset.relations, relset.adjoint().relations):
                lhs = evaluate_poly(fam, rel.lhs, mu)
                rhs = evaluate_poly(fam, rel.rhs, mu)
                lhs_a = evaluate_poly(fam, adj.lhs, mu)
                rhs_a = evaluate_poly(fam, adj.rhs, mu)
                direct = core_residual(lhs, rhs, rel.degree)
                flipped = core_residual(lhs_a, rhs_a, adj.degree)
                assert abs(direct - flipped) <= 1e-12


class TestTruncationInvariance:
    @pytest.mark.parametrize("mu", [-0.7, 0.5])
    def test_true_relations_stay_at_rounding_level_along_the_caps(self, mu):
        for cap in range(4, 11):
            a = build_fock_tccr(2, mu, cap)
            fock = build_irrep(IrrepSpec(d=2, class_j=2, cap=cap))
            for report in (tccr_residuals(a), pi_residuals(isometries_from_generators(a)), pi_residuals(fock)):
                assert max(c.residual for c in report.checks) <= 1e-12, (cap, report.worst())


class TestQccrResiduals:
    @pytest.mark.parametrize("q", [0.3, -0.5, 0.9])
    def test_model_generator_passes(self, q):
        report = qccr_residuals(build_qccr_single(q, 10), q)
        assert report.all_passed, report.worst()


def reference_residuals(family, relset, mu):
    """Every relation through the operator path: each side built term by term, then ``core_residual``."""
    return [
        core_residual(evaluate_poly(family, r.lhs, mu), evaluate_poly(family, r.rhs, mu), r.core_level)
        for r in relset.relations
    ]


def dense_residuals(family, relset, mu):
    """Every relation's 2-norm of lhs - rhs on its core columns, each side summed as a dense matrix."""
    dim = family.basis.dim

    def dense(p):
        return sum((complex(c.evaluate(mu)) * evaluate_word(family, w).matrix for w, c in p.terms()), np.zeros((dim, dim)))

    return [ref_core_residual(dense(r.lhs), dense(r.rhs), family.basis, r.core_level) for r in relset.relations]


def measure(family, relset, mu):
    return relations.relation_residuals(family, relset, mu, command="test", params={}, tolerance=1.0)


def kernel_residuals(monkeypatch, family, relset, mu):
    """The residuals ``relation_residuals`` hands to the report, before the report rounds them."""
    seen = []
    add = VerificationReport.add

    def record(self, id, description, residual, tolerance):
        seen.append(residual)
        return add(self, id, description, residual, tolerance)

    with monkeypatch.context() as patch:
        patch.setattr(VerificationReport, "add", record)
        report = measure(family, relset, mu)
    assert [c.id for c in report.checks] == [r.label for r in relset.relations]
    return seen


def mixed_degree_set(d):
    """True and false relations of degrees 0 to 3 in one set, all of one offset per relation."""
    rels = [
        ("one", "1", "1"),
        ("scaled", "a1", "mu a1"),
        ("diag", "a1* a1", "1 + mu^2 a1 a1*"),
        ("cubic", "a1* a1 a1", "a1 + mu^2 a1 a1* a1"),
        ("cubic/false", "a1* a1 a1", "2 a1"),
    ]
    if d > 1:
        rels += [("twist", f"a1* a{d}", f"mu a{d} a1*"), ("order", f"a{d} a1 a1*", f"mu a1 a{d} a1*")]
    out = [Relation(label, parse_polynomial(lhs, d), parse_polynomial(rhs, d)) for label, lhs, rhs in rels]
    out.append(Relation("empty", NcPolynomial.zero(), NcPolynomial.zero()))
    return RelationSet(kind="mixed", relations=tuple(out))


def relation(lhs, rhs):
    return Relation("r", parse_polynomial(lhs, 1), parse_polynomial(rhs, 1))


class TestKernelResiduals:
    """``relation_residuals`` against the operator path, float for float."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("mu", [0.0, 0.5, -0.6])
    @pytest.mark.parametrize("cap", [2, 3, 5])
    def test_equal_to_the_operator_path(self, monkeypatch, d, mu, cap):
        # at cap == degree the core is the vacuum column alone: cap 2 for the built-in sets, 3 for the cubics
        families = [build_fock_tccr(d, mu, cap)] + [
            build_irrep(IrrepSpec(d=d, class_j=j, cap=cap, phase=phase))
            for j in range(d + 1)
            for phase in (0.0, math.pi / 3)
        ]
        sets = [tccr_relations(d), pi_relations(d), qccr_relations()] + [mixed_degree_set(d)] * (cap >= 3)
        # every relation here moves basis vectors by one offset on every family, so none leaves the one-move sum
        monkeypatch.setattr(relations, "_entries_residual", None)
        for fam in families:
            for relset in [*sets, *(s.adjoint() for s in sets)]:
                got = kernel_residuals(monkeypatch, fam, relset, mu)
                assert got == reference_residuals(fam, relset, mu), (fam.spec, relset.kind)

    def test_empty_relation_set(self):
        fam = build_fock_tccr(2, 0.5, 4)
        assert measure(fam, RelationSet(kind="none", relations=()), 0.5).total == 0

    def test_one_kernel_pass_per_degree(self, monkeypatch):
        levels = tccr.symbolic._word_levels
        passes = []

        def count(family, plans, columns, read):
            passes.append((len(plans.words), len(columns)))
            return levels(family, plans, columns, read)

        monkeypatch.setattr(relations, "_word_levels", count)
        fam = build_fock_tccr(3, 0.5, 6)
        tccr_residuals(fam)
        # 25 distinct words of degree <= 2 over the 5^3 vectors with every occupation <= 4
        assert passes == [(25, 125)]
        passes.clear()
        kernel_residuals(monkeypatch, fam, mixed_degree_set(3), 0.5)
        assert sorted(columns for _, columns in passes) == [64, 125, 216, 343]


class TestCoreLevel:
    """A relation's core level sets the columns it is measured on; it defaults to the degree."""

    def test_default_is_the_degree_and_the_adjoint_keeps_it(self):
        rel = relation("a1* a1", "1")
        assert rel.core_level == rel.degree == 2
        raised = Relation("r", rel.lhs, rel.rhs, core_level=4)
        [flipped] = RelationSet(kind="k", relations=(raised,)).adjoint().relations
        assert (flipped.core_level, flipped.degree) == (4, 2)
        with pytest.raises(ValueError, match="core level"):
            Relation("r", rel.lhs, rel.rhs, core_level=-1)

    @pytest.mark.parametrize("level", [2.5, 1.0, True])
    def test_a_level_that_is_not_an_int_is_rejected(self, level):
        # at cap 4, level 2.5 would measure on the occupations <= 1.5, the columns of level 3
        rel = relation("a1* a1", "1")
        with pytest.raises(ValueError, match="core level must be an int >= 0"):
            Relation("r", rel.lhs, rel.rhs, core_level=level)

    @pytest.mark.parametrize("level", [np.int64(1), np.uint8(1)])
    def test_a_numpy_integer_level_is_taken_as_an_int(self, monkeypatch, level):
        rel = relation("a1* a1", "1 + mu^2 a1 a1*")
        numpy_level = Relation("r", rel.lhs, rel.rhs, core_level=level)
        assert type(numpy_level.core_level) is int and numpy_level == Relation("r", rel.lhs, rel.rhs, core_level=1)
        fam = build_fock_tccr(1, 0.5, 4)
        got = kernel_residuals(monkeypatch, fam, RelationSet(kind="k", relations=(numpy_level,)), 0.5)
        assert got == reference_residuals(build_fock_tccr(1, 0.5, 4), RelationSet(kind="k", relations=(numpy_level,)), 0.5)

    def test_description_replaces_the_text_of_the_sides(self):
        relset = RelationSet(kind="k", relations=(
            relation("a1* a1", "1 + mu^2 a1 a1*"),
            Relation("named", NcPolynomial.one(), NcPolynomial.one(), description="one is one"),
        ))
        report = measure(build_fock_tccr(1, 0.5, 4), relset, 0.5)
        assert [c.description for c in report.checks] == ["a1* a1 = 1 + mu^2 a1 a1*", "one is one"]

    @pytest.mark.parametrize("d", [1, 2])
    def test_every_level_equals_the_operator_path(self, monkeypatch, d):
        cap = 5
        fam, ref = build_fock_tccr(d, 0.5, cap), build_fock_tccr(d, 0.5, cap)
        for level in range(cap + 1):
            relset = RelationSet(kind=f"level{level}", relations=tuple(
                Relation(r.label, r.lhs, r.rhs, core_level=level) for r in mixed_degree_set(d).relations
            ))
            got = kernel_residuals(monkeypatch, fam, relset, 0.5)
            assert got == reference_residuals(ref, relset, 0.5), level
            # only level 0 holds the vectors at the cap, which a1 kills, so a1* a1 = 1 + mu^2 a1 a1* fails there
            assert (got[2] > 0.1) == (level == 0)

    def test_a_level_above_the_cap_raises_as_before(self):
        rel = Relation("r", NcPolynomial.one(), NcPolynomial.one(), core_level=5)
        with pytest.raises(TruncationError, match="exceeds cap 4"):
            measure(build_fock_tccr(1, 0.5, 4), RelationSet(kind="k", relations=(rel,)), 0.5)

    def test_one_kernel_pass_per_level(self, monkeypatch):
        levels = tccr.symbolic._word_levels
        passes = []

        def count(family, plans, columns, read):
            passes.append((len(plans.words), len(columns)))
            return levels(family, plans, columns, read)

        monkeypatch.setattr(relations, "_word_levels", count)
        rels = [Relation(r.label, r.lhs, r.rhs, core_level=2 + k % 2) for k, r in enumerate(tccr_relations(3).relations)]
        measure(build_fock_tccr(3, 0.5, 6), RelationSet(kind="split", relations=tuple(rels)), 0.5)
        # one pass over the 5^3 vectors with every occupation <= 4, one over the 4^3 with every occupation <= 3
        assert sorted(columns for _, columns in passes) == [64, 125]


class TestFalseRelations:
    """False relations fail with the 2-norm of lhs - rhs on the core columns, from the kernel alone."""

    def test_monomial_false_relation_keeps_its_residual(self, monkeypatch):
        fam = build_fock_tccr(1, 0.5, 6)
        relset = RelationSet(kind="false", relations=(relation("a1* a1", "1"),))
        got = kernel_residuals(monkeypatch, fam, relset, 0.5)
        assert got == reference_residuals(fam, relset, 0.5)
        assert got[0] > 0.1

    def test_relation_of_two_offsets_takes_the_dense_core_block(self, monkeypatch):
        fam = build_fock_tccr(1, 0.5, 6)
        relset = RelationSet(kind="false", relations=(relation("a1", "a1*"),))
        got = kernel_residuals(monkeypatch, fam, relset, 0.5)
        assert got == pytest.approx(dense_residuals(build_fock_tccr(1, 0.5, 6), relset, 0.5), rel=1e-13)
        assert got[0] > 0.1

    @pytest.mark.parametrize(
        "lhs, cap",
        [
            ("a1 + a1*", 6),
            # the sides collide in row 1, between columns 0 and 1; the core at degree 2 is column 0 alone
            ("a1 a1* + a1", 2),
        ],
    )
    def test_non_monomial_side_fails_with_the_dense_norm(self, monkeypatch, lhs, cap):
        relset = RelationSet(kind="false", relations=(relation(lhs, "0"),))
        with pytest.raises(ValueError, match="sum is not monomial"):
            reference_residuals(build_fock_tccr(1, 0.5, cap), relset, 0.5)
        got = kernel_residuals(monkeypatch, build_fock_tccr(1, 0.5, cap), relset, 0.5)
        assert got == pytest.approx(dense_residuals(build_fock_tccr(1, 0.5, cap), relset, 0.5), rel=1e-13)
        assert got[0] > 0.1

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_random_relations_match_the_dense_norm(self, monkeypatch, d):
        rng = random.Random(f"false relations at d = {d}")
        for cap in (3, 4):
            families = [(build_fock_tccr(d, mu, cap), mu) for mu in (0.5, -0.6)] + [
                (build_irrep(IrrepSpec(d=d, class_j=j, cap=cap, phase=1.0)), 0.0) for j in range(d + 1)
            ]
            for fam, mu in families:
                relset = RelationSet(kind="random", relations=tuple(
                    Relation(f"r{k}", random_polynomial(d, 3, rng), random_polynomial(d, 3, rng)) for k in range(6)
                ))
                got = kernel_residuals(monkeypatch, fam, relset, mu)
                assert got == pytest.approx(dense_residuals(fam, relset, mu), rel=1e-12, abs=1e-14)

    @pytest.mark.parametrize(
        "rels",
        [
            # index 3 outside 1..2 first, then index 4, then a degree above the cap
            [("a1* a1", "1 + mu^2 a1 a1*"), ("a3", "0"), ("a4", "0"), ("a1 a1 a1", "0")],
            [("a1 a1 a1", "0"), ("a3", "0")],
            # r0 is measured, so r1's degree above the cap raises
            [("a1 + a1*", "0"), ("a1 a1 a1", "0")],
            [("a1", "a1*"), ("a2 a1 a1", "0"), ("a1 + a2*", "0")],
        ],
    )
    def test_errors_come_in_relation_order(self, rels):
        d, cap = 2, 2
        relset = RelationSet(
            kind="bad",
            relations=tuple(
                Relation(f"r{k}", parse_polynomial(lhs, 4), parse_polynomial(rhs, 4))
                for k, (lhs, rhs) in enumerate(rels)
            ),
        )
        with pytest.raises(ValueError) as want:
            # the first error of the operator path, which also raised on a side that is not monomial
            for rel in relset.relations:
                try:
                    reference_residuals(build_fock_tccr(d, 0.5, cap), RelationSet(kind="one", relations=(rel,)), 0.5)
                except ValueError as exc:
                    if "not monomial" not in str(exc):
                        raise
        with pytest.raises(ValueError) as got:
            measure(build_fock_tccr(d, 0.5, cap), relset, 0.5)
        assert type(got.value) is type(want.value) and str(got.value) == str(want.value)


class TestResidualMemory:
    @pytest.mark.parametrize(
        "build, check",
        [
            (lambda: build_fock_tccr(5, 0.5, 6), tccr_residuals),
            (lambda: build_irrep(IrrepSpec(d=5, class_j=5, cap=6)), pi_residuals),
        ],
    )
    def test_d5_relation_sets_keep_nothing(self, build, check):
        fam = build()
        # the family's own column form, built once by its first kernel pass
        fam.letter_tables
        tracemalloc.start()
        try:
            report = check(fam)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.all_passed, report.worst()
        assert retained < 2**20, retained / 2**20
        # the operator path peaked at 29 and 17 MB here, and kept 27 and 15 MB of cached words
        assert peak < 24 * 2**20, peak / 2**20

    def test_a_false_relation_at_d5_fails_with_its_residual(self, monkeypatch):
        fam = build_fock_tccr(5, 0.5, 6)
        fam.letter_tables
        relset = RelationSet(kind="false", relations=(Relation("r", NcPolynomial.generator(1), NcPolynomial.generator(2)),))
        tracemalloc.start()
        try:
            direct = core_residual(fam.ops[0], fam.ops[1], 1)
            [kernel] = kernel_residuals(monkeypatch, fam, relset, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert direct == pytest.approx(1.6327938097016, abs=1e-12)
        assert kernel == pytest.approx(1.6327938097016, abs=1e-12)
        # the dense core block of a1 - a2 asked for one 16807^2 array, 4.2 GiB
        assert peak < 60 * 2**20, peak / 2**20

    def test_roundtrip_checks_six_families(self, monkeypatch):
        checked = []
        residuals = relations.relation_residuals

        def record(family, *args, **kwargs):
            checked.append(family)
            return residuals(family, *args, **kwargs)

        monkeypatch.setattr(relations, "relation_residuals", record)
        t, a = build_irrep(IrrepSpec(d=3, class_j=3, cap=6)), build_fock_tccr(3, 0.5, 6)
        report = roundtrip_check(t, 0.5, a=a)
        assert report.all_passed, report.worst()
        # the gates of the four constructions and the re-checks of the reconstructed families
        assert len(checked) == 6 and t in checked and a in checked


class TestNormBound:
    def test_half_deformation_bound_value(self):
        fam = build_fock_tccr(2, 0.5, 8)
        report = norm_bound_check(fam)
        assert report.all_passed
        assert "1.33333333333" in report.checks[0].description

    def test_undeformed_bound_is_one(self):
        fam = build_fock_tccr(2, 0.0, 6)
        report = norm_bound_check(fam)
        assert report.all_passed
        for op in fam.ops:
            assert operator_norm(op @ op.adjoint()) == pytest.approx(1.0, abs=1e-12)

    def test_strong_deformation_truncated_value_below_bound(self):
        mu, cap = 0.9, 10
        fam = build_fock_tccr(1, mu, cap)
        report = norm_bound_check(fam)
        assert report.all_passed
        val = operator_norm(fam.ops[0] @ fam.ops[0].adjoint())
        assert val == pytest.approx((1 - mu**20) / (1 - mu * mu), abs=1e-10)
        assert val < 1 / (1 - mu * mu)

    def test_bound_residual_is_the_excess(self):
        mu = 0.5
        fam = build_fock_tccr(2, mu, 8)
        bound_rows = [c for c in norm_bound_check(fam).checks if c.id.startswith("bound/")]
        assert [c.residual for c in bound_rows] == [0.0, 0.0]
        # doubling a2 raises norm(a2 a2*) fourfold, over the bound 1/(1 - mu^2)
        scaled = TccrFamily(basis=fam.basis, ops=(fam.ops[0], 2.0 * fam.ops[1]), mu=mu)
        report = norm_bound_check(scaled)
        rows = {c.id: c for c in report.checks}
        val = operator_norm(scaled.ops[1] @ scaled.ops[1].adjoint())
        assert rows["bound/i1"].residual == 0.0
        assert rows["bound/i2"].residual == pytest.approx(val - 1 / (1 - mu * mu), abs=1e-12)
        assert rows["bound/i2"].residual > 1.0
        assert not rows["bound/i2"].passed


class TestNormDomination:
    def test_single_letters_saturate(self):
        report = norm_domination_sample(
            2,
            8,
            words=[(gen(1),), (gen(2),)],
            classes=(1,),
            monotone_caps=(),
        )
        assert report.all_passed
        for check in report.checks:
            assert check.residual == pytest.approx(0.0, abs=1e-12)

    def test_projection_word_matches_across_classes(self):
        word = (gen(2), gen_star(2))
        report = norm_domination_sample(2, 8, words=[word], classes=(1,), monotone_caps=())
        assert report.all_passed

    def test_seeded_sample_with_ladder(self):
        report = norm_domination_sample(2, 10, n_words=20, max_len=5, seed=42)
        assert report.all_passed, report.worst()

    def test_class_validation(self):
        with pytest.raises(ValueError, match="classes"):
            norm_domination_sample(2, 6, classes=(2,))

    @pytest.mark.parametrize("kwargs, message", [
        ({"max_len": 7}, "max_len 7 exceeds cap 6"),
        ({"words": [(gen(1),), (gen_star(2), gen(1)) * 3 + (gen(2),)]}, "a word of length 7 exceeds cap 6"),
    ])
    def test_words_longer_than_the_cap_are_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            norm_domination_sample(2, 6, **kwargs)

    def test_deterministic_for_fixed_seed(self):
        r1 = norm_domination_sample(2, 8, n_words=5, seed=7, monotone_caps=())
        r2 = norm_domination_sample(2, 8, n_words=5, seed=7, monotone_caps=())
        assert r1.to_json() == r2.to_json()

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("phase", [0.0, math.pi / 3])
    def test_one_suffix_plan_gives_the_per_family_norms(self, monkeypatch, d, phase):
        shared_norms = tccr.symbolic._word_norms_each
        suffix_plan = tccr.symbolic._suffix_plan
        seen, plans = [], []

        def record(families, words):
            families = list(families)
            for fam, norms in zip(families, shared_norms(families, words)):
                seen.append((fam, words, norms))
                yield norms

        def count_plans(*args):
            plans.append(args)
            return suffix_plan(*args)

        monkeypatch.setattr(relations, "_word_norms_each", record)
        monkeypatch.setattr(tccr.symbolic, "_suffix_plan", count_plans)
        report = norm_domination_sample(d, 6, phase=phase, n_words=200, max_len=6, seed=5)
        assert report.all_passed, report.worst()
        # Fock, each class, and the ladder caps 4, 6, 8: every family fits one block, so one plan serves all
        assert len(seen) == 1 + d + 3
        assert len(plans) == 1
        monkeypatch.undo()
        for fam, words, norms in seen:
            assert norms.tobytes() == word_norms(fam, words).tobytes()


class TestSlotCollapse:
    def test_shift_slot_passes_through(self):
        # the first generator of the two-slot family collapses onto the plain shift
        scalar, collapsed = apply_collapse(fock_generator_slots(2, 1), 1, 0.7)
        assert scalar == 1.0
        assert collapsed == ((SHIFT,),)
        assert np.array_equal(tensor_word_matrix(collapsed, 5).matrix, shift_matrix(5))

    def test_phase_slot_becomes_scalar(self):
        phase = 1.1
        scalar, collapsed = apply_collapse(fock_generator_slots(2, 2), 1, phase)
        assert scalar == pytest.approx(np.exp(1j * phase))
        assert collapsed == ((DEFECT,),)
        assert np.array_equal(tensor_word_matrix(collapsed, 5).matrix, defect_matrix(5))

    def test_defect_beyond_phase_slot_kills_generator(self):
        scalar, _ = apply_collapse(fock_generator_slots(3, 3), 1, 0.3)
        assert scalar == 0.0

    @pytest.mark.parametrize("d", [2, 3])
    def test_generator_equalities_all_classes(self, d):
        for class_j in range(d):
            for phase in (0.0, math.pi / 3, math.pi):
                report = collapse_check(d, class_j, phase, 6)
                assert report.all_passed, (d, class_j, phase, report.worst())
                assert report.worst().residual <= 1e-12

    def test_top_class_rejected(self):
        with pytest.raises(ValueError, match="top class"):
            collapse_check(2, 2, 0.0, 4)

    def test_non_finite_phase_rejected_before_any_check(self):
        with pytest.raises(ValueError, match="phase must be finite"):
            collapse_check(2, 0, math.nan, 4)

    def test_multiplicative_on_sampled_tensor_words(self):
        rng = random.Random(99)
        symbols = (SHIFT, SHIFT_STAR, DEFECT)
        d, class_j, phase, cap = 3, 1, math.pi / 3, 4

        def sample_tensor_word():
            return tuple(
                tuple(rng.choice(symbols) for _ in range(rng.randint(0, 2)))
                for _ in range(d)
            )

        for _ in range(25):
            u, v = sample_tensor_word(), sample_tensor_word()
            su, wu = apply_collapse(u, class_j, phase)
            sv, wv = apply_collapse(v, class_j, phase)
            suv, wuv = apply_collapse(tensor_word_product(u, v), class_j, phase)
            lhs = suv * tensor_word_matrix(wuv, cap)
            rhs = (su * tensor_word_matrix(wu, cap)) @ (sv * tensor_word_matrix(wv, cap))
            assert np.max(np.abs(lhs.matrix - rhs.matrix)) <= 1e-10

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("cap", [1, 2, 3, 4, 5])
    def test_index_arithmetic_matches_the_kron_reference_bitwise(self, d, cap):
        rng = random.Random(f"{d}:{cap}")
        symbols = (SHIFT, SHIFT_STAR, DEFECT)
        words = [(), ((),) * d, tuple((symbol,) for symbol in symbols[:d])]
        words += [((symbol,),) * d for symbol in symbols]
        words += [
            tuple(tuple(rng.choice(symbols) for _ in range(rng.randint(0, 3))) for _ in range(d))
            for _ in range(20)
        ]
        for word in words:
            op = tensor_word_matrix(word, cap)
            assert op.basis.slots == max(len(word), 1)
            assert op.matrix.tobytes() == tensor_word_kron(word, cap).tobytes(), word

    @pytest.mark.parametrize("phase", [1e6, 1e308, -1.0, 7.0])
    def test_phase_outside_one_period_collapses_exactly(self, phase):
        # the target family reduces the phase mod 2 pi, and the collapse uses the same reduced phase
        for d in (2, 3):
            for class_j in range(d):
                report = collapse_check(d, class_j, phase, 4)
                assert [c.residual for c in report.checks] == [0.0] * d, (d, class_j)

    def test_wrong_collapse_image_fails_instead_of_raising(self, monkeypatch, tmp_path):
        # S* where S belongs: the difference S* - S is not monomial, so it is measured densely
        original = apply_collapse

        def starred(word, class_j, phase):
            scalar, kept = original(word, class_j, phase)
            return scalar, tuple(tuple(SHIFT_STAR if s == SHIFT else s for s in slot) for slot in kept)

        monkeypatch.setattr(relations, "apply_collapse", starred)
        report = collapse_check(2, 1, 0.0, 4)
        assert [c.passed for c in report.checks] == [False, True]
        assert report.checks[0].residual == pytest.approx(math.sqrt(3), abs=1e-12)
        argv = ["faithfulness", "--d", "2", "--cap", "4", "--words", "3", "--max-len", "4"]
        assert main([*argv, "--out", str(tmp_path / "report.json")]) == 1

    def test_collapse_builds_no_dense_matrix(self):
        # dim 2401 on 4 slots: one dense complex matrix would be 92 MB
        tracemalloc.start()
        try:
            report = collapse_check(5, 4, 0.5, 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.all_passed
        assert peak < 60 * 2**20, peak / 2**20


class TestReportSerialization:
    def make_report(self):
        fam = build_fock_tccr(2, 0.5, 6)
        report = tccr_residuals(fam)
        report.params["note"] = "serialization fixture"
        return report

    def test_json_roundtrip_is_bit_exact(self):
        report = self.make_report()
        text = report.to_json()
        back = VerificationReport.from_json(text)
        assert back.to_json() == text

    def test_pass_flags_recomputed_on_load(self):
        report = self.make_report()
        doc = json.loads(report.to_json())
        # stored flags contradict the numbers; loading must ignore them
        doc["checks"][0]["pass"] = False
        doc["checks"][1]["residual"] = 2.0 * doc["checks"][1]["tolerance"]
        doc["checks"][1]["pass"] = True
        back = VerificationReport.from_dict(doc)
        by_id = {c.id: c for c in back.checks}
        assert by_id[doc["checks"][0]["id"]].passed
        assert not by_id[doc["checks"][1]["id"]].passed
        assert back.passed == back.total - 1

    def test_summary_counts_consistent(self):
        report = self.make_report()
        doc = json.loads(report.to_json())
        assert doc["summary"]["total"] == len(doc["checks"])
        assert doc["summary"]["passed"] == sum(1 for c in doc["checks"] if c["pass"])

    def test_csv_header_and_rows(self):
        report = self.make_report()
        lines = report.to_csv().splitlines()
        assert lines[0] == "id,description,residual,tolerance,pass"
        assert len(lines) == report.total + 1

    def test_markdown_contains_all_checks(self):
        report = self.make_report()
        text = report.to_markdown()
        for check in report.checks:
            assert check.id in text

    def test_duplicate_check_ids_rejected(self):
        report = VerificationReport(command="x")
        report.add("a", "first", 0.0, 1.0)
        with pytest.raises(ValueError, match="duplicate"):
            report.add("a", "again", 0.0, 1.0)

    def test_duplicate_check_ids_rejected_by_extend(self):
        report = VerificationReport(command="x")
        report.add("a", "first", 0.0, 1.0)
        other = VerificationReport(command="y")
        other.add("a", "second", 0.0, 1.0)
        with pytest.raises(ValueError, match="duplicate"):
            report.extend(other)

    def test_duplicate_check_ids_rejected_by_merge(self):
        parts = []
        for name in ("x", "y"):
            part = VerificationReport(command=name)
            part.add("shared", name, 0.0, 1.0)
            parts.append(part)
        with pytest.raises(ValueError, match="duplicate"):
            merge_reports("both", {}, parts)

    def test_duplicate_check_ids_rejected_on_load(self):
        doc = json.loads(self.make_report().to_json())
        doc["checks"].append(dict(doc["checks"][0]))
        with pytest.raises(ValueError, match="duplicate"):
            VerificationReport.from_dict(doc)
        with pytest.raises(ValueError, match="duplicate"):
            VerificationReport(command="x", checks=[Check("a", "", 0.0, 1.0), Check("a", "", 0.0, 1.0)])

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e999"])
    def test_non_finite_values_rejected_on_load(self, token):
        text = self.make_report().to_json()
        doc = json.loads(text)
        first = doc["checks"][0]
        broken = text.replace(f'"residual": {json.dumps(first["residual"])}', f'"residual": {token}', 1)
        assert broken != text
        with pytest.raises(ValueError, match="non-finite"):
            VerificationReport.from_json(broken)

    @pytest.mark.parametrize("residual,tolerance", [(math.nan, 1.0), (0.0, math.inf), (math.inf, 1.0)])
    def test_non_finite_checks_rejected(self, residual, tolerance):
        report = VerificationReport(command="x")
        with pytest.raises(ValueError, match="non-finite"):
            report.add("a", "bad", residual, tolerance)
        assert report.total == 0

    @pytest.mark.parametrize("residual,tolerance", [(1.7976931348623157e308, 1.0), (0.0, 1.7976931348623157e308),
                                                    (-1.7976931348623157e308, 1.0)])
    def test_checks_that_overflow_at_15_digits_are_rejected(self, residual, tolerance):
        report = VerificationReport(command="x")
        with pytest.raises(ValueError, match="15 significant digits"):
            report.add("a", "overflows when written", residual, tolerance)
        assert report.total == 0

    def test_largest_check_finite_at_15_digits_is_written(self):
        report = VerificationReport(command="x")
        report.add("a", "largest writable", 1.797693134862315e308, 1.797693134862315e308)
        assert "1.79769313486231e+308" in report.to_json()
        assert VerificationReport.from_json(report.to_json()).to_json() == report.to_json()

    def test_json_output_is_strict(self):
        report = self.make_report()
        report.params["bad"] = math.nan
        with pytest.raises(ValueError):
            report.to_json()
