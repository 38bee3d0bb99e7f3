import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tccr.families
import tccr.symbolic
from tccr.families import build_fock_tccr
from tccr.fock import CapacityError, LinearOperator, TruncationError
from tccr.symbolic import (
    Letter,
    MuPoly,
    NcPolynomial,
    ParseError,
    eval_and_bridge,
    evaluate_mu_matrix,
    evaluate_poly,
    evaluate_word,
    gen,
    gen_star,
    gram_basis_words,
    gram_matrix,
    normal_order,
    parse_polynomial,
    random_polynomial,
    random_word,
    vacuum_expectation,
    word_adjoint,
)

MU_SAMPLES = (-0.9, -0.5, 0.0, 0.3, 0.7, 0.9)


def word(*letters):
    return NcPolynomial.from_word(letters)


def seeded_poly(seed, d=2, max_degree=4):
    return random_polynomial(d, max_degree, random.Random(seed))


class TestMuPoly:
    def test_zero_coefficients_dropped(self):
        assert MuPoly({2: 0}).is_zero
        assert (MuPoly({1: 1}) - MuPoly({1: 1})).is_zero

    def test_arithmetic_is_exact(self):
        p = MuPoly({0: Fraction(1, 3), 2: 1})
        q = MuPoly({2: Fraction(2, 3)})
        assert (p + q) == MuPoly({0: Fraction(1, 3), 2: Fraction(5, 3)})
        assert p * q == MuPoly({2: Fraction(2, 9), 4: Fraction(2, 3)})

    def test_str_forms(self):
        assert str(MuPoly({0: 1, 2: -1})) == "1 - mu^2"
        assert str(MuPoly({1: 1})) == "mu"
        assert str(MuPoly({3: Fraction(3, 2)})) == "3/2 mu^3"
        assert str(MuPoly.zero()) == "0"

    def test_evaluate(self):
        p = MuPoly({0: 1, 2: -1})
        assert p.evaluate(0.5) == pytest.approx(0.75)


class TestNormalOrder:
    def test_cross_star_pair(self):
        got = normal_order(word(gen_star(1), gen(2)), 2)
        assert got == NcPolynomial.from_word((gen(2), gen_star(1)), MuPoly.mu(1))

    def test_diagonal_pair_first_index(self):
        got = normal_order(word(gen_star(1), gen(1)), 2)
        expected = NcPolynomial.one() + NcPolynomial.from_word(
            (gen(1), gen_star(1)), MuPoly.mu(2)
        )
        assert got == expected

    def test_diagonal_pair_higher_index_picks_up_lower_sum(self):
        got = normal_order(word(gen_star(2), gen(2)), 2)
        expected = (
            NcPolynomial.one()
            + NcPolynomial.from_word((gen(2), gen_star(2)), MuPoly.mu(2))
            - NcPolynomial.from_word((gen(1), gen_star(1)), MuPoly({0: 1, 2: -1}))
        )
        assert got == expected

    def test_unstarred_swap(self):
        got = normal_order(word(gen(2), gen(1)), 2)
        assert got == NcPolynomial.from_word((gen(1), gen(2)), MuPoly.mu(1))

    def test_starred_swap(self):
        got = normal_order(word(gen_star(1), gen_star(2)), 2)
        assert got == NcPolynomial.from_word((gen_star(2), gen_star(1)), MuPoly.mu(1))

    def test_normal_word_is_fixed_point(self):
        p = word(gen(1), gen(2), gen_star(2), gen_star(1))
        assert normal_order(p, 2) == p

    def test_index_beyond_d_rejected(self):
        with pytest.raises(ValueError, match="index 3"):
            normal_order(word(gen(3)), 2)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="strategy"):
            normal_order(NcPolynomial.one(), 1, strategy="sideways")

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_idempotent(self, seed):
        p = seeded_poly(seed)
        nf = normal_order(p, 2)
        assert normal_order(nf, 2) == nf

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_never_increases_degree(self, seed):
        p = seeded_poly(seed)
        assert normal_order(p, 2).degree() <= p.degree()

    def test_diagonal_rewrite_branches_at_most_d_plus_one(self):
        # one reduction of x_i* x_i yields 1 + mu^2-swap + (i-1) lower terms
        d = 4
        for i in range(1, d + 1):
            out = normal_order(word(gen_star(i), gen(i)), d)
            assert len(out.terms()) == i + 1 <= d + 1

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_commutes_with_adjoint(self, seed):
        p = seeded_poly(seed)
        assert normal_order(p.adjoint(), 2) == normal_order(p, 2).adjoint()

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_strategies_agree(self, seed):
        p = seeded_poly(seed, d=3, max_degree=5)
        left = normal_order(p, 3, strategy="leftmost")
        right = normal_order(p, 3, strategy="rightmost")
        assert left == right


class TestAdjoint:
    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_involution(self, seed):
        p = seeded_poly(seed)
        assert p.adjoint().adjoint() == p

    @given(st.integers(0, 10_000), st.integers(10_001, 20_000))
    @settings(max_examples=30, deadline=None)
    def test_antihomomorphism(self, s1, s2):
        p, q = seeded_poly(s1, max_degree=3), seeded_poly(s2, max_degree=3)
        assert (p * q).adjoint() == q.adjoint() * p.adjoint()


class TestVacuumExpectation:
    def test_number_word(self):
        assert vacuum_expectation(word(gen_star(1), gen(1)), 1) == MuPoly.one()

    def test_two_quanta_word(self):
        got = vacuum_expectation(word(gen_star(1), gen_star(1), gen(1), gen(1)), 1)
        assert got == MuPoly({0: 1, 2: 1})

    def test_single_letter_vanishes(self):
        assert vacuum_expectation(word(gen(1)), 1).is_zero
        assert vacuum_expectation(word(gen_star(1)), 1).is_zero

    def test_normal_nonempty_word_vanishes(self):
        assert vacuum_expectation(word(gen(1), gen_star(1)), 1).is_zero

    @given(st.integers(0, 10_000), st.integers(10_001, 20_000))
    @settings(max_examples=25, deadline=None)
    def test_linearity(self, s1, s2):
        p, q = seeded_poly(s1), seeded_poly(s2)
        lhs = vacuum_expectation(p + q, 2)
        assert lhs == vacuum_expectation(p, 2) + vacuum_expectation(q, 2)


class TestGramMatrix:
    def test_basis_ordering(self):
        words = gram_basis_words(2, 2)
        assert words[0] == ()
        assert words[1:3] == [(gen(1),), (gen(2),)]
        assert len(words) == 7

    def test_level_one_two_generators(self):
        _, entries = gram_matrix(1, 2)
        expected = [
            [MuPoly.one(), MuPoly.zero(), MuPoly.zero()],
            [MuPoly.zero(), MuPoly.one(), MuPoly.zero()],
            [MuPoly.zero(), MuPoly.zero(), MuPoly.one()],
        ]
        assert entries == expected

    def test_level_two_single_generator(self):
        _, entries = gram_matrix(2, 1)
        assert entries[0][0] == MuPoly.one()
        assert entries[1][1] == MuPoly.one()
        assert entries[2][2] == MuPoly({0: 1, 2: 1})
        for r in range(3):
            for c in range(3):
                if r != c:
                    assert entries[r][c].is_zero

    def test_symmetry_holds_entrywise(self):
        words, entries = gram_matrix(2, 2)
        for r in range(len(words)):
            for c in range(len(words)):
                direct = vacuum_expectation(
                    NcPolynomial.from_word(word_adjoint(words[c]) + words[r]), 2
                )
                assert entries[r][c] == direct
                assert entries[r][c] == entries[c][r]

    def test_mu_zero_evaluation_is_zero_one_diagonal(self):
        words, entries = gram_matrix(2, 2)
        mat = evaluate_mu_matrix(entries, 0.0)
        assert np.array_equal(mat, np.diag(np.diag(mat)))
        diag = set(np.diag(mat).tolist())
        assert diag == {0.0, 1.0}
        # the unsorted word x2 x1 collapses at mu = 0
        k = words.index((gen(2), gen(1)))
        assert mat[k, k] == 0.0

    @pytest.mark.parametrize("level,d", [(2, 2), (3, 2), (4, 1), (4, 2)])
    def test_positivity_at_sampled_mu(self, level, d):
        _, entries = gram_matrix(level, d)
        for mu in MU_SAMPLES:
            low = np.linalg.eigvalsh(evaluate_mu_matrix(entries, mu))[0]
            assert low >= -1e-10, (level, d, mu, low)

    def test_capacity_bounds(self):
        # level 7 is one past GRAM_MAX_LEVEL; d = 4 at level 5 has 1365 > 400 basis words
        with pytest.raises(CapacityError):
            gram_matrix(7, 1)
        with pytest.raises(CapacityError):
            gram_matrix(5, 4)


def reference_vacuum(p, d):
    return normal_order(p, d).coefficient(())


def charge(w):
    """Nonzero charges #x_i - #x_i* of a word, by index."""
    net = Counter()
    for l in w:
        net[l.index] += -1 if l.starred else 1
    return {i: n for i, n in net.items() if n}


class TestVacuumFunctional:
    """The graded, memoised functional against the full normal form."""

    @pytest.mark.parametrize("level,d", [(lv, d) for d in (1, 2, 3) for lv in (0, 1, 2, 3)])
    def test_every_pairing_matches_the_normal_form(self, level, d):
        words, entries = gram_matrix(level, d)
        for r, v in enumerate(words):
            for c, w in enumerate(words):
                assert entries[r][c] == reference_vacuum(word(*word_adjoint(w), *v), d), (v, w)

    def test_random_polynomials_match_the_normal_form(self):
        for k in range(500):
            rng = random.Random(f"vacuum:{k}")
            d = 1 + k % 3
            p = random_polynomial(d, 6, rng)
            assert vacuum_expectation(p, d) == reference_vacuum(p, d), p

    def test_charge_is_preserved(self):
        # lemma 1: every word of the normal form has the charge of the input
        rng = random.Random("lemma1")
        charged = 0
        for _ in range(300):
            w = random_word(3, 6, rng)
            for nf_word, _ in normal_order(word(*w), 3).terms():
                assert charge(nf_word) == charge(w)
            if charge(w):
                charged += 1
                assert vacuum_expectation(word(*w), 3).is_zero
        assert charged > 100

    def test_unstarred_first_letter_survives(self):
        # lemma 2: every word of the normal form starts with an unstarred letter
        rng = random.Random("lemma2")
        for _ in range(300):
            w = (gen(rng.randint(1, 3)),) + random_word(3, 6, rng)
            for nf_word, _ in normal_order(word(*w), 3).terms():
                assert nf_word and not nf_word[0].starred
            assert vacuum_expectation(word(*w), 3).is_zero

    def test_starred_last_letter_survives(self):
        # lemma 3: every word of the normal form ends with a starred letter
        rng = random.Random("lemma3")
        for _ in range(300):
            w = random_word(3, 6, rng) + (gen_star(rng.randint(1, 3)),)
            for nf_word, _ in normal_order(word(*w), 3).terms():
                assert nf_word and nf_word[-1].starred
            assert vacuum_expectation(word(*w), 3).is_zero

    @pytest.mark.parametrize(
        "letters",
        [
            (gen_star(1), gen(2)),  # lemma 1: charge +1 on index 2, -1 on index 1
            (gen(1), gen_star(2), gen(2), gen_star(1)),  # lemma 2: unstarred first letter
            (gen_star(1), gen(1), gen(2), gen_star(2)),  # lemma 3: starred last letter
        ],
    )
    def test_pruned_words_are_never_reduced(self, letters, monkeypatch):
        assert reference_vacuum(word(*letters), 2).is_zero
        monkeypatch.setattr(tccr.symbolic, "_find_redex", None)
        assert vacuum_expectation(word(*letters), 2).is_zero

    def test_gram_reduces_only_pairings_of_equal_content(self, monkeypatch):
        reduced = []
        vacuum_word = tccr.symbolic._vacuum_word

        def record(w, memo):
            reduced.append(w)
            return vacuum_word(w, memo)

        monkeypatch.setattr(tccr.symbolic, "_vacuum_word", record)
        words, _ = gram_matrix(3, 2)
        same_content = sum(
            sorted(v) == sorted(w) for r, v in enumerate(words) for w in words[: r + 1]
        )
        assert len(reduced) == same_content < len(words) * (len(words) + 1) // 2

    def test_long_word_needs_no_recursion(self):
        # (a1* a1)^1200 = 1 on the vacuum, through a chain of 1200 memoised words
        long_word = (gen_star(1), gen(1)) * 1200
        assert vacuum_expectation(word(*long_word), 1) == MuPoly.one()

    def test_index_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="index 3"):
            vacuum_expectation(word(gen_star(3), gen(3)), 2)
        with pytest.raises(ValueError, match="index 0"):
            vacuum_expectation(word(Letter(0, True), Letter(0, False)), 2)

    def test_independent_of_the_matrix_path(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the exact engine touched the numeric model")

        monkeypatch.setattr(tccr.families, "build_fock_tccr", refuse)
        monkeypatch.setattr(tccr.symbolic, "evaluate_word", refuse)
        monkeypatch.setattr(LinearOperator, "__matmul__", refuse)
        words, entries = gram_matrix(3, 2)
        for r, v in enumerate(words):
            for c, w in enumerate(words):
                assert entries[r][c] == reference_vacuum(word(*word_adjoint(w), *v), 2)
        for seed in range(40):
            p = seeded_poly(seed, d=3, max_degree=6)
            assert vacuum_expectation(p, 3) == reference_vacuum(p, 3)


class TestParser:
    def test_golden_relation(self):
        text = "a1* a1 - 1 - mu^2 a1 a1*"
        got = parse_polynomial(text, 1)
        expected = (
            word(gen_star(1), gen(1))
            - NcPolynomial.one()
            - NcPolynomial.from_word((gen(1), gen_star(1)), MuPoly.mu(2))
        )
        assert got == expected

    def test_rational_and_mu_factors(self):
        got = parse_polynomial("3/2 mu^3 a2 a1*", 2)
        assert got == NcPolynomial.from_word(
            (gen(2), gen_star(1)), MuPoly.mu(3, Fraction(3, 2))
        )

    def test_leading_minus(self):
        assert parse_polynomial("- a1", 1) == -NcPolynomial.generator(1)

    def test_index_out_of_range_reports_position(self):
        with pytest.raises(ParseError) as err:
            parse_polynomial("a1 + mu a3", 2)
        assert err.value.position == 8

    def test_bad_character_reports_position(self):
        with pytest.raises(ParseError) as err:
            parse_polynomial("a1 % a2", 2)
        assert err.value.position == 3

    def test_empty_term_rejected(self):
        with pytest.raises(ParseError):
            parse_polynomial("a1 + ", 2)
        with pytest.raises(ParseError):
            parse_polynomial("", 2)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_text_roundtrip(self, seed):
        p = seeded_poly(seed)
        assert parse_polynomial(p.to_text(), 2) == p


class TestIndexRejection:
    @pytest.mark.parametrize("index", [0, -1])
    @pytest.mark.parametrize("starred", [False, True])
    def test_evaluate_word_rejects_non_positive_index(self, index, starred):
        fam = build_fock_tccr(2, 0.5, 3)
        with pytest.raises(ValueError, match=f"index {index}"):
            evaluate_word(fam, (Letter(index, starred),))
        with pytest.raises(ValueError, match=f"index {index}"):
            evaluate_word(fam, (gen(1), Letter(index, starred)))

    @pytest.mark.parametrize("index", [0, -1])
    def test_evaluate_poly_rejects_non_positive_index(self, index):
        fam = build_fock_tccr(2, 0.5, 3)
        p = NcPolynomial.generator(2) + NcPolynomial.from_word((Letter(index, True),))
        with pytest.raises(ValueError, match=f"index {index}"):
            evaluate_poly(fam, p, 0.5)

    def test_index_beyond_d_rejected(self):
        fam = build_fock_tccr(2, 0.5, 3)
        with pytest.raises(ValueError, match="index 3"):
            evaluate_word(fam, (gen(3),))
        with pytest.raises(ValueError, match="index 3"):
            evaluate_poly(fam, NcPolynomial.generator(3), 0.5)


class TestEvalAndBridge:
    def test_number_word(self):
        fam = build_fock_tccr(1, 0.5, 8)
        report = eval_and_bridge(word(gen_star(1), gen(1)), fam)
        assert report.all_passed

    def test_two_quanta_value(self):
        fam = build_fock_tccr(1, 0.5, 8)
        p = word(gen_star(1), gen_star(1), gen(1), gen(1))
        exact = vacuum_expectation(p, 1).evaluate(0.5)
        assert exact == pytest.approx(1.25, abs=1e-15)
        assert eval_and_bridge(p, fam).all_passed

    def test_degree_beyond_cap_rejected(self):
        fam = build_fock_tccr(1, 0.5, 3)
        deep = NcPolynomial.from_word((gen(1),) * 4)
        with pytest.raises(TruncationError):
            eval_and_bridge(deep, fam)

    @pytest.mark.parametrize("mu", [-0.9, 0.3, 0.7])
    def test_seeded_random_sample(self, mu):
        fam = build_fock_tccr(2, mu, 8)
        for k in range(30):
            poly = random_polynomial(2, 5, random.Random(f"bridge:{k}"))
            report = eval_and_bridge(poly, fam)
            assert report.all_passed, (mu, k, report.worst())
