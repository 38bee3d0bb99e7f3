import functools
import itertools
import math
import operator
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tccr.algebra
import tccr.families
import tccr.symbolic
from tccr.cli import run_gram
from tccr.families import GeneratorFamily, IrrepSpec, TccrFamily, build_fock_tccr, build_irrep
from tccr.fock import (
    CapacityError,
    LinearOperator,
    Monomial,
    TruncationError,
    enumerate_basis,
    identity,
    operator_norm,
)
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
    word_norms,
)
from tccr.reconstruct import generators_from_isometries
from tccr.report import VerificationReport
from tccr.symbolic import _word_norms_each

from padded_word_kernel import padded_vacuum_value, padded_word_columns, padded_word_norms
import vacuum_fraction_reference

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

    @pytest.mark.parametrize("coeffs", [{0.5: 1}, {2.0: 1}, {True: 1}, {False: 1}, {"1": 1}, {None: 1}])
    def test_non_integer_exponents_rejected(self, coeffs):
        with pytest.raises(ValueError, match="integer"):
            MuPoly(coeffs)

    def test_non_integer_exponents_rejected_by_the_named_constructors(self):
        with pytest.raises(ValueError, match="integer"):
            MuPoly.mu(1.5, 2)
        with pytest.raises(ValueError, match="integer"):
            MuPoly.mu(True)
        with pytest.raises(ValueError, match="negative"):
            MuPoly.mu(-1)

    @pytest.mark.parametrize("other", [1, Fraction(1, 2), 0.5, "mu", None])
    def test_sums_with_non_polynomials_raise_type_error(self, other):
        for op in (operator.add, operator.sub):
            with pytest.raises(TypeError):
                op(MuPoly.one(), other)
            with pytest.raises(TypeError):
                op(other, MuPoly.one())

    def test_products_with_non_scalars_raise_type_error(self):
        for other in (0.5, "mu", None):
            with pytest.raises(TypeError):
                MuPoly.one() * other
            with pytest.raises(TypeError):
                other * MuPoly.one()


def random_mu_poly(rng):
    """A MuPoly with signed fractional coefficients, sometimes zero, built through the validating constructor."""
    return MuPoly(
        {rng.randint(0, 5): Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(rng.randint(0, 5))}
    )


def cancelling_partner(p, rng):
    """A MuPoly that cancels some or all of ``p``'s terms when added to it."""
    coeffs = {e: -c for e, c in p._coeffs.items() if rng.random() < 0.7}
    coeffs.update({rng.randint(0, 5): Fraction(rng.randint(-3, 3), 2) for _ in range(rng.randint(0, 2))})
    return MuPoly(coeffs)


def reference_sum(p, q, sign=1):
    """Test-only reference for ``p + sign * q``, rebuilt through the validating constructor."""
    out = dict(p._coeffs)
    for e, c in q._coeffs.items():
        out[e] = out.get(e, Fraction(0)) + sign * c
    return MuPoly(out)


def reference_product(p, q):
    out = {}
    for e1, c1 in p._coeffs.items():
        for e2, c2 in q._coeffs.items():
            out[e1 + e2] = out.get(e1 + e2, Fraction(0)) + c1 * c2
    return MuPoly(out)


def assert_same_poly(got, want):
    # insertion order too: evaluate sums the terms in it
    assert list(got._coeffs.items()) == list(want._coeffs.items()), (got, want)
    assert all(type(c) is Fraction and c for c in got._coeffs.values()), got
    assert all(type(e) is int for e in got._coeffs), got
    assert str(got) == str(want) and hash(got) == hash(want)


def test_symbolic_re_exports_the_algebra():
    # callers and the traced benchmark reach these names through tccr.symbolic
    assert all(getattr(tccr.symbolic, name) is getattr(tccr.algebra, name) for name in tccr.algebra.__all__)
    assert set(tccr.algebra.__all__) <= set(tccr.symbolic.__all__)


class TestClosedMuPolyArithmetic:
    """The closed operations against a reference that re-validates every result."""

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_the_validating_reference(self, seed):
        rng = random.Random(f"mupoly:{seed}")
        for _ in range(60):
            p = random_mu_poly(rng)
            q = cancelling_partner(p, rng) if rng.random() < 0.5 else random_mu_poly(rng)
            scalar = rng.choice([0, 1, -1, 3, Fraction(0), Fraction(-2, 3), Fraction(5, 4)])
            assert_same_poly(p + q, reference_sum(p, q))
            assert_same_poly(p - q, reference_sum(p, q, -1))
            assert_same_poly(-p, MuPoly({e: -c for e, c in p._coeffs.items()}))
            assert_same_poly(p * q, reference_product(p, q))
            want = MuPoly({e: c * scalar for e, c in p._coeffs.items()})
            assert_same_poly(p * scalar, want)
            assert_same_poly(scalar * p, want)
            assert (p + -p).is_zero and (p - p).is_zero and (p * 0).is_zero and (p * Fraction(0)).is_zero

    def test_cancelling_sums_drop_their_terms(self):
        p = MuPoly({0: 1, 1: Fraction(-1, 2), 3: 2})
        q = MuPoly({1: Fraction(1, 2), 3: -2, 4: 1})
        assert (p + q)._coeffs == {0: 1, 4: 1}
        assert (p * MuPoly({0: 1, 1: -1}) + p * MuPoly.mu(1)) == p
        assert (MuPoly({0: 1, 1: 1}) * MuPoly({0: 1, 1: -1}))._coeffs == {0: 1, 2: -1}


def random_nc_poly(rng):
    """An NcPolynomial over few short words, so that sums and products collide, through the validating constructor."""
    return NcPolynomial({random_word(2, 2, rng, min_len=0): random_mu_poly(rng) for _ in range(rng.randint(0, 5))})


def nc_cancelling_partner(p, rng):
    """An NcPolynomial that cancels some or all of ``p``'s coefficients when added to it."""
    terms = {w: cancelling_partner(c, rng) for w, c in p._terms.items() if rng.random() < 0.7}
    terms.update(random_nc_poly(rng)._terms)
    return NcPolynomial(terms)


def reference_nc_sum(p, q):
    """Test-only reference for ``p + q``: the sum rebuilt through the validating constructor."""
    out = dict(p._terms)
    for w, c in q._terms.items():
        acc = out.get(w)
        out[w] = c if acc is None else acc + c
    return NcPolynomial(out)


def reference_nc_product(p, q):
    out = {}
    for w1, c1 in p._terms.items():
        for w2, c2 in q._terms.items():
            acc = out.get(w1 + w2)
            out[w1 + w2] = c1 * c2 if acc is None else acc + c1 * c2
    return NcPolynomial(out)


def assert_same_nc_poly(got, want):
    # insertion order too: to_text and the bridge read terms() sorted, but sums and products follow it
    assert list(got._terms) == list(want._terms), (got, want)
    assert all(type(w) is tuple for w in got._terms), got
    for c, ref in zip(got._terms.values(), want._terms.values()):
        assert not c.is_zero
        assert_same_poly(c, ref)


class TestClosedNcPolynomialArithmetic:
    """The closed operations against a reference that re-validates every result."""

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_the_validating_reference(self, seed):
        rng = random.Random(f"ncpoly:{seed}")
        cancelled = 0
        for _ in range(60):
            p = random_nc_poly(rng)
            q = nc_cancelling_partner(p, rng) if rng.random() < 0.5 else random_nc_poly(rng)
            m = rng.choice([random_mu_poly(rng), MuPoly.zero()])
            scalar = rng.choice([0, 1, -2, Fraction(0), Fraction(-2, 3)])
            want_sum = reference_nc_sum(p, q)
            cancelled += len(want_sum._terms) < len(set(p._terms) | set(q._terms))
            assert_same_nc_poly(p + q, want_sum)
            assert_same_nc_poly(p - q, reference_nc_sum(p, NcPolynomial({w: -c for w, c in q._terms.items()})))
            assert_same_nc_poly(-p, NcPolynomial({w: -c for w, c in p._terms.items()}))
            assert_same_nc_poly(p * q, reference_nc_product(p, q))
            assert_same_nc_poly(p * m, NcPolynomial({w: c * m for w, c in p._terms.items()}))
            want = NcPolynomial({w: c * MuPoly.const(scalar) for w, c in p._terms.items()})
            assert_same_nc_poly(p * scalar, want)
            assert_same_nc_poly(scalar * p, want)
            assert_same_nc_poly(p.adjoint(), NcPolynomial({word_adjoint(w): c for w, c in p._terms.items()}))
            assert (p + -p).is_zero and (p - p).is_zero and (p * 0).is_zero
        assert cancelled > 0


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

    @pytest.mark.parametrize("level, d", [(2, -1), (6, -3), (2, 0)])
    def test_d_below_one_is_rejected_before_the_size_bound(self, level, d):
        with pytest.raises(ValueError, match=f"d must be >= 1, got {d}"):
            gram_matrix(level, d)
        with pytest.raises(ValueError, match=f"d must be >= 1, got {d}"):
            gram_basis_words(level, d)

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

    def test_zero_pairings_are_not_evaluated(self, monkeypatch):
        _, entries = gram_matrix(3, 3)
        want = {mu: np.array([[e.evaluate(mu) for e in row] for row in entries]) for mu in MU_SAMPLES}
        calls = Counter()
        evaluate = MuPoly.evaluate

        def counting(self, mu):
            calls[mu] += 1
            return evaluate(self, mu)

        monkeypatch.setattr(MuPoly, "evaluate", counting)
        nonzero = sum(not e.is_zero for row in entries for e in row)
        # a symmetric pair of entries is one object, evaluated once: 40 diagonal entries and 36 pairs
        distinct = len({id(e) for row in entries for e in row if not e.is_zero})
        assert (distinct, nonzero, len(entries) ** 2) == (76, 112, 1600)
        for mu in MU_SAMPLES:
            got = evaluate_mu_matrix(entries, mu)
            assert got.dtype == float and np.array_equal(got, want[mu]) and calls[mu] == distinct

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
        monkeypatch.setattr(tccr.symbolic, "_word_levels", refuse)
        monkeypatch.setattr(LinearOperator, "__matmul__", refuse)
        words, entries = gram_matrix(3, 2)
        for r, v in enumerate(words):
            for c, w in enumerate(words):
                assert entries[r][c] == reference_vacuum(word(*word_adjoint(w), *v), 2)
        for seed in range(40):
            p = seeded_poly(seed, d=3, max_degree=6)
            assert vacuum_expectation(p, 3) == reference_vacuum(p, 3)


def balanced_words(d, max_len):
    """Every word of zero charge with at most ``max_len`` letters: the only words lemma 1 lets reach the functional.

    Its starred and unstarred letters share one content: an unstarred sequence,
    a distinct rearrangement of it for the starred letters, and the positions
    of the starred letters.
    """
    for half in range(max_len // 2 + 1):
        for unstarred in itertools.product(range(1, d + 1), repeat=half):
            for starred in sorted(set(itertools.permutations(unstarred))):
                for spots in itertools.combinations(range(2 * half), half):
                    u, s = iter(unstarred), iter(starred)
                    yield tuple(
                        Letter(next(s), True) if k in spots else Letter(next(u), False) for k in range(2 * half)
                    )


def assert_same_integer_value(got, want):
    # the int value has the Fraction value's exponents in the same order, and its coefficients
    assert list(got._coeffs) == list(want._coeffs), (got, want)
    assert all(type(c) is int for c in got._coeffs.values()), got
    assert all(type(c) is Fraction for c in want._coeffs.values()), want
    assert list(got._coeffs.values()) == list(want._coeffs.values()), (got, want)


class TestIntegerVacuumFunctional:
    """The functional on int coefficients against the same reduction on Fractions."""

    @pytest.mark.parametrize("d, count", [(1, 99), (2, 5341), (3, 46687)])
    def test_every_balanced_word_matches_the_fraction_reference(self, d, count):
        words = list(balanced_words(d, 8))
        assert len(words) == len(set(words)) == count
        memo, reference_memo = {}, {}
        for w in words:
            got = tccr.symbolic._vacuum_word(w, memo)
            assert_same_integer_value(got, vacuum_fraction_reference.vacuum_word(w, reference_memo))
        assert memo.keys() == reference_memo.keys()
        for w, value in memo.items():
            assert_same_integer_value(value, reference_memo[w])

    @pytest.mark.parametrize("level, d", [(6, 1), (6, 2), (5, 3), (4, 4), (3, 5)])
    def test_gram_bases_match_the_fraction_reference(self, level, d):
        words, entries = gram_matrix(level, d)
        want_words, want = vacuum_fraction_reference.gram_matrix(level, d)
        assert words == want_words
        for r, (row, want_row) in enumerate(zip(entries, want)):
            for c, (e, ref) in enumerate(zip(row, want_row)):
                assert_same_poly(e, ref)
                assert e is entries[c][r]

    def test_polynomials_match_the_fraction_reference(self):
        for k in range(300):
            d = 1 + k % 3
            p = random_polynomial(d, 6, random.Random(f"integer:{k}"))
            assert_same_poly(vacuum_expectation(p, d), vacuum_fraction_reference.vacuum_expectation(p, d))


def restated_rule(a, b):
    """R1-R4 as the module docstring states them: (word, [(exponent, coefficient)]) terms, or None."""
    if a.starred and not b.starred and a.index == b.index:
        i = a.index
        lower = [((gen(k), gen_star(k)), [(0, -1), (2, 1)]) for k in range(1, i)]
        return [((), [(0, 1)]), ((gen(i), gen_star(i)), [(2, 1)]), *lower]
    if a.starred and not b.starred:
        return [((b, a), [(1, 1)])]
    if not a.starred and not b.starred and a.index > b.index:
        return [((b, a), [(1, 1)])]
    if a.starred and b.starred and a.index < b.index:
        return [((b, a), [(1, 1)])]
    return None


class TestRuleTable:
    """The one rule table ``_rule`` against R1-R4 restated, for every letter pair."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_every_letter_pair_matches_the_restated_rules(self, d):
        letters = [Letter(i, starred) for i in range(1, d + 1) for starred in (False, True)]
        for a, b in itertools.product(letters, repeat=2):
            got = tccr.symbolic._rule(a, b)
            # a normal word: unstarred letters with non-decreasing indices, then starred ones with non-increasing
            normal = (
                (not a.starred and (b.starred or a.index <= b.index))
                or (a.starred and b.starred and a.index >= b.index)
            )
            assert (got is None) == normal, (a, b)
            if got is not None:
                assert all(type(c) is int for _, coeff in got for c in coeff._coeffs.values()), (a, b)
                assert [(w, list(coeff._coeffs.items())) for w, coeff in got] == restated_rule(a, b), (a, b)

    def test_normal_order_keeps_fraction_coefficients(self):
        for seed in range(40):
            p = seeded_poly(seed, d=3, max_degree=4)
            for coeff in normal_order(p, 3)._terms.values():
                assert all(type(c) is Fraction for c in coeff._coeffs.values()), p


def reference_random_word(d, max_len, rng, min_len=1):
    """The sampler before its letter table: a new ``Letter`` per drawn letter."""
    length = rng.randint(min_len, max_len)
    return tuple(Letter(rng.randint(1, d), rng.random() < 0.5) for _ in range(length))


def reference_random_polynomial(d, max_degree, rng):
    out = NcPolynomial.zero()
    for _ in range(rng.randint(1, 4)):
        word = reference_random_word(d, max_degree, rng, min_len=0)
        num = rng.choice([-3, -2, -1, 1, 2, 3])
        den = rng.randint(1, 3)
        coeff = MuPoly.mu(rng.randint(0, 2), Fraction(num, den))
        out = out + NcPolynomial.from_word(word, coeff)
    return out


class TestSampler:
    """The table-driven sampler draws the same words, letter types and polynomials for every seed."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("min_len", [0, 1])
    def test_words(self, d, min_len):
        for k in range(2000):
            rng, ref = random.Random(f"{d}:{k}"), random.Random(f"{d}:{k}")
            word = random_word(d, 6, rng, min_len=min_len)
            assert word == reference_random_word(d, 6, ref, min_len=min_len)
            assert all(type(x) is Letter and type(x.index) is int and type(x.starred) is bool for x in word)
            assert rng.getstate() == ref.getstate()

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_polynomials(self, d):
        for k in range(2000):
            rng, ref = random.Random(f"{d}:{k}"), random.Random(f"{d}:{k}")
            got, want = random_polynomial(d, 5, rng), reference_random_polynomial(d, 5, ref)
            assert list(got._terms.items()) == list(want._terms.items())
            assert all(type(x) is Letter for word in got._terms for x in word)
            assert rng.getstate() == ref.getstate()


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

    @pytest.mark.parametrize("text, position", [("3/0", 0), ("2 1/0", 2), ("a1 - 5/00 a2", 5)])
    def test_zero_denominator_reports_position(self, text, position):
        with pytest.raises(ParseError, match="zero denominator") as err:
            parse_polynomial(text, 2)
        assert err.value.position == position

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

    @pytest.mark.parametrize("index", [0, -1, 3])
    @pytest.mark.parametrize("starred", [False, True])
    def test_word_norms_rejects_index_outside_range(self, index, starred):
        fam = build_fock_tccr(2, 0.5, 3)
        with pytest.raises(ValueError, match=f"index {index}"):
            word_norms(fam, [(gen(1),), (gen(2), Letter(index, starred))])


def fold_word(family, w):
    """Test-only reference: the product of a word's operators by ``@``, folded from the right.

    ``L1 (L2 (.. (Ln 1)))`` is the association of the recursive evaluation the
    kernel replaced; a fold from the left, ``((L1 L2) ..) Ln``, rounds the
    values differently.
    """
    letters = [family.ops[l.index - 1].adjoint() if l.starred else family.ops[l.index - 1] for l in w]
    return functools.reduce(lambda acc, op: op @ acc, reversed(letters), identity(family.basis))


def kernel_families():
    for d in (1, 2, 3):
        for j in range(d + 1):
            for phase in (0.0, math.pi / 3):
                yield pytest.param(lambda d=d, j=j, phase=phase: build_irrep(IrrepSpec(d, j, 4, phase)),
                                   id=f"d{d}-j{j}-phi{phase:.2f}")
        for mu in (-0.9, 0.0, 0.5):
            yield pytest.param(lambda d=d, mu=mu: build_fock_tccr(d, mu, 4), id=f"d{d}-fock-mu{mu}")


def kernel_words(d):
    rng = random.Random(f"kernel:{d}")
    return [()] + [random_word(d, 8, rng) for _ in range(300)]


def short_words():
    """Every word of length <= 4 over d = 2, shuffled, with repeats and the empty word in the middle."""
    letters = (gen(1), gen_star(1), gen(2), gen_star(2))
    words = [w for n in range(5) for w in itertools.product(letters, repeat=n) if w]
    random.Random("short-words").shuffle(words)
    return words[:170] + [(), words[3], words[3]] + words[170:] + words[::17]


def short_word_families():
    for j in range(3):
        for phase in (0.0, math.pi / 3):
            yield pytest.param(lambda j=j, phase=phase: build_irrep(IrrepSpec(2, j, 4, phase)),
                               id=f"j{j}-phi{phase:.2f}")
    for mu in (-0.9, 0.5):
        yield pytest.param(lambda mu=mu: build_fock_tccr(2, mu, 4), id=f"fock-mu{mu}")


def bridge_terms(words):
    """Term lists of one to five consecutive words, repeats kept, with mu-monomial coefficients."""
    out, k = [], 0
    while k < len(words):
        size = 1 + k % 5
        chunk = enumerate(words[k : k + size], k)
        out.append([(w, MuPoly.mu(m % 3, Fraction(m % 7 - 3 or 1, 1 + m % 2))) for m, w in chunk])
        k += size
    return out


def with_mu(fam):
    return fam if isinstance(fam, TccrFamily) else TccrFamily(basis=fam.basis, ops=fam.ops, mu=0.3)


class TestWordKernel:
    @pytest.mark.parametrize("make", kernel_families())
    def test_matches_the_fold(self, make):
        fam = make()
        words = kernel_words(fam.d)
        for w in words:
            got, want = evaluate_word(fam, w).monomial, fold_word(fam, w).monomial
            assert np.array_equal(got.cols, want.cols) and np.array_equal(got.vals, want.vals), w
        norms = word_norms(fam, words)
        assert np.array_equal(norms, [operator_norm(evaluate_word(fam, w)) for w in words])

    def test_blocks_of_one_word(self, monkeypatch):
        fam = build_fock_tccr(2, 0.5, 4)
        words = kernel_words(2)[:40]
        whole = word_norms(fam, words)
        monkeypatch.setattr(tccr.symbolic, "_WORD_BLOCK_ENTRIES", 1)
        assert np.array_equal(word_norms(fam, words), whole)
        # each block holds two words, so the last block is short
        monkeypatch.setattr(tccr.symbolic, "_WORD_BLOCK_ENTRIES", 2 * fam.basis.dim)
        assert np.array_equal(word_norms(fam, words[:-1]), whole[:-1])

    def test_empty_word_and_empty_list(self):
        fam = build_fock_tccr(2, 0.5, 4)
        assert np.array_equal(evaluate_word(fam, ()).matrix, np.eye(fam.basis.dim))
        assert word_norms(fam, [(), ()]).tolist() == [1.0, 1.0]
        assert word_norms(fam, []).shape == (0,)

    @pytest.mark.parametrize("words", [[(gen(1),)], []])
    def test_empty_column_set_is_an_empty_core(self, words):
        fam = build_fock_tccr(2, 0.5, 4)

        def read(*args):
            raise AssertionError("no level on an empty core")

        with pytest.raises(ValueError, match="the core is empty"):
            tccr.symbolic._word_levels(fam, tccr.symbolic._SuffixPlans(words), np.array([], dtype=np.intp), read)

    def test_each_call_builds_a_new_operator(self):
        fam = build_fock_tccr(2, 0.5, 4)
        w = (gen_star(1), gen(2), gen(1))
        first, second = evaluate_word(fam, w), evaluate_word(fam, w)
        assert first is not second and first.monomial is not second.monomial
        assert np.array_equal(first.monomial.cols, second.monomial.cols)
        assert first.monomial.vals.tobytes() == second.monomial.vals.tobytes()

    def test_long_word_needs_no_recursion(self):
        fam = build_fock_tccr(2, 0.5, 4)
        long_word = (gen_star(1), gen(1), gen(2), gen_star(2)) * 500
        got, want = evaluate_word(fam, long_word).monomial, fold_word(fam, long_word).monomial
        assert np.array_equal(got.cols, want.cols) and np.array_equal(got.vals, want.vals)
        assert np.count_nonzero(got.vals) > 0
        assert word_norms(fam, [long_word])[0] == operator_norm(evaluate_word(fam, long_word))

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_value_rejected(self, bad):
        basis = enumerate_basis(1, 3)
        op = LinearOperator(basis, Monomial(np.array([-1, 0, 1, 2]), np.array([0, 1, bad, 1])))
        fam = TccrFamily(basis=basis, ops=(op,), mu=0.5)
        for w in [(gen(1),), (gen(1), gen_star(1))]:
            with pytest.raises(ValueError, match="non-finite"):
                word_norms(fam, [(), w])
            with pytest.raises(ValueError, match="non-finite"):
                operator_norm(evaluate_word(fam, w))

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_value_that_no_row_reaches_is_no_entry(self):
        basis = enumerate_basis(1, 3)
        raise_ = LinearOperator(basis, Monomial(np.array([-1, 0, 1, 2]), np.array([0, 1, np.inf, 1])))
        vacuum = LinearOperator(basis, Monomial(np.array([0, -1, -1, -1]), np.array([1, 0, 0, 0])))
        fam = TccrFamily(basis=basis, ops=(raise_, vacuum), mu=0.5)
        # the vacuum projection reads no column the infinite entry lands in
        w = (gen(2), gen(1))
        assert operator_norm(fold_word(fam, w)) == 0.0
        assert word_norms(fam, [w]).tolist() == [operator_norm(evaluate_word(fam, w))] == [0.0]

    @pytest.mark.parametrize("make", short_word_families())
    @pytest.mark.parametrize("entries", ["default", "one", "two columns"])
    def test_norms_and_vacuum_values_match_the_padded_kernel(self, monkeypatch, make, entries):
        fam = make()
        words = short_words()
        # one entry per block, or blocks of two words: either way the blocks split shared suffixes
        sizes = {"default": tccr.symbolic._WORD_BLOCK_ENTRIES, "one": 1, "two columns": 2 * fam.basis.dim}
        block_entries = sizes[entries]
        monkeypatch.setattr(tccr.symbolic, "_WORD_BLOCK_ENTRIES", block_entries)
        got = word_norms(fam, words)
        assert got.tobytes() == padded_word_norms(fam, words, block_entries).tobytes()
        bridge = with_mu(fam)
        values = []
        for terms in bridge_terms(words):
            value = tccr.symbolic._model_vacuum_values(bridge, [terms])[0]
            assert bits(value) == bits(padded_vacuum_value(bridge, terms, block_entries)), terms
            values.append(value)
        # one pass for all the term lists, its blocks split as the same monkeypatch sets them
        batched = tccr.symbolic._model_vacuum_values(bridge, bridge_terms(words))
        assert np.array(batched).view(np.float64).tobytes() == np.array(values).view(np.float64).tobytes()
        assert any(values) and got.any()

    @pytest.mark.parametrize("make", short_word_families())
    def test_word_products_match_the_padded_kernel(self, make):
        fam = make()
        for w in set(short_words()):
            got = evaluate_word(fam, w).monomial
            cols, vals = padded_word_columns(fam, w)
            assert got.cols.tobytes() == cols.tobytes() and got.vals.tobytes() == vals.tobytes(), w

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_families_match_the_padded_kernel(self, bad):
        basis = enumerate_basis(1, 3)
        raise_ = LinearOperator(basis, Monomial(np.array([-1, 0, 1, 2]), np.array([0, 1, bad, 1])))
        vacuum = LinearOperator(basis, Monomial(np.array([0, -1, -1, -1]), np.array([1, 0, 0, 0])))
        for ops in [(raise_,), (raise_, vacuum)]:
            fam = TccrFamily(basis=basis, ops=ops, mu=0.5)
            letters = [Letter(i, s) for i in range(1, len(ops) + 1) for s in (False, True)]
            words = [w for n in range(5) for w in itertools.product(letters, repeat=n)]
            want = padded_word_norms(fam, words)
            assert not np.isfinite(want).all()
            with pytest.raises(ValueError, match="non-finite"):
                word_norms(fam, words)
            for w, norm in zip(words, want):
                if np.isfinite(norm):
                    assert word_norms(fam, [w]).tobytes() == norm.tobytes(), w
                else:
                    with pytest.raises(ValueError, match="non-finite"):
                        word_norms(fam, [w])
                got = evaluate_word(fam, w).monomial
                cols, vals = padded_word_columns(fam, w)
                assert got.cols.tobytes() == cols.tobytes() and got.vals.tobytes() == vals.tobytes(), w
            for terms in bridge_terms(words):
                got = tccr.symbolic._model_vacuum_values(fam, [terms])[0]
                want_value = padded_vacuum_value(fam, terms)
                # the reference's identity padding can turn an infinite part into NaN; both stay non-finite
                if np.isfinite(want_value):
                    assert bits(got) == bits(want_value), terms
                else:
                    assert not np.isfinite(got), terms

    def test_word_norms_memory_is_bounded_by_the_blocks(self):
        fam = build_irrep(IrrepSpec(5, 5, 6))  # dim 16807: 62 words per block
        fam.norm_tables  # family state, built before the measured call
        scalar = build_irrep(IrrepSpec(5, 0, 6))  # dim 7: all 100 words in one block
        words = [random_word(5, 12, random.Random(f"memory:{k}")) for k in range(100)]
        peaks = []
        shared = [scalar, fam]
        for measured in (lambda: word_norms(fam, words), lambda: list(_word_norms_each(shared, words))):
            tracemalloc.start()
            try:
                measured()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # on complex tables the padded kernel peaked at 55.8 MB on these words and this kernel without blocks
        # at 65 MB; on this family's float64 tables the kernel peaks at 23.2 MB, and without blocks it needs
        # 38.1 MB, and so does a plan shared with a family whose blocks are larger
        assert max(peaks) < 30 * 2**20, [peak / 2**20 for peak in peaks]


def stage_family():
    """The letters of ``verify_stage_identities``: t_1, t_2 and the stages and defects of their reconstruction."""
    t = build_irrep(IrrepSpec(2, 2, 4))
    _, trace = generators_from_isometries(t, 0.5)
    stages = (trace.stages[ij] for ij in sorted(trace.stages))
    return GeneratorFamily(basis=t.basis, ops=(*t.ops, *stages, *trace.defects))


def norm_families():
    """Families and whether their values are all real: exp(i pi) keeps an imaginary part of 1.2e-16."""
    for mu in (-0.6, 0.5):
        yield pytest.param(lambda mu=mu: build_fock_tccr(3, mu, 4), True, id=f"fock-mu{mu}")
    for j in range(3):
        for phase, real in ((0.0, True), (math.pi / 3, False), (math.pi, False)):
            yield pytest.param(lambda j=j, phase=phase: build_irrep(IrrepSpec(3, j, 4, phase)), real,
                               id=f"j{j}-phi{phase:.2f}")
    yield pytest.param(stage_family, True, id="stages")


class TestRealWordNorms:
    """Word norms on float64 letter tables against the padded complex kernel, bit for bit."""

    @pytest.mark.parametrize("make, real", norm_families())
    def test_norms_match_the_padded_kernel(self, monkeypatch, make, real):
        fam = make()
        assert all(not np.any(op.monomial.vals.imag) for op in fam.ops) == real
        words = kernel_words(fam.d)
        want = padded_word_norms(fam, words)
        got = word_norms(fam, words)
        assert got.tobytes() == want.tobytes() and got.any()
        rows, vals = fam.norm_tables
        assert vals.dtype == (np.float64 if real else np.complex128)
        # a real family never builds its complex tables; a complex one shares them
        assert ("letter_tables" in vars(fam)) != real
        if real:
            assert np.array_equal(rows, fam.letter_tables[0]) and np.array_equal(vals, fam.letter_tables[1].real)
        else:
            assert fam.norm_tables is fam.letter_tables
        # blocks of two words split the shared suffixes and run the in-place product on small levels
        monkeypatch.setattr(tccr.symbolic, "_WORD_BLOCK_ENTRIES", 2 * fam.basis.dim)
        assert word_norms(fam, words).tobytes() == want.tobytes()

    def test_one_plan_over_real_and_complex_families(self):
        families = [build_irrep(IrrepSpec(3, j, 4, phase)) for j in range(3) for phase in (0.0, math.pi / 3)]
        words = kernel_words(3)
        for fam, norms in zip(families, _word_norms_each(families, words)):
            assert norms.tobytes() == padded_word_norms(fam, words).tobytes()

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("phase", [0.0, math.pi / 3])
    def test_injected_non_finite_value_raises(self, bad, phase):
        fam = build_irrep(IrrepSpec(3, 2, 4, phase))
        mono = fam.ops[0].monomial
        vals = mono.vals.copy()
        vals[np.flatnonzero(mono.cols >= 0)[1]] = bad
        ops = (LinearOperator(fam.basis, Monomial(mono.cols, vals)), *fam.ops[1:])
        broken = GeneratorFamily(basis=fam.basis, ops=ops)
        assert (broken.norm_tables[1].dtype == np.float64) == (phase == 0.0)
        words = kernel_words(3)
        assert not np.isfinite(padded_word_norms(broken, words)).all()
        with pytest.raises(ValueError, match="non-finite"):
            word_norms(broken, words)


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


def full_product_vacuum_value(family, p):
    """Test-only reference: entry [0, 0] of every word's full ``evaluate_word`` product, in term order."""
    numeric = 0j
    for w, coeff in p.terms():
        mono = evaluate_word(family, w).monomial
        # row 0 holds its one value in column cols[0]
        if mono.cols[0] == 0:
            numeric += coeff.evaluate(family.mu) * mono.vals[0]
    return numeric


def bits(z):
    return np.complex128(z).tobytes()


class TestVacuumColumnBridge:
    """The bridge's vacuum-column kernel against the full word products it replaced."""

    def test_matches_the_full_products_bitwise(self):
        rng = random.Random("vacuum-column")
        families = {}
        for k in range(200):
            d, cap, mu = rng.randint(1, 3), rng.randint(5, 8), rng.choice([-0.9, 0.3, 0.7])
            if (d, cap, mu) not in families:
                families[d, cap, mu] = build_fock_tccr(d, mu, cap)
            fam = families[d, cap, mu]
            p = random_polynomial(d, 5, rng)
            report = eval_and_bridge(p, fam)
            assert report.all_passed, (k, report.worst())
            got = tccr.symbolic._model_vacuum_values(fam, [p.terms()])[0]
            assert bits(got) == bits(full_product_vacuum_value(fam, p)), (k, d, cap, mu, p)

    @pytest.mark.parametrize("d,j", [(1, 0), (2, 1), (3, 2)])
    def test_complex_entries_match_bitwise(self, d, j):
        # a phase class puts non-real values on the vacuum column
        irrep = build_irrep(IrrepSpec(d, j, 6, math.pi / 3))
        fam = TccrFamily(basis=irrep.basis, ops=irrep.ops, mu=0.3)
        rng = random.Random(f"vacuum-column:{d}:{j}")
        values = []
        for _ in range(30):
            p = random_polynomial(d, 6, rng)
            got = tccr.symbolic._model_vacuum_values(fam, [p.terms()])[0]
            assert bits(got) == bits(full_product_vacuum_value(fam, p)), p
            values.append(got)
        assert any(v.imag for v in values)

    @pytest.mark.parametrize("mu", [-0.9, 0.3, 0.7])
    def test_edge_polynomials(self, mu):
        fam = build_fock_tccr(2, mu, 5)
        edges = {
            "zero": NcPolynomial.zero(),
            "empty word": NcPolynomial.from_word((), MuPoly.mu(1, Fraction(3, 2))),
            # a1* kills the vacuum, so the second word's vacuum column dies on its first letter
            "killed": word(gen_star(1), gen(1)) + word(gen(1), gen_star(1)),
            "killed only": word(gen(2), gen_star(1)),
        }
        for name, p in edges.items():
            got = tccr.symbolic._model_vacuum_values(fam, [p.terms()])[0]
            assert bits(got) == bits(full_product_vacuum_value(fam, p)), name
            assert eval_and_bridge(p, fam).all_passed, name
        assert tccr.symbolic._model_vacuum_values(fam, [[]])[0] == 0j
        assert bits(tccr.symbolic._model_vacuum_values(fam, [edges["killed only"].terms()])[0]) == bits(0j)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_value_that_no_row_reaches(self):
        basis = enumerate_basis(1, 3)
        raise_ = LinearOperator(basis, Monomial(np.array([-1, 0, 1, 2]), np.array([0, 1, np.inf, 1])))
        vacuum = LinearOperator(basis, Monomial(np.array([0, -1, -1, -1]), np.array([1, 0, 0, 0])))
        fam = TccrFamily(basis=basis, ops=(raise_, vacuum), mu=0.5)
        # column 1 of a1 holds the infinite entry; the vacuum column never reaches it
        p = word(gen(2), gen(1)) + word(gen(2)) + NcPolynomial.one()
        got = tccr.symbolic._model_vacuum_values(fam, [p.terms()])[0]
        assert got == 2 and bits(got) == bits(full_product_vacuum_value(fam, p))


class TestBatchedBridge:
    """One kernel pass per family for all of a campaign's polynomials."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(3))
    def test_batched_values_match_one_polynomial_at_a_time(self, d, seed):
        rng = random.Random(f"batched-bridge:{d}:{seed}")
        polys = [random_polynomial(d, 5, rng) for _ in range(20)] + [NcPolynomial.zero(), NcPolynomial.one()]
        rng.shuffle(polys)
        terms = [p.terms() for p in polys]
        irrep = build_irrep(IrrepSpec(d, d - 1, 6, math.pi / 3))
        families = [build_fock_tccr(d, mu, 5) for mu in (-0.9, 0.3, 0.7)]
        families.append(TccrFamily(basis=irrep.basis, ops=irrep.ops, mu=0.3))
        for fam in families:
            batched = np.array(tccr.symbolic._model_vacuum_values(fam, terms))
            single = np.array([tccr.symbolic._model_vacuum_values(fam, [t])[0] for t in terms])
            assert batched.view(np.float64).tobytes() == single.view(np.float64).tobytes(), fam.mu
            assert [bits(v) for v in batched] == [bits(full_product_vacuum_value(fam, p)) for p in polys]

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_batched_checks_match_one_polynomial_at_a_time(self, d):
        rng = random.Random(f"batched-checks:{d}")
        polys = {f"p{k}/": random_polynomial(d, 5, rng) for k in range(12)}
        families = {f"mu{mu}": build_fock_tccr(d, mu, 5) for mu in (-0.9, 0.3, 0.7)}
        batched, single = (VerificationReport(command="bridge", params={}) for _ in range(2))
        texts = tccr.symbolic._add_bridge_checks(batched, polys, d, families, 1e-10)
        for key, p in polys.items():
            assert tccr.symbolic._add_bridge_checks(single, {key: p}, d, families, 1e-10) == [p.to_text()]
        assert texts == [p.to_text() for p in polys.values()]
        assert [c.id for c in batched.checks][:3] == ["p0/mu-0.9", "p0/mu0.3", "p0/mu0.7"]
        assert batched.to_json() == single.to_json() and batched.all_passed

    def test_gram_campaign_makes_one_kernel_pass_per_family(self, monkeypatch):
        plans = []
        word_levels = tccr.symbolic._word_levels

        def counting(family, plan, columns, read):
            plans.append((family.mu, plan, columns.tolist()))
            return word_levels(family, plan, columns, read)

        monkeypatch.setattr(tccr.symbolic, "_word_levels", counting)
        report = run_gram(2, 3, 5, 20, 70, 1e-10)
        assert sum(c.id.startswith("bridge/") for c in report.checks) == 60 and report.all_passed
        assert [mu for mu, _, _ in plans] == [-0.9, 0.3, 0.7]
        assert len({id(plan) for _, plan, _ in plans}) == 1
        assert all(columns == [0] for _, _, columns in plans)

    def test_degree_beyond_a_cap_raises_before_any_work(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("no kernel pass or exact value before the degree check")

        monkeypatch.setattr(tccr.symbolic, "_word_levels", unreachable)
        monkeypatch.setattr(tccr.symbolic, "vacuum_expectation", unreachable)
        polys = {"p0/": word(gen(1), gen_star(1)), "p1/": NcPolynomial.from_word((gen(1),) * 4)}
        families = {"low": build_fock_tccr(1, 0.5, 3), "high": build_fock_tccr(1, 0.5, 8)}
        report = VerificationReport(command="bridge", params={})
        message = "polynomial degree 4 exceeds cap 3; vacuum expectation would be truncated"
        with pytest.raises(TruncationError, match=message):
            tccr.symbolic._add_bridge_checks(report, polys, 1, families, 1e-10)
        with pytest.raises(TruncationError, match=message):
            eval_and_bridge(polys["p1/"], families["low"])
        assert report.checks == []
