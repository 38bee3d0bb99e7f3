"""The vacuum functional on ``Fraction`` coefficients.

The test-only reference for ``tccr.symbolic._vacuum_word``, ``vacuum_expectation``
and ``gram_matrix``, which run the same reduction on ``int`` coefficients and
build ``Fraction`` polynomials only for the values they return.  The bodies
are the functional as it was written on ``Fraction`` polynomials, unchanged,
except that each rule's terms are ``tccr.symbolic._rule``'s, turned into
``Fraction`` polynomials.
"""

from tccr.algebra import MuPoly, NcPolynomial, Word, word_adjoint
from tccr.symbolic import _check_indices, _content, _find_redex, _fractions, _rule, gram_basis_words


def vacuum_word(word: Word, memo: dict[Word, MuPoly]) -> MuPoly:
    """Vacuum functional of one word, by leftmost reduction on a work stack."""

    def value(w: Word) -> MuPoly | None:
        # lemmas 2 and 3 fix every word that does not start starred and end unstarred
        if not w:
            return MuPoly.one()
        if not w[0].starred or w[-1].starred:
            return MuPoly.zero()
        return memo.get(w)

    stack = [word]
    while stack:
        w = stack.pop()
        if value(w) is not None:
            continue
        # w starts starred and ends unstarred, so it has a redex
        pos = _find_redex(w, "leftmost")
        repl = [(rw, _fractions(rc)) for rw, rc in _rule(w[pos], w[pos + 1])]
        children = [(w[:pos] + rw + w[pos + 2 :], rc) for rw, rc in repl]
        missing = [c for c, _ in children if value(c) is None]
        if missing:
            stack += [w, *missing]
        else:
            memo[w] = sum((rc * value(c) for c, rc in children), MuPoly.zero())
    return value(word)


def vacuum_expectation(p: NcPolynomial, d: int) -> MuPoly:
    """Empty-word coefficient of the normal form: the exact vacuum functional."""
    _check_indices(p._terms, d)
    memo: dict[Word, MuPoly] = {}
    total = MuPoly.zero()
    for word, coeff in p.terms():
        # lemma 1: only words of zero charge can reach the empty word
        if _content(l for l in word if l.starred) == _content(l for l in word if not l.starred):
            total = total + coeff * vacuum_word(word, memo)
    return total


def gram_matrix(level: int, d: int) -> tuple[list[Word], list[list[MuPoly]]]:
    """Exact matrix of vacuum pairings over the word basis, one triangle computed."""
    words = gram_basis_words(level, d)
    contents = [_content(w) for w in words]
    n = len(words)
    memo: dict[Word, MuPoly] = {}
    entries: list[list[MuPoly]] = [[MuPoly.zero()] * n for _ in range(n)]
    for r in range(n):
        for c in range(r + 1):
            if contents[r] == contents[c]:
                entries[r][c] = entries[c][r] = vacuum_word(word_adjoint(words[c]) + words[r], memo)
    return words, entries
