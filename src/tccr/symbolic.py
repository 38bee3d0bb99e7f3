"""Exact normal ordering for words in deformed generators.

Words and polynomials come from ``tccr.algebra``, whose coefficients are
exact rational polynomials in ``mu``, so every identity certified here is
certified exactly.

Normal ordering is the fixed point of four rewrite rules:

    R1:  x_i* x_i  ->  1 + mu^2 x_i x_i* - (1 - mu^2) * sum_{k<i} x_k x_k*
    R2:  x_i* x_j  ->  mu x_j x_i*            (i != j)
    R3:  x_j  x_i  ->  mu x_i x_j             (j > i)
    R4:  x_i* x_j* ->  mu x_j* x_i*           (i < j)

A word is normal when its unstarred letters come first with non-decreasing
indices, followed by starred letters with non-increasing indices.  The
rewriting terminates: R1/R2 strictly reduce the number of starred-before-
unstarred pairs, and R3/R4 keep it fixed while reducing sorting inversions
inside the unstarred/starred blocks.

The vacuum functional (the empty-word coefficient of the normal form) is
graded and memoised: each word reduces its leftmost redex and sums the
values of the words it yields, memoised per word within one call.  Three
lemmas that follow from R1-R4 alone prune it: (1) every rule preserves each
index's charge #x_i - #x_i*, so a word of nonzero charge has value 0; (2) a
word that starts unstarred keeps an unstarred first letter through every
rewrite, so it never reaches the empty word; (3) likewise a word that ends
starred.  Every coefficient of R1-R4 (1, mu, mu^2 and -(1 - mu^2)) lies in
Z[mu]; ``_rule`` states them once, on ``int``s, for the engine, the functional
and the TCCR and PI sets of ``tccr.relations`` (PI is the mu = 0 case).
Each word's vacuum value lies in Z[mu] too: the functional runs on ``int``
coefficients and builds ``Fraction`` polynomials only for what it returns.
"""

from __future__ import annotations

import functools
import random
import re
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .algebra import Letter, MuPoly, NcPolynomial, Word, _word_key, gen, gen_star, word_adjoint, word_str
from .fock import CapacityError, LinearOperator, Monomial, TruncationError, _require_finite, zero
from .report import VerificationReport

if TYPE_CHECKING:
    from .families import TccrFamily

__all__ = [
    "Letter",
    "Word",
    "MuPoly",
    "NcPolynomial",
    "ParseError",
    "gen",
    "gen_star",
    "word_adjoint",
    "word_str",
    "normal_order",
    "vacuum_expectation",
    "gram_basis_words",
    "gram_matrix",
    "evaluate_mu_matrix",
    "parse_polynomial",
    "evaluate_word",
    "word_norms",
    "evaluate_poly",
    "eval_and_bridge",
    "random_word",
    "random_polynomial",
]


# ---------------------------------------------------------------------------
# Rewrite engine
# ---------------------------------------------------------------------------

# MuPolys with int coefficients: the coefficients of R1-R4 and the values of _vacuum_word
_INT_ZERO = MuPoly._closed({})
_INT_ONE = MuPoly._closed({0: 1})
_INT_MU = MuPoly._closed({1: 1})
_INT_MU2 = MuPoly._closed({2: 1})
_INT_MINUS_ONE_MINUS_MU2 = MuPoly._closed({0: -1, 2: 1})

_STRATEGIES = ("leftmost", "rightmost")


@functools.lru_cache(maxsize=1024)
def _rule(a: Letter, b: Letter) -> tuple[tuple[Word, MuPoly], ...] | None:
    """Terms replacing ``a b`` under R1-R4, or None if ``a b`` is normal; the TCCR and PI sets read them too."""
    if a.starred and not b.starred:
        if a.index != b.index:  # R2
            return (((b, a), _INT_MU),)
        i = a.index  # R1
        lower = tuple(((gen(k), gen_star(k)), _INT_MINUS_ONE_MINUS_MU2) for k in range(1, i))
        return ((), _INT_ONE), ((gen(i), gen_star(i)), _INT_MU2), *lower
    if a.starred == b.starred and (a.index < b.index if a.starred else a.index > b.index):  # R4, R3
        return (((b, a), _INT_MU),)
    return None


def _find_redex(word: Word, strategy: str) -> int | None:
    positions = range(len(word) - 1)
    if strategy == "rightmost":
        positions = reversed(positions)
    for pos in positions:
        if _rule(word[pos], word[pos + 1]) is not None:
            return pos
    return None


def _check_indices(words: Iterable[Word], d: int) -> None:
    for word in words:
        for l in word:
            if not 1 <= l.index <= d:
                raise ValueError(f"generator index {l.index} outside 1..{d}")


def normal_order(p: NcPolynomial, d: int, strategy: str = "leftmost") -> NcPolynomial:
    """Rewrite to the unique normal form under rules R1-R4."""
    if strategy not in _STRATEGIES:
        raise ValueError(f"strategy must be one of {_STRATEGIES}, got {strategy!r}")
    _check_indices(p._terms, d)
    done: dict[Word, MuPoly] = {}
    pending = dict(p._terms)
    while pending:
        next_pending: dict[Word, MuPoly] = {}
        for word in sorted(pending, key=_word_key):
            coeff = pending[word]
            if coeff.is_zero:
                continue
            pos = _find_redex(word, strategy)
            if pos is None:
                acc = done.get(word)
                done[word] = coeff if acc is None else acc + coeff
                continue
            head, tail = word[:pos], word[pos + 2 :]
            for rw, rc in _rule(word[pos], word[pos + 1]):
                new_word = head + rw + tail
                # coeff's Fractions times int coefficients are Fractions
                add = coeff * rc
                acc = next_pending.get(new_word)
                next_pending[new_word] = add if acc is None else acc + add
        pending = next_pending
    return NcPolynomial(done)


def _content(letters: Iterable[Letter]) -> list[int]:
    return sorted(l.index for l in letters)


def _fractions(p: MuPoly) -> MuPoly:
    # the return boundary: the same exponents in the same order, as Fractions
    return MuPoly._closed({e: Fraction(c) for e, c in p._coeffs.items()})


def _vacuum_word(word: Word, memo: dict[Word, MuPoly]) -> MuPoly:
    """Vacuum functional of one word, by leftmost reduction on a work stack, with int coefficients."""

    def value(w: Word) -> MuPoly | None:
        # lemmas 2 and 3 fix every word that does not start starred and end unstarred
        if not w:
            return _INT_ONE
        if not w[0].starred or w[-1].starred:
            return _INT_ZERO
        return memo.get(w)

    stack = [word]
    while stack:
        w = stack.pop()
        if value(w) is not None:
            continue
        # w starts starred and ends unstarred, so it has a redex
        pos = _find_redex(w, "leftmost")
        children = [(w[:pos] + rw + w[pos + 2 :], rc) for rw, rc in _rule(w[pos], w[pos + 1])]
        missing = [c for c, _ in children if value(c) is None]
        if missing:
            stack += [w, *missing]
        else:
            memo[w] = sum((rc * value(c) for c, rc in children), _INT_ZERO)
    return value(word)


def vacuum_expectation(p: NcPolynomial, d: int) -> MuPoly:
    """Empty-word coefficient of the normal form: the exact vacuum functional."""
    _check_indices(p._terms, d)
    memo: dict[Word, MuPoly] = {}
    total = MuPoly.zero()
    for word, coeff in p.terms():
        # lemma 1: only words of zero charge can reach the empty word
        if _content(l for l in word if l.starred) == _content(l for l in word if not l.starred):
            # coeff's Fractions times int coefficients are Fractions
            total = total + coeff * _vacuum_word(word, memo)
    return total


# ---------------------------------------------------------------------------
# Gram matrices over unstarred words
# ---------------------------------------------------------------------------

GRAM_MAX_LEVEL = 6
GRAM_MAX_WORDS = 400


def gram_basis_words(level: int, d: int) -> list[Word]:
    """Unstarred words of length <= level, ordered by length then index-lex."""
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    words: list[Word] = [()]
    layer: list[Word] = [()]
    for _ in range(level):
        layer = [w + (gen(i),) for w in layer for i in range(1, d + 1)]
        words.extend(sorted(layer, key=_word_key))
    return words


def gram_matrix(level: int, d: int) -> tuple[list[Word], list[list[MuPoly]]]:
    """Exact matrix of vacuum pairings <w Omega, v Omega> over the word basis.

    Entry (v, w) is the vacuum functional of adjoint(w) v; with exact
    coefficients the matrix is exactly symmetric, so only one triangle is
    computed and both entries are one object.  By lemma 1 the entry is 0
    unless v and w use the same multiset of indices, and all entries share one
    memo table and one zero.
    """
    if level < 0:
        raise ValueError(f"level must be >= 0, got {level}")
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if level > GRAM_MAX_LEVEL or sum(d**k for k in range(level + 1)) > GRAM_MAX_WORDS:
        raise CapacityError(
            f"gram basis too large: level {level} > {GRAM_MAX_LEVEL} or over {GRAM_MAX_WORDS} words"
        )
    words = gram_basis_words(level, d)
    contents = [_content(w) for w in words]
    n = len(words)
    memo: dict[Word, MuPoly] = {}
    zero = MuPoly.zero()
    entries: list[list[MuPoly]] = [[zero] * n for _ in range(n)]
    for r in range(n):
        for c in range(r + 1):
            if contents[r] == contents[c]:
                value = _vacuum_word(word_adjoint(words[c]) + words[r], memo)
                entries[r][c] = entries[c][r] = _fractions(value)
    return words, entries


def evaluate_mu_matrix(entries: Sequence[Sequence[MuPoly]], mu: float) -> np.ndarray:
    # most pairings are zero by charge and only the others are written; a symmetric pair is one
    # object, so each distinct entry is evaluated once and its value written wherever it stands
    out = np.zeros((len(entries), len(entries[0]) if entries else 0))
    values: dict[int, float] = {}
    for r, row in enumerate(entries):
        for c, e in enumerate(row):
            if e._coeffs:
                value = values.get(id(e))
                if value is None:
                    value = values[id(e)] = e.evaluate(mu)
                out[r, c] = value
    return out


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------


class ParseError(ValueError):
    """Input text rejected, with the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<plus>\+)"
    r"|(?P<minus>-)"
    r"|(?P<letter>a(?P<index>\d+)(?P<star>\*)?)"
    r"|(?P<mu>mu(?:\^(?P<muexp>\d+))?)"
    r"|(?P<rat>\d+(?:/\d+)?)"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if not m.group("ws"):
            kind = next(k for k in ("plus", "minus", "letter", "mu", "rat") if m.group(k))
            tokens.append((kind, m.group(0), pos))
        pos = m.end()
    return tokens


def _parse_term(tokens, k: int, d: int, sign: int) -> tuple[NcPolynomial, int]:
    coeff = MuPoly.const(sign)
    word: list[Letter] = []
    factors = 0
    while k < len(tokens) and tokens[k][0] in ("letter", "mu", "rat"):
        kind, tok, pos = tokens[k]
        if kind == "rat":
            if "/" in tok:
                num, den = tok.split("/")
                if int(den) == 0:
                    raise ParseError("zero denominator", pos)
                coeff = coeff * Fraction(int(num), int(den))
            else:
                coeff = coeff * Fraction(int(tok))
        elif kind == "mu":
            exp = int(tok[3:]) if "^" in tok else 1
            coeff = coeff * MuPoly.mu(exp)
        else:
            star = tok.endswith("*")
            index = int(tok[1:-1] if star else tok[1:])
            if index < 1 or index > d:
                raise ParseError(f"generator index {index} outside 1..{d}", pos)
            word.append(Letter(index, star))
        factors += 1
        k += 1
    if factors == 0:
        pos = tokens[k][2] if k < len(tokens) else tokens[-1][2] + len(tokens[-1][1])
        raise ParseError("expected a factor", pos)
    return NcPolynomial.from_word(tuple(word), coeff), k


def parse_polynomial(text: str, d: int) -> NcPolynomial:
    """Parse the text format: terms of juxtaposed factors joined by + and -.

    Factors are rationals (``3/2``), mu powers (``mu``, ``mu^2``) and letters
    (``a1``, ``a1*``).  Indices above ``d`` are rejected with the position.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty input", 0)
    k = 0
    sign = 1
    if tokens[0][0] == "minus":
        sign, k = -1, 1
    elif tokens[0][0] == "plus":
        raise ParseError("leading '+' is not allowed", tokens[0][2])
    result = NcPolynomial.zero()
    while True:
        term, k = _parse_term(tokens, k, d, sign)
        result = result + term
        if k >= len(tokens):
            return result
        kind, tok, pos = tokens[k]
        if kind == "plus":
            sign = 1
        elif kind == "minus":
            sign = -1
        else:
            raise ParseError(f"expected '+' or '-', got {tok!r}", pos)
        k += 1


# ---------------------------------------------------------------------------
# Numeric evaluation and the oracle bridge
# ---------------------------------------------------------------------------


# most (node, basis vector) entries one kernel level holds
_WORD_BLOCK_ENTRIES = 1 << 20


# one level of a suffix plan: (codes, parents, ends, nodes), described in _suffix_plan
_Level = tuple[np.ndarray, "np.ndarray | None", "np.ndarray | None", "np.ndarray | None"]


def _suffix_plan(codes: Sequence[list[int]], start: int) -> list[_Level]:
    """Levels of the distinct suffixes of words given as letter codes right to left, numbered from ``start``.

    Level k lists the distinct suffixes of length k as ``(codes, parents, ends,
    nodes)``: node i is letter code ``codes[i, 0]`` followed by node
    ``parents[i]`` of level k - 1, or by its one node when ``parents`` is None;
    level 0 is the empty suffix alone.  Word ``ends[m]`` of the list is node
    ``nodes[m]``, and both are None when no word ends at level k.
    """
    width = max(map(len, codes), default=0)
    keys: list[dict[tuple[int, int], int]] = [{} for _ in range(width + 1)]
    ends: list[list[tuple[int, int]]] = [[] for _ in range(width + 1)]
    for pos, word in enumerate(codes, start):
        node = 0
        for level, code in zip(keys[1:], word):
            node = level.setdefault((code, node), len(level))
        ends[len(word)].append((pos, node))
    # a dict keeps insertion order, so node i is its level's i-th key; all pairs go in one array
    flat = [x for level in (*keys, *ends) for pair in level for x in pair]
    pairs = np.array(flat, dtype=np.intp).reshape(-1, 2)
    node_codes, first, second = pairs[:, :1], pairs[:, 0], pairs[:, 1]
    levels, key_start, end_start = [], 0, sum(map(len, keys))
    for k, (level, done) in enumerate(zip(keys, ends)):
        key_stop, end_stop = key_start + len(level), end_start + len(done)
        shared = k > 1 and len(keys[k - 1]) > 1
        levels.append((
            node_codes[key_start:key_stop],
            second[key_start:key_stop] if shared else None,
            first[end_start:end_stop] if done else None,
            second[end_start:end_stop] if done else None,
        ))
        key_start, end_start = key_stop, end_stop
    return levels


class _SuffixPlans:
    """Suffix plans of one word list, shared by every family it is evaluated in.

    Words are split into blocks of at most ``_WORD_BLOCK_ENTRIES // columns``
    words, so no level holds more entries than that; the plans of each block
    size are built on first use.
    """

    def __init__(self, words: Sequence[Word]):
        self.words = words
        # a_i is code 2i - 2 and a_i* is code 2i - 1
        self.codes = [[2 * l.index - 2 + l.starred for l in reversed(w)] for w in words]
        self._checked: set[int] = set()
        self._blocks: dict[int, list[list[_Level]]] = {}

    def blocks(self, d: int, columns: int) -> list[list[_Level]]:
        if columns < 1:
            raise ValueError("the core is empty: no basis column to evaluate the words on")
        if d not in self._checked:
            _check_indices(self.words, d)
            self._checked.add(d)
        size = max(1, min(len(self.codes), _WORD_BLOCK_ENTRIES // columns))
        if size not in self._blocks:
            starts = range(0, len(self.codes), size)
            self._blocks[size] = [_suffix_plan(self.codes[s : s + size], s) for s in starts]
        return self._blocks[size]


def _times(letters: np.ndarray, vals: np.ndarray) -> np.ndarray:
    # a real product rounds once either way; numpy's in-place loop for a lone complex entry
    # rounds without the fused multiply-add of its vector loop, so that one is out of place
    return np.multiply(letters, vals, out=letters) if letters.dtype == np.float64 else letters * vals


def _word_levels(
    family, plans: _SuffixPlans, columns: np.ndarray, read: Callable[..., None], tables: tuple | None = None
) -> None:
    """Products of distinct suffixes over the letter tables, each one gather into its parent.

    Calls ``read(rows, vals, ends, nodes)`` for each level where words end:
    column ``columns[c]`` of node i's product holds ``vals[i, c]`` in row
    ``rows[i, c]``, or nothing when that row is -1, and word ``ends[m]`` is node
    ``nodes[m]``.  ``read`` keeps no reference, so a level is freed as soon as
    the next one no longer needs it.  Every product runs ``L1 (L2 (.. (Ln 1)))``
    as it would for its word alone, and each column's gathers and products are
    independent of the others, so a subset of columns holds the same bits as
    those columns of the full product.  ``tables`` defaults to the family's
    ``letter_tables``, and sets the dtype of ``vals``.
    """
    dim = family.basis.dim
    table_rows, table_vals = (t.ravel() for t in (family.letter_tables if tables is None else tables))
    for block in plans.blocks(len(family.ops), len(columns)):
        rows, vals = columns[None, :], np.ones((1, len(columns)), dtype=table_vals.dtype)
        for k, (codes, parents, ends, nodes) in enumerate(block):
            if k:
                # row -1 lands on the dead entry (-1, 0) ending the previous table row (the last, for code 0)
                offsets = codes * (dim + 1)
                if parents is None:
                    # a level of one node broadcasts to all of its children
                    at = offsets + rows
                else:
                    at, vals = rows[parents], vals[parents]
                    at += offsets
                rows = table_rows[at]
                vals = _times(table_vals[at], vals)
                del at  # freed before read and the next level
            if ends is not None:
                read(rows, vals, ends, nodes)


# basis column 0 is the vacuum
_VACUUM = np.zeros(1, dtype=np.intp)


def evaluate_word(family, word: Word) -> LinearOperator:
    """Product of family operators for a word."""
    found = []
    _word_levels(
        family, _SuffixPlans([tuple(word)]), np.arange(family.basis.dim),
        lambda rows, vals, _, nodes: found.append((rows[nodes[0]], vals[nodes[0]])),
    )
    [(rows, vals)] = found
    live = np.flatnonzero(rows >= 0)
    cols, out = np.full(len(rows), -1), np.zeros(len(rows), dtype=complex)
    cols[rows[live]], out[rows[live]] = live, vals[live]
    return LinearOperator(family.basis, Monomial(cols, out))


def _word_norms_each(families: Iterable, words: Sequence[Word]) -> Iterator[np.ndarray]:
    """Operator norms of every word in each family in turn, all from one suffix plan.

    A word's norm is its product's largest entry modulus, read from one norm per
    node of the level where the word ends, over the family's ``norm_tables``.
    """
    plans = _SuffixPlans(words)
    for family in families:
        norms = np.zeros(len(words))

        def read(rows, vals, ends, nodes):
            # a dead column holds 0, or NaN where a non-finite value died; neither is an entry
            moduli = np.abs(vals, out=np.zeros(rows.shape), where=rows >= 0)
            norms[ends] = moduli.max(axis=1)[nodes]

        _word_levels(family, plans, np.arange(family.basis.dim), read, family.norm_tables)
        _require_finite(norms)
        yield norms


def word_norms(family, words: Sequence[Word]) -> np.ndarray:
    """Operator norm of every word's product: its largest entry modulus."""
    return next(_word_norms_each([family], words))


def evaluate_poly(family, p: NcPolynomial, mu: float) -> LinearOperator:
    """Substitute family operators for letters and evaluate coefficients at mu."""
    _check_indices(p._terms, len(family.ops))
    # seeded with the first term: zero() + term holds the same values and only re-validates them
    acc = None
    for word, coeff in p.terms():
        term = coeff.evaluate(mu) * evaluate_word(family, word)
        acc = term if acc is None else acc + term
    return zero(family.basis) if acc is None else acc


def _model_vacuum_values(
    a: "TccrFamily", term_lists: Sequence[Sequence[tuple[Word, MuPoly]]], plans: _SuffixPlans | None = None
) -> list[complex]:
    """``<vacuum, p vacuum>`` in the truncated model for each ``p`` given by its terms, from one kernel pass.

    The pass runs over the vacuum column only.  Each word contributes its
    coefficient at ``a.mu`` times its entry [0, 0]: the vacuum column's value
    where that column lands in row 0.  Each sum runs in its terms' order and
    skips zero entries, as the full product would.  ``plans`` holds the suffix
    plan of every term's word in that order, when one is shared.
    """
    if plans is None:
        plans = _SuffixPlans([word for terms in term_lists for word, _ in terms])
    entries = np.zeros(len(plans.words), dtype=complex)

    def read(rows, vals, ends, nodes):
        entries[ends] = np.where(rows[nodes, 0] == 0, vals[nodes, 0], 0)

    _word_levels(a, plans, _VACUUM, read)
    values, start = [], 0
    for terms in term_lists:
        numeric = 0j
        for (_, coeff), entry in zip(terms, entries[start:]):
            if entry:
                numeric += coeff.evaluate(a.mu) * entry
        values.append(numeric)
        start += len(terms)
    return values


def _add_bridge_checks(
    report: VerificationReport, polys: Mapping[str, NcPolynomial], d: int,
    families: Mapping[str, "TccrFamily"], tol: float,
) -> list[str]:
    """Add a bridge check per polynomial and family to ``report``, and return the polynomials' texts.

    Check ids join a key of ``polys`` with a key of ``families``.  Every degree
    is checked against every cap before any work.  The exact vacuum functional
    and the text of each polynomial are computed once, and the model side is one
    kernel pass per family over one suffix plan of all the polynomials' words.
    """
    for p in polys.values():
        deg = p.degree()
        for a in families.values():
            if deg > a.basis.cap:
                raise TruncationError(
                    f"polynomial degree {deg} exceeds cap {a.basis.cap}; vacuum expectation would be truncated"
                )
    exact = [vacuum_expectation(p, d) for p in polys.values()]
    terms = [p.terms() for p in polys.values()]
    plans = _SuffixPlans([word for t in terms for word, _ in t])
    models = [_model_vacuum_values(a, terms, plans) for a in families.values()]
    texts = [p.to_text() for p in polys.values()]
    for k, prefix in enumerate(polys):
        description = f"<vacuum, p vacuum> exact vs truncated model for p = {texts[k]}"
        for (label, a), values in zip(families.items(), models):
            report.add(prefix + label, description, abs(values[k] - exact[k].evaluate(a.mu)), tol)
    return texts


def eval_and_bridge(p: NcPolynomial, a: "TccrFamily", tol: float = 1e-10) -> VerificationReport:
    """Compare the exact vacuum functional with the truncated-model expectation.

    Vacuum expectations only involve occupations up to the word length, so as
    long as the polynomial's degree fits under the cap the two sides agree to
    rounding.  The model side reads only the vacuum column of the word kernel
    (one pass for all of ``p``'s words).
    """
    d = len(a.ops)
    report = VerificationReport(command="eval_and_bridge", params={"d": d, "mu": a.mu, "cap": a.basis.cap})
    [report.params["poly"]] = _add_bridge_checks(report, {"": p}, d, {"bridge": a}, tol)
    return report


# ---------------------------------------------------------------------------
# Seeded random sampling (shared by property tests and the CLI)
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=8)
def _letters(d: int) -> tuple[Letter, ...]:
    """The 2d letters, a_i at 2 (i - 1) and a_i* after it."""
    return tuple(Letter(i, starred) for i in range(1, d + 1) for starred in (False, True))


def random_word(d: int, max_len: int, rng: random.Random, min_len: int = 1) -> Word:
    # draws the length, then each letter's index and star, in that order: seeded words depend on it
    letters = _letters(d)
    randint, draw = rng.randint, rng.random
    return tuple([letters[2 * randint(1, d) - 2 + (draw() < 0.5)] for _ in range(randint(min_len, max_len))])


def random_polynomial(d: int, max_degree: int, rng: random.Random) -> NcPolynomial:
    out = NcPolynomial.zero()
    for _ in range(rng.randint(1, 4)):
        word = random_word(d, max_degree, rng, min_len=0)
        num = rng.choice([-3, -2, -1, 1, 2, 3])
        den = rng.randint(1, 3)
        coeff = MuPoly.mu(rng.randint(0, 2), Fraction(num, den))
        out = out + NcPolynomial.from_word(word, coeff)
    return out
