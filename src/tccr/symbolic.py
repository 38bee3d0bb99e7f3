"""Exact normal ordering for words in deformed generators.

Elements of the free *-algebra on letters ``x_1, .., x_d, x_1*, .., x_d*``
are stored as maps from words to coefficients; coefficients are polynomials
in the deformation parameter ``mu`` with exact rational coefficients, so
every identity certified here is certified exactly.

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
starred.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

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


class Letter(NamedTuple):
    index: int
    starred: bool

    def adjoint(self) -> "Letter":
        return Letter(self.index, not self.starred)


Word = tuple[Letter, ...]


def gen(i: int) -> Letter:
    return Letter(i, False)


def gen_star(i: int) -> Letter:
    return Letter(i, True)


def word_adjoint(word: Word) -> Word:
    return tuple(l.adjoint() for l in reversed(word))


def word_str(word: Word, symbol: str = "a") -> str:
    if not word:
        return "1"
    return " ".join(f"{symbol}{l.index}" + ("*" if l.starred else "") for l in word)


def _word_key(word: Word):
    return (len(word), word)


class MuPoly:
    """Polynomial in mu with exact Fraction coefficients, no zero terms stored."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, Fraction | int] | None = None):
        clean: dict[int, Fraction] = {}
        if coeffs:
            for exp, c in coeffs.items():
                if exp < 0:
                    raise ValueError(f"negative mu exponent {exp}")
                frac = Fraction(c)
                if frac:
                    clean[int(exp)] = frac
        self._coeffs = clean

    @classmethod
    def zero(cls) -> "MuPoly":
        return cls()

    @classmethod
    def one(cls) -> "MuPoly":
        return cls({0: 1})

    @classmethod
    def const(cls, c: Fraction | int) -> "MuPoly":
        return cls({0: c})

    @classmethod
    def mu(cls, exponent: int = 1, coeff: Fraction | int = 1) -> "MuPoly":
        return cls({exponent: coeff})

    def items(self) -> list[tuple[int, Fraction]]:
        return sorted(self._coeffs.items())

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def degree(self) -> int:
        return max(self._coeffs, default=0)

    def __add__(self, other: "MuPoly") -> "MuPoly":
        out = dict(self._coeffs)
        for exp, c in other._coeffs.items():
            out[exp] = out.get(exp, Fraction(0)) + c
        return MuPoly(out)

    def __neg__(self) -> "MuPoly":
        return MuPoly({e: -c for e, c in self._coeffs.items()})

    def __sub__(self, other: "MuPoly") -> "MuPoly":
        return self + (-other)

    def __mul__(self, other: "MuPoly | Fraction | int") -> "MuPoly":
        if isinstance(other, (int, Fraction)):
            return MuPoly({e: c * other for e, c in self._coeffs.items()})
        out: dict[int, Fraction] = {}
        for e1, c1 in self._coeffs.items():
            for e2, c2 in other._coeffs.items():
                out[e1 + e2] = out.get(e1 + e2, Fraction(0)) + c1 * c2
        return MuPoly(out)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MuPoly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self._coeffs.items()))

    def evaluate(self, mu: float) -> float:
        return float(sum(float(c) * mu**e for e, c in self._coeffs.items()))

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts: list[str] = []
        for exp, c in self.items():
            mono = _mu_monomial_str(exp, c)
            if not parts:
                parts.append(mono)
            elif mono.startswith("-"):
                parts.append("- " + mono[1:])
            else:
                parts.append("+ " + mono)
        return " ".join(parts)

    __repr__ = __str__


def _mu_monomial_str(exp: int, c: Fraction) -> str:
    if exp == 0:
        return str(c)
    mu = "mu" if exp == 1 else f"mu^{exp}"
    if c == 1:
        return mu
    if c == -1:
        return f"-{mu}"
    return f"{c} {mu}"


class NcPolynomial:
    """Formal sum of words with MuPoly coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Word, MuPoly] | None = None):
        clean: dict[Word, MuPoly] = {}
        if terms:
            for word, coeff in terms.items():
                if not coeff.is_zero:
                    clean[tuple(word)] = coeff
        self._terms = clean

    @classmethod
    def zero(cls) -> "NcPolynomial":
        return cls()

    @classmethod
    def one(cls) -> "NcPolynomial":
        return cls({(): MuPoly.one()})

    @classmethod
    def from_word(cls, word: Iterable[Letter], coeff: MuPoly | Fraction | int = 1) -> "NcPolynomial":
        c = coeff if isinstance(coeff, MuPoly) else MuPoly.const(coeff)
        return cls({tuple(word): c})

    @classmethod
    def generator(cls, i: int) -> "NcPolynomial":
        return cls.from_word((gen(i),))

    def terms(self) -> list[tuple[Word, MuPoly]]:
        return sorted(self._terms.items(), key=lambda kv: _word_key(kv[0]))

    def coefficient(self, word: Word) -> MuPoly:
        return self._terms.get(tuple(word), MuPoly.zero())

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def degree(self) -> int:
        return max((len(w) for w in self._terms), default=0)

    def __add__(self, other: "NcPolynomial") -> "NcPolynomial":
        out = dict(self._terms)
        for word, coeff in other._terms.items():
            acc = out.get(word)
            out[word] = coeff if acc is None else acc + coeff
        return NcPolynomial(out)

    def __neg__(self) -> "NcPolynomial":
        return NcPolynomial({w: -c for w, c in self._terms.items()})

    def __sub__(self, other: "NcPolynomial") -> "NcPolynomial":
        return self + (-other)

    def __mul__(self, other: "NcPolynomial | MuPoly | Fraction | int") -> "NcPolynomial":
        if isinstance(other, (int, Fraction)):
            other = MuPoly.const(other)
        if isinstance(other, MuPoly):
            return NcPolynomial({w: c * other for w, c in self._terms.items()})
        out: dict[Word, MuPoly] = {}
        for w1, c1 in self._terms.items():
            for w2, c2 in other._terms.items():
                word = w1 + w2
                prod = c1 * c2
                acc = out.get(word)
                out[word] = prod if acc is None else acc + prod
        return NcPolynomial(out)

    def __rmul__(self, other: "MuPoly | Fraction | int") -> "NcPolynomial":
        return self * other

    def adjoint(self) -> "NcPolynomial":
        # coefficients are real rationals, so conjugation leaves them fixed
        return NcPolynomial({word_adjoint(w): c for w, c in self._terms.items()})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NcPolynomial):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset((w, c) for w, c in self._terms.items()))

    def to_text(self, symbol: str = "a") -> str:
        """Render in the parseable text format, one term per mu-monomial."""
        if self.is_zero:
            return "0"
        pieces: list[tuple[bool, str]] = []  # (negative, body)
        for word, coeff in self.terms():
            for exp, c in coeff.items():
                body = _term_text(word, exp, abs(c), symbol)
                pieces.append((c < 0, body))
        out = []
        for k, (negative, body) in enumerate(pieces):
            if k == 0:
                out.append(("-" if negative else "") + body)
            else:
                out.append(("- " if negative else "+ ") + body)
        return " ".join(out)

    def __str__(self) -> str:
        return self.to_text()

    __repr__ = __str__


def _term_text(word: Word, exp: int, c: Fraction, symbol: str) -> str:
    factors: list[str] = []
    if c != 1 or (exp == 0 and not word):
        factors.append(str(c))
    if exp:
        factors.append("mu" if exp == 1 else f"mu^{exp}")
    if word:
        factors.append(word_str(word, symbol))
    elif not factors:
        factors.append("1")
    return " ".join(factors)


# ---------------------------------------------------------------------------
# Rewrite engine
# ---------------------------------------------------------------------------

_ONE_MINUS_MU2 = MuPoly({0: 1, 2: -1})
_MU2 = MuPoly.mu(2)
_MU = MuPoly.mu(1)

_STRATEGIES = ("leftmost", "rightmost")


def _is_redex(a: Letter, b: Letter) -> bool:
    if a.starred and not b.starred:
        return True
    if not a.starred and not b.starred and a.index > b.index:
        return True
    if a.starred and b.starred and a.index < b.index:
        return True
    return False


def _find_redex(word: Word, strategy: str) -> int | None:
    positions = range(len(word) - 1)
    if strategy == "rightmost":
        positions = reversed(positions)
    for pos in positions:
        if _is_redex(word[pos], word[pos + 1]):
            return pos
    return None


def _pair_replacement(a: Letter, b: Letter) -> NcPolynomial:
    if a.starred and not b.starred:
        if a.index == b.index:
            i = a.index
            terms: dict[Word, MuPoly] = {
                (): MuPoly.one(),
                (gen(i), gen_star(i)): _MU2,
            }
            for k in range(1, i):
                terms[(gen(k), gen_star(k))] = -_ONE_MINUS_MU2
            return NcPolynomial(terms)
        return NcPolynomial({(b, a): _MU})
    if not a.starred and not b.starred and a.index > b.index:
        return NcPolynomial({(b, a): _MU})
    if a.starred and b.starred and a.index < b.index:
        return NcPolynomial({(b, a): _MU})
    raise ValueError(f"not a redex: {a}, {b}")


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
            repl = _pair_replacement(word[pos], word[pos + 1])
            head, tail = word[:pos], word[pos + 2 :]
            for rw, rc in repl._terms.items():
                new_word = head + rw + tail
                add = coeff * rc
                acc = next_pending.get(new_word)
                next_pending[new_word] = add if acc is None else acc + add
        pending = next_pending
    return NcPolynomial(done)


def _content(letters: Iterable[Letter]) -> list[int]:
    return sorted(l.index for l in letters)


def _vacuum_word(word: Word, memo: dict[Word, MuPoly]) -> MuPoly:
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
        repl = _pair_replacement(w[pos], w[pos + 1])._terms.items()
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
            total = total + coeff * _vacuum_word(word, memo)
    return total


# ---------------------------------------------------------------------------
# Gram matrices over unstarred words
# ---------------------------------------------------------------------------

GRAM_MAX_LEVEL = 6
GRAM_MAX_WORDS = 400


def gram_basis_words(level: int, d: int) -> list[Word]:
    """Unstarred words of length <= level, ordered by length then index-lex."""
    words: list[Word] = [()]
    layer: list[Word] = [()]
    for _ in range(level):
        layer = [w + (gen(i),) for w in layer for i in range(1, d + 1)]
        words.extend(sorted(layer, key=_word_key))
    return words


def gram_matrix(level: int, d: int) -> tuple[list[Word], list[list[MuPoly]]]:
    """Exact matrix of vacuum pairings <w Omega, v Omega> over the word basis.

    Entry (v, w) is the vacuum functional of adjoint(w) v; with rational
    coefficients the matrix is exactly symmetric, so only one triangle is
    computed.  By lemma 1 the entry is 0 unless v and w use the same multiset
    of indices, and all entries share one memo table.
    """
    if level < 0:
        raise ValueError(f"level must be >= 0, got {level}")
    if level > GRAM_MAX_LEVEL or sum(d**k for k in range(level + 1)) > GRAM_MAX_WORDS:
        raise CapacityError(
            f"gram basis too large: level {level} > {GRAM_MAX_LEVEL} or over {GRAM_MAX_WORDS} words"
        )
    words = gram_basis_words(level, d)
    contents = [_content(w) for w in words]
    n = len(words)
    memo: dict[Word, MuPoly] = {}
    entries: list[list[MuPoly]] = [[MuPoly.zero()] * n for _ in range(n)]
    for r in range(n):
        for c in range(r + 1):
            if contents[r] == contents[c]:
                entries[r][c] = entries[c][r] = _vacuum_word(word_adjoint(words[c]) + words[r], memo)
    return words, entries


def evaluate_mu_matrix(entries: Sequence[Sequence[MuPoly]], mu: float) -> np.ndarray:
    # most pairings are zero by charge; they need no call
    return np.array([[0.0 if e.is_zero else e.evaluate(mu) for e in row] for row in entries], dtype=float)


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
        if d not in self._checked:
            _check_indices(self.words, d)
            self._checked.add(d)
        size = max(1, min(len(self.codes), _WORD_BLOCK_ENTRIES // columns))
        if size not in self._blocks:
            starts = range(0, len(self.codes), size)
            self._blocks[size] = [_suffix_plan(self.codes[s : s + size], s) for s in starts]
        return self._blocks[size]


def _word_levels(family, plans: _SuffixPlans, columns: np.ndarray, read: Callable[..., None]) -> None:
    """Products of distinct suffixes over the letter tables, each one gather into its parent.

    Calls ``read(rows, vals, ends, nodes)`` for each level where words end:
    column ``columns[c]`` of node i's product holds ``vals[i, c]`` in row
    ``rows[i, c]``, or nothing when that row is -1, and word ``ends[m]`` is node
    ``nodes[m]``.  ``read`` keeps no reference, so a level is freed as soon as
    the next one no longer needs it.  Every product runs ``L1 (L2 (.. (Ln 1)))``
    as it would for its word alone, and each column's gathers and products are
    independent of the others, so a subset of columns holds the same bits as
    those columns of the full product.
    """
    dim = family.basis.dim
    table_rows, table_vals = (t.ravel() for t in family.letter_tables)
    for block in plans.blocks(len(family.ops), len(columns)):
        rows, vals = columns[None, :], np.ones((1, len(columns)), dtype=complex)
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
                # out of place: numpy's in-place loop for a lone entry rounds without the fused multiply-add
                vals = table_vals[at] * vals
            if ends is not None:
                read(rows, vals, ends, nodes)


# basis column 0 is the vacuum
_VACUUM = np.zeros(1, dtype=np.intp)


def evaluate_word(family, word: Word) -> LinearOperator:
    """Product of family operators for a word, memoised on the family."""
    key = tuple(word)
    hit = family.word_cache.get(key)
    if hit is None:
        found = []
        _word_levels(
            family, _SuffixPlans([key]), np.arange(family.basis.dim),
            lambda rows, vals, _, nodes: found.append((rows[nodes[0]], vals[nodes[0]])),
        )
        [(rows, vals)] = found
        live = np.flatnonzero(rows >= 0)
        cols, out = np.full(len(rows), -1), np.zeros(len(rows), dtype=complex)
        cols[rows[live]], out[rows[live]] = live, vals[live]
        hit = family.word_cache[key] = LinearOperator(family.basis, Monomial(cols, out))
    return hit


def _word_norms_each(families: Iterable, words: Sequence[Word]) -> Iterator[np.ndarray]:
    """Operator norms of every word in each family in turn, all from one suffix plan.

    A word's norm is its product's largest entry modulus, read from one norm per
    node of the level where the word ends.
    """
    plans = _SuffixPlans(words)
    for family in families:
        norms = np.zeros(len(words))

        def read(rows, vals, ends, nodes):
            # a dead column holds 0, or NaN where a non-finite value died; neither is an entry
            moduli = np.abs(vals, out=np.zeros(rows.shape), where=rows >= 0)
            norms[ends] = moduli.max(axis=1)[nodes]

        _word_levels(family, plans, np.arange(family.basis.dim), read)
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


def _model_vacuum_value(
    a: "TccrFamily", terms: Sequence[tuple[Word, MuPoly]], plans: _SuffixPlans | None = None
) -> complex:
    """``<vacuum, p vacuum>`` in the truncated model, from one kernel pass over the vacuum column.

    Each word contributes its coefficient at ``a.mu`` times its entry [0, 0]:
    the vacuum column's value where that column lands in row 0.  The sum runs
    in ``terms`` order and skips zero entries, as the full product would.
    ``plans`` holds the suffix plan of ``terms``' words, when one is shared.
    """
    if plans is None:
        plans = _SuffixPlans([word for word, _ in terms])
    entries = np.zeros(len(terms), dtype=complex)

    def read(rows, vals, ends, nodes):
        entries[ends] = np.where(rows[nodes, 0] == 0, vals[nodes, 0], 0)

    _word_levels(a, plans, _VACUUM, read)
    numeric = 0j
    for (_, coeff), entry in zip(terms, entries):
        if entry:
            numeric += coeff.evaluate(a.mu) * entry
    return numeric


def _add_bridge_checks(
    report: VerificationReport, p: NcPolynomial, d: int, families: Mapping[str, "TccrFamily"], tol: float
) -> str:
    """Add one bridge check per (id, family) to ``report``, and return ``p``'s text.

    The exact vacuum functional, the text of ``p`` and its words' suffix plan are
    computed once for all families.
    """
    deg = p.degree()
    for a in families.values():
        if deg > a.basis.cap:
            raise TruncationError(
                f"polynomial degree {deg} exceeds cap {a.basis.cap}; vacuum expectation would be truncated"
            )
    exact = vacuum_expectation(p, d)
    terms = p.terms()
    plans = _SuffixPlans([word for word, _ in terms])
    text = p.to_text()
    description = f"<vacuum, p vacuum> exact vs truncated model for p = {text}"
    for check_id, a in families.items():
        residual = abs(_model_vacuum_value(a, terms, plans) - exact.evaluate(a.mu))
        report.add(check_id, description, residual, tol)
    return text


def eval_and_bridge(p: NcPolynomial, a: "TccrFamily", tol: float = 1e-10) -> VerificationReport:
    """Compare the exact vacuum functional with the truncated-model expectation.

    Vacuum expectations only involve occupations up to the word length, so as
    long as the polynomial's degree fits under the cap the two sides agree to
    rounding.  The model side reads only the vacuum column of the word kernel
    (one pass for all of ``p``'s words) and fills no word cache.
    """
    d = len(a.ops)
    report = VerificationReport(command="eval_and_bridge", params={"d": d, "mu": a.mu, "cap": a.basis.cap})
    report.params["poly"] = _add_bridge_checks(report, p, d, {"bridge": a}, tol)
    return report


# ---------------------------------------------------------------------------
# Seeded random sampling (shared by property tests and the CLI)
# ---------------------------------------------------------------------------


def random_word(d: int, max_len: int, rng: random.Random, min_len: int = 1) -> Word:
    length = rng.randint(min_len, max_len)
    return tuple(Letter(rng.randint(1, d), rng.random() < 0.5) for _ in range(length))


def random_polynomial(d: int, max_degree: int, rng: random.Random) -> NcPolynomial:
    out = NcPolynomial.zero()
    for _ in range(rng.randint(1, 4)):
        word = random_word(d, max_degree, rng, min_len=0)
        num = rng.choice([-3, -2, -1, 1, 2, 3])
        den = rng.randint(1, 3)
        coeff = MuPoly.mu(rng.randint(0, 2), Fraction(num, den))
        out = out + NcPolynomial.from_word(word, coeff)
    return out
