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
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .fock import CapacityError, LinearOperator, TruncationError, identity, zero
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


def _check_indices(p: NcPolynomial, d: int) -> None:
    for word, _ in p.terms():
        for l in word:
            if not 1 <= l.index <= d:
                raise ValueError(f"generator index {l.index} outside 1..{d}")


def normal_order(p: NcPolynomial, d: int, strategy: str = "leftmost") -> NcPolynomial:
    """Rewrite to the unique normal form under rules R1-R4."""
    if strategy not in _STRATEGIES:
        raise ValueError(f"strategy must be one of {_STRATEGIES}, got {strategy!r}")
    _check_indices(p, d)
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
    _check_indices(p, d)
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
    return np.array([[e.evaluate(mu) for e in row] for row in entries], dtype=float)


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


def evaluate_word(family, word: Word) -> LinearOperator:
    """Product of family operators for a word, memoized on the family."""
    cache = family.word_cache
    key = tuple(word)
    hit = cache.get(key)
    if hit is not None:
        return hit
    if not key:
        out = identity(family.basis)
    else:
        head = key[0]
        if not 1 <= head.index <= len(family.ops):
            raise ValueError(f"generator index {head.index} outside 1..{len(family.ops)}")
        base = family.ops[head.index - 1]
        head_op = base.adjoint() if head.starred else base
        out = head_op @ evaluate_word(family, key[1:])
    cache[key] = out
    return out


def evaluate_poly(family, p: NcPolynomial, mu: float) -> LinearOperator:
    """Substitute family operators for letters and evaluate coefficients at mu."""
    _check_indices(p, len(family.ops))
    acc = zero(family.basis)
    for word, coeff in p.terms():
        acc = acc + coeff.evaluate(mu) * evaluate_word(family, word)
    return acc


def eval_and_bridge(p: NcPolynomial, a: "TccrFamily", tol: float = 1e-10) -> VerificationReport:
    """Compare the exact vacuum functional with the truncated-model expectation.

    Vacuum expectations only involve occupations up to the word length, so as
    long as the polynomial's degree fits under the cap the two sides agree to
    rounding.
    """
    d = len(a.ops)
    deg = p.degree()
    if deg > a.basis.cap:
        raise TruncationError(
            f"polynomial degree {deg} exceeds cap {a.basis.cap}; vacuum expectation would be truncated"
        )
    exact = vacuum_expectation(p, d).evaluate(a.mu)
    numeric = 0j
    for word, coeff in p.terms():
        mono = evaluate_word(a, word).monomial
        # entry [0, 0]: row 0 holds its one value in column cols[0]
        if mono.cols[0] == 0:
            numeric += coeff.evaluate(a.mu) * mono.vals[0]
    residual = abs(numeric - exact)
    report = VerificationReport(
        command="eval_and_bridge",
        params={"d": d, "mu": a.mu, "cap": a.basis.cap, "poly": p.to_text()},
    )
    report.add(
        "bridge",
        f"<vacuum, p vacuum> exact vs truncated model for p = {p.to_text()}",
        residual,
        tol,
    )
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
