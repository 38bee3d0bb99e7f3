"""Words in deformed generators and exact polynomials in them.

Elements of the free *-algebra on letters ``x_1, .., x_d, x_1*, .., x_d*``
are stored as maps from words to coefficients; coefficients are polynomials
in the deformation parameter ``mu`` with exact rational coefficients.  The
arithmetic is the same on ``int`` coefficients, which ``tccr.symbolic`` uses
for values in Z[mu] before it returns them as ``Fraction`` polynomials.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple

__all__ = ["Letter", "Word", "MuPoly", "NcPolynomial", "gen", "gen_star", "word_adjoint", "word_str"]


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
                if not isinstance(exp, int) or isinstance(exp, bool):
                    raise ValueError(f"mu exponent must be an integer, got {exp!r}")
                if exp < 0:
                    raise ValueError(f"negative mu exponent {exp}")
                frac = Fraction(c)
                if frac:
                    clean[int(exp)] = frac
        self._coeffs = clean

    @classmethod
    def _closed(cls, coeffs: dict[int, Fraction]) -> "MuPoly":
        # the arithmetic's own results: int exponents and nonzero coefficients of one type, nothing to validate
        out = cls.__new__(cls)
        out._coeffs = coeffs
        return out

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
        if not isinstance(other, MuPoly):
            return NotImplemented
        out = dict(self._coeffs)
        for exp, c in other._coeffs.items():
            acc = out.get(exp)
            total = c if acc is None else acc + c
            if total:
                out[exp] = total
            else:
                del out[exp]
        return MuPoly._closed(out)

    def __neg__(self) -> "MuPoly":
        return MuPoly._closed({e: -c for e, c in self._coeffs.items()})

    def __sub__(self, other: "MuPoly") -> "MuPoly":
        if not isinstance(other, MuPoly):
            return NotImplemented
        return self + -other

    def __mul__(self, other: "MuPoly | Fraction | int") -> "MuPoly":
        if isinstance(other, (int, Fraction)):
            return MuPoly._closed({e: c * other for e, c in self._coeffs.items()} if other else {})
        if not isinstance(other, MuPoly):
            return NotImplemented
        out: dict[int, Fraction] = {}
        for e1, c1 in self._coeffs.items():
            for e2, c2 in other._coeffs.items():
                acc = out.get(e1 + e2)
                out[e1 + e2] = c1 * c2 if acc is None else acc + c1 * c2
        return MuPoly._closed({e: c for e, c in out.items() if c})

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MuPoly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self._coeffs.items()))

    def evaluate(self, mu: float) -> float:
        # what Fraction.__float__ computes, and defined for int coefficients too
        return float(sum(c.numerator / c.denominator * mu**e for e, c in self._coeffs.items()))

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
    def _closed(cls, terms: dict[Word, MuPoly]) -> "NcPolynomial":
        # the arithmetic's own results: tuple words and nonzero coefficients, nothing to validate
        out = cls.__new__(cls)
        out._terms = terms
        return out

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
            total = coeff if acc is None else acc + coeff
            if total.is_zero:
                del out[word]
            else:
                out[word] = total
        return NcPolynomial._closed(out)

    def __neg__(self) -> "NcPolynomial":
        return NcPolynomial._closed({w: -c for w, c in self._terms.items()})

    def __sub__(self, other: "NcPolynomial") -> "NcPolynomial":
        return self + (-other)

    def __mul__(self, other: "NcPolynomial | MuPoly | Fraction | int") -> "NcPolynomial":
        if isinstance(other, (int, Fraction)):
            other = MuPoly.const(other)
        if isinstance(other, MuPoly):
            return NcPolynomial._closed({w: c * other for w, c in self._terms.items()} if other._coeffs else {})
        out: dict[Word, MuPoly] = {}
        for w1, c1 in self._terms.items():
            for w2, c2 in other._terms.items():
                word = w1 + w2
                prod = c1 * c2
                acc = out.get(word)
                out[word] = prod if acc is None else acc + prod
        return NcPolynomial._closed({w: c for w, c in out.items() if c._coeffs})

    def __rmul__(self, other: "MuPoly | Fraction | int") -> "NcPolynomial":
        return self * other

    def adjoint(self) -> "NcPolynomial":
        # coefficients are real rationals, so conjugation leaves them fixed
        return NcPolynomial._closed({word_adjoint(w): c for w, c in self._terms.items()})

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
