"""Declarative relation sets and the checks built on them.

The two relation families are expressed once as exact formal polynomials and
measured as core residuals against operator families, so every check in a
report names the identity it measures.  A relation set is measured with one
pass of the suffix-shared word kernel per core level, over the core columns
only, whatever the relations; a false relation whose difference is not
monomial is measured densely per block of the core it connects.  ``tccr_relations``
and ``pi_relations`` depend only on d, so each set is built once per d and its
check descriptions once per symbol, behind small bounded caches.  Alongside
the residual reports this module houses the operator-norm bound check, the
sampled norm-domination evidence, and the slot-collapse map that sends the
vacuum-cyclic family onto each lower class, with tensor words evaluated by
slot index arithmetic.
"""

from __future__ import annotations

import cmath
import functools
import numbers
import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .families import (
    GeneratorFamily,
    IrrepSpec,
    TccrFamily,
    build_irrep,
    geometric_sum,
)
from .fock import LinearOperator, Monomial, TruncationError, _entries_norm, core_residual, enumerate_basis
from .fock import identity, operator_norm
from .report import VerificationReport
from .symbolic import (
    _SuffixPlans,
    _check_indices,
    _word_levels,
    _word_norms_each,
    MuPoly,
    NcPolynomial,
    Word,
    gen,
    gen_star,
    random_word,
    word_str,
)

__all__ = [
    "Relation",
    "RelationSet",
    "tccr_relations",
    "pi_relations",
    "qccr_relations",
    "relation_residuals",
    "tccr_residuals",
    "pi_residuals",
    "qccr_residuals",
    "norm_bound_check",
    "norm_domination_sample",
    "collapse_check",
    "TensorWord",
    "SHIFT",
    "SHIFT_STAR",
    "DEFECT",
    "fock_generator_slots",
    "tensor_word_product",
    "apply_collapse",
    "tensor_word_matrix",
]

MODEL_TOL = 1e-10
DERIVED_TOL = 1e-8


@dataclass(frozen=True)
class Relation:
    """lhs = rhs on occupations at most cap - ``core_level`` (default: the degree), and its check text."""

    label: str
    lhs: NcPolynomial
    rhs: NcPolynomial
    core_level: int | None = None
    description: str | None = None

    def __post_init__(self) -> None:
        level = self.degree if self.core_level is None else self.core_level
        if isinstance(level, bool) or not isinstance(level, numbers.Integral) or level < 0:
            raise ValueError(f"core level must be an int >= 0, got {level!r}")
        object.__setattr__(self, "core_level", int(level))

    @property
    def degree(self) -> int:
        """Length of the longest word on either side."""
        return max(self.lhs.degree(), self.rhs.degree())


@dataclass(frozen=True)
class RelationSet:
    kind: str
    relations: tuple[Relation, ...]

    def __post_init__(self) -> None:
        labels = [r.label for r in self.relations]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate relation labels in {self.kind}")

    def __hash__(self) -> int:
        # equal sets share kind and size; hashing every term of every polynomial costs
        # more than the description lookup it keys
        return hash((self.kind, len(self.relations)))

    def adjoint(self) -> "RelationSet":
        flipped = tuple(
            Relation(r.label + "/adj", r.lhs.adjoint(), r.rhs.adjoint(), r.core_level)
            for r in self.relations
        )
        return RelationSet(kind=self.kind + "/adj", relations=flipped)


def _pair(a, b) -> NcPolynomial:
    return NcPolynomial.from_word((a, b))


@functools.lru_cache(maxsize=8, typed=True)
def tccr_relations(d: int) -> RelationSet:
    """The deformed relations: diagonal, twisted commutation, and ordering."""
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    mu = MuPoly.mu(1)
    mu2 = MuPoly.mu(2)
    one_minus_mu2 = MuPoly({0: 1, 2: -1})
    rels: list[Relation] = []
    for i in range(1, d + 1):
        rhs = NcPolynomial.one() + _pair(gen(i), gen_star(i)) * mu2
        for k in range(1, i):
            rhs = rhs - _pair(gen(k), gen_star(k)) * one_minus_mu2
        rels.append(Relation(f"diag/i{i}", _pair(gen_star(i), gen(i)), rhs))
    for i in range(1, d + 1):
        for j in range(1, d + 1):
            if i == j:
                continue
            rels.append(
                Relation(
                    f"twist/i{i}j{j}",
                    _pair(gen_star(i), gen(j)),
                    _pair(gen(j), gen_star(i)) * mu,
                )
            )
    for j in range(2, d + 1):
        for i in range(1, j):
            rels.append(
                Relation(
                    f"order/j{j}i{i}",
                    _pair(gen(j), gen(i)),
                    _pair(gen(i), gen(j)) * mu,
                )
            )
    return RelationSet(kind=f"TCCR(mu,{d})", relations=tuple(rels))


@functools.lru_cache(maxsize=8, typed=True)
def pi_relations(d: int) -> RelationSet:
    """The partial-isometry relations: t_i* t_j diagonal/cross plus lower products."""
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    rels: list[Relation] = []
    for i in range(1, d + 1):
        rhs = NcPolynomial.one()
        for k in range(1, i):
            rhs = rhs - _pair(gen(k), gen_star(k))
        rels.append(Relation(f"diag/i{i}", _pair(gen_star(i), gen(i)), rhs))
    for i in range(1, d + 1):
        for j in range(1, d + 1):
            if i == j:
                continue
            rels.append(
                Relation(f"cross/i{i}j{j}", _pair(gen_star(i), gen(j)), NcPolynomial.zero())
            )
    for j in range(2, d + 1):
        for i in range(1, j):
            rels.append(
                Relation(f"order/j{j}i{i}", _pair(gen(j), gen(i)), NcPolynomial.zero())
            )
    return RelationSet(kind=f"PI({d})", relations=tuple(rels))


def qccr_relations() -> RelationSet:
    """One-mode deformed relation a* a = 1 + q a a* (q enters as the mu symbol)."""
    rhs = NcPolynomial.one() + _pair(gen(1), gen_star(1)) * MuPoly.mu(1)
    return RelationSet(
        kind="QCCR(q)",
        relations=(Relation("diag/i1", _pair(gen_star(1), gen(1)), rhs),),
    )


@functools.lru_cache(maxsize=16)
def _descriptions(relset: RelationSet, symbol: str) -> tuple[str, ...]:
    return tuple(r.description or f"{r.lhs.to_text(symbol)} = {r.rhs.to_text(symbol)}" for r in relset.relations)


def _core_sum(values: np.ndarray, at: dict[Word, int], terms, mu: float) -> np.ndarray:
    """A side's values in the core columns, its terms added in order as ``evaluate_poly`` adds each row.

    A dead entry or a product that is exactly 0 adds 0, which changes at most the
    sign of a zero, and the modulus ignores that.
    """
    total = np.zeros(values.shape[1], dtype=complex)
    for word, coeff in terms:
        total = total + values[at[word]] * complex(coeff.evaluate(mu))
    return total


def _entries_residual(targets, values, columns, at, sides, mu: float) -> float:
    """Norm of lhs - rhs from the sides' live core entries, each side summed per (row, column) in term order."""
    words = [at[w] for terms in sides for w, _ in terms]
    coeffs = np.array([complex(c.evaluate(mu)) for terms in sides for _, c in terms])
    side = np.repeat([0, 1], [len(terms) for terms in sides])[:, None]
    rows = targets[words]
    live = rows >= 0
    positions, inverse = np.unique((rows * len(columns) + np.arange(len(columns)))[live], return_inverse=True)
    sums = np.zeros((2, len(positions)), dtype=complex)
    np.add.at(sums, (np.broadcast_to(side, rows.shape)[live], inverse), (values[words] * coeffs[:, None])[live])
    rows, at_column = np.divmod(positions, len(columns))
    return _entries_norm(rows, columns[at_column], sums[0] - sums[1])


def _kernel_residuals(family, relations: Sequence[Relation], mu: float) -> list[float]:
    """Core residual of each relation, validated in order first, from one kernel pass per core level.

    If all live entries of a relation's words move their columns by one offset,
    lhs - rhs is monomial and its norm the largest modulus per core column.
    """
    d, basis = len(family.ops), family.basis
    by_level: dict[int, list] = {}
    for k, rel in enumerate(relations):
        sides = rel.lhs.terms(), rel.rhs.terms()
        _check_indices((w for terms in sides for w, _ in terms), d)
        if rel.core_level > basis.cap:
            raise TruncationError(f"relation degree {rel.core_level} exceeds cap {basis.cap}; increase the truncation")
        by_level.setdefault(rel.core_level, []).append((k, sides))
    residuals = [0.0] * len(relations)
    for level, members in by_level.items():
        words = list(dict.fromkeys(w for _, sides in members for terms in sides for w, _ in terms))
        columns = np.flatnonzero(basis.core_mask(basis.cap - level))
        targets = np.empty((len(words), len(columns)), dtype=np.intp)
        values = np.zeros(targets.shape, dtype=complex)

        def read(rows, vals, ends, nodes):
            targets[ends] = hit = rows[nodes]
            values[ends] = np.where(hit >= 0, vals[nodes], 0)

        _word_levels(family, _SuffixPlans(words), columns, read)
        # each word's lowest and highest move (row - column) over its live entries; a dead word is neutral
        moves = np.where(targets < 0, basis.dim, targets - columns)
        low = moves.min(axis=1).tolist()
        high = np.where(targets < 0, -basis.dim, moves).max(axis=1).tolist()
        at = {w: n for n, w in enumerate(words)}
        for k, sides in members:
            used = [at[w] for terms in sides for w, _ in terms]
            if min((low[n] for n in used), default=0) >= max((high[n] for n in used), default=0):
                diff = _core_sum(values, at, sides[0], mu) - _core_sum(values, at, sides[1], mu)
                residuals[k] = float(np.max(np.abs(diff), initial=0.0))
            else:
                residuals[k] = _entries_residual(targets, values, columns, at, sides, mu)
    return residuals


def relation_residuals(
    family,
    relset: RelationSet,
    mu: float,
    *,
    command: str,
    params: dict,
    tolerance: float,
    symbol: str = "a",
    id_prefix: str = "",
) -> VerificationReport:
    """One core-residual check per relation in the set, from one kernel pass per core level.

    A relation is measured on the core columns of its core level (its degree
    unless it names another): every occupation at most cap - level.  The
    relations of one level share one suffix plan of their words, evaluated over
    those columns only.  A letter outside 1..d or a core level above the cap
    raises, in relation order, before any pass.  A false relation whose
    difference is not monomial is measured densely block by block.
    """
    report = VerificationReport(command=command, params=params)
    residuals = _kernel_residuals(family, relset.relations, mu)
    for rel, residual, description in zip(relset.relations, residuals, _descriptions(relset, symbol)):
        report.add(id_prefix + rel.label, description, residual, tolerance)
    return report


def tccr_residuals(a: TccrFamily, tolerance: float = MODEL_TOL, id_prefix: str = "tccr/") -> VerificationReport:
    params = {"d": a.d, "mu": a.mu, "cap": a.basis.cap, "tolerance": tolerance}
    return relation_residuals(
        a,
        tccr_relations(a.d),
        a.mu,
        command="tccr_residuals",
        params=params,
        tolerance=tolerance,
        symbol="a",
        id_prefix=id_prefix,
    )


def pi_residuals(t: GeneratorFamily, tolerance: float = MODEL_TOL, id_prefix: str = "pi/") -> VerificationReport:
    params: dict = {"d": t.d, "cap": t.basis.cap, "tolerance": tolerance}
    if t.spec is not None:
        params["class_j"] = t.spec.class_j
        params["phase"] = t.spec.phase
    return relation_residuals(
        t,
        pi_relations(t.d),
        0.0,
        command="pi_residuals",
        params=params,
        tolerance=tolerance,
        symbol="t",
        id_prefix=id_prefix,
    )


def qccr_residuals(op: LinearOperator, q: float, tolerance: float = 1e-12) -> VerificationReport:
    """Residual of the one-mode relation for a single generator."""
    params = {"q": q, "cap": op.basis.cap, "tolerance": tolerance}
    return relation_residuals(
        TccrFamily(basis=op.basis, ops=(op,), mu=q),
        qccr_relations(),
        q,
        command="qccr_residuals",
        params=params,
        tolerance=tolerance,
        symbol="a",
        id_prefix="qccr/",
    )


def norm_bound_check(a: TccrFamily, tolerance: float = MODEL_TOL) -> VerificationReport:
    """Norm bound 1/(1 - mu^2) on a_i a_i*, plus the truncated geometric value.

    The truncated norm of a_i a_i* equals the cap-step geometric sum
    1 + mu^2 + .. + mu^(2(cap-1)); both the bound and the exact value are
    recorded per generator.  The bound's residual is the excess over it.
    """
    mu = a.mu
    cap = a.basis.cap
    bound = 1.0 / (1.0 - mu * mu)
    truncated = geometric_sum(mu * mu, cap)
    report = VerificationReport(
        command="norm_bound_check",
        params={"d": a.d, "mu": mu, "cap": cap, "tolerance": tolerance},
    )
    for i, op in enumerate(a.ops, start=1):
        val = operator_norm(op @ op.adjoint())
        report.add(
            f"bound/i{i}",
            f"norm(a{i} a{i}*) <= 1/(1 - mu^2) = {bound:.12g}",
            max(0.0, val - bound),
            tolerance,
        )
        report.add(
            f"truncated/i{i}",
            f"norm(a{i} a{i}*) matches the cap-step geometric sum {truncated:.12g}",
            abs(val - truncated),
            tolerance,
        )
    return report


def norm_domination_sample(
    d: int,
    cap: int,
    *,
    classes: Sequence[int] | None = None,
    phase: float = 0.0,
    n_words: int = 100,
    max_len: int = 6,
    seed: int = 42,
    words: Sequence[Word] | None = None,
    monotone_caps: Sequence[int] = (4, 6, 8),
    tolerance: float = DERIVED_TOL,
) -> VerificationReport:
    """Sampled evidence that the vacuum-cyclic norms dominate every class.

    For each word w and each class j < d the check is
    norm_j(w) <= norm_fock(w) + tol at the shared cap; a second group checks
    that the vacuum-cyclic norm of each word is monotone along a cap ladder.
    Words longer than the cap are rejected: the truncation can cut such a
    word off in one family and not in another, so its norms would compare
    truncation artefacts.
    """
    if classes is None:
        classes = tuple(range(d))
    bad = [j for j in classes if not 0 <= j < d]
    if bad:
        raise ValueError(f"classes must lie in 0..{d - 1}, got {bad}")
    if max_len > cap:
        raise ValueError(f"max_len {max_len} exceeds cap {cap}")
    if words is None:
        words = [random_word(d, max_len, random.Random(f"{seed}:{k}")) for k in range(n_words)]
    longest = max(map(len, words), default=0)
    if longest > cap:
        raise ValueError(f"a word of length {longest} exceeds cap {cap}")
    fock = build_irrep(IrrepSpec(d=d, class_j=d, cap=cap))
    class_families = {j: build_irrep(IrrepSpec(d=d, class_j=j, cap=cap, phase=phase)) for j in classes}
    ladder = [build_irrep(IrrepSpec(d=d, class_j=d, cap=n)) for n in monotone_caps]

    report = VerificationReport(
        command="norm_domination_sample",
        params={
            "d": d,
            "cap": cap,
            "classes": list(classes),
            "phase": phase,
            "n_words": len(words),
            "max_len": max_len,
            "seed": seed,
            "monotone_caps": list(monotone_caps),
            "tolerance": tolerance,
        },
    )
    # one suffix plan of the words serves every family, evaluated one family at a time
    families = [fock, *class_families.values(), *ladder]
    fock_norms, *rest = (norms.tolist() for norms in _word_norms_each(families, words))
    class_norms = dict(zip(class_families, rest))
    ladder_norms = [(fam.basis.cap, norms) for fam, norms in zip(ladder, rest[len(class_families) :])]
    for k, word in enumerate(words):
        text = word_str(word, "t")
        for j in classes:
            report.add(
                f"dominate/w{k:03d}/j{j}",
                f"norm_{j}({text}) <= norm_fock({text})",
                class_norms[j][k] - fock_norms[k],
                tolerance,
            )
        for (low, prev), (high, cur) in zip(ladder_norms, ladder_norms[1:]):
            report.add(
                f"monotone/w{k:03d}/cap{high}",
                f"norm_fock({text}) non-decreasing from cap {low} to {high}",
                prev[k] - cur[k],
                tolerance,
            )
    return report


# ---------------------------------------------------------------------------
# Slot collapse: the map sending the vacuum-cyclic family onto class j
# ---------------------------------------------------------------------------

# formal per-slot symbols for tensor words
SHIFT = "S"
SHIFT_STAR = "S*"
DEFECT = "D"

TensorWord = tuple[tuple[str, ...], ...]


def fock_generator_slots(d: int, i: int, starred: bool = False) -> TensorWord:
    """Tensor word of the i-th vacuum-cyclic generator over d slots."""
    if not 1 <= i <= d:
        raise ValueError(f"generator index {i} outside 1..{d}")
    slots = [(DEFECT,)] * (i - 1) + [(SHIFT_STAR if starred else SHIFT,)] + [()] * (d - i)
    return tuple(slots)


def tensor_word_product(u: TensorWord, v: TensorWord) -> TensorWord:
    if len(u) != len(v):
        raise ValueError("tensor words have different slot counts")
    return tuple(a + b for a, b in zip(u, v))


def apply_collapse(word: TensorWord, class_j: int, phase: float) -> tuple[complex, TensorWord]:
    """Collapse slots beyond class_j to scalars.

    Slots up to class_j are kept; in slot class_j + 1 the shift becomes the
    phase scalar (so the slot defect becomes 0); in later slots the shift
    becomes 1.  Returns the accumulated scalar and the surviving slots.
    """
    d = len(word)
    if not 0 <= class_j < d:
        raise ValueError(f"class_j must lie in 0..{d - 1}, got {class_j}")
    scalar: complex = 1.0
    for slot in range(class_j, d):
        shift_value = cmath.exp(1j * phase) if slot == class_j else 1.0
        for symbol in word[slot]:
            if symbol == SHIFT:
                scalar *= shift_value
            elif symbol == SHIFT_STAR:
                scalar *= shift_value.conjugate() if slot == class_j else 1.0
            elif symbol == DEFECT:
                scalar = 0.0
            else:
                raise ValueError(f"unknown slot symbol {symbol!r}")
    return scalar, word[:class_j]


def tensor_word_matrix(word: TensorWord, cap: int) -> LinearOperator:
    """Evaluate a tensor word as a monomial operator; an empty slot or word is the one-slot identity.

    Slot k multiplies its symbols left to right on one slot (S raises and dies at the cap,
    D = 1 - S S*) and acts on the k-th occupation digit.  A row is empty when any slot's row
    is; its column sums the slot columns times their strides, and its value multiplies the
    slot values in slot order, as a Kronecker product takes them.
    """
    one = enumerate_basis(1, cap)
    s = LinearOperator(one, Monomial(np.arange(-1, cap), np.ones(cap + 1)))
    lookup = {SHIFT: s, SHIFT_STAR: s.adjoint(), DEFECT: identity(one) - s @ s.adjoint()}
    basis = enumerate_basis(max(len(word), 1), cap)
    occ = basis.occupations()
    cols, vals = np.zeros(basis.dim, dtype=np.intp), np.ones(basis.dim, dtype=complex)
    for k, slot in enumerate(word or ((),)):
        op = identity(one)
        for symbol in slot:
            op = op @ lookup[symbol]
        slot_cols = op.monomial.cols[occ[:, k]]
        cols = np.where((cols < 0) | (slot_cols < 0), -1, cols + slot_cols * basis.stride(k))
        vals = vals * op.monomial.vals[occ[:, k]]
    return LinearOperator(basis, Monomial(cols, vals))


def collapse_check(
    d: int,
    class_j: int,
    phase: float,
    cap: int,
    tolerance: float = 1e-12,
) -> VerificationReport:
    """Collapse each vacuum-cyclic generator and compare with the class-j family."""
    if not 0 <= class_j < d:
        raise ValueError(f"class_j must lie in 0..{d - 1} (the top class needs no collapse), got {class_j}")
    target = build_irrep(IrrepSpec(d=d, class_j=class_j, cap=cap, phase=phase))
    report = VerificationReport(
        command="collapse_check",
        params={"d": d, "class_j": class_j, "phase": phase, "cap": cap, "tolerance": tolerance},
    )
    for i in range(1, d + 1):
        # the target's phase is reduced mod 2 pi; degree 0 measures on the full basis
        scalar, collapsed = apply_collapse(fock_generator_slots(d, i), class_j, target.spec.phase)
        image = scalar * tensor_word_matrix(collapsed, cap)
        residual = core_residual(image, target.ops[i - 1], 0)
        report.add(
            f"collapse/t{i}",
            f"collapse of the vacuum-cyclic t{i} equals the class-{class_j} generator",
            residual,
            tolerance,
        )
    return report
