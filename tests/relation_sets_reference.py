"""The TCCR and PI relation sets written out by hand, term by term.

The test-only reference for ``tccr.relations.tccr_relations`` and
``pi_relations``, which read their right sides from the rule table
``tccr.symbolic._rule``.  The bodies are the builders as they were written
before, unchanged except that they are not cached.
"""

from tccr.relations import Relation, RelationSet
from tccr.symbolic import MuPoly, NcPolynomial, gen, gen_star


def _pair(a, b) -> NcPolynomial:
    return NcPolynomial.from_word((a, b))


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


def pi_relations(d: int) -> RelationSet:
    """The partial-isometry relations: t_i* t_j diagonal/cross plus lower products."""
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    rels: list[Relation] = []

    def add(label: str, lhs: NcPolynomial, rhs: NcPolynomial) -> None:
        rels.append(Relation(label, lhs, rhs, description=f"{lhs.to_text('t')} = {rhs.to_text('t')}"))

    for i in range(1, d + 1):
        rhs = NcPolynomial.one()
        for k in range(1, i):
            rhs = rhs - _pair(gen(k), gen_star(k))
        add(f"diag/i{i}", _pair(gen_star(i), gen(i)), rhs)
    for i in range(1, d + 1):
        for j in range(1, d + 1):
            if i != j:
                add(f"cross/i{i}j{j}", _pair(gen_star(i), gen(j)), NcPolynomial.zero())
    for j in range(2, d + 1):
        for i in range(1, j):
            add(f"order/j{j}i{i}", _pair(gen(j), gen(i)), NcPolynomial.zero())
    return RelationSet(kind=f"PI({d})", relations=tuple(rels))
