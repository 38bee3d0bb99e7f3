"""The two inverse constructions between deformed generators and partial isometries.

From deformed generators ``a_i``: take the partial isometry of each left
polar decomposition and cut it down by the ranges already used,

    v_1 = S_1,    v_i = (1 - sum_{k<i} v_k v_k*) S_i.

From partial isometries ``t_i``: build the weighted stages from one
conjugation series, C(t, X, r) = sum_{n>=0} r^n t^n X t*^n,

    stage(i, i) = T_i t_i,          T_i^2 = C(t_i, t_i t_i*, mu^2),
    stage(i, j) = C(t_j, stage(i, j+1), mu),   j = i-1, .., 1,

and read off the deformed generators as stage(i, 1).  The series sums its
terms up to n = cap and adds the rest in closed form, which is exact when
the term t^n X t*^n no longer changes from n = cap + 1 on.  On a truncated
basis that holds for both kinds of generator: shift-type ones are nilpotent,
so the term vanishes, and phase-class ones have stable powers, so the term
is fixed and its tail is a geometric scalar.  The series runs on the column
maps of ``tccr.fock`` with the products, sums and checks of the operator fold,
in its order, and makes one operator at the end.

``verify_stage_identities`` re-derives every auxiliary identity of the
stage calculus as a named residual check, and ``roundtrip_check`` verifies that
the two constructions invert each other.  Each reconstructs its input; the
private bodies ``_stage_identities`` and ``_roundtrip`` take that
reconstruction instead, so a campaign that runs both shares one.  The stage
identities are relation sets in the t_k, the stages and the defects P_j
(``stage_relations``), measured like the deformed and partial-isometry
relations on one family of those operators, with no operator product.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .algebra import Letter, MuPoly, NcPolynomial, gen, gen_star
from .families import GeneratorFamily, TccrFamily
from .fock import (
    LinearOperator,
    TruncationError,
    _closed,
    _merge,
    _product,
    _scaled,
    core_residual,
    identity,
    polar_left,
    psd_sqrt,
)
from .relations import (
    DERIVED_TOL,
    MODEL_TOL,
    Relation,
    RelationSet,
    pi_residuals,
    relation_residuals,
    tccr_residuals,
)
from .report import VerificationReport

__all__ = [
    "PreconditionError",
    "ReconstructionTrace",
    "weighted_range_series",
    "positive_part_squared",
    "conjugation_series",
    "isometries_from_generators",
    "generators_from_isometries",
    "verify_stage_identities",
    "stage_relations",
    "roundtrip_check",
]


class PreconditionError(ValueError):
    """An input family failed its relation gate; the report is attached."""

    def __init__(self, message: str, report: VerificationReport):
        failures = ", ".join(
            f"{c.id}: {c.residual:.3e} > {c.tolerance:.1e}" for c in report.failures()
        )
        super().__init__(f"{message}: {failures}")
        self.report = report


@dataclass(frozen=True, eq=False)
class ReconstructionTrace:
    """Intermediate data of the stage recursion, kept for the identity checks.

    ``stages[(i, j)]`` holds stage(i, j) for 1 <= j <= i; ``positive_parts``
    holds T_1..T_d; ``defects`` holds P_0 = 1, P_1, .., P_d with
    P_j = 1 - sum_{k<=j} t_k t_k*.
    """

    stages: dict[tuple[int, int], LinearOperator]
    positive_parts: tuple[LinearOperator, ...]
    defects: tuple[LinearOperator, ...]


def weighted_range_series(t: LinearOperator, ratio: float) -> LinearOperator:
    """sum_{n>=1} ratio^(n-1) t^n t*^n: the conjugation series of t t* with ratio ``ratio``.

    Its closed-form tail is exact when t^n t*^n is constant from n = cap + 2 on.
    """
    return conjugation_series(t, t @ t.adjoint(), ratio)


def positive_part_squared(t: LinearOperator, mu: float) -> LinearOperator:
    """sum_{n>=1} mu^(2(n-1)) t^n t*^n: the squared positive factor of a stage."""
    return weighted_range_series(t, mu * mu)


def conjugation_series(t: LinearOperator, inner: LinearOperator, mu: float) -> LinearOperator:
    """sum_{n>=0} mu^n t^n inner t*^n, with the tail beyond the cap in closed form.

    The terms n <= cap are summed directly.  The tail assumes that t^n inner
    t*^n no longer changes from n = cap + 1 on: it vanishes for a shift-type
    t, which is nilpotent on the truncated basis, and it is fixed for a
    phase-class t, whose powers stabilize.  The tail is then the geometric
    scalar mu^(cap+1) / (1 - mu) times that term, the exact operator limit.
    Both need |mu| < 1.
    """
    if not abs(mu) < 1:
        raise ValueError(f"|mu| must be < 1, got {mu}")
    t._check_same_basis(inner)
    # the fold of @, * and + on (cols, vals) pairs, in the operators' order and with their checks
    t_pair, star_pair = t._pair, t.adjoint()._pair
    total = term = inner._pair
    factor = 1.0
    for _ in range(t.basis.cap):
        term = _product(_product(t_pair, term), star_pair)
        factor *= mu
        total = _merge(total, _scaled(term, factor), np.add)
    tail = mu ** (t.basis.cap + 1) / (1.0 - mu)
    last = _product(_product(t_pair, term), star_pair)
    return _closed(t.basis, *_merge(total, _scaled(last, tail), np.add))


def isometries_from_generators(a: TccrFamily, rank_tol: float = 1e-8) -> GeneratorFamily:
    """Partial isometries from deformed generators via polar decomposition.

    The input must satisfy the deformed relations within ``DERIVED_TOL`` on
    the core; the output satisfies the partial-isometry relations to the same
    accuracy.
    """
    gate = tccr_residuals(a, tolerance=DERIVED_TOL)
    if not gate.all_passed:
        raise PreconditionError("input family violates the deformed relations", gate)
    one = identity(a.basis)
    hats: list[LinearOperator] = []
    range_sum = None
    for op in a.ops:
        s_i = polar_left(op, rank_tol).isometric_part
        if range_sum is None:
            hat = s_i
        else:
            hat = (one - range_sum) @ s_i
        hats.append(hat)
        contribution = hat @ hat.adjoint()
        range_sum = contribution if range_sum is None else range_sum + contribution
    return GeneratorFamily(basis=a.basis, ops=tuple(hats), spec=None)


def generators_from_isometries(t: GeneratorFamily, mu: float) -> tuple[TccrFamily, ReconstructionTrace]:
    """Deformed generators from partial isometries via the weighted stage series."""
    if not abs(mu) < 1:
        raise ValueError(f"|mu| must be < 1, got {mu}")
    gate = pi_residuals(t, tolerance=DERIVED_TOL)
    if not gate.all_passed:
        raise PreconditionError("input family violates the partial-isometry relations", gate)

    d = t.d
    one = identity(t.basis)
    positive_parts = tuple(psd_sqrt(positive_part_squared(op, mu)) for op in t.ops)

    defects = [one]
    acc = one
    for op in t.ops:
        acc = acc - op @ op.adjoint()
        defects.append(acc)

    stages: dict[tuple[int, int], LinearOperator] = {}
    for i in range(1, d + 1):
        stages[(i, i)] = positive_parts[i - 1] @ t.ops[i - 1]
        for j in range(i - 1, 0, -1):
            stages[(i, j)] = conjugation_series(t.ops[j - 1], stages[(i, j + 1)], mu)

    ops = tuple(stages[(i, 1)] for i in range(1, d + 1))
    trace = ReconstructionTrace(
        stages=stages, positive_parts=positive_parts, defects=tuple(defects)
    )
    return TccrFamily(basis=t.basis, ops=ops, mu=float(mu)), trace


def _require_power_cap(cap: int, max_power: int = 3) -> None:
    """Raise unless ``max_power`` is an int >= 1 and ``cap`` holds the occupations ``2 * max_power`` it reaches."""
    if type(max_power) is not int or max_power < 1:
        raise ValueError(f"max_power must be an int >= 1, got {max_power!r}")
    if 2 * max_power > cap:
        raise TruncationError(f"power identities up to {max_power} need cap >= {2 * max_power}, got {cap}")


def verify_stage_identities(
    t: GeneratorFamily,
    mu: float,
    *,
    tolerance: float = MODEL_TOL,
    max_power: int = 3,
) -> VerificationReport:
    """Every identity of the stage calculus as a named residual check, one group per set of ``stage_relations``."""
    _require_power_cap(t.basis.cap, max_power)
    _, trace = generators_from_isometries(t, mu)
    return _stage_identities(t, mu, trace, tolerance=tolerance, max_power=max_power)


@functools.lru_cache(maxsize=8, typed=True)
def stage_relations(d: int, max_power: int) -> tuple[RelationSet, ...]:
    """The stage calculus as relation sets, one per check group in report order.

    Groups: stage projection (P_j stage(i,j) = stage(i,j+1)) and the fixed-point
    form it implies, the annihilation identities between used-up generators and
    later stages, the power identities t_j*^n t_j^m, the diagonal deformed
    relation at every stage level, and the three cross-stage exchange identities.
    Letter x_k is t_k for k <= d, then stage(i, j) in ascending (i, j), then
    P_0..P_d.  Each relation carries its check's description and core level: 3
    for the step and fix groups, n + m for t_j*^n t_j^m, and 2 for the others.
    """
    if d < 1 or type(max_power) is not int or max_power < 1:
        raise ValueError(f"d and max_power must be ints >= 1, got {d!r} and {max_power!r}")
    pairs = [(i, j) for i in range(1, d + 1) for j in range(1, i + 1)]
    stage = {ij: gen(d + n) for n, ij in enumerate(pairs, 1)}
    star = {ij: letter.adjoint() for ij, letter in stage.items()}
    defect = [gen(d + len(stage) + 1 + j) for j in range(d + 1)]
    zero, mu, mu2, one_minus_mu2 = NcPolynomial.zero(), MuPoly.mu(1), MuPoly.mu(2), MuPoly({0: 1, 2: -1})
    names = "stage_step defect_fix annihilate powers level_diag cross_kill exchange_own exchange_down"
    groups: dict[str, list[Relation]] = {name: [] for name in names.split()}

    def word(*letters: Letter) -> NcPolynomial:
        return NcPolynomial.from_word(letters)

    def add(label: str, description: str, lhs: NcPolynomial, rhs: NcPolynomial, core_level: int = 2) -> None:
        groups[label.split("/")[0]].append(Relation(label, lhs, rhs, core_level, description))

    for j, n, m in itertools.product(range(1, d + 1), range(1, max_power + 1), range(1, max_power + 1)):
        if n > m:
            rhs, desc = word(*[gen_star(j)] * (n - m)), f"t{j}*^{n} t{j}^{m} = t{j}*^{n - m}"
        elif n == m:
            rhs, desc = word(defect[j - 1]), f"t{j}*^{n} t{j}^{n} = P_{j - 1}"
        else:
            rhs, desc = word(*[gen(j)] * (m - n)), f"t{j}*^{n} t{j}^{m} = t{j}^{m - n}"
        add(f"powers/j{j}n{n}m{m}", desc, word(*[gen_star(j)] * n, *[gen(j)] * m), rhs, n + m)
    for i, j in stage:
        # P_{j-1} + mu^2 stage(i,j) stage(i,j)* - (1 - mu^2) sum_{j<=k<i} stage(k,j) stage(k,j)*
        rhs = word(defect[j - 1]) + word(stage[(i, j)], star[(i, j)]) * mu2
        for k in range(j, i):
            rhs = rhs - word(stage[(k, j)], star[(k, j)]) * one_minus_mu2
        add(f"level_diag/i{i}j{j}",
            f"stage({i},{j})* stage({i},{j}) solves the diagonal deformed relation at level {j}",
            word(star[(i, j)], stage[(i, j)]), rhs)
        for k in range(j + 1, i + 1):
            add(f"cross_kill/i{i}k{k}j{j}", f"stage({i},{k})* stage({j},{j}) = 0",
                word(star[(i, k)], stage[(j, j)]), zero)
        if j == i:
            continue
        up, down = stage[(i, j + 1)], star[(i, j + 1)]
        add(f"stage_step/i{i}j{j}", f"P_{j} stage({i},{j}) = stage({i},{j + 1})",
            word(defect[j], stage[(i, j)]), word(up), 3)
        for k in range(1, j + 1):
            add(f"defect_fix/i{i}j{j}k{k}", f"P_{k} stage({i},{j + 1}) = stage({i},{j + 1})",
                word(defect[k], up), word(up), 3)
            cases = {"left": (gen_star(k), up), "right": (up, gen(k)),
                     "left_adj": (gen_star(k), down), "right_adj": (down, gen(k))}
            for name, letters in cases.items():
                add(f"annihilate/i{i}j{j}k{k}/{name}",
                    f"annihilation between t_{k} and stage({i},{j + 1}) [{name}]", word(*letters), zero)
            label = f"exchange_own/i{i}j{j}" if k == j else f"exchange_down/i{i}j{j}k{k}"
            add(label, f"stage({i},{k})* stage({j},{k}) = mu stage({j},{k}) stage({i},{k})*",
                word(star[(i, k)], stage[(j, k)]), word(stage[(j, k)], star[(i, k)]) * mu)
    kind = f"stages({d},{max_power})/"
    return tuple(RelationSet(kind=kind + name, relations=tuple(rels)) for name, rels in groups.items() if rels)


def _stage_identities(
    t: GeneratorFamily,
    mu: float,
    trace: ReconstructionTrace,
    *,
    tolerance: float = MODEL_TOL,
    max_power: int = 3,
) -> VerificationReport:
    """The body of ``verify_stage_identities`` on the trace of ``generators_from_isometries(t, mu)``.

    One family holds the letters of ``stage_relations``; each set is one ``relation_residuals`` call.
    """
    params = {"d": t.d, "mu": mu, "cap": t.basis.cap, "max_power": max_power, "tolerance": tolerance}
    report = VerificationReport(command="verify_stage_identities", params=params)
    stages = (trace.stages[ij] for ij in sorted(trace.stages))
    family = GeneratorFamily(basis=t.basis, ops=(*t.ops, *stages, *trace.defects))
    for relset in stage_relations(t.d, max_power):
        report.extend(relation_residuals(
            family, relset, mu, command=report.command, params=params, tolerance=tolerance,
        ))
    return report


def roundtrip_check(
    t: GeneratorFamily,
    mu: float,
    rank_tol: float = 1e-8,
    *,
    a: TccrFamily | None = None,
    tolerance: float = DERIVED_TOL,
) -> VerificationReport:
    """Both composition orders of the two constructions.

    Direction A starts from the partial isometries: reconstruct the deformed
    family, take its polar partial isometries, and compare with the input.
    Direction B starts from a deformed family (``a`` if given, otherwise the
    one reconstructed in direction A) and goes the other way around.  The
    relation sets are re-checked on both intermediate families.  Every check
    is held to ``tolerance``; the precondition gates of both constructions use
    ``DERIVED_TOL``.
    """
    tilde, _ = generators_from_isometries(t, mu)
    return _roundtrip(t, mu, rank_tol, tilde, a=a, tolerance=tolerance)


def _roundtrip(
    t: GeneratorFamily,
    mu: float,
    rank_tol: float,
    tilde: TccrFamily,
    *,
    a: TccrFamily | None = None,
    tolerance: float = DERIVED_TOL,
) -> VerificationReport:
    """The body of ``roundtrip_check`` on ``tilde``, the family of ``generators_from_isometries(t, mu)``."""
    report = VerificationReport(
        command="roundtrip_check",
        params={
            "d": t.d,
            "mu": mu,
            "cap": t.basis.cap,
            "rank_tol": rank_tol,
            "tolerance": tolerance,
        },
    )
    report.extend(tccr_residuals(tilde, tolerance=tolerance, id_prefix="A/tccr/"))
    hats = isometries_from_generators(tilde, rank_tol)
    report.extend(pi_residuals(hats, tolerance=tolerance, id_prefix="A/pi/"))
    for i in range(1, t.d + 1):
        report.add(
            f"A/recover/t{i}",
            f"polar isometries of the reconstructed family recover t{i}",
            core_residual(hats.ops[i - 1], t.ops[i - 1], 3),
            tolerance,
        )

    start = a if a is not None else tilde
    hats_b = isometries_from_generators(start, rank_tol)
    tilde_b, _ = generators_from_isometries(hats_b, start.mu)
    for i in range(1, t.d + 1):
        report.add(
            f"B/recover/a{i}",
            f"stage series over the polar isometries recovers a{i}",
            core_residual(tilde_b.ops[i - 1], start.ops[i - 1], 3),
            tolerance,
        )
    return report
