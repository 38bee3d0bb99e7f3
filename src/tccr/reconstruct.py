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
is fixed and its tail is a geometric scalar.

``verify_stage_identities`` re-derives every auxiliary identity of the
stage calculus as a named residual check, and ``roundtrip_check`` verifies that
the two constructions invert each other.
"""

from __future__ import annotations

from dataclasses import dataclass

from .families import GeneratorFamily, TccrFamily
from .fock import (
    LinearOperator,
    TruncationError,
    core_residual,
    identity,
    polar_left,
    psd_sqrt,
)
from .relations import (
    DERIVED_TOL,
    MODEL_TOL,
    pi_residuals,
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
    t_star = t.adjoint()
    total = term = inner
    factor = 1.0
    for _ in range(t.basis.cap):
        term = t @ term @ t_star
        factor *= mu
        total = total + factor * term
    tail = mu ** (t.basis.cap + 1) / (1.0 - mu)
    return total + tail * (t @ term @ t_star)


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
    """Raise unless ``cap`` holds the occupations ``2 * max_power`` that the power identities reach."""
    if 2 * max_power > cap:
        raise TruncationError(f"power identities up to {max_power} need cap >= {2 * max_power}, got {cap}")


def verify_stage_identities(
    t: GeneratorFamily,
    mu: float,
    *,
    tolerance: float = MODEL_TOL,
    max_power: int = 3,
) -> VerificationReport:
    """Every identity of the stage calculus as a named residual check.

    Groups: stage projection (P_j stage(i,j) = stage(i,j+1)) and the
    fixed-point form it implies, the annihilation identities between
    used-up generators and later stages, the power identities t_j*^n t_j^m,
    the diagonal deformed relation at every stage level, and the three
    cross-stage exchange identities.
    """
    _require_power_cap(t.basis.cap, max_power)
    family, trace = generators_from_isometries(t, mu)
    d = t.d
    stages = trace.stages
    defects = trace.defects
    report = VerificationReport(
        command="verify_stage_identities",
        params={
            "d": d,
            "mu": mu,
            "cap": t.basis.cap,
            "max_power": max_power,
            "tolerance": tolerance,
        },
    )

    # P_j stage(i, j) = stage(i, j+1) for j < i
    for i in range(1, d + 1):
        for j in range(1, i):
            residual = core_residual(defects[j] @ stages[(i, j)], stages[(i, j + 1)], 3)
            report.add(
                f"stage_step/i{i}j{j}",
                f"P_{j} stage({i},{j}) = stage({i},{j + 1})",
                residual,
                tolerance,
            )

    # P_k stage(i, j+1) = stage(i, j+1) for k <= j < i
    for i in range(1, d + 1):
        for j in range(1, i):
            for k in range(1, j + 1):
                lhs = defects[k] @ stages[(i, j + 1)]
                residual = core_residual(lhs, stages[(i, j + 1)], 3)
                report.add(
                    f"defect_fix/i{i}j{j}k{k}",
                    f"P_{k} stage({i},{j + 1}) = stage({i},{j + 1})",
                    residual,
                    tolerance,
                )

    # t_k* stage(i, j+1) = 0 = stage(i, j+1) t_k and adjoints, for k <= j < i
    zero_op = 0.0 * identity(t.basis)
    for i in range(1, d + 1):
        for j in range(1, i):
            stage = stages[(i, j + 1)]
            for k in range(1, j + 1):
                t_k = t.ops[k - 1]
                cases = {
                    "left": t_k.adjoint() @ stage,
                    "right": stage @ t_k,
                    "left_adj": t_k.adjoint() @ stage.adjoint(),
                    "right_adj": stage.adjoint() @ t_k,
                }
                for name, op in cases.items():
                    report.add(
                        f"annihilate/i{i}j{j}k{k}/{name}",
                        f"annihilation between t_{k} and stage({i},{j + 1}) [{name}]",
                        core_residual(op, zero_op, 2),
                        tolerance,
                    )

    # t_j*^n t_j^m power identities
    for j in range(1, d + 1):
        powers = [t.ops[j - 1].power(n) for n in range(max_power + 1)]
        star_powers = [p.adjoint() for p in powers]
        for n in range(1, max_power + 1):
            for m in range(1, max_power + 1):
                lhs = star_powers[n] @ powers[m]
                if n > m:
                    rhs = star_powers[n - m]
                    desc = f"t{j}*^{n} t{j}^{m} = t{j}*^{n - m}"
                elif n == m:
                    rhs = defects[j - 1]
                    desc = f"t{j}*^{n} t{j}^{n} = P_{j - 1}"
                else:
                    rhs = powers[m - n]
                    desc = f"t{j}*^{n} t{j}^{m} = t{j}^{m - n}"
                report.add(
                    f"powers/j{j}n{n}m{m}",
                    desc,
                    core_residual(lhs, rhs, n + m),
                    tolerance,
                )

    # stage(i,j)* stage(i,j) = P_{j-1} + mu^2 stage(i,j) stage(i,j)*
    #                          - (1 - mu^2) sum_{j<=k<i} stage(k,j) stage(k,j)*
    for i in range(1, d + 1):
        for j in range(1, i + 1):
            a_ij = stages[(i, j)]
            rhs = defects[j - 1] + (mu * mu) * (a_ij @ a_ij.adjoint())
            for k in range(j, i):
                a_kj = stages[(k, j)]
                rhs = rhs - (1.0 - mu * mu) * (a_kj @ a_kj.adjoint())
            report.add(
                f"level_diag/i{i}j{j}",
                f"stage({i},{j})* stage({i},{j}) solves the diagonal deformed relation at level {j}",
                core_residual(a_ij.adjoint() @ a_ij, rhs, 2),
                tolerance,
            )

    # stage(i,k)* stage(j,j) = 0 for j < k <= i
    for i in range(1, d + 1):
        for j in range(1, i + 1):
            for k in range(j + 1, i + 1):
                lhs = stages[(i, k)].adjoint() @ stages[(j, j)]
                report.add(
                    f"cross_kill/i{i}k{k}j{j}",
                    f"stage({i},{k})* stage({j},{j}) = 0",
                    core_residual(lhs, zero_op, 2),
                    tolerance,
                )

    # stage(i,j)* stage(j,j) = mu stage(j,j) stage(i,j)* for j < i
    for i in range(1, d + 1):
        for j in range(1, i):
            lhs = stages[(i, j)].adjoint() @ stages[(j, j)]
            rhs = mu * (stages[(j, j)] @ stages[(i, j)].adjoint())
            report.add(
                f"exchange_own/i{i}j{j}",
                f"stage({i},{j})* stage({j},{j}) = mu stage({j},{j}) stage({i},{j})*",
                core_residual(lhs, rhs, 2),
                tolerance,
            )

    # stage(i,k)* stage(j,k) = mu stage(j,k) stage(i,k)* for k < j < i
    for i in range(1, d + 1):
        for j in range(1, i):
            for k in range(1, j):
                lhs = stages[(i, k)].adjoint() @ stages[(j, k)]
                rhs = mu * (stages[(j, k)] @ stages[(i, k)].adjoint())
                report.add(
                    f"exchange_down/i{i}j{j}k{k}",
                    f"stage({i},{k})* stage({j},{k}) = mu stage({j},{k}) stage({i},{k})*",
                    core_residual(lhs, rhs, 2),
                    tolerance,
                )

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

    tilde, _ = generators_from_isometries(t, mu)
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
