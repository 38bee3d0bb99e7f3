"""The stage suite as operator loops: one ``LinearOperator`` per side and a ``core_residual`` per check.

The test-only reference for ``tccr.reconstruct._stage_identities``, which
measures the same checks as relation sets on the word kernel.  The body is the
suite as it was written on operators, unchanged except that the removed
``LinearOperator.power`` is the local ``_power``, the same left fold.
"""

from tccr.fock import LinearOperator, core_residual, identity
from tccr.relations import MODEL_TOL
from tccr.report import VerificationReport


def _power(op: LinearOperator, k: int) -> LinearOperator:
    out = identity(op.basis)
    for _ in range(k):
        out = out @ op
    return out


def stage_identities(t, mu, trace, *, tolerance=MODEL_TOL, max_power=3) -> VerificationReport:
    """The stage suite of ``t`` on ``trace``, the trace of ``generators_from_isometries(t, mu)``."""
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
        powers = [_power(t.ops[j - 1], n) for n in range(max_power + 1)]
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
