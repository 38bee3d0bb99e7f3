"""Command-line verification campaigns.

Every subcommand runs a set of named checks and emits one report; the exit
code is 0 when all checks pass, 1 when any fails, and 2 on usage or I/O
errors.  Reports are canonical (sorted keys, 15-significant-digit floats),
so a repeated run with the same parameters is byte-identical.
"""

from __future__ import annotations

import argparse
import math
import random
import sys
from dataclasses import replace
from typing import Callable, Sequence

import numpy as np

from .families import IrrepSpec, build_fock_tccr, build_irrep, build_qccr_single
from .fock import core_residual, identity, polar_left, psd_sqrt
from .reconstruct import (
    _require_power_cap,
    roundtrip_check,
    verify_stage_identities,
    weighted_range_series,
)
from .relations import (
    collapse_check,
    norm_bound_check,
    norm_domination_sample,
    pi_residuals,
    qccr_residuals,
    tccr_residuals,
)
from .report import VerificationReport, merge_reports, round_float
from .symbolic import (
    _add_bridge_checks,
    evaluate_mu_matrix,
    gram_matrix,
    random_polynomial,
    word_str,
)

__all__ = ["main", "build_parser"]

GRAM_MU_SAMPLES = (-0.9, -0.5, 0.0, 0.3, 0.7, 0.9)
DEFAULT_PHASES = (0.0, math.pi / 3, math.pi)


def _unit_interval(name: str) -> Callable[[str], float]:
    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{name} must be a number, got {text!r}")
        if not abs(value) < 1:
            raise argparse.ArgumentTypeError(f"|{name}| must be < 1, got {value}")
        return value

    return parse


def _positive_int(name: str, minimum: int = 1) -> Callable[[str], int]:
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{name} must be an integer, got {text!r}")
        if value < minimum:
            raise argparse.ArgumentTypeError(f"{name} must be >= {minimum}, got {value}")
        return value

    return parse


def _positive_finite(name: str) -> Callable[[str], float]:
    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{name} must be a number, got {text!r}")
        # a report stores the value at 15 significant digits, where it must stay finite
        if not (math.isfinite(round_float(value)) and value > 0):
            raise argparse.ArgumentTypeError(
                f"{name} must be finite and > 0 (also at 15 significant digits), got {value}"
            )
        return value

    return parse


def _phase(text: str) -> float:
    """Accept plain floats plus the convenient pi forms: pi, pi/3, 2pi/3."""
    raw = text.strip().lower()
    value = None
    try:
        value = float(raw)
    except ValueError:
        if "pi" in raw:
            head, _, tail = raw.partition("pi")
            try:
                factor = float(head) if head not in ("", "+", "-") else float(head + "1")
                divisor = float(tail[1:]) if tail.startswith("/") else (1.0 if not tail else None)
                if divisor:
                    value = factor * math.pi / divisor
            except ValueError:
                pass
    if value is None or not math.isfinite(round_float(value)):
        raise argparse.ArgumentTypeError(
            f"cannot parse phase {text!r} as a number finite at 15 significant digits"
        )
    return value


def _phase_list(text: str) -> list[float]:
    phases = [_phase(part) for part in text.split(",") if part.strip()]
    if not phases:
        raise argparse.ArgumentTypeError(f"phase list {text!r} names no phase")
    return phases


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tccr",
        description="Verify deformed commutation relations and their partial-isometry form on truncated bases.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", default=None, help="report path ('-' or omitted: stdout)")
        p.add_argument("--format", choices=("json", "csv", "md"), default="json")

    p = sub.add_parser("verify", help="relation residuals and the norm bound")
    p.add_argument("--d", type=_positive_int("d"), default=2)
    p.add_argument("--mu", type=_unit_interval("mu"), default=0.5)
    p.add_argument("--cap", type=_positive_int("cap", 2), default=8)
    p.add_argument("--tol", type=_positive_finite("tol"), default=1e-10)
    add_common(p)

    p = sub.add_parser("roundtrip", help="both inverse constructions plus the stage identity suite")
    p.add_argument("--d", type=_positive_int("d"), default=2)
    p.add_argument("--mu", type=_unit_interval("mu"), default=0.5)
    p.add_argument("--cap", type=_positive_int("cap", 2), default=8)
    p.add_argument("--rank-tol", type=_positive_finite("rank-tol"), default=1e-8)
    p.add_argument("--tol", type=_positive_finite("tol"), default=None,
                   help="tolerance of every check (default: each check's pinned tolerance)")
    add_common(p)

    p = sub.add_parser("irreps", help="relation residuals for every class and phase")
    p.add_argument("--d", type=_positive_int("d"), default=2)
    p.add_argument("--cap", type=_positive_int("cap", 2), default=8)
    p.add_argument("--class-j", type=_positive_int("class-j", 0), default=None,
                   help="restrict to one class (default: all of 0..d)")
    p.add_argument("--phases", type=_phase_list, default=list(DEFAULT_PHASES))
    p.add_argument("--tol", type=_positive_finite("tol"), default=1e-10)
    add_common(p)

    p = sub.add_parser("gram", help="exact vacuum pairing matrix, positivity, oracle bridge")
    p.add_argument("--d", type=_positive_int("d"), default=2)
    p.add_argument("--level", type=_positive_int("level", 0), default=2)
    p.add_argument("--cap", type=_positive_int("cap", 2), default=8)
    p.add_argument("--bridge-count", type=_positive_int("bridge-count", 0), default=20)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--tol", type=_positive_finite("tol"), default=1e-10)
    add_common(p)

    p = sub.add_parser("faithfulness", help="collapse-map equalities and norm domination samples")
    p.add_argument("--d", type=_positive_int("d"), default=2)
    p.add_argument("--cap", type=_positive_int("cap", 2), default=12)
    p.add_argument("--phase", type=_phase, default=0.0)
    p.add_argument("--words", type=_positive_int("words"), default=100)
    p.add_argument("--max-len", type=_positive_int("max-len"), default=6)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--tol", type=_positive_finite("tol"), default=1e-8)
    add_common(p)

    p = sub.add_parser("qccr", help="one-mode deformed generator and its polar identity")
    p.add_argument("--q", type=_unit_interval("q"), default=0.3)
    p.add_argument("--cap", type=_positive_int("cap", 2), default=12)
    p.add_argument("--tol", type=_positive_finite("tol"), default=1e-8)
    add_common(p)

    p = sub.add_parser("demo", help="small fixed campaign touching every module")
    add_common(p)

    return parser


def run_verify(d: int, mu: float, cap: int, tol: float) -> VerificationReport:
    fam = build_fock_tccr(d, mu, cap)
    irrep = build_irrep(IrrepSpec(d=d, class_j=d, cap=cap))
    parts = [
        tccr_residuals(fam, tolerance=tol),
        pi_residuals(irrep, tolerance=tol),
        norm_bound_check(fam, tolerance=tol),
    ]
    params = {"d": d, "mu": mu, "cap": cap, "tol": tol}
    return merge_reports("verify", params, parts)


def run_roundtrip(d: int, mu: float, cap: int, rank_tol: float, tol: float | None) -> VerificationReport:
    """Both constructions and the stage suite; ``tol``, when given, is every check's tolerance."""
    # the stage suite's cap rule, checked before either family is built
    _require_power_cap(cap)
    fock = build_irrep(IrrepSpec(d=d, class_j=d, cap=cap))
    fam = build_fock_tccr(d, mu, cap)
    override = {} if tol is None else {"tolerance": tol}
    parts = [
        roundtrip_check(fock, mu, rank_tol, a=fam, **override),
        verify_stage_identities(fock, mu, **override),
    ]
    params = {"d": d, "mu": mu, "cap": cap, "rank_tol": rank_tol, "tol": tol}
    return merge_reports("roundtrip", params, parts)


def run_irreps(
    d: int,
    cap: int,
    phases: Sequence[float],
    tol: float,
    class_j: int | None = None,
) -> VerificationReport:
    if class_j is not None and not 0 <= class_j <= d:
        raise ValueError(f"class_j must lie in 0..{d}, got {class_j}")
    classes = range(d + 1) if class_j is None else (class_j,)
    parts = [
        pi_residuals(
            build_irrep(IrrepSpec(d=d, class_j=j, cap=cap, phase=phase)),
            tolerance=tol,
            id_prefix=f"j{j}/phi{phase:.6f}/",
        )
        for j in classes
        for phase in phases
    ]
    params = {"d": d, "cap": cap, "classes": list(classes), "phases": list(phases), "tol": tol}
    return merge_reports("irreps", params, parts)


def run_gram(
    d: int,
    level: int,
    cap: int,
    bridge_count: int,
    seed: int,
    tol: float,
    *,
    echo=None,
) -> VerificationReport:
    words, entries = gram_matrix(level, d)
    if echo is not None:
        echo(f"vacuum pairing matrix, word basis of length <= {level}, d = {d}:")
        for row, word in zip(entries, words):
            rendered = ", ".join(str(e) for e in row)
            echo(f"  <{word_str(word)}> [{rendered}]")
    report = VerificationReport(
        command="gram",
        params={
            "d": d,
            "level": level,
            "cap": cap,
            "bridge_count": bridge_count,
            "seed": seed,
            "tol": tol,
            "mu_samples": list(GRAM_MU_SAMPLES),
        },
    )
    for mu in GRAM_MU_SAMPLES:
        low = float(np.linalg.eigvalsh(evaluate_mu_matrix(entries, mu))[0])
        report.add(
            f"positivity/mu{mu:+.2f}",
            f"smallest eigenvalue of the pairing matrix at mu = {mu}",
            -low,
            tol,
        )
    max_degree = min(5, cap)
    families = {mu: build_fock_tccr(d, mu, cap) for mu in (-0.9, 0.3, 0.7)}
    for k in range(bridge_count):
        poly = random_polynomial(d, max_degree, random.Random(f"{seed}:{k}"))
        checks = {f"bridge/p{k:03d}/mu{mu:+.2f}": fam for mu, fam in families.items()}
        _add_bridge_checks(report, poly, d, checks, tol)
    return report


def run_faithfulness(
    d: int, cap: int, phase: float, words: int, max_len: int, seed: int, tol: float
) -> VerificationReport:
    parts = [_prefixed(collapse_check(d, j, phase, cap), f"j{j}/") for j in range(d)]
    parts.append(
        norm_domination_sample(
            d, cap, phase=phase, n_words=words, max_len=max_len, seed=seed,
            monotone_caps=tuple(c for c in (4, 6, 8) if c <= cap), tolerance=tol,
        )
    )
    params = {
        "d": d,
        "cap": cap,
        "phase": phase,
        "words": words,
        "max_len": max_len,
        "seed": seed,
        "tol": tol,
    }
    return merge_reports("faithfulness", params, parts)


def _prefixed(report: VerificationReport, prefix: str) -> VerificationReport:
    out = VerificationReport(command=report.command, params=report.params)
    for c in report.checks:
        out._append(replace(c, id=prefix + c.id))
    return out


def run_qccr(q: float, cap: int, tol: float) -> VerificationReport:
    op = build_qccr_single(q, cap)
    report = VerificationReport(command="qccr", params={"q": q, "cap": cap, "tol": tol})
    report.extend(qccr_residuals(op, q))

    s = polar_left(op).isometric_part
    report.add(
        "isometry",
        "polar factor satisfies S* S = 1 below the cap",
        core_residual(s.adjoint() @ s, identity(op.basis), 2),
        1e-10,
    )
    rebuilt = psd_sqrt(weighted_range_series(s, q)) @ s
    report.add(
        "polar_series",
        "a equals the weighted-range square root times its polar factor",
        core_residual(rebuilt, op, 1),
        tol,
    )
    return report


def run_demo() -> VerificationReport:
    d, mu, cap, seed = 2, 0.5, 8, 42
    fam = build_fock_tccr(d, mu, cap)
    fock = build_irrep(IrrepSpec(d=d, class_j=d, cap=cap))
    parts = [
        tccr_residuals(fam),
        pi_residuals(fock),
        norm_bound_check(fam),
        _prefixed(roundtrip_check(fock, mu, a=fam), "roundtrip/"),
        _prefixed(verify_stage_identities(fock, mu), "stages/"),
        _prefixed(run_qccr(mu, cap, 1e-8), "qccr/"),
        _prefixed(collapse_check(d, 0, 0.0, cap), "collapse/j0/"),
        _prefixed(collapse_check(d, 1, math.pi / 3, cap), "collapse/j1/"),
        _prefixed(
            norm_domination_sample(d, cap, n_words=20, max_len=4, seed=seed, monotone_caps=(4, 6, 8)),
            "domination/",
        ),
        _prefixed(run_gram(d, 2, cap, 10, seed, 1e-10), "gram/"),
    ]
    params = {"d": d, "mu": mu, "cap": cap, "seed": seed}
    return merge_reports("demo", params, parts)


def emit_report(report: VerificationReport, fmt: str, out: str | None) -> int:
    """Write the report; exit status 0 if all checks passed, 1 otherwise, 2 on I/O error."""
    if fmt == "json":
        rendered = report.to_json()
    elif fmt == "csv":
        rendered = report.to_csv()
    elif fmt == "md":
        rendered = report.to_markdown()
    else:
        print(f"unknown format {fmt!r}", file=sys.stderr)
        return 2
    if out is None or out == "-":
        sys.stdout.write(rendered)
    else:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(rendered)
        except OSError as exc:
            print(f"cannot write report to {out}: {exc}", file=sys.stderr)
            return 2
    return 0 if report.all_passed else 1


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.subcommand == "verify":
            report = run_verify(args.d, args.mu, args.cap, args.tol)
        elif args.subcommand == "roundtrip":
            report = run_roundtrip(args.d, args.mu, args.cap, args.rank_tol, args.tol)
        elif args.subcommand == "irreps":
            report = run_irreps(args.d, args.cap, args.phases, args.tol, args.class_j)
        elif args.subcommand == "gram":
            report = run_gram(
                args.d, args.level, args.cap, args.bridge_count, args.seed, args.tol,
                echo=lambda line: print(line),
            )
        elif args.subcommand == "faithfulness":
            report = run_faithfulness(
                args.d, args.cap, args.phase, args.words, args.max_len, args.seed, args.tol
            )
        elif args.subcommand == "qccr":
            report = run_qccr(args.q, args.cap, args.tol)
        elif args.subcommand == "demo":
            report = run_demo()
        else:  # unreachable with required=True
            parser.error(f"unknown subcommand {args.subcommand!r}")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return emit_report(report, args.format, args.out)


if __name__ == "__main__":
    sys.exit(main())
