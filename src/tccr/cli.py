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
from typing import Callable, Sequence

import numpy as np

from .families import IrrepSpec, build_fock_tccr, build_irrep, build_qccr_single
from .fock import core_residual, enumerate_basis, identity, polar_left, psd_sqrt
from .reconstruct import (
    _require_power_cap,
    _roundtrip,
    _stage_identities,
    generators_from_isometries,
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
from .report import FORMATS, VerificationReport, merge_reports, round_float
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


# subcommand -> (help, its own arguments as (flag, add_argument keywords)); each also takes --out and --format
_SUBCOMMANDS = {
    "verify": ("relation residuals and the norm bound", (
        ("--d", dict(type=_positive_int("d"), default=2)),
        ("--mu", dict(type=_unit_interval("mu"), default=0.5)),
        ("--cap", dict(type=_positive_int("cap", 2), default=8)),
        ("--tol", dict(type=_positive_finite("tol"), default=1e-10)),
    )),
    "roundtrip": ("both inverse constructions plus the stage identity suite", (
        ("--d", dict(type=_positive_int("d"), default=2)),
        ("--mu", dict(type=_unit_interval("mu"), default=0.5)),
        ("--cap", dict(type=_positive_int("cap", 2), default=8)),
        ("--rank-tol", dict(type=_positive_finite("rank-tol"), default=1e-8)),
        ("--tol", dict(type=_positive_finite("tol"), default=None,
                       help="tolerance of every check (default: each check's pinned tolerance)")),
    )),
    "irreps": ("relation residuals for every class and phase", (
        ("--d", dict(type=_positive_int("d"), default=2)),
        ("--cap", dict(type=_positive_int("cap", 2), default=8)),
        ("--class-j", dict(type=_positive_int("class-j", 0), default=None,
                           help="restrict to one class (default: all of 0..d)")),
        ("--phases", dict(type=_phase_list, default=DEFAULT_PHASES)),
        ("--tol", dict(type=_positive_finite("tol"), default=1e-10)),
    )),
    "gram": ("exact vacuum pairing matrix, positivity, oracle bridge", (
        ("--d", dict(type=_positive_int("d"), default=2)),
        ("--level", dict(type=_positive_int("level", 0), default=2)),
        ("--cap", dict(type=_positive_int("cap", 2), default=8)),
        ("--bridge-count", dict(type=_positive_int("bridge-count", 0), default=20)),
        ("--seed", dict(type=int, default=42)),
        ("--tol", dict(type=_positive_finite("tol"), default=1e-10)),
    )),
    "faithfulness": ("collapse-map equalities and norm domination samples", (
        ("--d", dict(type=_positive_int("d"), default=2)),
        ("--cap", dict(type=_positive_int("cap", 2), default=12)),
        ("--phase", dict(type=_phase, default=0.0)),
        ("--words", dict(type=_positive_int("words"), default=100)),
        ("--max-len", dict(type=_positive_int("max-len"), default=6)),
        ("--seed", dict(type=int, default=42)),
        ("--tol", dict(type=_positive_finite("tol"), default=1e-8)),
    )),
    "qccr": ("one-mode deformed generator and its polar identity", (
        ("--q", dict(type=_unit_interval("q"), default=0.3)),
        ("--cap", dict(type=_positive_int("cap", 2), default=12)),
        ("--tol", dict(type=_positive_finite("tol"), default=1e-8)),
    )),
    "demo": ("small fixed campaign touching every module", ()),
}
_COMMON = (
    ("--out", dict(default=None, help="report path ('-' or omitted: stdout)")),
    ("--format", dict(choices=FORMATS, default="json")),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tccr",
        description="Verify deformed commutation relations and their partial-isometry form on truncated bases.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (summary, arguments) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=summary)
        for flag, keywords in (*arguments, *_COMMON):
            p.add_argument(flag, **keywords)
    return parser


def _plain_args(argv: list[str]) -> argparse.Namespace | None:
    """``build_parser().parse_args(argv)``, read from the table for a subcommand name, then ``--flag value``
    pairs that name its own flags exactly, with values that argparse takes as values and the types and choices
    accept; None for any other argv, which is argparse's to read (help, other spellings, usage errors)."""
    if not argv or argv[0] not in _SUBCOMMANDS or len(argv) % 2 == 0:
        return None
    arguments = dict((*_SUBCOMMANDS[argv[0]][1], *_COMMON))
    values = {flag: keywords["default"] for flag, keywords in arguments.items()}
    for flag, text in zip(argv[1::2], argv[2::2]):
        # argparse takes a token starting with '-' as a value only if it is '-' or a negative number (-1, -.5)
        number = text[1:].replace(".", "", 1).isdecimal() and not text.endswith(".")
        if flag not in arguments or text[:1] == "-" and text != "-" and not number:
            return None
        try:
            values[flag] = value = arguments[flag].get("type", str)(text)
        except (argparse.ArgumentTypeError, ValueError, TypeError):
            return None
        if "choices" in arguments[flag] and value not in arguments[flag]["choices"]:
            return None
    return argparse.Namespace(subcommand=argv[0], **{f[2:].replace("-", "_"): v for f, v in values.items()})


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
    parts = _roundtrip_and_stages(fock, fam, mu, rank_tol, **override)
    params = {"d": d, "mu": mu, "cap": cap, "rank_tol": rank_tol, "tol": tol}
    return merge_reports("roundtrip", params, parts)


def _roundtrip_and_stages(fock, fam, mu: float, rank_tol: float, **override) -> list[VerificationReport]:
    """``roundtrip_check(fock, mu, rank_tol, a=fam, **override)`` and
    ``verify_stage_identities(fock, mu, **override)``, from one reconstruction.
    """
    tilde, trace = generators_from_isometries(fock, mu)
    return [
        _roundtrip(fock, mu, rank_tol, tilde, a=fam, **override),
        _stage_identities(fock, mu, trace, **override),
    ]


def run_irreps(
    d: int,
    cap: int,
    phases: Sequence[float],
    tol: float,
    class_j: int | None = None,
) -> VerificationReport:
    enumerate_basis(d, cap)  # the d-slot basis of class d, checked before any class is built
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
        # symmetric entries are one object, and so are all the zeros
        texts: dict[int, str] = {}
        for row in entries:
            for e in row:
                if id(e) not in texts:
                    texts[id(e)] = str(e)
        for row, word in zip(entries, words):
            rendered = ", ".join(texts[id(e)] for e in row)
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
    polys = {
        f"bridge/p{k:03d}/": random_polynomial(d, max_degree, random.Random(f"{seed}:{k}"))
        for k in range(bridge_count)
    }
    _add_bridge_checks(report, polys, d, {f"mu{mu:+.2f}": fam for mu, fam in families.items()}, tol)
    return report


def run_faithfulness(
    d: int, cap: int, phase: float, words: int, max_len: int, seed: int, tol: float
) -> VerificationReport:
    enumerate_basis(d, cap)  # the vacuum-cyclic family's basis, checked before any class is built
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
        out.add(prefix + c.id, c.description, c.residual, c.tolerance)
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
    roundtrip, stages = _roundtrip_and_stages(fock, fam, mu, 1e-8)
    parts = [
        tccr_residuals(fam),
        pi_residuals(fock),
        norm_bound_check(fam),
        _prefixed(roundtrip, "roundtrip/"),
        _prefixed(stages, "stages/"),
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
    if fmt not in FORMATS:
        print(f"unknown format {fmt!r}", file=sys.stderr)
        return 2
    rendered, all_passed = report.render(fmt)
    if out is None or out == "-":
        sys.stdout.write(rendered)
    else:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(rendered)
        except OSError as exc:
            print(f"cannot write report to {out}: {exc}", file=sys.stderr)
            return 2
    return 0 if all_passed else 1


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # each flag is named after a parameter of its subcommand's runner
    args = vars(_plain_args(argv) or build_parser().parse_args(argv))
    command, fmt, out = args.pop("subcommand"), args.pop("format"), args.pop("out")
    run = {"verify": run_verify, "roundtrip": run_roundtrip, "irreps": run_irreps, "gram": run_gram,
           "faithfulness": run_faithfulness, "qccr": run_qccr, "demo": run_demo}[command]
    try:
        # gram's matrix goes beside its report: on stderr when the report takes stdout
        echo = (lambda line: print(line, file=sys.stderr)) if out in (None, "-") else print
        report = run(**args, echo=echo) if command == "gram" else run(**args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return emit_report(report, fmt, out)


if __name__ == "__main__":
    sys.exit(main())
