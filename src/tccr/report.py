"""Structured pass/fail reports with canonical JSON/CSV/Markdown output.

A report is a flat list of named checks, each carrying the measured residual
and its tolerance.  Serialization is canonical: keys sorted, floats rounded
to 15 significant digits, so identical runs produce identical bytes.  The
pass flag and the summary are recomputed from residual/tolerance on load
rather than trusted from the file.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

__all__ = ["Check", "VerificationReport", "merge_reports", "round_float"]


def round_float(x: float) -> float:
    """Round to 15 significant digits for stable serialized output."""
    return float(format(float(x), ".15g"))


def _largest_writable() -> float:
    """The largest float that ``round_float`` keeps finite (a few ulps below the float maximum)."""
    x = sys.float_info.max
    while not math.isfinite(round_float(x)):
        x = math.nextafter(x, 0.0)
    return x


# |x| above this (or NaN) has no finite 15-digit form, so no report could be written
_WRITABLE_MAX = _largest_writable()


@dataclass(frozen=True)
class Check:
    id: str
    description: str
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance


@dataclass
class VerificationReport:
    command: str
    params: dict[str, Any] = field(default_factory=dict)
    checks: list[Check] = field(default_factory=list)
    _ids: set[str] = field(default_factory=set, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        initial, self.checks = self.checks, []
        for c in initial:
            self.add(c.id, c.description, c.residual, c.tolerance)

    def add(self, id: str, description: str, residual: float, tolerance: float) -> Check:
        """Append a check; ids are unique and both numbers must stay finite at 15 significant digits."""
        if id in self._ids:
            raise ValueError(f"duplicate check id {id!r}")
        if not (abs(residual) <= _WRITABLE_MAX and abs(tolerance) <= _WRITABLE_MAX):
            raise ValueError(
                f"check {id!r} has a non-finite residual or tolerance (at 15 significant digits): "
                f"{residual}, {tolerance}"
            )
        check = Check(id=id, description=description, residual=float(residual), tolerance=float(tolerance))
        self.checks.append(check)
        self._ids.add(id)
        return check

    def extend(self, other: "VerificationReport") -> None:
        for c in other.checks:
            self.add(c.id, c.description, c.residual, c.tolerance)

    @property
    def total(self) -> int:
        return len(self.checks)

    @property
    def passed(self) -> int:
        return sum(1 for c in self.checks if c.passed)

    @property
    def all_passed(self) -> bool:
        return self.passed == self.total

    def failures(self) -> list[Check]:
        return [c for c in self.checks if not c.passed]

    def sorted_checks(self) -> list[Check]:
        return sorted(self.checks, key=lambda c: c.id)

    def worst(self) -> Check | None:
        """Check with the largest residual/tolerance ratio, if any."""
        if not self.checks:
            return None
        return max(self.checks, key=lambda c: c.residual / c.tolerance if c.tolerance else float("inf"))

    def to_dict(self) -> dict[str, Any]:
        return {
            "command": self.command,
            "params": _canonical_params(self.params),
            "checks": [
                {
                    "id": c.id,
                    "description": c.description,
                    "residual": round_float(c.residual),
                    "tolerance": round_float(c.tolerance),
                    "pass": c.passed,
                }
                for c in self.sorted_checks()
            ],
            "summary": {"total": self.total, "passed": self.passed},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2, allow_nan=False) + "\n"

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "VerificationReport":
        report = cls(command=data["command"], params=dict(data["params"]))
        for c in data["checks"]:
            # pass flag is recomputed by Check, never trusted from the file
            report.add(c["id"], c["description"], c["residual"], c["tolerance"])
        return report

    @classmethod
    def from_json(cls, text: str) -> "VerificationReport":
        return cls.from_dict(json.loads(text, parse_constant=_reject_constant))

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["id", "description", "residual", "tolerance", "pass"])
        for c in self.sorted_checks():
            writer.writerow(
                [
                    c.id,
                    c.description,
                    repr(round_float(c.residual)),
                    repr(round_float(c.tolerance)),
                    "true" if c.passed else "false",
                ]
            )
        return buf.getvalue()

    def to_markdown(self) -> str:
        lines = [
            f"# {self.command}",
            "",
            "params: " + json.dumps(_canonical_params(self.params), sort_keys=True, allow_nan=False),
            "",
            "| id | description | residual | tolerance | pass |",
            "|---|---|---|---|---|",
        ]
        for c in self.sorted_checks():
            status = "pass" if c.passed else "FAIL"
            lines.append(
                f"| {c.id} | {c.description} | {round_float(c.residual):.3e} | {round_float(c.tolerance):.3e} | {status} |"
            )
        lines += ["", f"summary: {self.passed}/{self.total} passed", ""]
        return "\n".join(lines)


def _reject_constant(name: str) -> float:
    raise ValueError(f"report contains the non-finite value {name}")


def _canonical_params(params: Mapping[str, Any]) -> dict[str, Any]:
    out: dict[str, Any] = {}
    for key, value in params.items():
        if isinstance(value, float):
            out[key] = round_float(value)
        elif isinstance(value, (list, tuple)):
            out[key] = [round_float(v) if isinstance(v, float) else v for v in value]
        else:
            out[key] = value
    return out


def merge_reports(command: str, params: Mapping[str, Any], parts: Iterable[VerificationReport]) -> VerificationReport:
    merged = VerificationReport(command=command, params=dict(params))
    for part in parts:
        merged.extend(part)
    return merged
