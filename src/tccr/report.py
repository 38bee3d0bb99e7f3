"""Structured pass/fail reports with canonical JSON/CSV/Markdown output.

A report is a flat list of named checks, each carrying the measured residual
and its tolerance.  Serialization is canonical: keys sorted, floats rounded
to 15 significant digits, so identical runs produce identical bytes.  The
pass flag and the summary are recomputed from residual/tolerance on load
rather than trusted from the file.

Each check is validated once, by ``VerificationReport.add``: string id and
description, real (non-bool) residual and tolerance that stay finite at 15
significant digits, unique id; the ``Check`` holds both rounded to those 15
digits.  Loading goes through ``add``; merging and extending reports append
the already-validated checks after a duplicate-id test only.

``to_json`` writes each check from one fixed template (strings through the C
string encoder of ``json``, floats as ``repr``) instead of running the
pure-Python encoder that ``indent`` selects.  Its bytes are those of
``json.dumps(report.to_dict(), sort_keys=True, indent=2, allow_nan=False)``
plus a newline, which the tests keep as the reference.
"""

from __future__ import annotations

import csv
import io
import json
import math
import numbers
import sys
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
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
    """A named check whose residual and tolerance are held at the 15 digits written, so ``passed`` matches the file."""

    id: str
    description: str
    residual: float
    tolerance: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "residual", round_float(self.residual))
        object.__setattr__(self, "tolerance", round_float(self.tolerance))

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
        """Validate and append a check.

        The id and description must be strings and both numbers real (not bool) and finite at
        15 significant digits; ids are unique.  Every other way in relies on this one.
        """
        if not (isinstance(id, str) and isinstance(description, str)):
            raise ValueError(
                f"check {id!r} needs a string id and description, "
                f"not {type(id).__name__} and {type(description).__name__}"
            )
        if not (_is_real(residual) and _is_real(tolerance)):
            raise ValueError(
                f"check {id!r} needs real numbers as residual and tolerance: {residual!r}, {tolerance!r}"
            )
        if not (abs(residual) <= _WRITABLE_MAX and abs(tolerance) <= _WRITABLE_MAX):
            raise ValueError(
                f"check {id!r} has a non-finite residual or tolerance (at 15 significant digits): "
                f"{residual}, {tolerance}"
            )
        check = Check(id, description, residual, tolerance)
        self._append(check)
        return check

    def _append(self, check: Check) -> None:
        """Append a check that ``add`` has validated; only the id is tested again, for uniqueness."""
        if check.id in self._ids:
            raise ValueError(f"duplicate check id {check.id!r}")
        self.checks.append(check)
        self._ids.add(check.id)

    def extend(self, other: "VerificationReport") -> None:
        for c in other.checks:
            self._append(c)

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
                    "residual": c.residual,
                    "tolerance": c.tolerance,
                    "pass": c.passed,
                }
                for c in self.sorted_checks()
            ],
            "summary": {"total": self.total, "passed": self.passed},
        }

    def to_json(self) -> str:
        """The bytes of ``json.dumps(self.to_dict(), sort_keys=True, indent=2, allow_nan=False)`` and a newline."""
        head = json.dumps(
            {
                "command": self.command,
                "params": _canonical_params(self.params),
                "summary": {"total": self.total, "passed": self.passed},
            },
            sort_keys=True,
            indent=2,
            allow_nan=False,
        )
        checks = [_check_json(c) for c in self.sorted_checks()]
        listed = "[\n" + ",\n".join(checks) + "\n  ]" if checks else "[]"
        # "checks" sorts before every other top-level key, so it opens the object
        return '{\n  "checks": ' + listed + ",\n" + head[2:] + "\n"

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
                    repr(c.residual),
                    repr(c.tolerance),
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
                f"| {c.id} | {c.description} | {c.residual:.3e} | {c.tolerance:.3e} | {status} |"
            )
        lines += ["", f"summary: {self.passed}/{self.total} passed", ""]
        return "\n".join(lines)


def _is_real(x: object) -> bool:
    # float and int answer first; the abstract numbers.Real test is slow enough to show in ``add``
    return isinstance(x, (float, int, numbers.Real)) and not isinstance(x, bool)


def _check_json(c: Check) -> str:
    """One element of the indent-2 "checks" array, keys in sorted order."""
    if not (math.isfinite(c.residual) and math.isfinite(c.tolerance)):
        raise ValueError(f"check {c.id!r} has a non-finite residual or tolerance: {c.residual}, {c.tolerance}")
    return (
        "    {\n"
        f'      "description": {encode_basestring_ascii(c.description)},\n'
        f'      "id": {encode_basestring_ascii(c.id)},\n'
        f'      "pass": {"true" if c.passed else "false"},\n'
        f'      "residual": {c.residual!r},\n'
        f'      "tolerance": {c.tolerance!r}\n'
        "    }"
    )


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
