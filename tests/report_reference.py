"""The check-by-check report path, kept as the test-only reference for ``tccr.report``.

Every call to ``ReferenceReport.add`` runs the general validation and builds
its check through the rounding constructor; ``extend`` and
``reference_merge`` append one check at a time and test each id; and each
writer sorts the checks and computes every pass flag and the summary on its
own.  ``tccr.report`` keeps the same checks, messages and bytes with one
sequence of guards in ``add``, each opened by an exact type test, a closed
``Check`` constructor, one set test per concatenation and one sorted pass
shared by the writers.

One difference is intended: a check with a non-finite number, which only an
append past ``add`` can hold, makes every writer of ``tccr.report`` raise,
where this ``to_csv`` and ``to_markdown`` write it.  Both reject a command
or a params string with a surrogate code point in every writer.
"""

from __future__ import annotations

import csv
import io
import json
import math
import numbers
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import Any, Iterable, Mapping

from tccr.report import _WRITABLE_MAX, _canonical_params, round_float


@dataclass(frozen=True)
class ReferenceCheck:
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


def _is_real(x: object) -> bool:
    return isinstance(x, (float, int, numbers.Real)) and not isinstance(x, bool)


@dataclass
class ReferenceReport:
    command: str
    params: dict[str, Any] = field(default_factory=dict)
    checks: list = field(default_factory=list)
    _ids: set = field(default_factory=set, init=False, repr=False, compare=False)

    def add(self, id, description, residual, tolerance) -> ReferenceCheck:
        if not (isinstance(id, str) and isinstance(description, str)):
            raise ValueError(
                f"check {id!r} needs a string id and description, "
                f"not {type(id).__name__} and {type(description).__name__}"
            )
        if any("\ud800" <= ch <= "\udfff" for ch in id + description):
            raise ValueError(
                f"check {id!r} has a surrogate code point (U+D800..U+DFFF) in its id or description"
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
        check = ReferenceCheck(id, description, residual, tolerance)
        self._append(check)
        return check

    def _append(self, check) -> None:
        if check.id in self._ids:
            raise ValueError(f"duplicate check id {check.id!r}")
        self.checks.append(check)
        self._ids.add(check.id)

    def extend(self, other) -> None:
        for c in other.checks:
            self._append(c)

    @property
    def total(self) -> int:
        return len(self.checks)

    @property
    def passed(self) -> int:
        return sum(1 for c in self.checks if c.passed)

    def sorted_checks(self) -> list:
        return sorted(self.checks, key=lambda c: c.id)

    def to_json(self) -> str:
        _reject_surrogates((self.command, self.params))
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
        return '{\n  "checks": ' + listed + ",\n" + head[2:] + "\n"

    def to_csv(self) -> str:
        _reject_surrogates((self.command, self.params))
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["id", "description", "residual", "tolerance", "pass"])
        for c in self.sorted_checks():
            writer.writerow(
                [c.id, c.description, repr(c.residual), repr(c.tolerance), "true" if c.passed else "false"]
            )
        return buf.getvalue()

    def to_markdown(self) -> str:
        _reject_surrogates((self.command, self.params))
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
            lines.append(f"| {c.id} | {c.description} | {c.residual:.3e} | {c.tolerance:.3e} | {status} |")
        lines += ["", f"summary: {self.passed}/{self.total} passed", ""]
        return "\n".join(lines)


def _reject_surrogates(value) -> None:
    """Raise for the first string holding a surrogate code point, depth first through lists, tuples and dicts."""
    if isinstance(value, str):
        if any("\ud800" <= ch <= "\udfff" for ch in value):
            raise ValueError(f"report text {value!r} has a surrogate code point (U+D800..U+DFFF)")
    elif isinstance(value, dict):
        for key, item in value.items():
            _reject_surrogates(key)
            _reject_surrogates(item)
    elif isinstance(value, (list, tuple)):
        for item in value:
            _reject_surrogates(item)


def _check_json(c) -> str:
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


def reference_merge(command: str, params: Mapping[str, Any], parts: Iterable) -> ReferenceReport:
    merged = ReferenceReport(command=command, params=dict(params))
    for part in parts:
        merged.extend(part)
    return merged
