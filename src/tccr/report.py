"""Structured pass/fail reports with canonical JSON/CSV/Markdown output.

A report is a flat list of named checks, each carrying the measured residual
and its tolerance.  Serialization is canonical: keys sorted, floats rounded
to 15 significant digits, so identical runs produce identical bytes.  The
pass flag and the summary are recomputed from residual/tolerance on load
rather than trusted from the file.

Every check comes in through ``VerificationReport.add``, one sequence of
three guards: string id and description free of surrogate code points, real
(non-bool) residual and tolerance, and both finite at 15 significant digits.
The first two try an exact type test first (an ASCII ``str``, a ``float``),
and only an input that fails it meets the general test and its message.
Ids must be unique.  ``add`` rounds both numbers to those 15 digits (a
tolerance object repeated from the last call is rounded once) and builds the
``Check`` through ``Check._closed``, which stores fields as given; the public
``Check`` constructor still rounds.  Loading and prefixing a report go
through ``add`` (a number already at 15 digits rounds to itself).  Merging
and extending reports concatenate the already-validated checks after one set
test for duplicate ids; only a duplicate sends them through the
check-by-check append, which names the first one.

Reports are validated, then streamed.  ``_rows`` tests the command and
every string of the params (``add`` never sees them) and every check, sorted
by id (one appended to ``checks`` past ``add`` may be non-finite or hold a
surrogate code point); the pass flags sum to the summary and set the exit
status of ``tccr.cli.emit_report``.  Each writer yields a head, one piece
per check and a tail; ``stream`` makes the head before it returns, and
``emit_report`` opens ``--out`` only then, so a report that cannot be
written leaves an existing file as it was.  ``render`` and the ``to_*``
methods join the same pieces.  ``to_json`` fills one template per check
(strings through ``json``'s C string encoder, floats as ``repr``) with the
bytes of ``json.dumps(report.to_dict(), sort_keys=True, indent=2,
allow_nan=False)`` and a newline, which the tests keep as the reference.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
import sys
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from typing import Any, Iterable, Iterator, Mapping

__all__ = ["FORMATS", "Check", "VerificationReport", "merge_reports", "round_float"]


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

_by_id = attrgetter("id")


@dataclass(frozen=True, slots=True)
class Check:
    """A named check whose residual and tolerance are held at the 15 digits written, so ``passed`` matches the file."""

    id: str
    description: str
    residual: float
    tolerance: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "residual", round_float(self.residual))
        object.__setattr__(self, "tolerance", round_float(self.tolerance))

    @classmethod
    def _closed(cls, id: str, description: str, residual: float, tolerance: float) -> "Check":
        # fields that ``add`` validated and rounded, or those of another check: nothing to round again
        check = object.__new__(cls)
        _set_id(check, id)
        _set_description(check, description)
        _set_residual(check, residual)
        _set_tolerance(check, tolerance)
        return check

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance


# the slot setters, which write past the frozen ``__setattr__``
_set_id, _set_description, _set_residual, _set_tolerance = (
    getattr(Check, name).__set__ for name in ("id", "description", "residual", "tolerance")
)


@dataclass
class VerificationReport:
    command: str
    params: dict[str, Any] = field(default_factory=dict)
    checks: list[Check] = field(default_factory=list)
    _ids: set[str] = field(default_factory=set, init=False, repr=False, compare=False)
    # the last float tolerance given to ``add`` and its rounding
    _tolerance: tuple[Any, float] = field(default=(None, 0.0), init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        initial, self.checks = self.checks, []
        for c in initial:
            self.add(c.id, c.description, c.residual, c.tolerance)

    def add(self, id: str, description: str, residual: float, tolerance: float) -> Check:
        """Validate and append a check.

        The id and description must be strings without surrogate code points (which neither
        UTF-8 nor a JSON round trip keeps), both numbers real (not bool) and finite at 15
        significant digits, and ids unique.  Every other way in relies on this one.
        """
        if not (type(id) is str and type(description) is str and id.isascii() and description.isascii()):
            if not (isinstance(id, str) and isinstance(description, str)):
                raise ValueError(
                    f"check {id!r} needs a string id and description, "
                    f"not {type(id).__name__} and {type(description).__name__}"
                )
            if not (_is_scalar_text(id) and _is_scalar_text(description)):
                # a lone surrogate cannot be written as UTF-8, and a pair of them in JSON reads back as one character
                raise ValueError(
                    f"check {id!r} has a surrogate code point (U+D800..U+DFFF) in its id or description"
                )
        if not (type(residual) is float and type(tolerance) is float or _is_real(residual) and _is_real(tolerance)):
            raise ValueError(
                f"check {id!r} needs real numbers as residual and tolerance: {residual!r}, {tolerance!r}"
            )
        if not (-_WRITABLE_MAX <= residual <= _WRITABLE_MAX and -_WRITABLE_MAX <= tolerance <= _WRITABLE_MAX):
            raise ValueError(
                f"check {id!r} has a non-finite residual or tolerance (at 15 significant digits): "
                f"{residual}, {tolerance}"
            )
        last, rounded = self._tolerance
        if tolerance is not last:
            rounded = round_float(tolerance)
            self._tolerance = (tolerance, rounded)
        check = Check._closed(id, description, round_float(residual), rounded)
        self._append(check)
        return check

    def _append(self, check: Check) -> None:
        """Append a check that ``add`` has validated; only the id is tested again, for uniqueness."""
        if check.id in self._ids:
            raise ValueError(f"duplicate check id {check.id!r}")
        self.checks.append(check)
        self._ids.add(check.id)

    def _concat(self, checks: list[Check]) -> None:
        """Append validated checks, all at once when no id repeats; else one by one up to the first duplicate."""
        ids = set(map(_by_id, checks))
        if len(ids) == len(checks) and self._ids.isdisjoint(ids):
            self.checks += checks
            self._ids |= ids
        else:
            for c in checks:
                self._append(c)

    def extend(self, other: "VerificationReport") -> None:
        self._concat(other.checks)

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
        return sorted(self.checks, key=_by_id)

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

    def _rows(self) -> tuple[list[Check], list[bool]]:
        """The checks sorted by id and their pass flags; a report that no writer can write raises."""
        for text in _texts((self.command, self.params)):
            if not _is_scalar_text(text):
                raise ValueError(f"report text {text!r} has a surrogate code point (U+D800..U+DFFF)")
        rows = self.sorted_checks()
        flags = []
        for c in rows:
            if not (math.isfinite(c.residual) and math.isfinite(c.tolerance)):
                raise ValueError(
                    f"check {c.id!r} has a non-finite residual or tolerance: {c.residual}, {c.tolerance}"
                )
            if not (c.id.isascii() and c.description.isascii() or _is_scalar_text(c.id + c.description)):
                raise ValueError(f"check {c.id!r} has a surrogate code point (U+D800..U+DFFF) in its id or description")
            flags.append(c.passed)
        return rows, flags

    def stream(self, fmt: str) -> tuple[Iterator[str], bool]:
        """The pieces of the report in ``fmt`` and whether every check passed; an unwritable report raises here."""
        rows, flags = self._rows()
        pieces = _WRITERS[fmt](self, rows, flags)
        return itertools.chain([next(pieces)], pieces), all(flags)

    def render(self, fmt: str) -> tuple[str, bool]:
        """The report written in ``fmt`` (one of ``FORMATS``) and whether every check passed."""
        pieces, all_passed = self.stream(fmt)
        return "".join(pieces), all_passed

    def to_json(self) -> str:
        """The bytes of ``json.dumps(self.to_dict(), sort_keys=True, indent=2, allow_nan=False)`` and a newline."""
        return self.render("json")[0]

    def to_csv(self) -> str:
        return self.render("csv")[0]

    def to_markdown(self) -> str:
        return self.render("md")[0]

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


def _is_scalar_text(text: str) -> bool:
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _texts(value: object) -> Iterable[str]:
    """Every string in a value, depth first: itself, or those of its items, or of a dict's keys and values."""
    if isinstance(value, str):
        yield value
    elif isinstance(value, (list, tuple, dict)):
        for item in value.items() if isinstance(value, dict) else value:
            yield from _texts(item)


def _is_real(x: object) -> bool:
    # float and int answer first; the abstract numbers.Real test is slow enough to show in ``add``
    return isinstance(x, (float, int, numbers.Real)) and not isinstance(x, bool)


def _json(report: VerificationReport, rows: list[Check], flags: list[bool]) -> Iterator[str]:
    head = json.dumps(
        {
            "command": report.command,
            "params": _canonical_params(report.params),
            "summary": {"total": len(rows), "passed": sum(flags)},
        },
        sort_keys=True,
        indent=2,
        allow_nan=False,
    )
    # "checks" sorts before every other top-level key, so it opens the object
    yield '{\n  "checks": ' + ("[" if rows else "[]")
    separator = "\n"
    for c, passed in zip(rows, flags):
        # one element of the indent-2 "checks" array, keys in sorted order
        yield (
            f"{separator}    {{\n"
            f'      "description": {encode_basestring_ascii(c.description)},\n'
            f'      "id": {encode_basestring_ascii(c.id)},\n'
            f'      "pass": {"true" if passed else "false"},\n'
            f'      "residual": {c.residual!r},\n'
            f'      "tolerance": {c.tolerance!r}\n'
            "    }"
        )
        separator = ",\n"
    yield ("\n  ]" if rows else "") + ",\n" + head[2:] + "\n"


class _Echo:
    """A file whose ``write`` returns its text, so ``csv.writer.writerow`` returns the line."""

    def write(self, text: str) -> str:
        return text


def _csv(report: VerificationReport, rows: list[Check], flags: list[bool]) -> Iterator[str]:
    import csv  # here, so a campaign that writes JSON or Markdown never imports it

    writer = csv.writer(_Echo(), lineterminator="\n")
    yield writer.writerow(["id", "description", "residual", "tolerance", "pass"])
    for c, passed in zip(rows, flags):
        yield writer.writerow([c.id, c.description, repr(c.residual), repr(c.tolerance), "true" if passed else "false"])


def _markdown(report: VerificationReport, rows: list[Check], flags: list[bool]) -> Iterator[str]:
    params = json.dumps(_canonical_params(report.params), sort_keys=True, allow_nan=False)
    yield (
        f"# {report.command}\n\nparams: {params}\n\n"
        "| id | description | residual | tolerance | pass |\n|---|---|---|---|---|\n"
    )
    for c, passed in zip(rows, flags):
        yield f"| {c.id} | {c.description} | {c.residual:.3e} | {c.tolerance:.3e} | {'pass' if passed else 'FAIL'} |\n"
    yield f"\nsummary: {sum(flags)}/{len(rows)} passed\n"


_WRITERS = {"json": _json, "csv": _csv, "md": _markdown}
FORMATS = tuple(_WRITERS)


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
    merged._concat([c for part in parts for c in part.checks])
    return merged
