"""The report writer, the validating boundary and the merge paths of ``tccr.report``.

``to_json`` writes each check from a template; the encoder path it replaced,
``json.dumps(report.to_dict(), sort_keys=True, indent=2, allow_nan=False)``,
is kept here as the byte reference.  ``report_reference`` keeps the
check-by-check path (general validation and rounding on every ``add``, one
id test per appended check, a sort and pass count per writer) as the
differential reference of the exact type tests that open each guard of
``add``, the closed ``Check`` constructor, the set test of merges and the
writers' shared pass.
"""

import json
import math
import re
from dataclasses import FrozenInstanceError, astuple, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tccr.cli import _prefixed, emit_report, run_faithfulness
from tccr.families import build_fock_tccr
from tccr.relations import collapse_check, tccr_residuals
from tccr.report import _WRITABLE_MAX, Check, VerificationReport, merge_reports, round_float

from report_reference import ReferenceCheck, ReferenceReport, reference_merge

LARGEST_WRITABLE = 1.797693134862315e308


def reference_json(report: VerificationReport) -> str:
    return json.dumps(report.to_dict(), sort_keys=True, indent=2, allow_nan=False) + "\n"


SCALAR_CHARS = ['"', "\\", "\x00", "\n", "\x1f", "\x7f", "é", " ", "\U0001f600"]


def texts(chars, exclude_categories):
    return st.lists(
        st.one_of(st.characters(exclude_categories=exclude_categories), st.sampled_from(chars)), max_size=8
    ).map("".join)


# any text, and text of Unicode scalar values only (no surrogate code points), which check ids and
# descriptions must be
text = texts([*SCALAR_CHARS, "\ud800", "\udfff"], ())
scalar_text = texts(SCALAR_CHARS, ("Cs",))
number = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 1e-05, 1e16, 1.2345678901234567e308, -LARGEST_WRITABLE]),
    st.floats(-LARGEST_WRITABLE, LARGEST_WRITABLE),
    st.integers(-(10**20), 10**20),
)


def json_values(text):
    return st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats(-1e300, 1e300) | text,
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(text, inner, max_size=3),
        max_leaves=8,
    )


json_value = json_values(text)


def has_surrogate(report):
    return re.search("[\ud800-\udfff]", json.dumps([report.command, report.params], ensure_ascii=False)) is not None


@st.composite
def reports(draw, text=text):
    """A report whose command and params are drawn from ``text``, with checks of scalar text."""
    params = draw(st.dictionaries(text, json_values(text), max_size=4))
    report = VerificationReport(command=draw(text), params=params)
    for id, description, residual, tolerance in draw(
        st.lists(st.tuples(scalar_text, scalar_text, number, number), unique_by=lambda c: c[0], max_size=10)
    ):
        report.add(id, description, residual, tolerance)
    return report


class TestWriter:
    @given(reports())
    @settings(max_examples=150, deadline=None)
    def test_bytes_equal_the_sorted_indented_encoder(self, report):
        if has_surrogate(report):
            with pytest.raises(ValueError, match="surrogate code point"):
                report.to_json()
        else:
            assert report.to_json() == reference_json(report)

    # JSON writes a surrogate pair as two escapes, which load as one character that sorts elsewhere
    @given(reports(scalar_text))
    @settings(max_examples=60, deadline=None)
    def test_load_of_written_report_writes_the_same_bytes(self, report):
        text = report.to_json()
        assert VerificationReport.from_json(text).to_json() == text

    @pytest.mark.parametrize("id,description", [("\ud800", "d"), ("c", "\udfff"), ("é\udfff", "d")])
    def test_surrogate_text_is_rejected_on_add_and_on_load(self, id, description):
        with pytest.raises(ValueError, match="surrogate code point"):
            VerificationReport("x").add(id, description, 0.0, 1.0)
        check = {"id": id, "description": description, "residual": 0.0, "tolerance": 1.0, "pass": True}
        written = json.dumps({"command": "x", "params": {}, "checks": [check]})
        with pytest.raises(ValueError, match="surrogate code point"):
            VerificationReport.from_json(written)

    @pytest.mark.parametrize("command,params,named", [
        ("x", {"\ud800\udfff": 1, "\udfff": 2}, "\ud800\udfff"),
        ("x", {"k": ["ok", "é\udfff"]}, "é\udfff"),
        ("x", {"k": {"inner": "\ud800"}}, "\ud800"),
        ("\ud800", {}, "\ud800"),
    ])
    def test_surrogate_command_or_params_is_rejected_by_every_writer(self, command, params, named):
        # two such keys would be written as escapes that load back as one character, which sorts elsewhere
        report = VerificationReport(command, params)
        report.add("c", "d", 0.0, 1.0)
        message = f"report text {named!r} has a surrogate code point"
        for writer in (report.to_json, report.to_csv, report.to_markdown):
            with pytest.raises(ValueError, match=re.escape(message)):
                writer()

    def test_surrogate_command_raises_before_the_file_is_written(self, tmp_path):
        path = tmp_path / "r.md"
        with pytest.raises(ValueError, match="surrogate code point"):
            emit_report(VerificationReport("\udfff"), "md", str(path))
        assert not path.exists()

    def test_pass_flag_is_that_of_the_written_numbers(self):
        # 1.0000000000000002 > 1.0, but both are written as 1.0
        report = VerificationReport(command="x")
        check = report.add("tie", "equal at 15 digits", 1.0000000000000002, 1.0)
        assert (check.residual, check.passed, report.all_passed) == (1.0, True, True)
        text = report.to_json()
        assert '"pass": true' in text and '"passed": 1' in text
        assert VerificationReport.from_json(text).to_json() == text

    @pytest.mark.parametrize("params", [{}, {"words": [1, None, True], "nested": {"b": [1.5, {"c": None}]}}])
    def test_empty_check_list(self, params):
        report = VerificationReport(command="empty", params=params)
        assert '"checks": [],' in report.to_json()
        assert report.to_json() == reference_json(report)

    @pytest.mark.parametrize("writer", ["to_json", "to_csv", "to_markdown"])
    @pytest.mark.parametrize(
        "residual,tolerance,shown",
        [
            (math.nan, 1.0, "nan, 1.0"),
            (0.0, math.inf, "0.0, inf"),
            (-math.inf, 1.0, "-inf, 1.0"),
            # finite, but rounded to inf at 15 digits
            (1.7976931348623157e308, 1.0, "inf, 1.0"),
        ],
    )
    def test_non_finite_check_appended_directly_is_not_written(self, writer, residual, tolerance, shown):
        report = VerificationReport(command="x")
        report.add("ok", "finite", 0.0, 1.0)
        report.checks.append(Check("bad", "appended past add", residual, tolerance))
        with pytest.raises(ValueError):
            reference_json(report)
        message = f"check 'bad' has a non-finite residual or tolerance: {shown}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            getattr(report, writer)()
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            report.render("csv")

    @given(reports())
    @settings(max_examples=40, deadline=None)
    def test_render_is_the_writer_and_the_pass_state(self, report):
        for fmt, writer in [("json", "to_json"), ("csv", "to_csv"), ("md", "to_markdown")]:
            written = _result(getattr(report, writer))
            want = written if isinstance(written, tuple) else (written, report.all_passed)
            assert _result(report.render, fmt) == want


class TestAddRejectsMistypedChecks:
    @pytest.mark.parametrize(
        "field,value,shown",
        [
            ("id", 5, "check 5 "),
            ("description", None, "check 'b' "),
            ("residual", "0.5", "check 'b' "),
            ("residual", True, "check 'b' "),
            ("tolerance", False, "check 'b' "),
        ],
    )
    def test_from_json(self, field, value, shown):
        report = VerificationReport(command="x")
        report.add("a", "first", 0.0, 1.0)
        report.add("b", "second", 0.5, 1.0)
        doc = json.loads(report.to_json())
        doc["checks"][1][field] = value
        with pytest.raises(ValueError, match=shown):
            VerificationReport.from_json(json.dumps(doc))


class TestSingleValidation:
    """Merging concatenates the validated checks; only a prefix copies them, through ``add``."""

    @pytest.fixture
    def parts(self):
        fam = build_fock_tccr(2, 0.5, 4)
        return [tccr_residuals(fam), collapse_check(2, 1, 0.0, 4)]

    @pytest.fixture
    def forbid_add(self, monkeypatch):
        def add(*args, **kwargs):
            raise RuntimeError("a validated check went through add again")

        return lambda: monkeypatch.setattr(VerificationReport, "add", add)

    def test_prefix_and_merge_keep_the_checks(self, parts, forbid_add):
        prefixed = [_prefixed(p, f"p{k}/") for k, p in enumerate(parts)]
        forbid_add()
        merged = merge_reports("both", {"cap": 4}, prefixed)
        expected = [
            Check(f"p{k}/{c.id}", c.description, c.residual, c.tolerance)
            for k, p in enumerate(parts)
            for c in p.checks
        ]
        assert merged.checks == expected
        assert merged.total == sum(p.total for p in parts) > 0

    def test_repeated_id_is_rejected(self, parts, forbid_add):
        forbid_add()
        with pytest.raises(ValueError, match="duplicate"):
            merge_reports("twice", {}, [parts[0], parts[0]])

    def test_id_repeated_by_the_prefix_is_rejected(self, parts, forbid_add):
        first = parts[0].checks[0]
        plain = VerificationReport(command="plain")
        plain.checks.append(Check("p/" + first.id, first.description, first.residual, first.tolerance))
        prefixed = _prefixed(parts[0], "p/")
        forbid_add()
        with pytest.raises(ValueError, match="duplicate"):
            merge_reports("clash", {}, [plain, prefixed])


def _result(call, *args):
    """What a writer gives: its value, or the exception and its message."""
    try:
        return call(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def _outcome(report, *args):
    """What ``add`` gives: the check's fields with their exact bits, or the exception and its message."""
    try:
        c = report.add(*args)
    except Exception as exc:  # the differential compares whatever is raised
        return type(exc), str(exc)
    return c.id, c.description, type(c.residual), c.residual.hex(), type(c.tolerance), c.tolerance.hex(), c.passed


class _Real(float):
    pass


ABOVE_WRITABLE = math.nextafter(_WRITABLE_MAX, math.inf)
EDGE_NUMBERS = [
    0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1e-300, 0.1, 1 / 3, 1e300,
    _WRITABLE_MAX, -_WRITABLE_MAX, ABOVE_WRITABLE, -ABOVE_WRITABLE,
    np.float64(0.1), np.float64(-0.0), np.float64(_WRITABLE_MAX), np.float32(0.1),
    0, 7, -3, 10**20, 10**400, Fraction(1, 3), Fraction(-2, 7),
    np.int64(5), np.int8(-3), np.uint16(9), _Real(0.25),
]
REJECTED = [
    (True, "d", 0.0, 1.0),
    ("a", "d", True, 1.0),
    ("a", "d", 0.0, False),
    ("a", "d", np.bool_(True), 1.0),
    (5, "d", 0.0, 1.0),
    (None, "d", 0.0, 1.0),
    ("a", None, 0.0, 1.0),
    ("a", b"d", 0.0, 1.0),
    (5, "d", math.nan, 1.0),
    ("a", "d", math.nan, 1.0),
    ("a", "d", 0.0, math.nan),
    ("a", "d", math.inf, 1.0),
    ("a", "d", 0.0, -math.inf),
    ("a", "d", np.float64(math.nan), 1.0),
    ("a", "d", 0.0, np.inf),
    ("a", "d", "0.5", 1.0),
    ("a", "d", 1j, 1.0),
    ("a", "d", 0.0, None),
    ("\ud800\udfff", "d", 0.0, 1.0),
    ("a", "é\ud800", 0.0, 1.0),
    ("\udfff", "d", math.nan, 1.0),
]


class TestAgainstReference:
    """``tccr.report`` against the check-by-check path of ``report_reference``."""

    @pytest.mark.parametrize("x", EDGE_NUMBERS, ids=repr)
    def test_add_keeps_the_bits(self, x):
        for args in [("r", "d", x, 1.0), ("t", "d", 0.5, x), ("b", "d", x, x)]:
            assert _outcome(VerificationReport("x"), *args) == _outcome(ReferenceReport("x"), *args)

    @pytest.mark.parametrize("args", REJECTED, ids=repr)
    def test_add_rejects_with_the_same_message(self, args):
        got = _outcome(VerificationReport("x"), *args)
        assert got[0] is ValueError and got == _outcome(ReferenceReport("x"), *args)

    def test_repeated_and_alternating_tolerances(self):
        a, b, c = 1e-10, 0.30000000000000004, 1e-10 * 1.0000000000000002
        tolerances = [a, a, b, a, np.float64(a), a, c, c, b, 3, a]
        real, ref = VerificationReport("x"), ReferenceReport("x")
        for k, t in enumerate(tolerances):
            args = (f"c{k}", "d", k * 1e-11, t)
            assert _outcome(real, *args) == _outcome(ref, *args)
        assert _outcome(real, "c0", "d", 0.0, a) == _outcome(ref, "c0", "d", 0.0, a)

    @given(st.text(max_size=8), st.dictionaries(text, json_value, max_size=4),
           st.lists(st.tuples(text, text, number, number), max_size=12))
    @settings(max_examples=150, deadline=None)
    def test_writers_give_the_same_bytes(self, command, params, calls):
        real, ref = VerificationReport(command, params), ReferenceReport(command, params)
        for args in calls:
            assert _outcome(real, *args) == _outcome(ref, *args)
        for writer in ("to_json", "to_csv", "to_markdown"):
            assert _result(getattr(real, writer)) == _result(getattr(ref, writer))

    def test_word_norms_campaign(self, monkeypatch):
        calls = []
        add = VerificationReport.add

        def recording(self, *args):
            calls.append(args)
            return add(self, *args)

        monkeypatch.setattr(VerificationReport, "add", recording)
        report = run_faithfulness(2, 12, 0.0, 1000, 6, 70, 1e-8)
        monkeypatch.undo()
        # and the 4 collapse checks copied again under their j0/ and j1/ prefixes
        assert report.total == 4004 and len(calls) == 4004 + 4
        # every raw add of the campaign, under ids made unique across its parts
        real, ref = VerificationReport("x"), ReferenceReport("x")
        for k, (id, *rest) in enumerate(calls):
            assert _outcome(real, f"{k}:{id}", *rest) == _outcome(ref, f"{k}:{id}", *rest)
        written = ReferenceReport(report.command, report.params)
        for c in report.checks:
            written.add(c.id, c.description, c.residual, c.tolerance)
        assert [astuple(c) for c in report.checks] == [astuple(c) for c in written.checks]
        for fmt, writer in [("json", "to_json"), ("csv", "to_csv"), ("md", "to_markdown")]:
            assert report.render(fmt) == (getattr(written, writer)(), written.passed == written.total)

    @pytest.mark.parametrize(
        "parts,appended",
        [
            # (ids added per part, ids appended straight to a part's checks list past add)
            ([["a", "b"], ["c", "b"]], [[], []]),
            ([["a", "b"], ["c"]], [["a"], []]),
            ([["a", "b"], ["c"]], [[], ["b"]]),
            ([["a"], ["b", "c"], ["d"]], [[], [], ["c"]]),
            ([["a", "b"], ["c", "d"]], [[], []]),
        ],
    )
    def test_merge_and_extend_stop_at_the_same_duplicate(self, parts, appended):
        def build(report_cls, check_cls):
            built = []
            for k, (added, extra) in enumerate(zip(parts, appended)):
                part = report_cls(f"p{k}")
                for id in added:
                    part.add(id, f"{k}:{id}", 0.5, 1.0)
                for id in extra:
                    part.checks.append(check_cls(id, f"{k}:{id} appended", 2.0, 1.0))
                built.append(part)
            return built

        def run(merge, report_cls, check_cls):
            out = []
            try:
                merged = merge("m", {}, build(report_cls, check_cls))
                out.append([astuple(c) for c in merged.checks])
            except ValueError as exc:
                out.append(str(exc))
            first, *rest = build(report_cls, check_cls)
            # the target's own list was appended to as well, so its id set is stale too
            first.checks.append(check_cls("z", "target appended", 0.0, 1.0))
            for part in rest:
                try:
                    first.extend(part)
                except ValueError as exc:
                    out.append(str(exc))
                out.append([astuple(c) for c in first.checks])
            return out

        got = run(merge_reports, VerificationReport, Check)
        assert got == run(reference_merge, ReferenceReport, ReferenceCheck)
        assert any("duplicate" in str(x) for x in got) == (parts[1] != ["c", "d"])

    def test_check_stays_frozen_and_replaceable(self):
        report = VerificationReport("x")
        for check in (Check("a", "d", 0.12345678901234567, 1.0), report.add("a", "d", 0.12345678901234567, 1.0)):
            assert not hasattr(check, "__dict__")
            for name, value in [("id", "b"), ("residual", 2.0), ("tolerance", 0.5)]:
                with pytest.raises(FrozenInstanceError):
                    setattr(check, name, value)
            moved = replace(check, id="b", residual=1 / 3)
            assert moved == Check("b", "d", 1 / 3, 1.0) and moved.residual == round_float(1 / 3) != 1 / 3
            assert astuple(moved) == astuple(ReferenceCheck("b", "d", 1 / 3, 1.0))
        assert report.checks == [Check("a", "d", 0.12345678901234567, 1.0)]
