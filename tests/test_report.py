"""The report writer, the validating boundary and the merge paths of ``tccr.report``.

``to_json`` writes each check from a template; the encoder path it replaced,
``json.dumps(report.to_dict(), sort_keys=True, indent=2, allow_nan=False)``,
is kept here as the byte reference.
"""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tccr.cli import _prefixed
from tccr.families import build_fock_tccr
from tccr.relations import collapse_check, tccr_residuals
from tccr.report import Check, VerificationReport, merge_reports

LARGEST_WRITABLE = 1.797693134862315e308


def reference_json(report: VerificationReport) -> str:
    return json.dumps(report.to_dict(), sort_keys=True, indent=2, allow_nan=False) + "\n"


SPECIAL_CHARS = ['"', "\\", "\x00", "\n", "\x1f", "\x7f", "é", " ", "\U0001f600", "\ud800", "\udfff"]
text = st.lists(
    st.one_of(st.characters(exclude_categories=()), st.sampled_from(SPECIAL_CHARS)), max_size=8
).map("".join)
number = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 1e-05, 1e16, 1.2345678901234567e308, -LARGEST_WRITABLE]),
    st.floats(-LARGEST_WRITABLE, LARGEST_WRITABLE),
    st.integers(-(10**20), 10**20),
)
json_value = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(-1e300, 1e300) | text,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(text, inner, max_size=3),
    max_leaves=8,
)


@st.composite
def reports(draw):
    report = VerificationReport(command=draw(text), params=draw(st.dictionaries(text, json_value, max_size=4)))
    for id, description, residual, tolerance in draw(
        st.lists(st.tuples(text, text, number, number), unique_by=lambda c: c[0], max_size=10)
    ):
        report.add(id, description, residual, tolerance)
    return report


class TestWriter:
    @given(reports())
    @settings(max_examples=150, deadline=None)
    def test_bytes_equal_the_sorted_indented_encoder(self, report):
        assert report.to_json() == reference_json(report)

    @given(reports())
    @settings(max_examples=60, deadline=None)
    def test_load_of_written_report_writes_the_same_bytes(self, report):
        text = report.to_json()
        assert VerificationReport.from_json(text).to_json() == text

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

    @pytest.mark.parametrize(
        "residual,tolerance",
        [(math.nan, 1.0), (0.0, math.inf), (-math.inf, 1.0), (1.7976931348623157e308, 1.0)],
    )
    def test_non_finite_check_appended_directly_is_not_written(self, residual, tolerance):
        report = VerificationReport(command="x")
        report.add("ok", "finite", 0.0, 1.0)
        report.checks.append(Check("bad", "appended past add", residual, tolerance))
        with pytest.raises(ValueError):
            reference_json(report)
        with pytest.raises(ValueError, match="non-finite"):
            report.to_json()


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
    @pytest.fixture
    def parts(self, monkeypatch):
        fam = build_fock_tccr(2, 0.5, 4)
        built = [tccr_residuals(fam), collapse_check(2, 1, 0.0, 4)]

        def add(*args, **kwargs):
            raise RuntimeError("a validated check went through add again")

        monkeypatch.setattr(VerificationReport, "add", add)
        return built

    def test_prefix_and_merge_keep_the_checks(self, parts):
        merged = merge_reports("both", {"cap": 4}, [_prefixed(p, f"p{k}/") for k, p in enumerate(parts)])
        expected = [
            Check(f"p{k}/{c.id}", c.description, c.residual, c.tolerance)
            for k, p in enumerate(parts)
            for c in p.checks
        ]
        assert merged.checks == expected
        assert merged.total == sum(p.total for p in parts) > 0

    def test_repeated_id_is_rejected(self, parts):
        with pytest.raises(ValueError, match="duplicate"):
            merge_reports("twice", {}, [parts[0], parts[0]])

    def test_id_repeated_by_the_prefix_is_rejected(self, parts):
        first = parts[0].checks[0]
        plain = VerificationReport(command="plain")
        plain.checks.append(Check("p/" + first.id, first.description, first.residual, first.tolerance))
        with pytest.raises(ValueError, match="duplicate"):
            merge_reports("clash", {}, [plain, _prefixed(parts[0], "p/")])
