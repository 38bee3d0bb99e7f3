import json
import os
import subprocess
import sys
from pathlib import Path

import argparse
import random

import numpy as np
import pytest

import tccr.cli
from tccr.cli import build_parser, main
from tccr.families import IrrepSpec, build_irrep
from tccr.symbolic import gen, gen_star, random_word, word_norms

BIG = "1.7976931348623157e308"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_all_pass_is_zero(self, capsys):
        code, out, _ = run(capsys, "verify", "--d", "2", "--mu", "0.5", "--cap", "6")
        assert code == 0
        doc = json.loads(out)
        assert doc["summary"]["passed"] == doc["summary"]["total"]

    def test_failing_check_is_one(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--d", "2", "--mu", "0.5", "--cap", "6", "--tol", "1e-30"
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["summary"]["passed"] < doc["summary"]["total"]

    def test_usage_error_is_two(self):
        with pytest.raises(SystemExit) as err:
            main(["verify", "--mu", "1.5"])
        assert err.value.code == 2

    def test_unknown_flag_rejected(self):
        with pytest.raises(SystemExit) as err:
            main(["verify", "--frobnicate"])
        assert err.value.code == 2

    def test_capacity_error_is_two(self, capsys):
        code, _, err = run(capsys, "verify", "--d", "5", "--cap", "9")
        assert code == 2
        assert "exceeds limit" in err

    @pytest.mark.parametrize("d", ["2", "5"])
    def test_roundtrip_small_cap_is_two_before_any_build(self, capsys, monkeypatch, d):
        def refuse(*args, **kwargs):
            raise AssertionError("a family was built before the cap was checked")

        monkeypatch.setattr(tccr.cli, "build_irrep", refuse)
        monkeypatch.setattr(tccr.cli, "build_fock_tccr", refuse)
        code, out, err = run(capsys, "roundtrip", "--d", d, "--cap", "4")
        assert code == 2 and out == ""
        assert "power identities up to 3 need cap >= 6, got 4" in err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1e-8"])
    @pytest.mark.parametrize(
        "subcommand,flag",
        [(s, "--tol") for s in ("verify", "roundtrip", "irreps", "gram", "faithfulness", "qccr")]
        + [("roundtrip", "--rank-tol")],
    )
    def test_non_finite_or_non_positive_tolerance_is_two(self, capsys, subcommand, flag, value):
        with pytest.raises(SystemExit) as err:
            main([subcommand, f"{flag}={value}"])
        assert err.value.code == 2
        assert "finite and > 0" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["faithfulness", "--phase", "nan"], ["irreps", "--phases", "0,inf"],
                                      ["irreps", "--phases", "pi/0"]])
    def test_non_finite_phase_is_two(self, capsys, argv):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert "finite" in capsys.readouterr().err

    # finite, but its 15-digit rounding 1.79769313486232e308 is inf, so no report could hold it
    @pytest.mark.parametrize("argv", [
        ["verify", "--tol", BIG], ["roundtrip", "--tol", BIG], ["roundtrip", "--rank-tol", BIG],
        ["irreps", "--phases", BIG], ["irreps", "--phases", "0," + BIG], ["faithfulness", "--phase", BIG],
    ])
    def test_value_that_overflows_at_15_digits_is_two(self, capsys, argv):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert "15 significant digits" in capsys.readouterr().err

    @pytest.mark.parametrize("fmt", ["json", "csv", "md"])
    def test_largest_value_finite_at_15_digits_is_written(self, capsys, fmt):
        code, out, _ = run(capsys, "irreps", "--d", "1", "--cap", "2", "--phases", "1.79769313486231e308",
                           "--tol", "1.79769313486231e308", "--format", fmt)
        assert code == 0
        assert "inf" not in out.lower()

    @pytest.mark.parametrize("phases", ["", ","])
    def test_empty_phase_list_is_two(self, capsys, phases):
        with pytest.raises(SystemExit) as err:
            main(["irreps", "--phases", phases])
        assert err.value.code == 2
        assert "names no phase" in capsys.readouterr().err

    def test_unwritable_output_is_two(self, capsys, tmp_path):
        target = tmp_path / "missing" / "report.json"
        code, _, err = run(capsys, "qccr", "--q", "0.3", "--cap", "6", "--out", str(target))
        assert code == 2
        assert "cannot write" in err


SUBCOMMANDS = ("verify", "roundtrip", "irreps", "gram", "faithfulness", "qccr", "demo")


class TestParserParity:
    """``main`` adds arguments only to the subcommand it runs; what a user sees is the full parser's."""

    @staticmethod
    def outcome(capsys, parse, argv):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        out, err = capsys.readouterr()
        return exc.value.code, out, err

    @pytest.mark.parametrize("argv", [
        ["--help"], ["-h", "gram"], *([s, "--help"] for s in SUBCOMMANDS), [], ["bogus"], ["bogus", "gram"],
        ["gram", "--frobnicate"], ["verify", "--mu", "1.5"], ["--frobnicate", "gram", "--d", "2"],
        ["faithfulness", "--out", "gram", "--max-len", "x"], ["demo", "--d", "2"],
    ])
    def test_selective_parser_matches_the_full_parser(self, capsys, argv):
        want = self.outcome(capsys, lambda a: build_parser().parse_args(a), argv)
        assert self.outcome(capsys, main, argv) == want
        assert want[0] in (0, 2) and want[1] + want[2]

    def test_arguments_from_sys_argv(self, capsys, monkeypatch):
        want = self.outcome(capsys, lambda a: build_parser().parse_args(a), ["qccr", "--help"])
        monkeypatch.setattr(sys, "argv", ["tccr", "qccr", "--help"])
        assert self.outcome(capsys, main, None) == want

    def test_only_the_chosen_subcommand_gets_arguments(self, capsys, monkeypatch):
        added = []
        add_argument = argparse.ArgumentParser.add_argument

        def record(parser, *args, **kwargs):
            added.append(parser.prog)
            return add_argument(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "add_argument", record)
        self.outcome(capsys, main, ["qccr", "--help"])
        # -h on the top level and each of the 7 subparsers, then --q, --cap, --tol, --out, --format
        assert sorted(set(added)) == ["tccr", *sorted(f"tccr {s}" for s in SUBCOMMANDS)]
        assert [p for p in added if p == "tccr qccr"] == ["tccr qccr"] * 6


class TestFormats:
    def test_csv_header(self, capsys):
        code, out, _ = run(capsys, "qccr", "--q", "0.3", "--cap", "8", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "id,description,residual,tolerance,pass"

    def test_markdown_table(self, capsys):
        code, out, _ = run(capsys, "qccr", "--q", "0.3", "--cap", "8", "--format", "md")
        assert code == 0
        assert "| id | description | residual | tolerance | pass |" in out

    def test_json_params_make_run_reproducible(self, capsys):
        code, out, _ = run(capsys, "faithfulness", "--d", "2", "--cap", "6",
                           "--words", "5", "--max-len", "3", "--seed", "11")
        assert code == 0
        params = json.loads(out)["params"]
        assert params == {
            "cap": 6, "d": 2, "max_len": 3, "phase": 0.0, "seed": 11,
            "tol": 1e-08, "words": 5,
        }

    def test_report_file_written(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, "qccr", "--q", "0.3", "--cap", "8", "--out", str(target))
        assert code == 0
        assert out == ""
        doc = json.loads(target.read_text())
        assert doc["command"] == "qccr"


class TestDeterminism:
    def test_demo_is_byte_identical(self, capsys, tmp_path):
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        assert run(capsys, "demo", "--out", str(first))[0] == 0
        assert run(capsys, "demo", "--out", str(second))[0] == 0
        assert first.read_bytes() == second.read_bytes()


class TestDependencies:
    def test_demo_imports_numpy_and_no_scipy(self, tmp_path):
        # pyproject.toml declares numpy alone, so a scipy import would fail where only the package is installed
        src = Path(tccr.cli.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        probe = (
            "import sys; from tccr.cli import main; "
            "code = main(['demo', '--out', sys.argv[1]]); "
            "print(code, 'numpy' in sys.modules, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        done = subprocess.run(
            [sys.executable, "-c", probe, str(tmp_path / "demo.json")],
            env=env, capture_output=True, text=True, check=True,
        )
        assert done.stdout.split("\n")[-2] == "0 True []"


class TestSubcommands:
    def test_roundtrip_undeformed_is_exact_throughout(self, capsys):
        code, out, _ = run(capsys, "roundtrip", "--d", "2", "--mu", "0", "--cap", "6")
        assert code == 0
        doc = json.loads(out)
        assert all(c["residual"] <= 1e-12 for c in doc["checks"])

    def test_roundtrip_tol_sets_every_tolerance(self, capsys):
        code, out, _ = run(capsys, "roundtrip", "--d", "2", "--cap", "6", "--tol", "1e-30")
        assert code == 1
        checks = json.loads(out)["checks"]
        assert len(checks) == 43
        assert {c["tolerance"] for c in checks} == {1e-30}

    def test_roundtrip_default_keeps_the_pinned_tolerances(self, capsys):
        code, out, _ = run(capsys, "roundtrip", "--d", "2", "--cap", "6")
        assert code == 0
        doc = json.loads(out)
        assert doc["params"]["tol"] is None
        for c in doc["checks"]:
            # the roundtrip rows hold 1e-8, the stage suite 1e-10
            assert c["tolerance"] == (1e-8 if c["id"].startswith(("A/", "B/")) else 1e-10), c["id"]

    def test_jobs_flag_is_gone(self):
        with pytest.raises(SystemExit) as err:
            main(["irreps", "--jobs", "2"])
        assert err.value.code == 2

    def test_irreps_covers_all_classes_and_phases(self, capsys):
        code, out, _ = run(capsys, "irreps", "--d", "2", "--cap", "5")
        assert code == 0
        doc = json.loads(out)
        ids = {c["id"] for c in doc["checks"]}
        for j in (0, 1, 2):
            assert any(i.startswith(f"j{j}/") for i in ids)
        assert len({i.split("/")[1] for i in ids}) == 3  # three phases

    def test_irreps_phase_list_parsing(self, capsys):
        import math

        code, out, _ = run(capsys, "irreps", "--d", "1", "--cap", "5", "--phases", "0,pi/2,2pi/3")
        assert code == 0
        phases = json.loads(out)["params"]["phases"]
        assert phases == pytest.approx([0.0, math.pi / 2, 2 * math.pi / 3], abs=1e-13)

    def test_gram_prints_exact_polynomials(self, capsys):
        code, out, _ = run(capsys, "gram", "--d", "1", "--level", "2", "--bridge-count", "2")
        assert code == 0
        text = out[: out.index("{")]
        assert "1 + mu^2" in text
        assert "<a1 a1>" in text

    def test_gram_at_the_top_level(self, capsys):
        code, out, _ = run(capsys, "gram", "--d", "2", "--level", "6", "--cap", "6", "--bridge-count", "2")
        assert code == 0
        assert json.loads(out[out.index("{"):])["params"]["level"] == 6

    def test_gram_report_checks(self, capsys):
        code, out, _ = run(capsys, "gram", "--d", "2", "--level", "2", "--bridge-count", "3")
        assert code == 0
        doc = json.loads(out[out.index("{"):])
        ids = {c["id"] for c in doc["checks"]}
        assert any(i.startswith("positivity/") for i in ids)
        assert any(i.startswith("bridge/") for i in ids)

    def test_faithfulness_long_words_need_no_recursion(self, capsys):
        # the campaign rejects words longer than the cap, so the kernel's long words are checked in the library
        fock, *classes = (build_irrep(IrrepSpec(d=2, class_j=j, cap=4)) for j in (2, 0, 1))
        words = [random_word(2, 3000, random.Random(f"42:{k}"), min_len=3000) for k in range(3)]
        projection_power = (gen_star(1), gen(1)) * 1500
        for fam in (fock, *classes):
            norms = word_norms(fam, [*words, projection_power])
            assert np.isfinite(norms).all() and norms[-1] == 1.0
        code, out, err = run(capsys, "faithfulness", "--d", "2", "--cap", "4", "--words", "3", "--max-len", "3000")
        assert (code, out) == (2, "") and "max_len 3000 exceeds cap 4" in err

    @pytest.mark.parametrize("argv, code", [
        (["--d", "1", "--cap", "2", "--words", "3"], 2),
        (["--d", "1", "--cap", "2", "--words", "3", "--max-len", "2"], 0),
        (["--d", "2", "--cap", "3", "--words", "300", "--max-len", "3"], 0),
    ])
    def test_faithfulness_words_fit_under_the_cap(self, capsys, argv, code):
        # t1 t1 t1 vanishes in the cap-2 Fock family but not in class 0: a false domination failure
        got, _, err = run(capsys, "faithfulness", *argv)
        assert got == code
        assert ("exceeds cap" in err) == (code == 2)

    @pytest.mark.parametrize(
        "d, cap, words, rungs",
        [("5", "6", "100", {"cap6"}), ("2", "12", "5", {"cap6", "cap8"}), ("2", "5", "5", set())],
    )
    def test_faithfulness_ladder_ends_at_the_cap(self, capsys, d, cap, words, rungs):
        max_len = str(min(int(cap), 6))
        code, out, _ = run(capsys, "faithfulness", "--d", d, "--cap", cap, "--words", words, "--max-len", max_len)
        assert code == 0
        ids = [c["id"] for c in json.loads(out)["checks"]]
        assert {i.rsplit("/", 1)[1] for i in ids if i.startswith("monotone/")} == rungs

    def test_demo_touches_every_module(self, capsys):
        code, out, _ = run(capsys, "demo")
        assert code == 0
        ids = {c["id"] for c in json.loads(out)["checks"]}
        for prefix in ("tccr/", "pi/", "bound/", "roundtrip/", "stages/", "qccr/",
                       "collapse/", "domination/", "gram/"):
            assert any(i.startswith(prefix) for i in ids), prefix


class TestNoPerWordOperators:
    """Every campaign measures from the word kernel, never through per-word operators."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("demo",),
            ("verify", "--d", "2", "--cap", "4"),
            ("roundtrip", "--d", "2", "--cap", "6"),
            ("irreps", "--d", "2", "--cap", "4"),
            ("gram", "--d", "2", "--level", "2"),
            ("faithfulness", "--d", "2", "--cap", "6", "--words", "20"),
            ("qccr", "--cap", "6"),
        ],
    )
    def test_campaign_never_evaluates_a_word_operator(self, monkeypatch, tmp_path, argv):
        import tccr.symbolic

        def refuse(*args, **kwargs):
            raise AssertionError("a campaign took the per-word operator path")

        for name in ("evaluate_word", "evaluate_poly"):
            monkeypatch.setattr(tccr.symbolic, name, refuse)
        assert main([*argv, "--out", str(tmp_path / "report.json")]) == 0


class TestSharedWork:
    """What a campaign builds once: its reconstruction, and each relation set per d."""

    @pytest.mark.parametrize("argv", [("roundtrip", "--d", "2", "--cap", "6"), ("demo",)])
    def test_one_reconstruction_feeds_the_roundtrip_and_the_stage_suite(self, monkeypatch, tmp_path, argv):
        import tccr.reconstruct

        original = tccr.reconstruct.generators_from_isometries
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for module in (tccr.reconstruct, tccr.cli):
            if getattr(module, "generators_from_isometries", None) is original:
                monkeypatch.setattr(module, "generators_from_isometries", counting)
        assert main([*argv, "--out", str(tmp_path / "report.json")]) == 0
        # the shared one, and direction B's from the polar isometries
        assert len(calls) == 2

    def test_relation_sets_are_built_once_per_d(self, monkeypatch, tmp_path):
        import tccr.relations

        real, built = tccr.relations.RelationSet, []

        def counting(**fields):
            built.append(fields["kind"])
            return real(**fields)

        for builder in (tccr.relations.tccr_relations, tccr.relations.pi_relations):
            builder.cache_clear()
        monkeypatch.setattr(tccr.relations, "RelationSet", counting)
        for d in (2, 3, 2, 3):
            assert main(["roundtrip", "--d", str(d), "--cap", "6", "--out", str(tmp_path / "r.json")]) == 0
        assert sorted(built) == ["PI(2)", "PI(3)", "TCCR(mu,2)", "TCCR(mu,3)"]

    def test_the_stage_suite_takes_one_adjoint_per_letter_and_no_operator_product(self, monkeypatch, tmp_path):
        import tccr.relations
        from tccr.fock import LinearOperator

        calls = {"adjoint": 0, "matmul": 0, "core_residual": 0}
        inside = [False]

        def counting(name, original):
            def wrapper(*args, **kwargs):
                calls[name] += inside[0]
                return original(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(LinearOperator, "adjoint", counting("adjoint", LinearOperator.adjoint))
        monkeypatch.setattr(LinearOperator, "__matmul__", counting("matmul", LinearOperator.__matmul__))
        monkeypatch.setattr(tccr.relations, "core_residual", counting("core_residual", tccr.relations.core_residual))
        suite = tccr.cli._stage_identities

        def flagged(*args, **kwargs):
            inside[0] = True
            try:
                return suite(*args, **kwargs)
            finally:
                inside[0] = False

        monkeypatch.setattr(tccr.cli, "_stage_identities", flagged)
        assert main(["roundtrip", "--d", "3", "--cap", "6", "--out", str(tmp_path / "r.json")]) == 0
        # 13 letters: t_1..t_3, the 6 stages and P_0..P_3; the operator loops took 56 adjoints
        assert calls["adjoint"] <= 13
        assert calls["matmul"] == calls["core_residual"] == 0
