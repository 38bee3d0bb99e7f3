"""The traced benchmark patches tccr names by string (``bench/spans.py``).

A refactor that renames or removes one of them breaks the traced run; this
test makes that a suite failure.
"""

import importlib.util
from pathlib import Path

import tccr.cli

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_tracer_class():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


def test_traced_demo_runs_and_records_products(tmp_path):
    tracer = load_tracer_class()()
    tracer.install()
    try:
        code = tccr.cli.main(["demo", "--out", str(tmp_path / "demo.json")])
    finally:
        tracer.restore()
    assert code == 0
    spans = tracer.summary()["spans"]
    assert spans["fock.matmul"]["calls"] > 0
    assert tccr.cli.main.__name__ == "main" and not hasattr(tccr.cli.main, "__wrapped__")


def test_traced_faithfulness_writes_the_untraced_report(tmp_path):
    argv = ["faithfulness", "--d", "2", "--cap", "8", "--words", "20"]
    assert tccr.cli.main([*argv, "--out", str(tmp_path / "plain.json")]) == 0
    tracer = load_tracer_class()()
    tracer.install()
    try:
        code = tccr.cli.main([*argv, "--out", str(tmp_path / "traced.json")])
    finally:
        tracer.restore()
    assert code == 0
    assert (tmp_path / "traced.json").read_bytes() == (tmp_path / "plain.json").read_bytes()


def test_traced_roundtrip_writes_the_untraced_report_and_counts_operators(tmp_path):
    argv = ["roundtrip", "--d", "3", "--mu", "0.5", "--cap", "6"]
    assert tccr.cli.main([*argv, "--out", str(tmp_path / "plain.json")]) == 0
    tracer = load_tracer_class()()
    tracer.install()
    try:
        code = tccr.cli.main([*argv, "--out", str(tmp_path / "traced.json")])
    finally:
        tracer.restore()
    assert code == 0
    assert (tmp_path / "traced.json").read_bytes() == (tmp_path / "plain.json").read_bytes()
    # every operator, validated or canonical by construction, passes the traced __post_init__
    summary = tracer.summary()
    operators = summary["counters"]["fock.alloc_bytes"] / (16 * 343**2)
    products = summary["spans"]["fock.matmul"]["calls"] + summary["spans"]["fock.elementwise"]["calls"]
    assert products > 0
    assert operators >= products
