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
