"""Smoke test of the benchmark harness at tiny sizes.

    python3 bench/smoke.py      # from the repository root; exit 0 when every expectation holds

Runs tiny campaigns through the same code as ``bench/run.py``: the untraced
path, the traced path and the correctness gate (a campaign that exits 2, a
pinned check count that does not match, failing residuals in a report), and
expects every metric named in ``BENCHMARK.json`` to be emitted.  It also
expects the span recorder to wrap the re-bound and recursive names and to put
every original back, and the command to refuse a directory without sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

TINY = {
    "tiny-roundtrip": (("roundtrip --d 2 --cap 6", 43),),
    "tiny-gram": (("gram --d 1 --level 2 --cap 4 --seed {seed}", 66),),
    "tiny-faithfulness": (("faithfulness --d 2 --cap 6 --words 10 --seed {seed}", 44),),
}

BROKEN = {
    # the stage suite needs cap >= 6, so this campaign exits 2 without a report
    "tiny-crash": (("roundtrip --d 2 --cap 4", 50),),
    # one check fewer pinned than the campaign emits
    "tiny-miscount": (("faithfulness --d 2 --cap 6 --words 10 --seed {seed}", 43),),
}


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"smoke FAILED: {message}")


def check_benchmark_json() -> dict:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expect([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS), "workload names")
    expect({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END, "end-to-end metrics")
    expect(
        [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
        == [(n, u, b) for n, u, b, _ in run.PER_LAYER],
        "per-layer metrics",
    )
    return spec


def check_line(line: dict, names: set[str]) -> None:
    expect(set(line) == {"correct", "attempted", "failed", "metrics"}, f"result keys {sorted(line)}")
    expect(set(line["metrics"]) == names, f"metric names differ: {sorted(set(line['metrics']) ^ names)}")
    for name, metric in line["metrics"].items():
        expect(isinstance(metric["value"], (int, float)) and metric["unit"], f"metric {name}")


def check_untraced(spec: dict) -> None:
    line, records = run.evaluate(TINY, 3, 0, False)
    names = {f"{w}.{m['name']}" for w in TINY for m in spec["end_to_end"]}
    check_line(line, names)
    expect(line["correct"] and line["failed"] == 0, f"tiny workloads failed: {line}")
    for record in records:
        expect(len(record["plain_wall_s"]) == run.MIN_PLAIN, "untraced repeat count")
        expect(record["check_fail_frac"] == 0, "check_fail_frac")
        for name in ("wall_s", "peak_rss_mb", "setup_s", "check_pass_frac"):
            expect(record["metrics"][name] > 0, f"{record['workload']} {name} is not positive")


def check_traced(spec: dict) -> None:
    line, records = run.evaluate(TINY, 3, 0, True)
    names = {f"{w}.{m['name']}" for w in TINY for m in spec["per_layer"]}
    check_line(line, names)
    expect(line["correct"], f"traced tiny workloads: {[r['problems'] for r in records]}")
    for record in records:
        expect(len(record["traced_wall_s"]) == 2 and record["plain_wall_s"], "traced repeat counts")
        expect(0 < record["metrics"]["trace.coverage"] <= 1, "trace.coverage outside (0, 1]")
        expect(record["metrics"]["fock.matmul.calls"] > 0, "no products were traced")
    gram = next(r["metrics"] for r in records if r["workload"] == "tiny-gram")
    expect(gram["symbolic.normal_order.calls"] > 0 and gram["symbolic.gram.nonzero_frac"] > 0, "gram spans")


def check_gate() -> None:
    line, records = run.evaluate(BROKEN, 3, 0, False)
    expect(not line["correct"], "a failing campaign passed the gate")
    expect(line["attempted"] == run.MIN_PLAIN * (50 + 43), f"attempted {line['attempted']}")
    expect(line["failed"] == line["attempted"], "every owed check of a failed campaign counts as failed")
    expect(line["metrics"]["tiny-crash.check_pass_frac"]["value"] == 0, "check_pass_frac of a crash")

    scratch = run.OUT / "smoke"
    scratch.mkdir(parents=True, exist_ok=True)
    report = scratch / "report.json"
    checks = [
        {"id": "ok", "residual": 0.5, "tolerance": 1.0, "pass": True},
        {"id": "over", "residual": 2.0, "tolerance": 1.0, "pass": False},
        {"id": "nan", "residual": float("nan"), "tolerance": 1.0, "pass": False},
    ]
    report.write_text(json.dumps({"checks": checks}), encoding="utf-8")
    expect(run.gate(report, 3, 1) == (3, 2.0), "non-zero exit fails every check")
    expect(run.gate(report, 3, 0)[0] == 2, "failing and NaN residuals")
    expect(run.gate(report, 4, 0)[0] == 4, "a missing check fails every check")
    report.unlink()
    expect(run.gate(report, 3, 0) == (3, None), "a missing report fails every check")


def check_tracer_restores() -> None:
    sys.path.insert(0, str(run.SRC))
    import tccr.cli
    from spans import Tracer

    modules = {n: m for n, m in sys.modules.items() if n == "tccr" or n.startswith("tccr.")}
    classes = (tccr.fock.LinearOperator, tccr.report.VerificationReport)
    before = {(n, a): v for n, m in modules.items() for a, v in vars(m).items()}
    before |= {(c.__name__, a): v for c in classes for a, v in vars(c).items()}
    tracer = Tracer()
    tracer.install()
    try:
        for module, name in (("reconstruct", "polar_left"), ("relations", "core_residual"),
                             ("cli", "build_irrep"), ("symbolic", "evaluate_word"), ("cli", "main")):
            expect(getattr(modules[f"tccr.{module}"], name) is not before[(f"tccr.{module}", name)],
                   f"tccr.{module}.{name} is not wrapped")
        expect(tccr.reconstruct.polar_left is tccr.fock.polar_left, "re-bound names share one wrapper")
        family = tccr.build_fock_tccr(1, 0.5, 3)
        tccr.symbolic.evaluate_word(family, (tccr.symbolic.gen(1),) * 3)
    finally:
        tracer.restore()
    summary = tracer.summary()
    expect(summary["spans"]["symbolic.evaluate_word"]["calls"] == 4, "recursive evaluate_word calls")
    expect(summary["spans"]["fock.matmul"]["calls"] == 3, "products inside evaluate_word")
    after = {(n, a): v for n, m in modules.items() for a, v in vars(m).items()}
    after |= {(c.__name__, a): v for c in classes for a, v in vars(c).items()}
    changed = sorted(k for k in before if after.get(k) is not before[k])
    expect(not changed, f"not restored: {changed}")


def check_refuses_without_sources() -> None:
    bare = run.OUT / "smoke" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(Path(run.__file__).parent, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "word-norms", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    shutil.rmtree(bare)
    expect(proc.returncode != 0 and not proc.stdout.strip(), "ran without sources")


def main() -> None:
    spec = check_benchmark_json()
    check_tracer_restores()
    check_refuses_without_sources()
    check_untraced(spec)
    check_traced(spec)
    check_gate()
    print("smoke: ok")


if __name__ == "__main__":
    main()
