"""Benchmark of tccr verification campaigns, end to end and per layer.

Run from the repository root:

    python3 bench/run.py --workload roundtrip-d3c6 --seed 7 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 7 --seconds 40    # every workload in one table

Each campaign runs ``tccr.cli.main`` in its own fresh worker process
(``bench/worker.py``), so no in-process cache carries over between campaigns
or between repeats.  A run starts ``SETUP_PROBES`` import-only workers, then
repeats the workload (every campaign once) while the next repeat is likely to
end within ``--seconds`` of the start, and never fewer than ``MIN_PLAIN``
untraced repeats (``--trace 0``) or two traced and one untraced (``--trace 1``,
alternating, traced first).

``--trace 0`` reports the end-to-end metrics as medians:

* ``wall_s``: from a worker being ready (after import) until its report is
  written, summed over the workload's campaigns; median over repeats;
* ``peak_rss_mb``: the largest peak RSS over the workers of a repeat; median
  over repeats;
* ``setup_s``: fresh-process time from interpreter start to ``import tccr``
  done; median over the probes;
* ``check_pass_frac``: checks passed over checks expected (1 - check_fail_frac).

Peak RSS depends on the random inputs (the word cache holds one matrix per
distinct word), so untraced repeat ``r`` draws input set ``r % INPUT_SETS``
of the workload seed and the median averages over inputs as well as time.

``--trace 1`` runs the campaigns under the span recorder of ``spans.py`` and
reports the per-layer metrics of ``PER_LAYER``: span call counts (which must
repeat exactly across traced repeats), median self times, and counts computed
from operand sizes.  ``trace.coverage`` is the self time of every layer but
``cli`` over the traced wall time; ``trace.overhead`` is traced over untraced
wall time, minus one.

Every campaign's report is read back from its ``--out`` file, never stdout,
and gated: exit code 0, the pinned number of checks, and every residual
within its tolerance.  A crash, a non-zero exit or a missing check fails every
check the campaign owed.  Any failure makes the command exit 1.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it name every
metric with its unit.  The full record, with machine facts and every sample,
goes to ``.bench_out/result-<workload>-seed<n>-trace<t>.json`` and the raw
spans of the last traced repeat to ``.bench_out/<workload>/spans-<k>.jsonl``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKER = Path(__file__).resolve().parent / "worker.py"

SETUP_PROBES = 10
MIN_PLAIN = 3
INPUT_SETS = 10  # traced repeats all draw input set 0, so their call counts can repeat
CAMPAIGN_TIMEOUT_S = 120

# workload -> campaigns: (tccr CLI arguments, pinned check count); {seed} is drawn from the workload seed
WORKLOADS = {
    "roundtrip-d3c6": (
        ("roundtrip --d 3 --mu 0.5 --cap 6", 94),
    ),
    "gram-exact": (
        ("gram --d 2 --level 4 --cap 5 --bridge-count 20 --seed {seed}", 66),
        ("gram --d 3 --level 3 --cap 5 --bridge-count 20 --seed {seed}", 66),
    ),
    "word-norms": (
        ("faithfulness --d 2 --cap 12 --words 1000 --max-len 6 --seed {seed}", 4004),
    ),
}

END_TO_END = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s", "check_pass_frac": "ratio"}

RT, GX, WN = "roundtrip-d3c6", "gram-exact", "word-norms"

# (name, unit, better, the end-to-end metric and workload it should move)
PER_LAYER = (
    ("fock.matmul.calls", "count", "lower", f"wall_s, peak_rss_mb on {RT}"),
    ("fock.matmul.self_s", "s", "lower", f"wall_s on {RT}"),
    ("fock.matmul.gflop", "GFLOP", "lower", f"wall_s on {RT}"),
    ("fock.matmul.nonzero_frac", "ratio", "higher", f"wall_s on {RT}"),
    ("fock.elementwise.calls", "count", "lower", f"wall_s, peak_rss_mb on {RT}"),
    ("fock.elementwise.self_s", "s", "lower", f"wall_s on {RT}"),
    ("fock.polar_left.calls", "count", "lower", f"wall_s on {RT}"),
    ("fock.polar_left.self_s", "s", "lower", f"wall_s on {RT}"),
    ("fock.psd_sqrt.calls", "count", "lower", f"wall_s on {RT}"),
    ("fock.psd_sqrt.self_s", "s", "lower", f"wall_s on {RT}"),
    ("fock.core_residual.calls", "count", "lower", f"wall_s on {RT}"),
    ("fock.core_residual.self_s", "s", "lower", f"wall_s on {RT}"),
    ("fock.alloc_mb", "MB", "lower", f"peak_rss_mb, wall_s on {RT}"),
    ("fock.operator_norm.calls", "count", "lower", f"wall_s on {WN}"),
    ("fock.operator_norm.self_s", "s", "lower", f"wall_s on {WN}"),
    ("fock.self_s", "s", "lower", f"wall_s on {RT}"),
    ("families.build.calls", "count", "lower", f"wall_s on {WN}"),
    ("families.build.self_s", "s", "lower", f"wall_s on {WN}"),
    ("families.build.max_dim", "count", "lower", f"peak_rss_mb on {WN}"),
    ("families.self_s", "s", "lower", f"wall_s on {WN}"),
    ("reconstruct.generators_from_isometries.calls", "count", "lower", f"wall_s on {RT}"),
    ("reconstruct.generators_from_isometries.self_s", "s", "lower", f"wall_s on {RT}"),
    ("reconstruct.isometries_from_generators.calls", "count", "lower", f"wall_s on {RT}"),
    ("reconstruct.isometries_from_generators.self_s", "s", "lower", f"wall_s on {RT}"),
    ("reconstruct.verify_stage_identities.self_s", "s", "lower", f"wall_s on {RT}"),
    ("reconstruct.roundtrip_check.self_s", "s", "lower", f"wall_s on {RT}"),
    ("reconstruct.self_s", "s", "lower", f"wall_s on {RT}"),
    ("relations.relation_residuals.calls", "count", "lower", f"wall_s on {RT}"),
    ("relations.relation_residuals.self_s", "s", "lower", f"wall_s on {RT}"),
    ("relations.norm_domination_sample.self_s", "s", "lower", f"wall_s on {WN}"),
    ("relations.collapse_check.self_s", "s", "lower", f"wall_s on {WN}"),
    ("relations.self_s", "s", "lower", f"wall_s on {WN}"),
    ("symbolic.normal_order.calls", "count", "lower", f"wall_s on {GX}"),
    ("symbolic.normal_order.self_s", "s", "lower", f"wall_s on {GX}"),
    ("symbolic.gram_matrix.self_s", "s", "lower", f"wall_s on {GX}"),
    ("symbolic.gram.nonzero_frac", "ratio", "higher", f"wall_s on {GX}"),
    ("symbolic.eval_and_bridge.calls", "count", "lower", f"wall_s on {GX}"),
    ("symbolic.eval_and_bridge.self_s", "s", "lower", f"wall_s on {GX}"),
    ("symbolic.evaluate_word.calls", "count", "lower", f"peak_rss_mb on {GX}, {WN}; wall_s on {WN}"),
    ("symbolic.word_cache.hit_ratio", "ratio", "higher", f"peak_rss_mb on {GX}, {WN}; wall_s on {WN}"),
    ("symbolic.word_cache.mb", "MB", "lower", f"peak_rss_mb on {GX}, {WN}"),
    ("symbolic.self_s", "s", "lower", f"wall_s on {GX}"),
    ("report.add.calls", "count", "lower", f"wall_s on {WN}"),
    ("report.add.self_s", "s", "lower", f"wall_s on {WN}"),
    ("report.emit.self_s", "s", "lower", f"wall_s on {WN}"),
    ("report.worst_margin", "ratio", "lower", "reported, not gated"),
    ("report.self_s", "s", "lower", f"wall_s on {WN}"),
    ("cli.self_s", "s", "lower", f"wall_s on {RT}, {GX}, {WN}"),
    ("trace.coverage", "ratio", "higher", "trace health"),
    ("trace.overhead", "ratio", "lower", "trace health"),
)

LAYERS = ("fock", "families", "reconstruct", "relations", "symbolic", "report", "cli")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


COMPUTED = {
    "fock.matmul.gflop": lambda c: c.get("fock.matmul.flop", 0) / 1e9,
    "fock.matmul.nonzero_frac": lambda c: _ratio(c.get("fock.matmul.nonzero", 0), c.get("fock.matmul.entries", 0)),
    "fock.alloc_mb": lambda c: c.get("fock.alloc_bytes", 0) / 1e6,
    "families.build.max_dim": lambda c: c.get("families.build.max_dim", 0),
    "symbolic.gram.nonzero_frac": lambda c: _ratio(c.get("symbolic.gram.nonzero", 0), c.get("symbolic.gram.pairings", 0)),
    "symbolic.word_cache.hit_ratio": lambda c: _ratio(
        c.get("symbolic.word_cache.hits", 0), c.get("symbolic.word_cache.lookups", 0)
    ),
    "symbolic.word_cache.mb": lambda c: c.get("symbolic.word_cache.bytes", 0) / 1e6,
}


def campaigns(templates, seed: int, input_set: int) -> list[tuple[list[str], int]]:
    """CLI arguments and pinned check counts; input set k of seed s runs with CLI seed s * INPUT_SETS + k."""
    cli_seed = seed * INPUT_SETS + input_set
    return [(text.format(seed=cli_seed).split(), checks) for text, checks in templates]


# ---------------------------------------------------------------------------
# Workers and the correctness gate
# ---------------------------------------------------------------------------


def spawn(out: Path, job: dict) -> dict | None:
    """Run one worker to completion; its result plus ``setup_s``, or None if it died."""
    result = out / "worker.json"
    result.unlink(missing_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), json.dumps({**job, "result": str(result)})],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=CAMPAIGN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
        print(f"worker timed out after {CAMPAIGN_TIMEOUT_S} s: {job.get('argv')}", file=sys.stderr)
        return None
    if proc.returncode != 0 or not result.exists():
        print(f"worker exited {proc.returncode}: {job.get('argv')}\n{proc.stderr[-3000:]}", file=sys.stderr)
        return None
    data = json.loads(result.read_text(encoding="utf-8"))
    data["setup_s"] = data["ready"] - spawned
    return data


def gate(report_path: Path, expected: int, exit_code: int | None) -> tuple[int, float | None]:
    """Failed checks of one campaign and its worst residual/tolerance.

    A missing or unreadable report, a non-zero exit code or a check count
    other than the pinned one fails every check the campaign owed.
    """
    try:
        checks = json.loads(report_path.read_text(encoding="utf-8"))["checks"]
        margins = [c["residual"] / c["tolerance"] for c in checks]
    except (OSError, ValueError, KeyError, TypeError, ZeroDivisionError):
        return expected, None
    worst = max(margins, default=None)
    if exit_code != 0 or len(checks) != expected:
        return expected, worst
    return sum(not (c["residual"] <= c["tolerance"]) or not c["pass"] for c in checks), worst


def run_repeat(out: Path, work: list[tuple[list[str], int]], traced: bool) -> list[dict]:
    """Every campaign of a workload once, each in a fresh worker."""
    rows = []
    for index, (argv, expected) in enumerate(work):
        report = out / f"report-{index}.json"
        report.unlink(missing_ok=True)
        job = {"argv": [*argv, "--out", str(report)]}
        if traced:
            job["spans"] = str(out / f"spans-{index}.jsonl")
        data = spawn(out, job) or {}
        failed, worst = gate(report, expected, data.get("exit"))
        rows.append({**data, "argv": argv, "expected": expected, "failed": failed, "worst_margin": worst})
    return rows


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def repeat_wall(rows: list[dict]) -> float:
    return sum(r.get("wall_s", 0.0) for r in rows)


def merged_trace(rows: list[dict]) -> dict:
    spans: dict[str, list] = {}
    counters: dict[str, float] = {}
    for row in rows:
        trace = row.get("trace", {"spans": {}, "counters": {}})
        for name, s in trace["spans"].items():
            entry = spans.setdefault(name, [0, 0.0])
            entry[0] += s["calls"]
            entry[1] += s["self_s"]
        for name, value in trace["counters"].items():
            combine = max if name.endswith("max_dim") else (lambda a, b: a + b)
            counters[name] = combine(counters.get(name, 0), value)
    return {"spans": spans, "counters": counters}


def layer_values(trace: dict, wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced repeat (worst margin and overhead are added by the caller)."""
    spans, counters = trace["spans"], trace["counters"]
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, (_, self_s) in spans.items():
        layer = name.split(".")[0]
        if layer in layer_self:
            layer_self[layer] += self_s
    values: dict[str, float] = {}
    for name, _, _, _ in PER_LAYER:
        base, _, field = name.rpartition(".")
        if name in COMPUTED:
            values[name] = COMPUTED[name](counters)
        elif field == "calls":
            values[name] = spans.get(base, (0, 0.0))[0]
        elif field == "self_s":
            values[name] = layer_self[base] if base in layer_self else spans.get(base, (0, 0.0))[1]
    values["trace.coverage"] = _ratio(sum(v for k, v in layer_self.items() if k != "cli"), wall)
    return values


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def measure(name: str, templates, seed: int, seconds: float, trace: bool) -> dict:
    """All repeats of one workload: samples, gate totals and metrics."""
    out = OUT / name
    out.mkdir(parents=True, exist_ok=True)
    start = time.monotonic()
    probes = [spawn(out, {"facts": k == 0}) for k in range(SETUP_PROBES)]
    if None in probes:
        raise SystemExit("error: the tccr package failed to import in a fresh worker")
    plain: list[list[dict]] = []
    traced: list[list[dict]] = []
    durations: list[float] = []
    while True:
        short = (len(traced) < 2 or not plain) if trace else len(plain) < MIN_PLAIN
        # stop before a repeat that would likely end past the measuring time
        if not short and time.monotonic() + median(durations) > start + seconds:
            break
        use_trace = trace and len(traced) <= len(plain)
        began = time.monotonic()
        input_set = 0 if trace else len(plain) % INPUT_SETS
        rows = run_repeat(out, campaigns(templates, seed, input_set), use_trace)
        durations.append(time.monotonic() - began)
        (traced if use_trace else plain).append(rows)

    every = [r for rows in plain + traced for r in rows]
    attempted = sum(r["expected"] for r in every)
    failed = sum(r["failed"] for r in every)
    margins = [r["worst_margin"] for r in every if r["worst_margin"] is not None]
    record = {
        "workload": name,
        "seed": seed,
        "campaigns": [" ".join(argv) for argv, _ in campaigns(templates, seed, 0)],
        "facts": probes[0]["facts"],
        "attempted": attempted,
        "failed": failed,
        "check_fail_frac": _ratio(failed, attempted),
        "setup_s_samples": [p["setup_s"] for p in probes],
        "plain_wall_s": [repeat_wall(rows) for rows in plain],
        "plain_peak_rss_mb": [max(r.get("maxrss_kb", 0) for r in rows) * 1024 / 1e6 for rows in plain],
        "traced_wall_s": [repeat_wall(rows) for rows in traced],
        "problems": [],
    }
    if failed:
        record["problems"].append(f"{failed} of {attempted} checks failed")
    if trace:
        record["metrics"] = traced_metrics(plain, traced, margins, record["problems"])
    else:
        record["metrics"] = {
            "wall_s": median(record["plain_wall_s"]),
            "peak_rss_mb": median(record["plain_peak_rss_mb"]),
            "setup_s": median(record["setup_s_samples"]),
            "check_pass_frac": 1.0 - record["check_fail_frac"],
        }
    return record


def traced_metrics(plain, traced, margins: list[float], problems: list[str]) -> dict[str, float]:
    """Per-layer metrics: call counts, which must repeat exactly, and medians of the rest."""
    merged = [merged_trace(rows) for rows in traced]
    calls = [{name: c for name, (c, _) in m["spans"].items()} for m in merged]
    if any(c != calls[0] for c in calls[1:]):
        problems.append("span call counts differ between traced repeats of one seed")
    per_repeat = [layer_values(m, repeat_wall(rows)) for m, rows in zip(merged, traced)]
    values = {
        name: per_repeat[0][name] if name.endswith(".calls") else median([v[name] for v in per_repeat])
        for name in per_repeat[0]
    }
    values["report.worst_margin"] = max(margins, default=0.0)
    overhead = _ratio(median([repeat_wall(rows) for rows in traced]), median([repeat_wall(rows) for rows in plain]))
    values["trace.overhead"] = overhead - 1.0
    return {name: values[name] for name, _, _, _ in PER_LAYER}


# ---------------------------------------------------------------------------
# Machine facts and the command line
# ---------------------------------------------------------------------------


def machine_facts() -> dict:
    caches = {}
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "caches": caches,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def evaluate(workloads: dict, seed: int, seconds: float, trace: bool) -> tuple[dict, list[dict]]:
    """Measure every named workload; the result line and the full records."""
    facts = machine_facts()
    records = []
    for name, templates in workloads.items():
        record = measure(name, templates, seed, seconds, trace)
        record["facts"] = {**facts, **record["facts"]}
        records.append(record)
    units = END_TO_END | {name: unit for name, unit, _, _ in PER_LAYER}
    prefix = len(records) > 1
    metrics = {
        (f"{record['workload']}.{name}" if prefix else name): {"value": value, "unit": units[name]}
        for record in records
        for name, value in record["metrics"].items()
    }
    line = {
        "correct": not any(r["problems"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }
    return line, records


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tccr" / "cli.py").is_file():
        print(f"error: no tccr sources at {SRC / 'tccr'}; run from the repository root", file=sys.stderr)
        return 2
    chosen = WORKLOADS if args.workload == "all" else {args.workload: WORKLOADS[args.workload]}
    line, records = evaluate(chosen, args.seed, args.seconds, bool(args.trace))
    for record in records:
        path = OUT / f"result-{record['workload']}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"{record['workload']} machine " + json.dumps(record["facts"], sort_keys=True))
        print(f"{record['workload']} check_fail_frac {record['check_fail_frac']:.6g} ratio")
        for problem in record["problems"]:
            print(f"{record['workload']} PROBLEM {problem}", file=sys.stderr)
    for name, metric in line["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
