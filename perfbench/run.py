#!/usr/bin/env python3
"""pdacfg benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; nothing needs installing.  With
``--trace 0`` the workload's program steps run as subprocesses, exactly as a
user runs the CLI and scripts, and the end-to-end metrics are reported.  With
``--trace 1`` the same steps run in-process with a span around every call
into a layer, and the per-layer metrics are reported instead.  ``--workload
all`` runs every workload in turn.  Each output is checked against an answer
computed here; the last line of stdout is one JSON object, and the exit code
is 0 only when every check passed.  Result records and traced spans are
written under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import workloads
from workloads import ROOT, WORKLOADS, Tally, fits, program_env, run_subprocess

OUT = ROOT / ".perfbench"
SETUP_REPEATS = 3
REQUIRED = ("src/pdacfg/cli.py", workloads.WRITE_CORPUS, workloads.RUN_DIFFERENTIAL)


def summarize(values):
    """Median, quartiles and the highest percentile with at least ten
    samples beyond it (None when there are too few samples)."""
    values = sorted(values)
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else [median] * 3
    tail = None
    for p in (99, 90):
        if len(values) * (100 - p) / 100 >= 10:
            tail = {"p": p, "value": statistics.quantiles(values, n=100)[p - 1]}
            break
    return {"median": median, "q1": q1, "q3": q3, "samples": len(values), "tail": tail}


def commit_id() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        return (git / head[5:]).read_text().strip() if head.startswith("ref: ") else head
    except OSError:
        return "unknown"


def end_to_end(workload, seed, seconds, scratch):
    """Set up ``SETUP_REPEATS`` times, then time passes over the last set-up
    until ``seconds`` have been measured.  Returns the tally, the series of
    (layer, metric, unit, better, values), extra figures and no spans."""
    env = program_env()
    tally = Tally()
    setup_times = []
    for i in range(SETUP_REPEATS):
        started = time.perf_counter()
        inputs = workloads.build(workload, seed, scratch / f"setup{i}")
        for step in inputs.setup:
            _, code, out, err = run_subprocess(step, env)
            tally.record(step, code, out, err)
        setup_times.append(time.perf_counter() - started)

    walls, rates, counts = [], [], []
    checked = inconclusive = 0
    measuring = time.perf_counter()
    while not walls or fits(measuring, walls, seconds):
        wall, items, pass_counts = 0.0, 0, {}
        for step in inputs.passes:
            took, code, out, err = run_subprocess(step, env)
            wall += took
            outcome = tally.record(step, code, out, err)
            items += outcome.items
            checked += outcome.checked
            inconclusive += outcome.inconclusive
            pass_counts.update(outcome.counts)
        walls.append(wall)
        rates.append(items / wall)
        counts.append(pass_counts)
    tally.check_repeats(workload, counts)

    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    series = [
        ("e2e", "wall_s", "s", "lower", walls),
        ("e2e", "items_per_s", "1/s", "higher", rates),
        ("e2e", "setup_s", "s", "lower", setup_times),
        ("e2e", "peak_rss_mb", "MB", "lower", [peak_mb]),
    ]
    extra = {
        # items_per_s under the name of what it counts
        ("rows_per_s" if inputs.unit == "rows" else "strings_per_s"): statistics.median(rates),
        "inconclusive_ratio": inconclusive / checked if checked else 0.0,
        "ops_failed_ratio": len(tally.failures) / tally.attempted,
        "exact_counts": counts[0],
    }
    return tally, series, extra, None


def run_workload(workload, seed, seconds, trace):
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
    try:
        if trace:
            import tracing
            tally, series, extra, spans = tracing.traced(workload, seed, seconds, scratch)
        else:
            tally, series, extra, spans = end_to_end(workload, seed, seconds, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    context = {"workload": workload, "nproc": os.cpu_count(),
               "python": platform.python_version(), "commit": commit_id(), "seed": seed}
    records = [{**context, "layer": layer, "metric": metric, "unit": unit,
                "better": better, **summarize(values)}
               for layer, metric, unit, better, values in series]

    stem = OUT / f"{workload}-seed{seed}-trace{int(trace)}"
    stem.with_suffix(".json").write_text(json.dumps(
        {"records": records, **extra, "failures": tally.failures}, indent=1))
    if spans is not None:
        with open(stem.with_suffix(".spans.jsonl"), "w", encoding="utf-8") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")

    for r in records:
        tail = f" p{r['tail']['p']}={r['tail']['value']:.6g}" if r["tail"] else ""
        print(f"{workload:15} {r['layer']:12} {r['metric']:42} {r['median']:<12.6g} "
              f"{r['unit']:6} q1={r['q1']:.6g} q3={r['q3']:.6g} n={r['samples']}{tail}")
    for name, value in extra.items():
        if isinstance(value, float):
            print(f"{workload:15} {'':12} {name:42} {value:.6g}")
    for reason in tally.failures:
        print(f"{workload:15} FAILED {reason}")
    return tally, records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a pdacfg source checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2

    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted, failed, metrics = 0, 0, {}
    for workload in chosen:
        tally, records = run_workload(workload, args.seed, args.seconds, args.trace)
        attempted += tally.attempted
        failed += len(tally.failures)
        prefix = f"{workload}." if args.workload == "all" else ""
        for r in records:
            metrics[prefix + r["metric"]] = {"value": r["median"], "unit": r["unit"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
