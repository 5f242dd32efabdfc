"""Traced run: the workload's steps in-process, with a span around every call
into a layer's public functions.

Spans are recorded from the benchmark's side only.  For the duration of a
traced unit the layer functions are rebound in every ``pdacfg`` module and
script module that holds a reference to them, and the Earley recognizer's
``member`` method is wrapped on its class, so that the per-query calls
inside ``differential_check`` and ``enumerate_language`` are spans too.
Nothing under ``src/`` is edited.  Spans stay in memory and are handed back
for writing out when the run ends.

A unit is one fresh set-up plus one pass.  Untraced and traced units
alternate, and the difference of their medians is the tracing overhead.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import statistics
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

import workloads
from workloads import CLI, ROOT, Tally, fits

STARTUP_SAMPLES = 5

# span name -> functions it wraps, as (module under pdacfg, attribute)
TARGETS = {
    "textio.parse": [("textio", "parse_pda"), ("textio", "parse_cfg"),
                     ("textio", "parse_sspda")],
    "textio.render": [("textio", "render")],
    "singlestate.to_single_state": [("singlestate", "to_single_state")],
    "grammar.sspda_to_cfg": [("grammar", "sspda_to_cfg")],
    "grammar.classical": [("grammar", "classical_pda_to_cfg")],
    "grammar.prune": [("grammar", "prune_useless")],
    "engine.accepts": [("engine", "accepts")],
    "engine.enum": [("engine", "enumerate_language")],
    "harness.differential_check": [("harness", "differential_check")],
}


def _route(source) -> str:
    kind = type(source).__name__
    if kind == "Pda":
        return "pda"
    if kind == "SingleStatePda":
        return "sspda"
    return "cfg" if source.start == "Zs" else "classical"


def _describe(name, args, result):
    """Attributes recorded with a span, read from its arguments and result."""
    if name == "engine.earley":
        return {"route": _route(args[0].cfg), "len": len(args[1]), "member": result}
    if name == "engine.accepts":
        return {"route": _route(args[0]), "verdict": result.kind, "reason": result.reason}
    if name == "textio.render":
        return {"bytes": len(result.encode("utf-8"))}
    if name == "singlestate.to_single_state":
        generated = sum(len(records) for records in result.provenance.values())
        return {"rows": len(result.transitions),
                "collisions": generated - len(result.transitions)}
    if name == "grammar.prune":
        return {"in": len(args[0].productions), "out": len(result.productions)}
    if name == "engine.enum":
        source, max_len = args[0], args[1]
        alphabet = source.input_alphabet if _route(source) in ("pda", "sspda") \
            else source.terminals
        return {"members": len(result[0]),
                "candidates": workloads.string_count(len(alphabet), max_len)}
    return None


class Tracer:
    """Spans as [id, parent, trace, name, start_ns, end_ns, attrs]; the
    trace number groups the spans of one program step."""

    def __init__(self):
        self.spans = []
        self.open = []
        self.trace = 0
        self.base = time.perf_counter_ns()

    def call(self, name, fn, args, kwargs=None):
        span = [len(self.spans) + 1, self.open[-1] if self.open else None, self.trace,
                name, 0, 0, None]
        self.spans.append(span)
        self.open.append(span[0])
        span[4] = time.perf_counter_ns() - self.base
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            span[5] = time.perf_counter_ns() - self.base
            self.open.pop()
        span[6] = _describe(name, args, result)
        return result


@contextlib.contextmanager
def instrumented(tracer, modules):
    """Rebind every target function in ``modules``, and the recognizer's
    ``member`` on its class; restore the originals on exit."""
    from pdacfg import engine

    def wrap(name, fn):
        return lambda *args, **kwargs: tracer.call(name, fn, args, kwargs)

    replacement = {}
    for name, places in TARGETS.items():
        for module, attr in places:
            fn = getattr(sys.modules[f"pdacfg.{module}"], attr)
            replacement[fn] = wrap(name, fn)
    patched = [(module, attr, value) for module in modules
               for attr, value in vars(module).items()
               if callable(value) and value in replacement]
    for module, attr, value in patched:
        setattr(module, attr, replacement[value])
    member = engine._Recognizer.member
    engine._Recognizer.member = wrap("engine.earley", member)
    try:
        yield
    finally:
        engine._Recognizer.member = member
        for module, attr, value in patched:
            setattr(module, attr, value)


class InProcess:
    """Runs program steps in this interpreter, as the CLI and scripts would
    run them, capturing their output."""

    def __init__(self):
        sys.path.insert(0, str(ROOT / "src"))
        import pdacfg.cli

        self.mains = {CLI: pdacfg.cli.main}
        scripts = []
        for path in (workloads.WRITE_CORPUS, workloads.RUN_DIFFERENTIAL):
            spec = importlib.util.spec_from_file_location(
                "perfbench_" + Path(path).stem, ROOT / path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            self.mains[path] = module.main
            scripts.append(module)
        self.modules = scripts + [m for n, m in sys.modules.items()
                                  if n == "pdacfg" or n.startswith("pdacfg.")]

    def run(self, tracer, step):
        main = self.mains[step.program]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                if tracer is None:
                    code = main(list(step.args))
                else:
                    tracer.trace += 1
                    code = tracer.call(f"step {step.label}", main, (list(step.args),))
            except Exception:  # a crashing step is a failed operation, not a crashed run
                traceback.print_exc()
                code = None
        return code, out.getvalue(), err.getvalue()


def _unit(runner, workload, seed, work, tally, tracer):
    """One set-up plus one pass; returns (seconds, exact counts).  The
    set-up's no-work CLI start is skipped: there is no interpreter to start."""
    started = time.perf_counter()
    inputs = workloads.build(workload, seed, work)
    counts = {}
    for step in [s for s in inputs.setup if s.label != "ready"] + inputs.passes:
        code, out, err = runner.run(tracer, step)
        counts.update(tally.record(step, code, out, err).counts)
    return time.perf_counter() - started, counts


def _p99_us(durations_ns):
    """0 when fewer than ten samples lie beyond the 99th percentile."""
    if len(durations_ns) < 1000:
        return 0.0
    return statistics.quantiles(durations_ns, n=100)[98] / 1000


def _median_us(durations_ns):
    return statistics.median(durations_ns) / 1000 if durations_ns else 0.0


def layer_metrics(spans):
    """Per-layer figures of one traced unit as {metric: (value, unit,
    better)}, and the exact per-route verdict tallies."""
    total = Counter()  # ns by span name
    covered = Counter()  # ns covered by direct children, by parent id
    sums = Counter()  # integer attributes summed, by "name.attr"
    tallies = Counter()
    accepts = {"pda": [], "sspda": []}
    inconclusive = Counter()
    earley = []
    earley_by_len = defaultdict(int)
    for span_id, parent, _, name, start, end, attrs in spans:
        took = end - start
        total[name] += took
        if parent is not None:
            covered[parent] += took
        attrs = attrs or {}  # None when the call raised
        if name == "engine.accepts" and attrs:
            accepts[attrs["route"]].append(took)
            tallies[f"accepts {attrs['route']} {attrs['verdict']} {attrs['reason']}"] += 1
            if attrs["verdict"] == "inconclusive":
                inconclusive[attrs["reason"]] += 1
        elif name == "engine.earley" and attrs:
            earley.append(took)
            earley_by_len[attrs["len"]] += took
            tallies[f"earley {attrs['route']} {attrs['member']}"] += 1
        for key, value in attrs.items():
            if type(value) is int:
                sums[f"{name}.{key}"] += value
    check_self = sum(end - start - covered[span_id]
                     for span_id, _, _, name, start, end, _ in spans
                     if name == "harness.differential_check")
    all_accepts = accepts["pda"] + accepts["sspda"]

    def ratio(a, b):
        return a / b if b else 0.0

    def seconds(ns):
        return (ns / 1e9, "s", "lower")

    metrics = {
        "engine.accepts_s.pda": seconds(sum(accepts["pda"])),
        "engine.accepts_s.sspda": seconds(sum(accepts["sspda"])),
        "engine.accepts.calls.pda": (len(accepts["pda"]), "count", "lower"),
        "engine.accepts.calls.sspda": (len(accepts["sspda"]), "count", "lower"),
        "engine.accepts_p50_us": (_median_us(all_accepts), "us", "lower"),
        "engine.accepts_p99_us": (_p99_us(all_accepts), "us", "lower"),
        "engine.accepts.inconclusive.max_configs": (
            inconclusive["max_configs"], "count", "lower"),
        "engine.accepts.inconclusive.max_stack_depth": (
            inconclusive["max_stack_depth"], "count", "lower"),
        "engine.accepts.conclusive_ratio": (
            ratio(len(all_accepts) - sum(inconclusive.values()), len(all_accepts)),
            "ratio", "higher"),
        "engine.earley_s": seconds(sum(earley)),
        "engine.earley.calls": (len(earley), "count", "lower"),
        "engine.earley_p50_us": (_median_us(earley), "us", "lower"),
        "engine.earley_p99_us": (_p99_us(earley), "us", "lower"),
    }
    for n in range(workloads.ENUM_MAX_LEN + 1):
        metrics[f"engine.earley_s_by_len.{n}"] = seconds(earley_by_len[n])
    metrics.update({
        "engine.enum_s": seconds(total["engine.enum"]),
        "engine.enum.member_ratio": (
            ratio(sums["engine.enum.members"], sums["engine.enum.candidates"]),
            "ratio", "higher"),
        "harness.differential_check_s": seconds(total["harness.differential_check"]),
        "harness.self_s": seconds(check_self),
        "singlestate.to_single_state_s": seconds(total["singlestate.to_single_state"]),
        "singlestate.rows": (sums["singlestate.to_single_state.rows"], "count", "lower"),
        "singlestate.collisions": (
            sums["singlestate.to_single_state.collisions"], "count", "lower"),
        "grammar.sspda_to_cfg_s": seconds(total["grammar.sspda_to_cfg"]),
        "grammar.classical_s": seconds(total["grammar.classical"]),
        "grammar.prune_s": seconds(total["grammar.prune"]),
        "grammar.prune_kept_ratio": (
            ratio(sums["grammar.prune.out"], sums["grammar.prune.in"]), "ratio", "higher"),
        "textio.parse_s": seconds(total["textio.parse"]),
        "textio.render_s": seconds(total["textio.render"]),
        "textio.render_bytes": (sums["textio.render.bytes"], "bytes", "lower"),
    })
    return metrics, dict(tallies)


def traced(workload, seed, seconds, scratch):
    """Returns the tally, the series of (layer, metric, unit, better,
    values), extra figures, and every span tagged with its unit number."""
    tally = Tally()
    env = workloads.program_env()
    ready = workloads.ready_step()
    startup = []
    for _ in range(STARTUP_SAMPLES):
        took, code, out, err = workloads.run_subprocess(ready, env)
        tally.record(ready, code, out, err)
        startup.append(took)
    runner = InProcess()
    plain, traced_units, per_unit, tallies, spans = [], [], [], [], []
    measuring = time.perf_counter()
    pairs = []
    i = 0
    while not pairs or fits(measuring, pairs, seconds):
        pair_started = time.perf_counter()
        # Alternate which side of each pair runs first.
        for trace in (False, True) if i % 2 == 0 else (True, False):
            work = scratch / f"unit{i}-{int(trace)}"
            if not trace:
                plain.append(_unit(runner, workload, seed, work, tally, None)[0])
                continue
            tracer = Tracer()
            with instrumented(tracer, runner.modules):
                took, counts = _unit(runner, workload, seed, work, tally, tracer)
            traced_units.append(took)
            metrics, unit_tallies = layer_metrics(tracer.spans)
            per_unit.append(metrics)
            tallies.append({**counts, **unit_tallies})
            spans.extend([i] + span for span in tracer.spans)
        pairs.append(time.perf_counter() - pair_started)
        i += 1
    tally.check_repeats(f"{workload} traced", tallies)

    series = [(name.split(".")[0], name, unit, better, [m[name][0] for m in per_unit])
              for name, (_, unit, better) in per_unit[0].items()]
    overhead = statistics.median(traced_units) - statistics.median(plain)
    series += [("cli", "cli.startup_s", "s", "lower", startup),
               ("trace", "trace.overhead_s", "s", "lower", [overhead])]
    extra = {"untraced_unit_s": statistics.median(plain),
             "traced_unit_s": statistics.median(traced_units),
             "trace_counts": tallies[0]}
    return tally, series, extra, spans
