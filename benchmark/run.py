"""Benchmark of the biquandles package: one workload per run.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from src/.  Set-up
(importing the package and building the seeded inputs) is repeated and
timed; then one warm-up pass is checked, and whole timed passes over the
same operations follow until about S seconds are used.  Between
operations the fixed reference work runs (reference.py); each time is
divided by the mean of the samples around it and reported in seconds at
the reference speed.  With
--trace 0 the last line of standard output is a JSON object with the
end-to-end metrics; with --trace 1 untraced and traced passes alternate
and it holds the per-layer metrics.  Traces go to .bench_out/ in the
repository root.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import sys
import time
import types

import reference
import workloads
from spans import Tracer

PACKAGE = "biquandles"
MODULES = ("core", "gauss", "presentation", "coloring", "invariant",
           "cohomology", "linalg", "search", "cli")
SETUP_REPEATS = 9
MIN_PASSES = 3
MIN_TRACED_PAIRS = 2

# (metric, unit, kind, source); kind "self" and "calls" read spans,
# "count" a tracer counter, "ratio" a quotient of two counters.
PER_LAYER = (
    ("coloring.scan_s", "s", "self", "coloring.scan"),
    ("coloring.scan_calls", "count", "calls", "coloring.scan"),
    ("coloring.candidates", "count", "count", "coloring.candidates"),
    ("coloring.found", "count", "count", "coloring.found"),
    ("coloring.hit_ratio", "ratio", "ratio", ("coloring.found", "coloring.candidates")),
    ("coloring.oracle_s", "s", "self", "coloring.oracle"),
    ("coloring.oracle_calls", "count", "calls", "coloring.oracle"),
    ("presentation.build_s", "s", "self", "presentation.build"),
    ("presentation.reduce_s", "s", "self", "presentation.reduce"),
    ("presentation.reduce_calls", "count", "calls", "presentation.reduce"),
    ("invariant.yb_s", "s", "self", "invariant.yb"),
    ("invariant.boltzmann_s", "s", "self", "invariant.boltzmann"),
    ("invariant.boltzmann_calls", "count", "calls", "invariant.boltzmann"),
    ("gauss.crossings_s", "s", "self", "gauss.crossings"),
    ("gauss.crossings_calls", "count", "calls", "gauss.crossings"),
    ("cohomology.cocycle_matrix_s", "s", "self", "cohomology.cocycle_matrix"),
    ("cohomology.cocycle_matrix_calls", "count", "calls", "cohomology.cocycle_matrix"),
    ("cohomology.basis_s", "s", "self", "cohomology.basis"),
    ("linalg.rref_s", "s", "self", "linalg.rref"),
    ("linalg.rref_calls", "count", "calls", "linalg.rref"),
    ("linalg.rref_cells", "count", "count", "linalg.rref_cells"),
    ("linalg.rank_tracker_s", "s", "self", "linalg.rank_tracker"),
    ("search.propagate_s", "s", "self", "search.propagate"),
    ("search.nodes", "count", "calls", "search.propagate"),
    ("search.branch_s", "s", "self", "search.branch"),
    ("search.solutions", "count", "count", "search.solutions"),
    ("search.solution_ratio", "ratio", "ratio", ("search.solutions", "search.nodes")),
    ("core.validate_s", "s", "self", "core.validate"),
    ("core.validate_calls", "count", "calls", "core.validate"),
    ("cli.startup_s", "s", "self", "cli.startup"),
    ("cli.suite_s", "s", "self", "cli.suite"),
    ("cli.cohomology_s", "s", "self", "cli.cohomology"),
    ("cli.colorings_jobs1_s", "s", "self", "cli.colorings_jobs1"),
    ("cli.colorings_jobs2_s", "s", "self", "cli.colorings_jobs2"),
    ("cli.invariant_s", "s", "self", "cli.invariant"),
    ("cli.validate_s", "s", "self", "cli.validate"),
    ("bench.unattributed_s", "s", "self", "op"),
)
LAYERS = ("gauss", "presentation", "coloring", "invariant", "cohomology",
          "linalg", "search", "core", "cli")


class Raised(tuple):
    """Stands in for the output of an operation that raised."""


def import_package() -> types.SimpleNamespace:
    for name in [k for k in sys.modules if k == PACKAGE or k.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    return types.SimpleNamespace(
        **{m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES})


def run_pass(ops, tracer: Tracer | None = None):
    """(per-op seconds, per-op seconds in reference units, per-op outputs).

    An operation is rated against reference samples taken with as many
    processes as it runs."""
    widths = sorted({op.processes for op in ops})

    def samples():
        return {w: reference.sample(w) for w in widths}

    times, outputs, scaled = [], [], [0.0] * len(ops)
    before = samples()
    waiting: list[int] = []
    last = time.perf_counter()
    for i, op in enumerate(ops):
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = op.run()
            else:
                with tracer.span(op.span, op=i):
                    out = op.run()
        except Exception as e:  # a raising operation is a failed one
            out = Raised(("raised", f"{type(e).__name__}: {e}"))
        t1 = time.perf_counter()
        times.append(t1 - t0)
        outputs.append(out)
        waiting.append(i)
        if t1 - last >= reference.EVERY or i == len(ops) - 1:
            after = samples()
            for j in waiting:
                w = ops[j].processes
                scaled[j] = times[j] / ((before[w] + after[w]) / 2)
            waiting.clear()
            before, last = after, time.perf_counter()
    return times, scaled, outputs


def find_failures(plan, outputs) -> dict[int, str]:
    """{operation index: reason} for every operation that raised or whose
    output fails the workload's checks."""
    try:
        bad = dict(plan.check(outputs))
    except Exception as e:  # a checker that cannot read the outputs fails them all
        bad = {i: f"check raised {type(e).__name__}: {e}" for i in range(len(outputs))}
    for i, out in enumerate(outputs):
        if isinstance(out, Raised):
            bad.setdefault(i, out[1])
    return bad


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    selfs, calls = tracer.self_times()
    counts = dict(tracer.counts)
    counts["search.nodes"] = calls.get("search.propagate", 0)
    out = {}
    for metric, _unit, kind, source in PER_LAYER:
        if kind == "self":
            out[metric] = selfs.get(source, 0.0)
        elif kind == "calls":
            out[metric] = calls.get(source, 0)
        elif kind == "count":
            out[metric] = counts.get(source, 0)
        else:
            num, den = (counts.get(s, 0) for s in source)
            out[metric] = num / den if den else 0.0
    for layer in LAYERS:
        out["layer." + layer] = sum(v for k, v in selfs.items() if k.split(".")[0] == layer)
    out["spans"] = sum(selfs.values())  # all traced time, the benchmark's own included
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, PACKAGE, "__init__.py")) or \
            not os.path.isdir(os.path.join(root, "data")):
        print(f"error: no src/{PACKAGE} and data/ under {root}; "
              "run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    setup = workloads.WORKLOADS[args.workload]

    setup_times, setup_units = [], []
    for _ in range(SETUP_REPEATS):
        before = reference.sample()
        t0 = time.perf_counter()
        bq = import_package()
        plan = setup(bq, args.seed, root)
        setup_times.append(time.perf_counter() - t0)
        setup_units.append(setup_times[-1] / ((before + reference.sample()) / 2))
    if not os.path.abspath(bq.core.__file__).startswith(src + os.sep):
        print(f"error: {PACKAGE} was imported from {bq.core.__file__}", file=sys.stderr)
        return 2
    ops = plan.ops

    t0 = time.perf_counter()
    _times, _scaled, expected = run_pass(ops)
    t1 = time.perf_counter()
    bad = find_failures(plan, expected)
    print(f"{len(ops)} operations; set-up {sum(setup_times):.2f} s over {SETUP_REPEATS} "
          f"repeats, warm-up pass {t1 - t0:.2f} s, checks {time.perf_counter() - t1:.2f} s",
          file=sys.stderr)
    for i in sorted(bad):
        print(f"FAILED {ops[i].label}: {bad[i]}", file=sys.stderr)
    attempted, failed = len(ops), len(bad)

    def timed(tracer=None):
        """One pass, checked against the warm-up outputs."""
        nonlocal attempted, failed
        times, scaled, outs = run_pass(ops, tracer)
        wrong = set(bad) | {i for i, out in enumerate(outs) if out != expected[i]}
        for i in sorted(wrong - set(bad)):
            print(f"FAILED {ops[i].label}: output differs from the warm-up pass",
                  file=sys.stderr)
        attempted += len(ops)
        failed += len(wrong)
        return times, scaled

    start = time.perf_counter()
    if not args.trace:
        passes = []
        while True:
            passes.append(timed())
            walls = [sum(times) for times, _s in passes]
            print(f"pass {len(passes)}: {walls[-1]:.3f} s, "
                  f"{sum(passes[-1][1]) * reference.SECONDS:.3f} s at reference speed",
                  file=sys.stderr)
            if len(passes) >= MIN_PASSES and \
                    time.perf_counter() - start + statistics.median(walls) > args.seconds:
                break
        # each operation's median over the passes, in reference units
        per_op = [statistics.median(v) for v in zip(*(scaled for _t, scaled in passes))]

        def at_reference_speed(group=None):
            units = sum(v for v, op in zip(per_op, ops) if group in (None, op.group))
            return units * reference.SECONDS, "s"
        usage = resource.getrusage(resource.RUSAGE_CHILDREN if plan.uses_children
                                   else resource.RUSAGE_SELF)
        values = {
            "setup_s": (statistics.median(setup_units) * reference.SECONDS, "s"),
            "peak_rss_mb": (usage.ru_maxrss / 1024, "MB"),
            "solve_s": at_reference_speed(),
            "solve_a_s": at_reference_speed("a"),
            "solve_b_s": at_reference_speed("b"),
        }
    else:
        tracer = Tracer(PACKAGE)
        plain, traced, per_pass = [], [], []  # (seconds, reference units) per pass
        while True:
            times, scaled = timed()
            plain.append((sum(times), sum(scaled)))
            tracer.reset()
            tracer.install()
            try:
                times, scaled = timed(tracer)
                traced.append((sum(times), sum(scaled)))
                for op in plan.trace_extra:
                    with tracer.span(op.span, op=op.label):
                        code, _out = op.run()
                    attempted += 1
                    failed += code != 0
            finally:
                tracer.uninstall()
            per_pass.append(layer_metrics(tracer))
            if len(traced) >= MIN_TRACED_PAIRS and \
                    time.perf_counter() - start + plain[-1][0] + traced[-1][0] > args.seconds:
                break
        mean = {k: statistics.fmean(p[k] for p in per_pass) for k in per_pass[0]}
        values = {metric: (mean[metric], unit) for metric, unit, _k, _s in PER_LAYER}
        # compared in reference units, so that drift of the machine's speed
        # between the two passes of a pair does not read as overhead
        extra = statistics.median(r for _s, r in traced) - statistics.median(r for _s, r in plain)
        seconds_per_unit = sum(s for s, _r in plain) / sum(r for _s, r in plain)
        values["trace.overhead_s"] = (extra * seconds_per_unit, "s")
        write_trace(root, args, tracer, ops, per_pass, plain, traced)

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }))
    return 0


def write_trace(root, args, tracer: Tracer, ops, per_pass, plain, traced) -> None:
    """Spans of the last traced pass, plus every pass's layer figures."""
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    t0 = tracer.spans[0][3] if tracer.spans else 0.0
    spans_total = statistics.fmean(p["spans"] for p in per_pass)
    mean_layer = {layer: statistics.fmean(p["layer." + layer] for p in per_pass)
                  for layer in LAYERS}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "untraced_pass_s": [s for s, _r in plain],
        "traced_pass_s": [s for s, _r in traced],
        "layer_self_s": mean_layer,
        "layer_share": {k: v / spans_total for k, v in mean_layer.items()},
        "passes": per_pass,
        "ops": [op.label for op in ops],
        "spans": [[name, parent, op, start - t0, end - t0]
                  for name, parent, op, start, end in tracer.spans],
    }
    path = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json")
    with open(path, "w") as fh:
        json.dump(record, fh)
    shares = ", ".join(f"{k} {v:.1%}" for k, v in record["layer_share"].items() if v)
    print(f"trace written to {path}; layer shares of the traced pass: {shares}",
          file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
