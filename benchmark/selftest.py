"""Self-test of the benchmark's output checks.

    python3 benchmark/selftest.py

Run from the repository root.  For each workload one pass is run on seed
1 and its outputs must pass the checks; then wrong results are planted in
copies of those outputs (a dropped coloring, a perturbed basis
coefficient, an altered completion cell, a changed CLI output) and each
must be reported as a failed operation.  Exits 1 if any case misbehaves.
"""

from __future__ import annotations

import os
import sys

import run
import workloads


def planted(outputs, index, value):
    copy = list(outputs)
    copy[index] = value
    return copy


def first(plan, outputs, label_part, test=lambda out: True):
    return next(i for i, (op, out) in enumerate(zip(plan.ops, outputs))
                if label_part in op.label and test(out))


def cases_invariants(plan, out):
    i = first(plan, out, "x alexander", lambda o: o and o[0][1])
    coeffs, terms, text = out[i][0]
    (e, m), *rest = terms
    dropped = ((coeffs, ((e, m - 1),) + tuple(rest) if m > 1 else tuple(rest), text),)
    yield "dropped coloring in a state sum", i, planted(out, i, dropped + out[i][1:])
    j = first(plan, out, "x kishinoT", lambda o: len(o) > 1)
    bumped = list(out[j][0][0])
    bumped[0] += 1
    yield "perturbed basis coefficient", j, planted(
        out, j, ((tuple(bumped),) + out[j][0][1:],) + out[j][1:])


def cases_cohomology(plan, out):
    for label in ("over Q", "over Zp"):
        i = first(plan, out, label, lambda o: len(o) > 0)
        vec = list(out[i][0])
        k = next(k for k, c in enumerate(vec) if c)
        vec[k] = vec[k] + 1 if "Q" in label else (vec[k] + 1) % plan_prime(plan, i)
        yield f"perturbed basis coefficient {label}", i, planted(
            out, i, (tuple(vec),) + out[i][1:])
        yield f"dropped basis vector {label}", i, planted(out, i, out[i][1:])


def plan_prime(plan, i):
    return int(plan.ops[i].label.rsplit("Zp:", 1)[1])


def cases_propagation(plan, out):
    i = first(plan, out, "oracle", lambda o: len(o) > 1)
    yield "dropped oracle coloring", i, planted(out, i, out[i][1:])
    j = first(plan, out, "complete", lambda o: len(o) > 1)
    tables = [list(map(list, t)) for t in out[j][0]]
    n = len(tables[0])
    tables[0][0][0] = tables[0][0][0] % n + 1  # UP(1,1), a blanked or fixed cell
    altered = (tuple(tuple(map(tuple, t)) for t in tables),) + out[j][1:]
    yield "altered completion cell", j, planted(out, j, altered)


def cases_cli(plan, out):
    i = first(plan, out, "colorings_jobs2")
    code, text = out[i]
    yield "jobs 2 output differs", i, planted(out, i, (code, str(int(text) - 1) + "\n"))
    j = first(plan, out, "cli suite")
    yield "nonzero exit", j, planted(out, j, (1, out[j][1]))
    k = first(plan, out, "cli cohomology")
    lines = out[k][1].splitlines()
    lines[1] = lines[1].replace("X(", "2*X(", 1)
    yield "perturbed CLI basis coefficient", k, planted(out, k, (0, "\n".join(lines) + "\n"))


CASES = {"invariants": cases_invariants, "cohomology": cases_cohomology,
         "propagation": cases_propagation, "cli": cases_cli}


def main() -> int:
    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    bq = run.import_package()
    problems = 0
    for name, setup in workloads.WORKLOADS.items():
        plan = setup(bq, 1, root)
        _wall, _times, out = run.run_pass(plan.ops)
        clean = run.find_failures(plan, out)
        status = "ok" if not clean else f"FAIL {clean}"
        problems += bool(clean)
        print(f"{name}: true outputs pass the checks: {status}")
        for what, index, wrong in CASES[name](plan, out):
            found = run.find_failures(plan, wrong)
            caught = index in found
            problems += not caught
            print(f"{name}: {what} in '{plan.ops[index].label}': "
                  f"{'reported: ' + found[index] if caught else 'NOT REPORTED'}")
    print("self-test", "passed" if not problems else f"failed ({problems} problems)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
