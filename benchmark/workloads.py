"""The four workloads: their seeded inputs, operations and output checks.

A workload's setup(bq, seed, root) returns a Plan: the operations of one
pass and a checker.  Each operation belongs to group "a" or "b", timed
separately as solve_a_s and solve_b_s.  Operations call the program
through the module attributes of `bq`, so the spans of a traced pass see
every call.  The checker takes the outputs of one pass and returns
{operation index: reason} for every operation whose output is wrong.
"""

from __future__ import annotations

import os
import random
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Callable

import checks
import inputs


@dataclass
class Op:
    label: str
    group: str  # "a" or "b"
    run: Callable[[], object]
    span: str = "op"  # span name in a traced pass
    processes: int = 1  # processes it keeps busy at once


@dataclass
class Plan:
    ops: list[Op]
    check: Callable[[list], dict[int, str]]
    uses_children: bool = False  # peak RSS is that of the largest child
    trace_extra: list[Op] = field(default_factory=list)  # traced runs only


def _data(root: str, name: str) -> str:
    with open(os.path.join(root, "data", name)) as fh:
        return fh.read()


class _Failures(dict):
    def add(self, index: int, reason: str | None) -> None:
        if reason and index not in self:
            self[index] = reason


# ---------------------------------------------------------------------------
# invariants: yb_invariant_suite over random codes, their R-move variants
# and the shipped codes, by kishinoT over Q (group a) and by
# Alexander(5,2,3) over Z5 (group b).

KISHINO_VALUES = ("2*t^-1 + 12 + 2*t", "2*t^-2 + 12 + 2*t^2")
CODE_CROSSINGS = 5
CODES_PER_CLASS = 2
# survivors -> R-move variants: an R1 kink adds a surviving generator, so
# only the smallest codes get one; R2 variants keep the survivor count.
# Variants of 6-survivor codes are left out: their longer words make the
# scan cost swing between seeds.
VARIANTS = {4: ("R1", "R2"), 5: ("R2",), 6: ()}
# Codes drawn per component count and sites tried per variant, whatever
# the seed, so that set-up does the same work on every seed.
CANDIDATES = 120
SITES = 8
MAX_SITES = 64  # then settle for the survivor count nearest `want`


def _shape(bq, text: str) -> tuple[int, int]:
    """(surviving generators, word nodes of the reduced relations)."""
    code = bq.gauss.parse_gauss_code(text)
    reduced, _trace = bq.presentation.reduce_with_trace(bq.presentation.knot_presentation(code))
    return (len(reduced.generators),
            sum(bq.presentation.word_nodes(r.lhs) for r in reduced.relations))


def _typical(drawn, k: int, count: int) -> list[str] | None:
    """The `count` texts with k survivors whose word size is nearest the
    median of their class (scan cost follows word size); None if short."""
    fits = [(nodes, i, text) for i, (text, (kk, nodes)) in enumerate(drawn) if kk == k]
    if len(fits) < count:
        return None
    mid = statistics.median(n for n, _i, _t in fits)
    return [text for _n, _i, text in sorted(fits, key=lambda f: (abs(f[0] - mid), f[1]))[:count]]


def _random_site(rng, comps):
    ci = rng.randrange(len(comps))
    return ci, rng.randint(0, len(comps[ci]))


def _variant(bq, rng, text: str, move: str, want: int) -> str:
    """A seeded R-move variant of text with `want` surviving generators
    (an R1 kink always adds one; R2 adds none or one), of typical size
    among SITES tried sites."""
    code = bq.gauss.parse_gauss_code(text)
    drawn = []
    while True:
        if move == "R2":
            site = (_random_site(rng, code.components), _random_site(rng, code.components))
            if site[0] == site[1]:
                continue
        else:
            site = _random_site(rng, code.components)
        out = bq.gauss.serialize_gauss_code(bq.gauss.insert_r_move(code, move, site))
        drawn.append((out, _shape(bq, out)))
        if len(drawn) >= SITES:
            picked = _typical(drawn, want, 1)
            if picked:
                return picked[0]
        if len(drawn) >= MAX_SITES:
            nearest = min({k for _t, (k, _n) in drawn}, key=lambda k: (abs(k - want), k))
            return _typical(drawn, nearest, 1)[0]


def setup_invariants(bq, seed: int, root: str) -> Plan:
    rng = random.Random(seed)
    tables = (
        ("kishinoT/Q", bq.core.read_biquandle(_data(root, "kishinoT.bq")),
         bq.linalg.FieldSpec.from_name("Q"), None, "a"),
        ("alexander(5,2,3)/Z5", bq.core.alexander_biquandle(5, 2, 3),
         bq.linalg.FieldSpec.from_name("Zp:5"), (5, 2, 3), "b"),
    )
    # (label, text, label of the code it must agree with)
    codes: list[tuple[str, str, str | None]] = []
    for comps in (1, 2):
        drawn = []
        while True:
            text = inputs.code_text(inputs.random_code(rng, CODE_CROSSINGS, comps))
            drawn.append((text, _shape(bq, text)))
            if len(drawn) < CANDIDATES:
                continue
            picked = {k: _typical(drawn, k, CODES_PER_CLASS) for k in VARIANTS}
            if all(picked.values()):
                break
        for k, moves in VARIANTS.items():
            for number, text in enumerate(picked[k], start=1):
                label = f"random{comps}c/k{k}/{number}"
                codes.append((label, text, None))
                for move in moves:
                    if move == "R1":
                        move = rng.choice(("R1+", "R1-"))
                    want = k + (move != "R2")
                    codes.append((f"{label}/{move}", _variant(bq, rng, text, move, want), label))
    for name in inputs.SHIPPED_CODES:
        codes.append((name, _data(root, name + ".gauss"), None))

    parsed = [(label, bq.gauss.parse_gauss_code(text), inputs.crossing_structure(
        inputs.parse_code_text(text)), same_as) for label, text, same_as in codes]
    ops, meta = [], []
    for tname, T, F, alex, group in tables:
        for label, code, structure, same_as in parsed:
            def run(code=code, T=T, F=F):
                return tuple((phi.coeffs, ms.terms, str(ms))
                             for phi, ms in bq.invariant.yb_invariant_suite(code, T, F))
            ops.append(Op(f"suite {label} x {tname}", group, run))
            meta.append((tname, T, F, alex, label, structure, same_as))

    def check(outputs):
        bad = _Failures()
        bases: dict[str, tuple] = {}  # table -> (first basis seen, its problem)
        by_key = {}
        for i, (tname, T, F, alex, label, (arcs, crossings), same_as) in enumerate(meta):
            out = outputs[i]
            by_key[(tname, label)] = i
            p = F.p
            basis = [c for c, _t, _s in out]
            if tname not in bases:
                dims = checks.h2_dimensions(T.tables, p or checks.Q_PRIME)
                bases[tname] = (basis, checks.check_basis(T.tables, basis, p, dims[1], True))
            bad.add(i, bases[tname][1])
            if basis != bases[tname][0]:
                bad.add(i, "basis differs between codes")
            if alex:  # colorings by a linear table: the null space of its system
                cols = checks.alexander_colorings(arcs, crossings, *alex)
                count = checks.alexander_coloring_count(arcs, crossings, *alex)
                if count != len(cols):
                    bad.add(i, f"own null space has {len(cols)} vectors, expected {count}")
            else:
                cols = checks.colorings(arcs, crossings, T.tables)
            for coeffs, terms, _text in out:
                if sum(m for _e, m in terms) != len(cols):
                    bad.add(i, f"total multiplicity {sum(m for _e, m in terms)}, "
                               f"expected {len(cols)} colorings")
                if dict(terms) != checks.state_sum(cols, crossings, coeffs, T.n, p):
                    bad.add(i, "state sum differs from the benchmark's own")
            if label == "kishino" and tname.startswith("kishinoT") and \
                    tuple(s for _c, _t, s in out) != KISHINO_VALUES:
                bad.add(i, f"Kishino values {[s for _c, _t, s in out]}")
        for i, (tname, *_rest, label, _s, same_as) in enumerate(meta):
            if same_as and outputs[i] != outputs[by_key[(tname, same_as)]]:
                bad.add(i, f"value changed by the R-move from {same_as}")
        return bad

    return Plan(ops, check)


# ---------------------------------------------------------------------------
# cohomology: reduced and unreduced bases of relabelled tables, over Q
# (group a) and over Z_p (group b).

# (table, prime or None for Q, relabelled copies, also the unreduced basis?)
# Over Q the cost of eliminating an order-7 table swings up to 1.8x between
# relabellings, so that job keeps the shipped labels; the larger jobs
# average over two seeded copies.
Q_JOBS = (("kishinoT", None, 2, True), ((5, 2, 3), None, 2, True),
          ((6, 5, 5), None, 2, True), ((7, 2, 3), None, 0, False))
ZP_JOBS = (("kishinoT", 2, 1, True), ((5, 2, 3), 5, 1, True), ((6, 5, 5), 3, 1, True),
           ((7, 3, 5), 7, 1, True), ((7, 2, 3), 11, 1, True), ((8, 3, 5), 2, 2, True),
           ((9, 2, 4), 3, 2, True), ((10, 3, 7), 5, 2, True))


def setup_cohomology(bq, seed: int, root: str) -> Plan:
    rng = random.Random(seed)
    base = {}

    def table(key):
        if key not in base:
            base[key] = (bq.core.read_biquandle(_data(root, "kishinoT.bq")) if key == "kishinoT"
                         else bq.core.alexander_biquandle(*key))
        return base[key]

    ops, meta = [], []
    for group, jobs in (("a", Q_JOBS), ("b", ZP_JOBS)):
        for key, p, n_copies, unreduced in jobs:
            T = table(key)
            F = bq.linalg.FieldSpec(p)
            copies = [bq.core.Biquandle(inputs.relabel_tables(
                T.tables, inputs.permutation(rng, T.n))) for _ in range(n_copies)] or [T]
            for copy_no, copy in enumerate(copies, start=1):
                for reduced in (True, False)[:1 + unreduced]:
                    fn = (bq.cohomology.reduced_cohomology_basis if reduced
                          else bq.cohomology.cohomology_basis).__name__

                    def run(copy=copy, F=F, fn=fn):
                        return tuple(v.coeffs for v in getattr(bq.cohomology, fn)(copy, F))
                    ops.append(Op(f"{fn} {key} copy {copy_no} over {F.name()}", group, run))
                    meta.append((key, p, reduced, copy))

    def check(outputs):
        bad = _Failures()
        own: dict = {}

        def dims(key, p):
            if (key, p) not in own:
                own[(key, p)] = checks.h2_dimensions(table(key).tables, p or checks.Q_PRIME)
            return own[(key, p)]

        for i, (key, p, reduced, copy) in enumerate(meta):
            dim = dims(key, p)[1 if reduced else 0]
            bad.add(i, checks.check_basis(copy.tables, list(outputs[i]), p, dim, reduced))
            if p and not reduced and len(outputs[i]) < dims(key, None)[0]:
                bad.add(i, f"dim H^2 over Z{p} is below the dimension over Q")
        return bad

    return Plan(ops, check)


# ---------------------------------------------------------------------------
# propagation: table completions and the order-2 census (group a), and
# oracle colorings (group b).

BLANKS = {"UP": (0, 2), "DOWN": (1, 3)}  # UP+UPBAR or DOWN+DOWNBAR
COMPLETIONS = (("kishinoT", "UP"), ("kishinoT", "DOWN"), ((4, 3, 3), "UP"),
               ((4, 1, 3), "DOWN"), ((5, 2, 2), "DOWN"))
ORACLE_CODE_SEED = 0
ORACLE_RANDOM_CODES = 8


def setup_propagation(bq, seed: int, root: str) -> Plan:
    rng = random.Random(seed)
    ops, meta = [], []

    ops.append(Op("enumerate_biquandles(2)", "a",
                  lambda: tuple(T.tables for T in bq.search.enumerate_biquandles(2))))
    meta.append(("census",))
    for key, blank in COMPLETIONS:
        T = (bq.core.read_biquandle(_data(root, "kishinoT.bq")) if key == "kishinoT"
             else bq.core.alexander_biquandle(*key))
        for copy_no in (1, 2):
            perm = inputs.permutation(rng, T.n)
            copy = inputs.relabel_tables(T.tables, perm)
            partial = bq.search.PartialBiquandle.from_biquandle(bq.core.Biquandle(copy))
            for k in BLANKS[blank]:
                partial.tables[k] = [[0] * T.n for _ in range(T.n)]

            def run(partial=partial):
                return tuple(S.tables for S in bq.search.complete_partial(partial))
            ops.append(Op(f"complete {key} {blank} copy {copy_no}", "a", run))
            meta.append(("complete", (key, blank), perm, copy, BLANKS[blank]))

    # The oracle's cost swings by orders of magnitude between codes, so its
    # code set is fixed; the seed only relabels the tables.
    code_rng = random.Random(ORACLE_CODE_SEED)
    texts = [(name, _data(root, name + ".gauss"))
             for name in inputs.SHIPPED_CODES if name != "conway"]
    for i in range(ORACLE_RANDOM_CODES):
        texts.append((f"random{i}", inputs.code_text(
            inputs.random_code(code_rng, 5, 1 + i % 2))))
    tables = [(bq.core.read_biquandle(_data(root, "kishinoT.bq")), None),
              (bq.core.alexander_biquandle(5, 2, 3), (5, 2, 3))]
    for T, alex in tables:
        copy = bq.core.Biquandle(inputs.relabel_tables(T.tables, inputs.permutation(rng, T.n)))
        for name, text in texts:
            code = bq.gauss.parse_gauss_code(text)

            def run(code=code, copy=copy):
                return tuple(bq.coloring.enumerate_colorings_oracle(code, copy))
            ops.append(Op(f"oracle {name} x order {T.n}", "b", run))
            meta.append(("oracle", code, copy, inputs.crossing_structure(
                inputs.parse_code_text(text)), alex))

    def check(outputs):
        bad = _Failures()
        first_copy = {}
        for i, m in enumerate(meta):
            out = outputs[i]
            if m[0] == "census":
                own = checks.all_biquandles(2)
                if sorted(out) != sorted(own):
                    bad.add(i, f"{len(out)} biquandles of order 2, brute force finds {len(own)}")
                for tables in out:
                    bad.add(i, checks.switch_problem(tables))
            elif m[0] == "complete":
                _kind, job, perm, copy, blanked = m
                if copy not in out:
                    bad.add(i, "the seed table is not among its completions")
                for tables in out:
                    if any(tables[k] != copy[k] for k in range(4) if k not in blanked):
                        bad.add(i, "a completion changes a fixed cell")
                    bad.add(i, checks.switch_problem(tables))
                if job not in first_copy:
                    first_copy[job] = (i, perm)
                    continue
                j, perm1 = first_copy[job]
                # map the first copy's completions onto this copy's labels
                to_here = [0] * len(perm)
                for a in range(1, len(perm) + 1):
                    to_here[perm1[a - 1] - 1] = perm[a - 1]
                mapped = sorted(inputs.relabel_tables(t, to_here) for t in outputs[j])
                if len(out) != len(outputs[j]) or mapped != sorted(out):
                    bad.add(i, f"{len(out)} completions, {len(outputs[j])} before relabelling")
            else:
                _kind, code, copy, (arcs, crossings), alex = m
                scan = tuple(bq.coloring.enumerate_colorings(code, copy))
                if out != scan:
                    bad.add(i, f"oracle found {len(out)} colorings, reduced scan {len(scan)}")
                for col in out:
                    bad.add(i, checks.coloring_problem(col, crossings, copy.tables))
                if alex and len(out) != checks.alexander_coloring_count(arcs, crossings, *alex):
                    bad.add(i, "oracle count differs from the linear count")
        return bad

    return Plan(ops, check)


# ---------------------------------------------------------------------------
# cli: fresh `python -m biquandles` processes, one after another.

CLI_REPEATS = 3


def setup_cli(bq, seed: int, root: str) -> Plan:
    rng = random.Random(seed)
    work = os.path.join(root, ".bench_out", f"cli-seed{seed}")
    os.makedirs(work, exist_ok=True)
    files = {}
    for name, params in (("coh", (7, 3, 5)), ("col", (7, 2, 3))):
        T = bq.core.alexander_biquandle(*params)
        copy = bq.core.Biquandle(inputs.relabel_tables(T.tables, inputs.permutation(rng, 7)))
        path = os.path.join(work, f"{name}.bq")
        with open(path, "w") as fh:
            fh.write(bq.core.write_biquandle(copy))
        files[name] = (path, copy)
    data = lambda name: os.path.join(root, "data", name)
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    commands = {
        "suite": ["suite", "--code", data("kishino.gauss"), "--biquandle", data("kishinoT.bq")],
        "cohomology": ["cohomology", "--field", "Zp:7", "--biquandle", files["coh"][0]],
        "colorings_jobs1": ["colorings", "--count-only", "--code", data("conway.gauss"),
                            "--biquandle", files["col"][0], "--jobs", "1"],
        "colorings_jobs2": ["colorings", "--count-only", "--code", data("conway.gauss"),
                            "--biquandle", files["col"][0], "--jobs", "2"],
        "invariant": ["invariant", "--code", data("kishino.gauss"),
                      "--biquandle", data("kishinoT.bq"), "--cocycle", data("phi1.cyc")],
        "validate": ["validate", "--biquandle", files["col"][0]],
    }

    def invoke(args):
        done = subprocess.run([sys.executable, "-m", "biquandles"] + args, env=env,
                              cwd=root, capture_output=True, text=True, timeout=120)
        return done.returncode, done.stdout

    ops, kinds = [], []
    for _repeat in range(CLI_REPEATS):
        for kind, args in commands.items():
            pool = kind == "colorings_jobs2"
            ops.append(Op(f"cli {kind}", "b" if pool else "a", lambda args=args: invoke(args),
                          span=f"cli.{kind}", processes=2 if pool else 1))
            kinds.append(kind)
    extra = [Op("cli startup", "a", lambda: invoke(["--help"]), span="cli.startup")]

    conway = inputs.crossing_structure(inputs.parse_code_text(_data(root, "conway.gauss")))
    coh_tables = files["coh"][1].tables
    expected = {
        "suite": "".join(f"phi[{k}]: {v}\n" for k, v in enumerate(KISHINO_VALUES, start=1)),
        "colorings_jobs1": f"{checks.alexander_coloring_count(*conway, 7, 2, 3)}\n",
        "invariant": KISHINO_VALUES[0] + "\n",
        "validate": "ok\n",
    }
    expected["colorings_jobs2"] = expected["colorings_jobs1"]

    def check(outputs):
        bad = _Failures()
        for i, kind in enumerate(kinds):
            code, out = outputs[i]
            if code != 0:
                bad.add(i, f"{kind} exited with {code}")
            if kind in expected and out != expected[kind]:
                bad.add(i, f"{kind} printed {out!r}")
            if kind == "cohomology":
                bad.add(i, _cli_cohomology_problem(out, coh_tables))
        return bad

    return Plan(ops, check, uses_children=True, trace_extra=extra)


def _cli_cohomology_problem(out: str, tables) -> str | None:
    lines = out.splitlines()
    head = "reduced H^2 dimension "
    if not lines or not lines[0].startswith(head) or not lines[0].endswith(" over Zp:7"):
        return f"cohomology printed {out!r}"
    dim = int(lines[0][len(head):].split()[0])
    vectors = []
    for k, line in enumerate(lines[1:], start=1):
        prefix = f"phi[{k}] = "
        if not line.startswith(prefix):
            return f"unexpected line {line!r}"
        vectors.append(checks.parse_chi(line[len(prefix):], len(tables[0]), 7))
    own = checks.h2_dimensions(tables, 7)[1]
    if dim != own:
        return f"dimension {dim}, own elimination gives {own}"
    return checks.check_basis(tables, vectors, 7, own, reduced=True)


WORKLOADS = {
    "invariants": setup_invariants,
    "cohomology": setup_cohomology,
    "propagation": setup_propagation,
    "cli": setup_cli,
}
