"""Acceptance gate: one timed test per shipped promise.

Each test records a (criterion, pass/fail, detail) line that the conftest
hook prints in the terminal summary, then asserts it, so a plain pytest run
both enforces and displays every guarantee.
"""

import itertools
import math
import random
import subprocess
import sys
import time

import conftest
from conftest import Cochain1, coboundary_of

from biquandles.cohomology import (Cochain2, CochainClass, classify_cochain,
                                   is_cocycle, is_ri_reduced, read_cochain,
                                   reduced_cohomology_basis, zero_cochain)
from biquandles.coloring import (counting_invariant, enumerate_colorings,
                                 enumerate_colorings_oracle)
from biquandles.core import (Biquandle, alexander_biquandle,
                             validate_biquandle)
from biquandles.gauss import insert_r_move, parse_gauss_code
from biquandles.invariant import yb_invariant, yb_invariant_suite
from biquandles.linalg import FieldSpec
from biquandles.presentation import (format_relation, knot_presentation,
                                     reduce_presentation)
from biquandles.search import enumerate_biquandles

Q = FieldSpec.from_name("Q")

CONWAY_RELATIONS = [
    "1^16=2", "2_15=3", "3_8=4", "4^9=5", "5_22=6", "6^-11=7", "7_-20=8",
    "8^3=9", "9_4=10", "10^-21=11", "11_-6=12", "12_-17=13", "13^-18=14",
    "14_-19=15", "15^2=16", "16_1=17", "17^-12=18", "18_-13=19", "19^-14=20",
    "20^-7=21", "21_-10=22", "22^5=1",
]


def check(name, fn):
    try:
        ok, detail = fn()
    except Exception as e:
        conftest.ACCEPTANCE_RESULTS.append((name, False, f"raised {e!r}"))
        raise
    conftest.ACCEPTANCE_RESULTS.append((name, bool(ok), detail))
    assert ok, f"{name}: {detail}"


def test_criterion_1_kishino_state_sums(kishino_code, kishino_T, data_dir):
    def body():
        t0 = time.perf_counter()
        phi1 = read_cochain((data_dir / "phi1.cyc").read_text(), 4)
        phi2 = read_cochain((data_dir / "phi2.cyc").read_text(), 4)
        n = counting_invariant(kishino_code, kishino_T)
        v1 = yb_invariant(kishino_code, kishino_T, phi1)
        v2 = yb_invariant(kishino_code, kishino_T, phi2)
        dt = time.perf_counter() - t0
        ok = (n == 16
              and v1.as_dict() == {-1: 2, 0: 12, 1: 2}
              and v2.as_dict() == {-2: 2, 0: 12, 2: 2}
              and dt < 5.0)
        return ok, f"counting={n}, phi1={v1}, phi2={v2}, {dt:.2f}s"
    check("1 Kishino knot: counting 16, state sums 2t^-1+12+2t and 2t^-2+12+2t^2 in <5s", body)


def test_criterion_2_reduced_cohomology(kishino_T, data_dir):
    def body():
        t0 = time.perf_counter()
        basis = reduced_cohomology_basis(kishino_T, Q)
        kinds = []
        for name in ("phi1.cyc", "phi2.cyc"):
            phi = read_cochain((data_dir / name).read_text(), 4)
            got = classify_cochain(kishino_T, phi)
            kinds.append((got.kind, got.ri_reduced))
        dt = time.perf_counter() - t0
        ok = (len(basis) == 2
              and kinds == [(CochainClass.NONTRIVIAL_COCYCLE, True)] * 2
              and dt < 5.0)
        return ok, f"dimension={len(basis)}, shipped cocycles={kinds[0][0].value}/{kinds[1][0].value} both RI-reduced, {dt:.2f}s"
    check("2 reduced H^2 over Q has dimension 2; both shipped cocycles are nontrivial and RI-reduced in <5s", body)


def test_criterion_3_unknot(unknot_code, kishino_T):
    def body():
        t0 = time.perf_counter()
        n = counting_invariant(unknot_code, kishino_T)
        suite = yb_invariant_suite(unknot_code, kishino_T, Q)
        dt = time.perf_counter() - t0
        ok = (n == 4
              and len(suite) == 2
              and all(v.as_dict() == {0: 4} for _phi, v in suite)
              and dt < 1.0)
        return ok, f"counting={n}, suite={[str(v) for _p, v in suite]}, {dt:.2f}s"
    check("3 unknot: counting 4 and every suite value 4*t^0 in <1s", body)


def test_criterion_4_conway_presentation(conway_code):
    def body():
        t0 = time.perf_counter()
        pres = knot_presentation(conway_code)
        relations = [format_relation(r) for r in pres.relations]
        survivors = list(reduce_presentation(pres).generators)
        dt = time.perf_counter() - t0
        ok = (relations == CONWAY_RELATIONS
              and survivors == [1, 8, 15, 16, 21]
              and dt < 5.0)
        return ok, f"22 relations verbatim={relations == CONWAY_RELATIONS}, survivors={survivors}, {dt:.2f}s"
    check("4 Conway knot: all 22 crossing relations verbatim and exactly 5 surviving generators in <5s", body)


def test_criterion_5_zero_cocycle_law(trefoil_code, link_code, kishino_code,
                                      kishino_T):
    def body():
        z = zero_cochain(4, Q)
        results = []
        for label, code in [("trefoil", trefoil_code), ("link", link_code),
                            ("kishino", kishino_code)]:
            n = counting_invariant(code, kishino_T)
            v = yb_invariant(code, kishino_T, z)
            results.append((label, n, v.as_dict() == {0: n}))
        ok = all(flag for _l, _n, flag in results)
        return ok, ", ".join(f"{l}: {n}*t^0 {'ok' if f else 'MISMATCH'}"
                             for l, n, f in results)
    check("5 zero cocycle reproduces the counting invariant on trefoil, link, Kishino", body)


def test_criterion_6_property_suite(kishino_code, kishino_T, data_dir):
    def body():
        t0 = time.perf_counter()
        rng = random.Random(20260814)
        phi2 = read_cochain((data_dir / "phi2.cyc").read_text(), 4)
        parts = []

        # (a) the coboundary of every 1-cochain is a cocycle, on every
        # biquandle of order <= 3
        small = [T for n in (1, 2, 3) for T in enumerate_biquandles(n)]
        square = all(
            is_cocycle(T, coboundary_of(T, Cochain1(Q, tuple(
                Q.coerce(rng.randrange(-9, 10)) for _ in range(T.n)))))
            for T in small for _ in range(3))
        parts.append(f"d2=0 on {len(small)} structures: {square}")

        # (b) shifting by 20 random coboundaries never moves the state sum
        base = yb_invariant(kishino_code, kishino_T, phi2)
        blind = True
        for _ in range(20):
            lam = Cochain1(Q, tuple(Q.coerce(rng.randrange(-9, 10))
                                    for _ in range(4)))
            shifted = Cochain2(Q, tuple(
                Q.add(a, b) for a, b in
                zip(phi2.coeffs, coboundary_of(kishino_T, lam).coeffs)))
            blind = blind and yb_invariant(kishino_code, kishino_T, shifted) == base
        parts.append(f"coboundary blind x20: {blind}")

        # (c) 10 random Reidemeister insertions leave the value alone
        moves = True
        for _ in range(10):
            kind = rng.choice(["R1+", "R1-", "R2"])
            if kind == "R2":
                site = ((0, rng.randrange(9)), (0, rng.randrange(9)))
                if site[0] == site[1]:
                    site = (site[0], (0, (site[1][1] + 1) % 9))
                moved = insert_r_move(kishino_code, "R2", site)
            else:
                moved = insert_r_move(kishino_code, kind, (0, rng.randrange(9)),
                                      under_first=rng.random() < 0.5)
            moves = moves and yb_invariant(moved, kishino_T, phi2) == base
        parts.append(f"R-move stable x10: {moves}")

        # (d) the two coloring strategies agree on every shipped code
        names = ["unknot", "trefoil", "kishino", "link-two-component", "conway"]
        agree = all(
            enumerate_colorings(c, kishino_T) == enumerate_colorings_oracle(c, kishino_T)
            for c in (parse_gauss_code((data_dir / f"{n}.gauss").read_text())
                      for n in names))
        parts.append(f"strategies agree on {len(names)} codes: {agree}")

        # (e) order-2 enumeration matches a 65536-candidate brute force
        brute = []
        for vals in itertools.product((1, 2), repeat=16):
            tables = tuple(((vals[4 * k], vals[4 * k + 1]),
                            (vals[4 * k + 2], vals[4 * k + 3]))
                           for k in range(4))
            T = Biquandle(tables)
            if validate_biquandle(T).ok:
                brute.append(T)
        matches = sorted(brute, key=lambda T: T.tables) == \
            sorted(enumerate_biquandles(2), key=lambda T: T.tables)
        parts.append(f"order-2 brute force ({len(brute)} found): {matches}")

        dt = time.perf_counter() - t0
        ok = square and blind and moves and agree and matches and dt < 600.0
        return ok, "; ".join(parts) + f"; {dt:.1f}s"
    check("6 property suite: d2=0, coboundary blindness, R-move stability, strategy agreement, order-2 census in <10min", body)


def test_criterion_7_alexander_family():
    def body():
        t0 = time.perf_counter()
        checked = 0
        bad = []
        for n in range(1, 9):
            units = [u for u in range(1, n + 1) if math.gcd(u, n) == 1]
            for s in units:
                for t in units:
                    if not validate_biquandle(alexander_biquandle(n, s, t)).ok:
                        bad.append((n, s, t))
                    checked += 1
        dt = time.perf_counter() - t0
        ok = not bad and dt < 60.0
        return ok, f"{checked} (n,s,t) tables valid, failures={bad}, {dt:.1f}s"
    check("7 every Alexander table with unit parameters is a valid biquandle for n<=8 in <1min", body)


def test_criterion_8_cli_determinism(data_dir):
    def body():
        t0 = time.perf_counter()
        base = [sys.executable, "-m", "biquandles"]
        commands = [
            (["suite", "--code", str(data_dir / "kishino.gauss"),
              "--biquandle", str(data_dir / "kishinoT.bq")], True),
            (["cohomology", "--biquandle", str(data_dir / "kishinoT.bq")], False),
            (["colorings", "--code", str(data_dir / "link-two-component.gauss"),
              "--biquandle", str(data_dir / "kishinoT.bq")], True),
            (["invariant", "--code", str(data_dir / "kishino.gauss"),
              "--biquandle", str(data_dir / "kishinoT.bq"),
              "--cocycle", str(data_dir / "phi2.cyc")], True),
        ]
        stable = True
        for cmd, has_jobs in commands:
            extras = [[], [], ["--jobs", "2"], ["--jobs", "3"]] if has_jobs \
                else [[], [], [], []]
            runs = [subprocess.run(base + cmd + extra, capture_output=True)
                    for extra in extras]
            outs = {(r.returncode, r.stdout) for r in runs}
            stable = stable and len(outs) == 1 and runs[0].returncode == 0
        dt = time.perf_counter() - t0
        ok = stable and dt < 60.0
        return ok, f"{len(commands)} commands x 4 runs byte-identical: {stable}, {dt:.1f}s"
    check("8 CLI output is byte-identical across repeats and --jobs settings", body)
