import functools
import math
import pathlib
import random

import pytest

from biquandles.cohomology import Cochain2
from biquandles.core import (Biquandle, BlockConvention, Record, alexander_biquandle,
                             read_biquandle, setfield)
from biquandles.gauss import parse_gauss_code
from biquandles.linalg import FieldSpec, RankTracker, _axpy
from biquandles.search import PartialBiquandle, TableSearch

DATA = pathlib.Path(__file__).resolve().parent.parent / "data"

# populated by tests/test_acceptance.py, printed after the run
ACCEPTANCE_RESULTS: list[tuple[str, bool, str]] = []


@pytest.fixture(scope="session")
def data_dir() -> pathlib.Path:
    return DATA


@pytest.fixture(scope="session")
def kishino_T() -> Biquandle:
    return read_biquandle((DATA / "kishinoT.bq").read_text(),
                          BlockConvention.DEFINITION)


@pytest.fixture(scope="session")
def kishino_code():
    return parse_gauss_code((DATA / "kishino.gauss").read_text())


@pytest.fixture(scope="session")
def trefoil_code():
    return parse_gauss_code((DATA / "trefoil.gauss").read_text())


@pytest.fixture(scope="session")
def conway_code():
    return parse_gauss_code((DATA / "conway.gauss").read_text())


@pytest.fixture(scope="session")
def link_code():
    return parse_gauss_code((DATA / "link-two-component.gauss").read_text())


@pytest.fixture(scope="session")
def unknot_code():
    return parse_gauss_code((DATA / "unknot.gauss").read_text())


def make_random_code(rng: random.Random, crossings: int, components: int = 1):
    """A seeded random signed Gauss code.

    The passages of all crossings (one over, one under each) are shuffled,
    every crossing gets a random sign, and the sequence is cut into
    nonempty components.  Every such code is a virtual knot diagram.
    """
    passages = [(x, over) for x in range(1, crossings + 1) for over in (True, False)]
    rng.shuffle(passages)
    signs = {x: rng.choice((1, -1)) for x in range(1, crossings + 1)}
    cuts = sorted(rng.sample(range(1, 2 * crossings), components - 1))
    bounds = [0] + cuts + [2 * crossings]
    tokens = []
    for lo, hi in zip(bounds, bounds[1:]):
        for x, over in passages[lo:hi]:
            token = str(x) if over else f"-{x}"
            if signs[x] < 0:
                token += "+I" if over else "-I"
            tokens.append(token)
        tokens.append("0")
    return parse_gauss_code(",".join(tokens))


def relabel(T, perm):
    """T with every element x renamed perm[x - 1]."""
    n = T.n
    tables = [[[0] * n for _ in range(n)] for _ in range(4)]
    for k in range(4):
        for a in range(n):
            for b in range(n):
                tables[k][perm[a] - 1][perm[b] - 1] = perm[T.tables[k][a][b] - 1]
    return Biquandle.from_tables(*tables)


def random_alexander(rng: random.Random, n: int) -> Biquandle:
    """A seeded Alexander table of order n with unit parameters s, t,
    relabelled by a seeded permutation."""
    units = [u for u in range(1, n) if math.gcd(u, n) == 1] or [1]
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return relabel(alexander_biquandle(n, rng.choice(units), rng.choice(units)), perm)


@pytest.fixture(scope="session")
def random_code():
    return make_random_code


def reference_state_sum(crossings, n: int, phi, coloring):
    """The state sum of one coloring in the cocycle's field arithmetic, one
    crossing at a time: +phi(under_in, over_in) at a positive crossing,
    -phi(under_out, over_out) at a negative one.  The package sums on
    scaled ints instead and must agree, exponent types included."""
    F, coeffs = phi.field, phi.coeffs
    total = F.zero()
    for x in crossings:
        if x.sign > 0:
            total = F.add(total, coeffs[(coloring[x.under_in - 1] - 1) * n
                                        + coloring[x.over_in - 1] - 1])
        else:
            total = F.sub(total, coeffs[(coloring[x.under_out - 1] - 1) * n
                                        + coloring[x.over_out - 1] - 1])
    return total


class Cochain1(Record):
    """A 1-cochain: one field value per element."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FieldSpec, coeffs: tuple):
        setfield(self, "field", field)
        setfield(self, "coeffs", coeffs)

    @property
    def n(self) -> int:
        return len(self.coeffs)


def coboundary_of(T: Biquandle, lam: Cochain1) -> Cochain2:
    """(d lam)(x, y) = lam(x) + lam(y) - lam(x^y) - lam(y_x), one pair at a
    time in the field's arithmetic: the reference the package's one
    coboundary span (cohomology._coboundary_span) is checked against."""
    F = lam.field
    n = T.n
    coeffs = []
    for x in range(1, n + 1):
        for y in range(1, n + 1):
            s = F.add(lam.coeffs[x - 1], lam.coeffs[y - 1])
            s = F.sub(s, lam.coeffs[T.up(x, y) - 1])
            s = F.sub(s, lam.coeffs[T.down(y, x) - 1])
            coeffs.append(s)
    return Cochain2(F, tuple(coeffs))


def reference_cocycle_rows(T: Biquandle) -> list[dict]:
    """The rows of the cocycle matrix, one triple (x, y, z) at a time in
    lexicographic order, each of its six contributions accumulated in turn:
    the reference cohomology.cocycle_matrix's per-(x, y) blocks are checked
    against."""
    n = T.n
    up, down = T.tables[0], T.tables[1]  # 0-based rows of 1-based elements
    rows = []
    for x in range(n):
        for y in range(n):
            xy, yx = up[x][y] - 1, down[y][x] - 1
            for z in range(n):
                zy, zxy = down[z][y] - 1, down[z][xy] - 1
                row: dict[int, int] = {}
                for k, delta in ((x * n + y, 1), (xy * n + z, 1), (yx * n + zxy, 1),
                                 (x * n + zy, -1), (y * n + z, -1),
                                 ((up[x][zy] - 1) * n + up[y][z] - 1, -1)):
                    row[k] = row.get(k, 0) + delta
                rows.append({k: c for k, c in row.items() if c})
    return rows


def eval_word(w, T: Biquandle, assignment: dict[int, int]) -> int:
    """Evaluate a presentation word in T under a generator assignment, by
    recursion on the word: the reference the coloring scan's table lookups
    are checked against."""
    if isinstance(w, int):
        try:
            return assignment[w]
        except KeyError:
            raise ValueError(f"generator {w} unassigned") from None
    u = eval_word(w.left, T, assignment)
    v = eval_word(w.right, T, assignment)
    return T.tables[w.kind][u - 1][v - 1]


def reference_scan(T: Biquandle, staging, arcs: int) -> list[tuple[int, ...]]:
    """The colorings of semi-arcs 1..arcs by T, found by interpreting a
    coloring._stage result: the reference the kernels that
    coloring._compile generates are checked against."""
    # Backtrack in staged order on a stack of one value iterator per level,
    # so a long chain of survivors needs no recursion.  Level i assigns
    # survivor i, looks up the colors (and survivor relations' left sides)
    # it completes, then checks the survivor relations it completes.
    order, steps, checks, n_slots = staging
    tables = T.padded
    levels = [(g, [(dst, tables[kind], a, b) for dst, kind, a, b in step], check)
              for g, step, check in zip(order, steps, checks)]
    k = len(levels)
    values = range(1, T.n + 1)
    val = [0] * n_slots
    if not k:
        return [tuple(val[1:arcs + 1])]
    found = []
    stack = [iter(values)]
    while stack:
        slot, lookups, tests = levels[len(stack) - 1]
        for v in stack[-1]:
            val[slot] = v
            for dst, tab, a, b in lookups:
                val[dst] = tab[val[a]][val[b]]
            for w, r in tests:
                if val[w] != val[r]:
                    break
            else:
                if len(stack) == k:
                    found.append(tuple(val[1:arcs + 1]))
                else:
                    stack.append(iter(values))
                    break  # descend; this level resumes where it stopped
        else:
            stack.pop()
    found.sort()
    return found


class ReferenceTracker(RankTracker):
    """A RankTracker over GF(p), p >= 3, that reduces each row as a dict
    by one _axpy per stored pivot: the reference the dense accumulator
    of RankTracker._insert is checked against."""

    def _insert(self, items) -> bool:
        p = self.field.p
        coerce = self.field.coerce  # an int goes into GF(p) by one remainder
        w = {c: y for c, x in items if x and (y := x % p if type(x) is int else coerce(x))}
        rows = self._rows
        # Stored rows are 0 at each other's pivots, so one pass clears every pivot of w.
        for c in [c for c in w if c in rows]:
            _axpy(w, w[c], rows[c], p)
        if not w:
            return False
        lead = min(w)
        inv = self.field.inv(w[lead])
        if inv != 1:
            w = {c: x * inv % p for c, x in w.items()}
        # w is 0 at every stored pivot, and a stored row that is nonzero at lead
        # has its pivot left of lead, so clearing lead keeps every row reduced.
        for row in rows.values():
            f = row.get(lead)
            if f:
                _axpy(row, f, w, p)
        rows[lead] = w
        return True


def count_calls(monkeypatch, *targets) -> dict[str, int]:
    """{name: calls} of each (module, name) function, counted from now on."""
    calls = {}
    for module, name in targets:
        real = getattr(module, name)
        calls[name] = 0

        def counted(*args, real=real, name=name):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(module, name, counted)
    return calls


class LeafSearch(TableSearch):
    """A table search that keeps every complete table it reaches."""

    def __init__(self, P):
        super().__init__(P)
        self.leaves = []

    def _descend(self):
        if 0 not in self.val[:self.cells]:
            self.leaves.append(self.to_biquandle())
        super()._descend()


def _finished_blank_search(n: int) -> LeafSearch:
    search = LeafSearch(PartialBiquandle.blank(n))
    search.run()
    return search


@pytest.fixture(scope="session")
def blank_search():
    """blank_search(n): a finished LeafSearch of the blank order-n table,
    run once per order for the whole session (order 4 takes about ten
    seconds).  Its found, leaves and nodes are shared, so read only."""
    return functools.cache(_finished_blank_search)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for name, ok, detail in ACCEPTANCE_RESULTS:
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"{status}: {name} ({detail})")
