"""Yang-Baxter 2-cocycle state-sum invariants of virtual knots and links.

Each coloring of a code by a valid biquandle contributes one signed sum of
cocycle values: +phi(under_in, over_in) at a positive crossing and
-phi(under_out, over_out) at a negative one, undercrossing color first.
The invariant is the multiset of these sums, read as exponents of t; the
zero cocycle recovers the counting invariant as N * t^0.

The sums run on ints: each cocycle is scaled once into an int table, over
Q by the lcm m of its denominators (_scaled; the suite keeps each basis
cocycle's table in its _suite_basis entry), and each distinct sum s becomes
Fraction(s, m) over Q or s % p over Z_p once.  The crossings and the
colorings come from the search plan the code keeps (coloring.search_plan,
read by checked_search and scan_code): a code's reduction and compiled scan
are worked out once however many tables and cocycles evaluate it, and no
presentation word is built.
"""

from __future__ import annotations

import functools
import warnings
from collections import Counter
from fractions import Fraction
from math import lcm

from .cohomology import (Cochain2, _check_size, is_cocycle, is_ri_reduced,
                         reduced_cohomology_basis)
from .coloring import checked_search, scan_code, search_plan
from .core import Biquandle, Record, setfield
from .gauss import GaussCode
from .linalg import FieldSpec


class LaurentMultiset(Record):
    """Multiset of exponents of t, stored as exponent -> multiplicity."""

    __slots__ = ("terms",)

    def __init__(self, terms: tuple):  # ((exponent, multiplicity), ...) sorted by exponent
        setfield(self, "terms", terms)

    @staticmethod
    def from_exponents(exponents) -> "LaurentMultiset":
        counts: dict = {}
        for e in exponents:
            counts[e] = counts.get(e, 0) + 1
        return LaurentMultiset(tuple(sorted(counts.items())))

    def as_dict(self) -> dict:
        return dict(self.terms)

    @property
    def size(self) -> int:
        return sum(m for _e, m in self.terms)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, m in self.terms:
            if e == 0:
                parts.append(f"{m}")
            elif e == 1:
                parts.append(f"{m}*t")
            else:
                parts.append(f"{m}*t^{e}")
        return " + ".join(parts)


def _scaled(phi: Cochain2) -> tuple[tuple[int, ...], int | None, int]:
    """(table, p, m): phi's int table holds m * phi(x, y) at x * n + y, then
    its negated copy, so one index per crossing carries its sign; p is the
    field's modulus (None over Q) and m the scale."""
    p, coeffs, m = phi.field.p, phi.coeffs, 1
    if not p:
        m = lcm(*[c.denominator for c in coeffs])
        coeffs = [c.numerator * (m // c.denominator) for c in coeffs]
    table = [0] * (phi.n + 1) + list(coeffs)
    return tuple(table + [-v for v in table]), p, m


def _state_sums(crossings, n: int, scaled, colorings) -> list[list[int]]:
    """Per _scaled table, the int state sum of each coloring, whose indices
    are read once for all tables."""
    reads = [(x.under_in - 1, x.over_in - 1, 0) if x.sign > 0 else
             (x.under_out - 1, x.over_out - 1, n * n + n + 1) for x in crossings]
    indices = [[col[a] * n + col[b] + off for a, b, off in reads] for col in colorings]
    return [[sum(map(table.__getitem__, at)) for at in indices] for table, _p, _m in scaled]


def boltzmann_sum(code: GaussCode, T: Biquandle, phi: Cochain2, coloring) -> object:
    """Signed sum of cocycle values over the crossings of one coloring, on
    ints as the module docstring says: a Fraction over Q, an int in 0..p-1
    over Z_p.  coloring is indexable by semi-arc - 1 (as returned by
    enumerate_colorings).  Errors if phi is over another number of elements
    than T, then if coloring is not a coloring of code by T."""
    _check_size(T, phi)
    crossings, relations, _survivors = search_plan(code)
    tables, arcs = T.padded, code.n_semi_arcs
    if len(coloring) != arcs or not all(isinstance(c, int) and 0 < c <= T.n for c in coloring) \
            or any(tables[kind][coloring[a - 1]][coloring[b - 1]] != coloring[out - 1]
                   for out, kind, a, b in relations):
        raise ValueError(f"not a coloring of the {arcs} semi-arcs by 1..{T.n}")
    _table, p, m = scaled = _scaled(phi)
    s = _state_sums(crossings, T.n, [scaled], [coloring])[0][0]
    return s % p if p else Fraction(s, m)


def _invariants(code: GaussCode, T: Biquandle, search, scaled) -> list[LaurentMultiset]:
    """The state-sum invariant of each _scaled cocycle, from one scan of
    the colorings over search = checked_search(code, T); no checks."""
    colorings = scan_code(code, T)
    out = []
    for sums, (_table, p, m) in zip(_state_sums(search[0], T.n, scaled, colorings), scaled):
        if p:
            terms = sorted(Counter(s % p for s in sums).items())
        else:  # m > 0, so Fraction(s, m) keeps the order of s
            terms = [(Fraction(s, m), k) for s, k in sorted(Counter(sums).items())]
        out.append(LaurentMultiset(tuple(terms)))
    return out


def yb_invariant(code: GaussCode, T: Biquandle, phi: Cochain2) -> LaurentMultiset:
    """State-sum invariant for one cocycle.

    Errors if the search is over the candidate cap, then if T is invalid
    or phi fails the cocycle condition; warns if phi is not RI-reduced
    (the result is then only an invariant of framed moves).
    """
    search = checked_search(code, T)
    if not is_cocycle(T, phi):
        raise ValueError("cochain is not a cocycle")
    if not is_ri_reduced(T, phi):
        warnings.warn("cocycle is not RI-reduced; the state sum may change "
                      "under first Reidemeister moves")
    return _invariants(code, T, search, [_scaled(phi)])[0]


def yb_invariant_suite(code: GaussCode, T: Biquandle,
                       field: FieldSpec) -> list[tuple[Cochain2, LaurentMultiset]]:
    """The invariant for every reduced-cohomology basis cocycle.

    The basis depends on the table and field only, so it is computed once
    per (T, field) per process (see _suite_basis) and each call pays only
    for its code.  Basis cocycles are cocycles and RI-reduced by
    construction, so they are not checked again; the colorings are
    enumerated once for all of them, and not at all for an empty basis.
    """
    search = checked_search(code, T)
    basis = _suite_basis(T, field)
    if not basis:
        return []
    values = _invariants(code, T, search, [scaled for _phi, scaled in basis])
    return [(phi, value) for (phi, _s), value in zip(basis, values)]


@functools.lru_cache(maxsize=16)
def _suite_basis(T: Biquandle, field: FieldSpec) -> tuple[tuple[Cochain2, tuple], ...]:
    """(phi, _scaled(phi)) per reduced_cohomology_basis(T, field) cocycle,
    kept for the suite's next call.

    Biquandle and FieldSpec are frozen records that hash and compare by
    their fields (the nested table tuples, the modulus), so equal tables
    read from two files share one entry; the frozen cocycles and int tuples
    are safe to hand to every caller.  The size bound keeps a process that
    walks many tables from holding every basis it ever computed.
    """
    return tuple((phi, _scaled(phi)) for phi in reduced_cohomology_basis(T, field))
