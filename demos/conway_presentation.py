"""From Gauss code to presentation to state sum, on a 22-semi-arc example.

A code with n crossings has 2n semi-arcs, 2n generators, and 2n relations;
Tietze reduction eliminates generators until every remaining relation
genuinely constrains the survivors.  The coloring scan then backtracks over
survivor assignments only: at most 4^5 = 1024 candidates instead of 4^22.
Substitution leaves the five reduced relations as trees of 811 nodes, but
the scan never walks them: it colors each of the 17 eliminated semi-arcs
by one lookup through its own crossing relation and checks the 5
relations isolating a survivor the same way, so 22 lookups per full
assignment of the survivors instead of one per tree node.

Run from the repository root:  python3 demos/conway_presentation.py
"""

import pathlib

from biquandles.coloring import enumerate_colorings
from biquandles.core import read_biquandle
from biquandles.gauss import parse_gauss_code
from biquandles.invariant import yb_invariant_suite
from biquandles.linalg import FieldSpec
from biquandles.presentation import (format_relation, knot_presentation,
                                     reduce_presentation)

DATA = pathlib.Path(__file__).resolve().parent.parent / "data"


def main():
    code = parse_gauss_code((DATA / "conway.gauss").read_text())
    pres = knot_presentation(code)
    print(f"{code.n_crossings} crossings, {code.n_semi_arcs} semi-arcs")
    print("\nfirst relations read off the crossings:")
    for r in pres.relations[:5]:
        print("  " + format_relation(r))
    print(f"  ... ({len(pres.relations)} in total)")

    reduced = reduce_presentation(pres)
    print(f"\nsurviving generators after reduction: {list(reduced.generators)}")

    T = read_biquandle((DATA / "kishinoT.bq").read_text())
    cols = enumerate_colorings(code, T)
    print(f"\ncolorings by the 4-element table: {len(cols)}")

    print("state sums for the reduced basis:")
    for k, (_phi, value) in enumerate(yb_invariant_suite(code, T,
                                                         FieldSpec.from_name("Q")),
                                      start=1):
        print(f"  phi[{k}]: {value}")
    print("(all colorings land on t^0: this knot looks trivial to these"
          " cocycles, unlike the Kishino example)")


if __name__ == "__main__":
    main()
