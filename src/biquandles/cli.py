"""Command-line interface.

Subcommands:
    validate    check a biquandle file against all axioms
    alexander   generate an Alexander biquandle table
    enumerate   write every biquandle of a given order to a directory
    cohomology  print a reduced 2-cocycle basis (and classify a given cochain)
    colorings   list or count colorings of a Gauss code
    invariant   evaluate the 2-cocycle state-sum invariant
    suite       invariant values for a whole reduced basis

Exit codes: 0 success, 1 domain error (invalid input data), 2 usage error.
A domain error is a ValueError (a file that fails to decode or to parse,
named in the message, or a table that fails validation), an OSError, a
SearchLimitError or a RecursionError.  It prints one "error:" line to
stderr; with
--porcelain it also prints {"error": "<message>"} as its only line of
stdout.  A warning prints as one "warning: <message>" line to stderr, when
it is raised.  With --porcelain, --show-presentation adds "presentation"
and "reduced" lists of lines to the JSON object (suite's list goes under
"results"), and cohomology --classify (read with the table) adds
"classification".  alexander and enumerate print the same text with
--porcelain as without it; only their domain errors become JSON.  The
code subcommands take one path from --code to a search: load the files,
then coloring.checked_search, then show the presentation, then compute;
so a large table's n^3 validation and suite's H^2 never delay the
refusal of a search over the candidate cap.
All output is deterministic.  --jobs is accepted for compatibility and
changes nothing: colorings run in one process.
Each subcommand imports only the modules it uses, so start-up pays for no
other subcommand.  Start-up imports neither dataclasses (the records are
plain slotted classes, core.Record) nor, without --porcelain, json.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings

from .core import BlockConvention, SearchLimitError, read_biquandle


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _convention(text: str) -> BlockConvention:
    try:
        return BlockConvention.from_name(text)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def _dump(obj, out) -> None:
    """One line of JSON, for --porcelain; only then is json imported."""
    import json
    out.write(json.dumps(obj) + "\n")


def _load(path: str, parse, *args):
    """parse(text, *args) on the file at path; a parse error, or text that
    does not decode, names the file."""
    with open(path) as fh:
        try:
            return parse(fh.read(), *args)
        except ValueError as e:  # a ParseError or a UnicodeDecodeError
            raise ValueError(f"{path}: {e}") from None


def _checked_search(args, out, T):
    """--code turned into a checked search of T, in the order the module
    docstring gives.  Returns (code, checked_search(code, T), shown), where
    shown holds the fields --porcelain --show-presentation adds."""
    from .coloring import checked_search
    from .gauss import parse_gauss_code
    code = _load(args.code, parse_gauss_code)
    search = checked_search(code, T)
    if not args.show_presentation:
        return code, search, {}
    from .presentation import format_presentation, knot_presentation, reduce_to
    pres, survivors = knot_presentation(code), search[2]
    shown = {"presentation": format_presentation(pres).splitlines(),
             "reduced": format_presentation(reduce_to(pres, survivors)[0]).splitlines()}
    if not args.porcelain:
        out.write("presentation:\n")
        out.writelines(f"  {line}\n" for line in shown["presentation"])
        out.write(f"reduced ({len(survivors)} generators):\n")
        out.writelines(f"  {line}\n" for line in shown["reduced"])
        shown = {}
    return code, search, shown


def _cmd_validate(args, out):
    T = _load(args.biquandle, read_biquandle, args.block_convention)
    report = T.validation
    if args.porcelain:
        _dump({"ok": report.ok, "failures": [list(f) for f in report.failures]}, out)
    else:
        out.write("ok\n" if report.ok else "invalid\n")
        for axiom, witness in report.failures:
            out.write(f"  axiom {axiom} fails at {witness}\n")
    return 0 if report.ok else 1


def _cmd_alexander(args, out):
    from .core import alexander_biquandle, write_biquandle
    T = alexander_biquandle(args.n, args.s, args.t)
    text = write_biquandle(T, args.block_convention)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        out.write(text)
    return 0


def _cmd_enumerate(args, out):
    from .core import write_biquandle
    from .search import ENUMERATION_LIMIT, enumerate_biquandles
    limit = ENUMERATION_LIMIT if args.limit is None else args.limit
    structures = enumerate_biquandles(args.n, limit=limit)
    os.makedirs(args.output_dir, exist_ok=True)
    width = max(4, len(str(len(structures))))
    for i, T in enumerate(structures, start=1):
        name = os.path.join(args.output_dir, f"{i:0{width}d}.bq")
        with open(name, "w") as fh:
            fh.write(write_biquandle(T, args.block_convention))
    out.write(f"{len(structures)} biquandles of order {args.n}\n")
    return 0


def _cmd_cohomology(args, out):
    from .cohomology import (classify_cochain, format_cochain, read_cochain,
                             reduced_cohomology_basis, write_cochain)
    from .linalg import FieldSpec
    field = FieldSpec.from_name(args.field)
    T = _load(args.biquandle, read_biquandle, args.block_convention)
    given = _load(args.classify, read_cochain, T.n) if args.classify else None
    if not T.is_valid:
        raise ValueError("biquandle fails validation")
    basis = reduced_cohomology_basis(T, field)
    result = classify_cochain(T, given) if given else None
    if args.porcelain:
        payload = {"field": field.name(), "dimension": len(basis),
                   "basis": [{f"{x} {y}": str(c) for x, y, c in phi.nonzero()}
                             for phi in basis]}
        if result:
            payload["classification"] = {"kind": result.kind.value,
                                         "ri_reduced": result.ri_reduced}
        _dump(payload, out)
    else:
        out.write(f"reduced H^2 dimension {len(basis)} over {field.name()}\n")
        for k, phi in enumerate(basis, start=1):
            out.write(f"phi[{k}] = {format_cochain(phi)}\n")
        if result:
            out.write(f"classification: {result.kind.value}"
                      f"{' (RI-reduced)' if result.ri_reduced else ''}\n")
    if args.output_dir:
        os.makedirs(args.output_dir, exist_ok=True)
        for k, phi in enumerate(basis, start=1):
            with open(os.path.join(args.output_dir, f"phi{k}.cyc"), "w") as fh:
                fh.write(write_cochain(phi))
    return 0


def _cmd_colorings(args, out):
    from .coloring import scan_code
    T = _load(args.biquandle, read_biquandle, args.block_convention)
    code, _search, shown = _checked_search(args, out, T)
    cols = scan_code(code, T)
    if args.porcelain:
        _dump({**shown, "count": len(cols), "colorings": [list(c) for c in cols]}, out)
        return 0
    if args.count_only:
        out.write(f"{len(cols)}\n")
        return 0
    out.write(f"{len(cols)} colorings\n")
    for c in cols:
        out.write(" ".join(f"{arc}:{elt}" for arc, elt in enumerate(c, start=1)) + "\n")
    return 0


def _cmd_invariant(args, out):
    from .cohomology import read_cochain
    from .invariant import yb_invariant
    T = _load(args.biquandle, read_biquandle, args.block_convention)
    phi = _load(args.cocycle, read_cochain, T.n)
    code, _search, shown = _checked_search(args, out, T)
    value = yb_invariant(code, T, phi)
    if args.porcelain:
        _dump({**shown, "terms": [[str(e), m] for e, m in value.terms]}, out)
    else:
        out.write(str(value) + "\n")
    return 0


def _cmd_suite(args, out):
    from .cohomology import format_cochain
    from .invariant import yb_invariant_suite
    from .linalg import FieldSpec
    field = FieldSpec.from_name(args.field)
    T = _load(args.biquandle, read_biquandle, args.block_convention)
    code, _search, shown = _checked_search(args, out, T)
    results = yb_invariant_suite(code, T, field)
    if args.porcelain:
        payload = [{"cocycle": format_cochain(phi),
                    "terms": [[str(e), m] for e, m in ms.terms]}
                   for phi, ms in results]
        # with the presentation, the list goes into one object beside it
        _dump({**shown, "results": payload} if shown else payload, out)
    else:
        for k, (phi, ms) in enumerate(results, start=1):
            out.write(f"phi[{k}]: {ms}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biquandles",
        description="finite biquandles, Yang-Baxter cohomology, and "
                    "cocycle state-sum invariants of virtual knots")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, code=False, biquandle=False, field=False, jobs=False):
        p.add_argument("--block-convention", type=_convention,
                       default=BlockConvention.DEFINITION,
                       metavar="{definition|listing}",
                       help="which operations the four table blocks hold")
        p.add_argument("--porcelain", action="store_true",
                       help="machine-readable JSON output")
        if code:
            p.add_argument("--code", required=True, help="Gauss code file")
            p.add_argument("--show-presentation", action="store_true",
                           help="print the derived presentation first")
        if biquandle:
            p.add_argument("--biquandle", required=True, help="biquandle table file")
        if field:
            p.add_argument("--field", default="Q",
                           metavar="{Q|Zp:<prime>}", help="coefficient field")
        if jobs:
            p.add_argument("--jobs", type=_positive_int, default=1,
                           help="accepted; colorings run in one process")

    p = sub.add_parser("validate", help="check a biquandle file")
    common(p, biquandle=True)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("alexander", help="generate an Alexander biquandle")
    p.add_argument("n", type=int)
    p.add_argument("s", type=int)
    p.add_argument("t", type=int)
    p.add_argument("-o", "--output", help="write table here instead of stdout")
    common(p)
    p.set_defaults(func=_cmd_alexander)

    p = sub.add_parser("enumerate", help="enumerate all biquandles of an order")
    p.add_argument("n", type=int)
    p.add_argument("-o", "--output-dir", required=True)
    p.add_argument("--limit", type=_positive_int,
                   help="largest order accepted")
    common(p)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("cohomology", help="reduced 2-cocycle basis of a biquandle")
    common(p, biquandle=True, field=True)
    p.add_argument("--classify", metavar="FILE",
                   help="also classify the cochain in FILE")
    p.add_argument("-o", "--output-dir", help="write basis cocycle files here")
    p.set_defaults(func=_cmd_cohomology)

    p = sub.add_parser("colorings", help="colorings of a code by a biquandle")
    common(p, code=True, biquandle=True, jobs=True)
    p.add_argument("--count-only", action="store_true")
    p.set_defaults(func=_cmd_colorings)

    p = sub.add_parser("invariant", help="cocycle state-sum invariant")
    common(p, code=True, biquandle=True, jobs=True)
    p.add_argument("--cocycle", required=True, help="cocycle file")
    p.set_defaults(func=_cmd_invariant)

    p = sub.add_parser("suite", help="invariant for each reduced basis cocycle")
    common(p, code=True, biquandle=True, field=True, jobs=True)
    p.set_defaults(func=_cmd_suite)

    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None):
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on usage errors already; normalize others
        return int(e.code) if e.code else 0
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            return args.func(args, sys.stdout)
        except (SearchLimitError, OSError, ValueError, RecursionError) as e:
            # OSError: a missing file, a directory, an -o path under a file;
            # RecursionError: a word nested past the stack limit, should a step recurse on one
            print(f"error: {e}", file=sys.stderr)
            if args.porcelain:
                _dump({"error": str(e)}, sys.stdout)
            return 1


if __name__ == "__main__":
    sys.exit(main())
