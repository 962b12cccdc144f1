"""End-to-end command-line behavior via main() plus the module entry point."""

import hashlib
import json
import os
import pathlib
import random
import re
import subprocess
import sys
import warnings

import pytest

import biquandles
from biquandles import search
from biquandles.cli import main
from biquandles.core import (BlockConvention, alexander_biquandle,
                             read_biquandle, validate_biquandle, write_biquandle)
from biquandles.gauss import serialize_gauss_code
from biquandles.search import PartialBiquandle

BQ = "data/kishinoT.bq"  # fixtures hand us absolute paths; commands get strings


@pytest.fixture()
def run(capsys):
    def go(*argv):
        rc = main(list(argv))
        captured = capsys.readouterr()
        return rc, captured.out, captured.err
    return go


def fresh(*argv, timeout):
    """A fresh `python -m biquandles` process, as the console script runs,
    stopped after timeout seconds."""
    return subprocess.run([sys.executable, "-m", "biquandles", *argv],
                          capture_output=True, text=True, timeout=timeout)


# --- validate ----------------------------------------------------------------


def test_validate_ok(run, data_dir):
    rc, out, _ = run("validate", "--biquandle", str(data_dir / "kishinoT.bq"))
    assert (rc, out) == (0, "ok\n")


def test_validate_porcelain(run, data_dir):
    rc, out, _ = run("validate", "--porcelain",
                     "--biquandle", str(data_dir / "kishinoT.bq"))
    assert rc == 0
    assert json.loads(out) == {"ok": True, "failures": []}


def test_validate_invalid_table(run, tmp_path):
    bad = tmp_path / "bad.bq"
    bad.write_text("1 1 1 1\n1 1 1 1\n1 1 1 1\n1 1 1 1\n")
    rc, out, _ = run("validate", "--biquandle", str(bad))
    assert rc == 1
    lines = out.splitlines()
    assert lines[0] == "invalid"
    assert any("axiom" in line and "fails at" in line for line in lines[1:])


def test_validate_missing_file(run, tmp_path):
    rc, out, err = run("validate", "--biquandle", str(tmp_path / "nope.bq"))
    assert (rc, out) == (1, "")
    assert err.startswith("error:")


# --- alexander ---------------------------------------------------------------


def test_alexander_stdout(run):
    rc, out, _ = run("alexander", "5", "2", "3")
    assert rc == 0
    assert read_biquandle(out) == alexander_biquandle(5, 2, 3)


def test_alexander_to_file_and_conventions(run, tmp_path):
    path = tmp_path / "a.bq"
    rc, _, _ = run("alexander", "5", "2", "3", "-o", str(path),
                   "--block-convention", "listing")
    assert rc == 0
    back = read_biquandle(path.read_text(), BlockConvention.LISTING)
    assert back == alexander_biquandle(5, 2, 3)
    rc, out, _ = run("validate", "--biquandle", str(path),
                     "--block-convention", "listing")
    assert (rc, out) == (0, "ok\n")


def test_alexander_rejects_non_units(run):
    rc, out, err = run("alexander", "4", "2", "3")
    assert (rc, out) == (1, "")
    assert "not invertible" in err


# --- enumerate ---------------------------------------------------------------


def test_enumerate_writes_files(run, tmp_path):
    outdir = tmp_path / "order2"
    rc, out, _ = run("enumerate", "2", "-o", str(outdir))
    assert rc == 0
    assert out == "2 biquandles of order 2\n"
    files = sorted(p.name for p in outdir.iterdir())
    assert files == ["0001.bq", "0002.bq"]
    tables = [read_biquandle((outdir / f).read_text()) for f in files]
    assert all(validate_biquandle(T).ok for T in tables)
    assert len(set(tables)) == 2


def test_enumerate_writes_the_order_4_census(run, tmp_path, monkeypatch, blank_search):
    # order 4 is the default limit, so it must run and write one file per
    # table.  The session's finished search of the blank order-4 table
    # stands in for complete_partial, which runs the same TableSearch.
    found = blank_search(4).found

    def census(P):
        assert P == PartialBiquandle.blank(4)
        return list(found)

    monkeypatch.setattr(search, "complete_partial", census)
    outdir = tmp_path / "order4"
    rc, out, _ = run("enumerate", "4", "-o", str(outdir))
    assert (rc, out) == (0, "744 biquandles of order 4\n")
    files = sorted(p.name for p in outdir.iterdir())
    assert files == [f"{i:04d}.bq" for i in range(1, 745)]
    assert [read_biquandle((outdir / f).read_text()) for f in files] == found


def test_enumerate_respects_limit(run, tmp_path):
    rc, out, err = run("enumerate", "5", "-o", str(tmp_path / "x"))
    assert (rc, out) == (1, "")
    assert "enumeration limit" in err


# --- cohomology --------------------------------------------------------------


def test_cohomology_basis_output(run, data_dir):
    rc, out, _ = run("cohomology", "--biquandle", str(data_dir / "kishinoT.bq"))
    assert rc == 0
    assert out.splitlines() == [
        "reduced H^2 dimension 2 over Q",
        "phi[1] = X(1,3)+X(2,1)+X(2,2)+X(3,2)",
        "phi[2] = X(1,3)+X(1,4)+X(2,1)-X(2,3)+X(3,1)-X(3,4)",
    ]


def test_cohomology_classify_and_export(run, data_dir, tmp_path):
    outdir = tmp_path / "basis"
    rc, out, _ = run("cohomology", "--biquandle", str(data_dir / "kishinoT.bq"),
                     "--classify", str(data_dir / "phi1.cyc"),
                     "-o", str(outdir))
    assert rc == 0
    assert out.splitlines()[-1] == "classification: nontrivial-cocycle (RI-reduced)"
    assert sorted(p.name for p in outdir.iterdir()) == ["phi1.cyc", "phi2.cyc"]
    assert "field Q" in (outdir / "phi1.cyc").read_text()


def test_cohomology_classify_parse_error_names_file(run, data_dir):
    code = str(data_dir / "kishino.gauss")
    rc, _, err = run("cohomology", "--biquandle", str(data_dir / "kishinoT.bq"),
                     "--classify", code)
    assert rc == 1
    assert err == (f"error: {code}: expected 'field Q' or 'field Zp:<prime>' "
                   "header (line 1)\n")


def test_cohomology_porcelain_classify_is_one_document(run, data_dir):
    argv = ["cohomology", "--biquandle", str(data_dir / "kishinoT.bq"),
            "--classify", str(data_dir / "phi1.cyc")]
    rc, out, _ = run(*argv, "--porcelain")
    assert rc == 0 and out.count("\n") == 1
    doc = json.loads(out)
    assert doc.pop("classification") == {"kind": "nontrivial-cocycle", "ri_reduced": True}
    rc, bare, _ = run(*argv[:3], "--porcelain")
    assert doc == json.loads(bare)


def test_cohomology_porcelain_classify_error_is_one_line(run, data_dir):
    # the --classify file is read with the table, before any basis prints
    code = str(data_dir / "kishino.gauss")
    rc, out, err = run("cohomology", "--porcelain", "--biquandle",
                       str(data_dir / "kishinoT.bq"), "--classify", code)
    message = f"{code}: expected 'field Q' or 'field Zp:<prime>' header (line 1)"
    assert (rc, out, err) == (1, json.dumps({"error": message}) + "\n", f"error: {message}\n")


def test_cohomology_mod_five(run, data_dir):
    rc, out, _ = run("cohomology", "--field", "Zp:5",
                     "--biquandle", str(data_dir / "kishinoT.bq"))
    assert rc == 0
    assert out.splitlines()[0] == "reduced H^2 dimension 2 over Zp:5"


def test_cohomology_of_order_23_answers_in_time(tmp_path):
    # the first line, in a fresh process under a 20 s bound; the feed order
    # that keeps this elimination fast is pinned by test_elimination_work_pinned
    table = tmp_path / "a23.bq"
    table.write_text(write_biquandle(alexander_biquandle(23, 2, 3)))
    done = fresh("cohomology", "--biquandle", str(table), timeout=20)
    assert (done.returncode, done.stdout.splitlines()[0]) == (0, "reduced H^2 dimension 0 over Q")


def test_cohomology_porcelain(run, data_dir):
    rc, out, _ = run("cohomology", "--porcelain",
                     "--biquandle", str(data_dir / "kishinoT.bq"))
    payload = json.loads(out)
    assert (rc, payload["dimension"], payload["field"]) == (0, 2, "Q")
    assert payload["basis"][0] == {"1 3": "1", "2 1": "1", "2 2": "1", "3 2": "1"}


def test_cohomology_rejects_composite_modulus(run, data_dir):
    rc, _, err = run("cohomology", "--field", "Zp:4",
                     "--biquandle", str(data_dir / "kishinoT.bq"))
    assert rc == 1
    assert "not prime" in err


def test_cohomology_porcelain_error(run, data_dir):
    rc, out, err = run("cohomology", "--porcelain", "--field", "Zp:4",
                       "--biquandle", str(data_dir / "kishinoT.bq"))
    assert (rc, err) == (1, "error: 4 is not prime\n")
    assert out == '{"error": "4 is not prime"}\n'


# --- colorings ---------------------------------------------------------------


def test_colorings_listing(run, data_dir):
    rc, out, _ = run("colorings", "--code", str(data_dir / "trefoil.gauss"),
                     "--biquandle", str(data_dir / "kishinoT.bq"))
    assert rc == 0
    assert out.splitlines() == [
        "4 colorings",
        "1:1 2:1 3:1 4:1 5:1 6:1",
        "1:2 2:4 3:2 4:4 5:2 6:4",
        "1:3 2:3 3:3 4:3 5:3 6:3",
        "1:4 2:2 3:4 4:2 5:4 6:2",
    ]


def test_colorings_count_only(run, data_dir):
    rc, out, _ = run("colorings", "--count-only",
                     "--code", str(data_dir / "kishino.gauss"),
                     "--biquandle", str(data_dir / "kishinoT.bq"))
    assert (rc, out) == (0, "16\n")


def test_colorings_porcelain(run, data_dir):
    rc, out, _ = run("colorings", "--porcelain",
                     "--code", str(data_dir / "unknot.gauss"),
                     "--biquandle", str(data_dir / "kishinoT.bq"))
    assert rc == 0
    assert json.loads(out) == {"count": 4, "colorings": [[1], [2], [3], [4]]}


def test_colorings_show_presentation(run, data_dir):
    rc, out, _ = run("colorings", "--show-presentation", "--count-only",
                     "--code", str(data_dir / "trefoil.gauss"),
                     "--biquandle", str(data_dir / "kishinoT.bq"))
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "presentation:"
    assert "  generators: 1,2,3,4,5,6" in lines
    assert "  1^4=2" in lines
    assert "reduced (2 generators):" in lines
    # no solver reads the reduced words, so their display is pinned here
    assert "  generators: 1,4" in lines
    assert "  ((4_1)^(1^4))_((1^4)_(4_1))=1" in lines
    assert "  ((1^4)_(4_1))^((4_1)^(1^4))=4" in lines
    assert lines[-1] == "4"


@pytest.mark.parametrize("command", ["colorings", "invariant", "suite"])
def test_porcelain_show_presentation_is_one_document(run, data_dir, command):
    # the presentation goes into the JSON object, as lists of lines
    argv = [command, "--code", str(data_dir / "trefoil.gauss"),
            "--biquandle", str(data_dir / "kishinoT.bq")]
    if command == "invariant":
        argv += ["--cocycle", str(data_dir / "phi1.cyc")]
    rc, plain, _ = run(*argv, "--show-presentation")
    rc2, bare, _ = run(*argv, "--porcelain")
    rc3, out, _ = run(*argv, "--porcelain", "--show-presentation")
    assert (rc, rc2, rc3) == (0, 0, 0) and out.count("\n") == 1
    doc = json.loads(out)
    shown = {k: doc.pop(k) for k in ("presentation", "reduced")}
    indented = {k: "".join(f"  {line}\n" for line in v) for k, v in shown.items()}
    assert plain.startswith("presentation:\n" + indented["presentation"]
                            + "reduced (2 generators):\n" + indented["reduced"])
    assert shown["reduced"][0] == "generators: 1,4"
    assert doc == (json.loads(bare) if command != "suite" else {"results": json.loads(bare)})


def test_colorings_search_too_large(run, data_dir, tmp_path):
    big = tmp_path / "a50.bq"
    big.write_text(write_biquandle(alexander_biquandle(50, 3, 7)))
    rc, out, err = run("colorings", "--count-only",
                       "--code", str(data_dir / "conway.gauss"), "--biquandle", str(big))
    assert (rc, out) == (1, "")
    assert err.startswith("error: search too large: 50^5")
    assert err.count("\n") == 1


def test_colorings_porcelain_error(run, data_dir, tmp_path):
    big = tmp_path / "a50.bq"
    big.write_text(write_biquandle(alexander_biquandle(50, 3, 7)))
    rc, out, err = run("colorings", "--porcelain",
                       "--code", str(data_dir / "conway.gauss"), "--biquandle", str(big))
    message = "search too large: 50^5 = 312500000 candidate assignments"
    assert (rc, err) == (1, f"error: {message}\n")
    assert json.loads(out) == {"error": message} and out.count("\n") == 1


@pytest.mark.parametrize("command", ["colorings", "invariant", "suite"])
def test_colorings_checks_search_size_before_validating(run, data_dir, tmp_path, command):
    # An invalid order-50 table: every code subcommand's size check must
    # answer first, without the n^3 validation (or suite's H^2 of the table).
    bad = tmp_path / "ones50.bq"
    bad.write_text("\n".join(" ".join(["1"] * 100) for _ in range(100)) + "\n")
    argv = [command, "--code", str(data_dir / "conway.gauss"), "--biquandle", str(bad)]
    if command == "colorings":
        argv.append("--count-only")
    if command == "invariant":
        zero = tmp_path / "zero.cyc"
        zero.write_text("field Q\n")
        argv += ["--cocycle", str(zero)]
    rc, out, err = run(*argv)
    assert (rc, out) == (1, "")
    assert err == "error: search too large: 50^5 = 312500000 candidate assignments\n"


def test_suite_refuses_order_50_in_time(data_dir, tmp_path):
    # the same refusal on a valid order-50 table, in a fresh process under a
    # 20 s bound: suite must refuse before it computes the table's H^2 or
    # scans the knot's colorings
    table = tmp_path / "a50.bq"
    table.write_text(write_biquandle(alexander_biquandle(50, 3, 7)))
    done = fresh("suite", "--code", str(data_dir / "conway.gauss"),
                 "--biquandle", str(table), timeout=20)
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == "error: search too large: 50^5 = 312500000 candidate assignments\n"


def test_colorings_refuses_a_long_knot_from_its_survivor_count(data_dir, tmp_path, random_code):
    # a seeded 150-crossing knot keeps 93 survivors: the size check must
    # refuse it from the count-only elimination, building no word
    code = tmp_path / "k150.gauss"
    code.write_text(serialize_gauss_code(random_code(random.Random(5), 150, 1)) + "\n")
    done = fresh("colorings", "--count-only", "--code", str(code),
                 "--biquandle", str(data_dir / "kishinoT.bq"), timeout=60)
    assert (done.returncode, done.stdout) == (1, "")
    errors = [line for line in done.stderr.splitlines() if line.startswith("error:")]
    assert len(errors) == 1
    assert re.fullmatch(r"error: search too large: 4\^93 = [0-9]* candidate assignments",
                        errors[0])


def test_colorings_scans_a_24_crossing_knot_in_time(data_dir, tmp_path, random_code):
    # a seeded 24-crossing knot that a survivor order completing one
    # relation at a time scans in 44 s; most constrained first, in 1 s
    code = tmp_path / "k24.gauss"
    code.write_text(serialize_gauss_code(random_code(random.Random(2), 24, 1)) + "\n")
    done = fresh("colorings", "--count-only", "--code", str(code),
                 "--biquandle", str(data_dir / "kishinoT.bq"), timeout=20)
    assert (done.returncode, done.stdout) == (0, "4\n")


def test_colorings_reduces_once(run, data_dir, monkeypatch):
    from biquandles import presentation
    calls = []
    real = presentation._eliminate  # the one elimination loop

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(presentation, "_eliminate", counted)
    rc, out, _ = run("colorings", "--show-presentation", "--count-only",
                     "--code", str(data_dir / "trefoil.gauss"),
                     "--biquandle", str(data_dir / "kishinoT.bq"))
    assert (rc, out.splitlines()[-1]) == (0, "4")
    assert len(calls) == 1


@pytest.mark.parametrize("jobs", ["0", "-1", "two"])
def test_jobs_must_be_positive(run, data_dir, jobs):
    rc, out, err = run("colorings", "--jobs", jobs,
                       "--code", str(data_dir / "unknot.gauss"),
                       "--biquandle", str(data_dir / "kishinoT.bq"))
    assert (rc, out) == (2, "")
    assert "--jobs" in err


def test_unknown_block_convention_is_a_usage_error(run, data_dir):
    rc, out, err = run("validate", "--biquandle", str(data_dir / "kishinoT.bq"),
                       "--block-convention", "foo")
    assert (rc, out) == (2, "")
    assert err.splitlines()[-1] == ("biquandles validate: error: argument "
                                    "--block-convention: unknown block convention 'foo'")


@pytest.mark.parametrize("limit", ["0", "-1", "two"])
def test_enumerate_limit_must_be_positive(run, tmp_path, limit):
    rc, out, err = run("enumerate", "2", "-o", str(tmp_path / "x"), "--limit", limit)
    assert (rc, out) == (2, "")
    assert "--limit" in err
    assert not (tmp_path / "x").exists()


# --- file errors -------------------------------------------------------------


@pytest.mark.parametrize("flag", ["--biquandle", "--code", "--cocycle", "--classify"])
def test_directory_as_input_file(run, data_dir, tmp_path, flag):
    if flag == "--classify":
        argv = ["cohomology", "--biquandle", str(data_dir / "kishinoT.bq"),
                "--classify", "{dir}"]
    else:
        argv = ["invariant", "--biquandle", str(data_dir / "kishinoT.bq"),
                "--code", str(data_dir / "unknot.gauss"),
                "--cocycle", str(data_dir / "phi1.cyc")]
        argv[argv.index(flag) + 1] = "{dir}"
    rc, _, err = run(*(a.format(dir=tmp_path) for a in argv))
    assert rc == 1
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("enumerate", "1", "-o", "{file}/x"),  # NotADirectoryError
    ("cohomology", "--biquandle", "{bq}", "-o", "{file}"),  # FileExistsError
    ("alexander", "3", "1", "2", "-o", "{dir}"),  # IsADirectoryError
])
def test_output_path_blocked(run, data_dir, tmp_path, argv):
    afile = tmp_path / "afile"
    afile.write_text("")
    rc, out, err = run(*(a.format(file=afile, dir=tmp_path, bq=data_dir / "kishinoT.bq")
                         for a in argv))
    assert rc == 1
    assert err.startswith("error:") and err.count("\n") == 1


def test_huge_modulus_refused_at_once(run, data_dir):
    rc, out, err = run("cohomology", "--field", "Zp:1000000000000000000000000000057",
                       "--biquandle", str(data_dir / "kishinoT.bq"))
    assert (rc, out) == (1, "")
    assert "above the proven Miller-Rabin range" in err and err.count("\n") == 1


# --- invariant and suite -----------------------------------------------------


def test_invariant_value(run, data_dir):
    rc, out, _ = run("invariant", "--code", str(data_dir / "kishino.gauss"),
                     "--biquandle", str(data_dir / "kishinoT.bq"),
                     "--cocycle", str(data_dir / "phi1.cyc"))
    assert (rc, out) == (0, "2*t^-1 + 12 + 2*t\n")


def test_invariant_porcelain(run, data_dir):
    rc, out, _ = run("invariant", "--porcelain",
                     "--code", str(data_dir / "kishino.gauss"),
                     "--biquandle", str(data_dir / "kishinoT.bq"),
                     "--cocycle", str(data_dir / "phi2.cyc"))
    assert rc == 0
    assert json.loads(out) == {"terms": [["-2", 2], ["0", 12], ["2", 2]]}


def test_invariant_of_phi1_halved(run, data_dir, tmp_path):
    # the state sums are scaled by 2 on integers and divided back, a path
    # no shipped cocycle takes
    half = tmp_path / "phi1-half.cyc"
    half.write_text("field Q\n1 3 -1/2\n2 1 -1/2\n2 2 -1/2\n3 2 -1/2\n")
    argv = ["invariant", "--code", str(data_dir / "kishino.gauss"),
            "--biquandle", str(data_dir / "kishinoT.bq"), "--cocycle", str(half)]
    assert run(*argv)[:2] == (0, "2*t^-1/2 + 12 + 2*t^1/2\n")
    assert run(*argv, "--porcelain")[:2] == \
        (0, '{"terms": [["-1/2", 2], ["0", 12], ["1/2", 2]]}\n')


def test_invariant_rejects_non_cocycle(run, data_dir, tmp_path):
    chi = tmp_path / "chi.cyc"
    chi.write_text("field Q\n1 2 1\n")
    rc, _, err = run("invariant", "--code", str(data_dir / "unknot.gauss"),
                     "--biquandle", str(data_dir / "kishinoT.bq"),
                     "--cocycle", str(chi))
    assert rc == 1
    assert "not a cocycle" in err


def test_invariant_cocycle_parse_error_names_file(run, data_dir):
    table = str(data_dir / "kishinoT.bq")
    rc, out, err = run("invariant", "--porcelain", "--code", str(data_dir / "kishino.gauss"),
                       "--biquandle", table, "--cocycle", table)
    message = f"{table}: expected 'field Q' or 'field Zp:<prime>' header (line 2)"
    assert (rc, err) == (1, f"error: {message}\n")
    assert json.loads(out) == {"error": message}


@pytest.mark.parametrize("flag, given, message", [
    ("--biquandle", "kishino.gauss",
     "expected integer, got '1,-2-I,-1,2+I,3,-4-I,-3,4+I,0' (line 1, column 1)"),
    ("--code", "phi1.cyc", "bad token 'field Q' (line 1, column 1)"),
], ids=["biquandle", "code"])
def test_invariant_parse_error_names_file(run, data_dir, flag, given, message):
    argv = ["invariant", "--porcelain", "--code", str(data_dir / "kishino.gauss"),
            "--biquandle", str(data_dir / "kishinoT.bq"),
            "--cocycle", str(data_dir / "phi1.cyc")]
    path = str(data_dir / given)
    argv[argv.index(flag) + 1] = path
    rc, out, err = run(*argv)
    assert (rc, err) == (1, f"error: {path}: {message}\n")
    assert json.loads(out) == {"error": f"{path}: {message}"} and out.count("\n") == 1


@pytest.mark.parametrize("porcelain", [False, True], ids=["plain", "porcelain"])
@pytest.mark.parametrize("flag", ["--code", "--biquandle", "--cocycle"])
def test_undecodable_input_names_file(run, data_dir, tmp_path, flag, porcelain):
    binary = tmp_path / "binary"
    binary.write_bytes(b"\xff\x00\x01")
    argv = ["invariant", "--code", str(data_dir / "kishino.gauss"),
            "--biquandle", str(data_dir / "kishinoT.bq"),
            "--cocycle", str(data_dir / "phi1.cyc")] + ["--porcelain"] * porcelain
    argv[argv.index(flag) + 1] = str(binary)
    rc, out, err = run(*argv)
    message = f"{binary}: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
    assert (rc, err) == (1, f"error: {message}\n")
    assert out == (json.dumps({"error": message}) + "\n" if porcelain else "")


def test_gauss_token_past_digit_limit_names_file(run, data_dir, tmp_path):
    # int() refuses a token past its digit limit; the parser names where
    code = tmp_path / "long.gauss"
    code.write_text("2,-2,\n " + "1" * 5000 + ",-1,0\n")
    rc, out, err = run("colorings", "--code", str(code),
                       "--biquandle", str(data_dir / "kishinoT.bq"))
    assert (rc, out) == (1, "")
    assert err == f"error: {code}: token of 5000 characters is too long (line 2, column 2)\n"


def test_warning_prints_one_line(run, data_dir, tmp_path):
    # a cocycle that is not RI-reduced: the invariant warns and still answers
    phi = tmp_path / "f.cyc"
    phi.write_text("field Q\n1 1 1\n2 4 1\n3 3 1\n4 2 1\n")
    shown, filters = warnings.showwarning, list(warnings.filters)
    rc, out, err = run("invariant", "--code", str(data_dir / "unknot.gauss"),
                       "--biquandle", str(data_dir / "kishinoT.bq"), "--cocycle", str(phi))
    assert (rc, out) == (0, "4\n")
    assert err == ("warning: cocycle is not RI-reduced; the state sum may change "
                   "under first Reidemeister moves\n")
    assert (warnings.showwarning, warnings.filters) == (shown, filters)


@pytest.mark.parametrize("command", ["invariant", "suite"])
def test_recursion_error_is_one_line(run, data_dir, monkeypatch, command):
    # a word nested past the stack limit is a domain error; format_word
    # walks on a stack, so no shipped input raises it, and a fake stands in
    from biquandles import presentation

    def too_deep(pres):
        warnings.warn("reduction stopped early")
        raise RecursionError("maximum recursion depth exceeded")
    monkeypatch.setattr(presentation, "format_presentation", too_deep)
    argv = [command, "--porcelain", "--show-presentation",
            "--code", str(data_dir / "trefoil.gauss"),
            "--biquandle", str(data_dir / "kishinoT.bq")]
    if command == "invariant":
        argv += ["--cocycle", str(data_dir / "phi1.cyc")]
    rc, out, err = run(*argv)
    assert (rc, out) == (1, '{"error": "maximum recursion depth exceeded"}\n')
    assert err == "warning: reduction stopped early\nerror: maximum recursion depth exceeded\n"


def test_show_presentation_of_a_long_knot(run, tmp_path):
    # T(2,1001)'s reduced words nest about a thousand deep, past the
    # recursion limit; format_word prints them (3.5 MB) on a stack
    n = 1001
    code = tmp_path / "t1001.gauss"
    code.write_text(",".join(f"{'-' * (i % 2)}{i % n + 1}" for i in range(2 * n)) + ",0\n")
    table = tmp_path / "a111.bq"
    table.write_text(write_biquandle(alexander_biquandle(1, 1, 1)))
    rc, out, err = run("colorings", "--count-only", "--show-presentation",
                       "--code", str(code), "--biquandle", str(table))
    lines = out.splitlines()
    assert (rc, lines[-1]) == (0, "1")
    assert "reduced (1005 generators):" in lines
    assert "error" not in err
    # the whole output, pinned: 3,548,290 bytes
    assert (len(out), hashlib.sha256(out.encode()).hexdigest()) == (
        3_548_290, "b3247552a61144ddee1b9f9c19913070b643b263ce13df70e079264d75b76899")


def _mutate(rng, text):
    """Delete, insert or replace one character, or truncate."""
    i = rng.randrange(len(text))
    char = rng.choice("0123456789 -+I,#\n")
    return rng.choice((text[:i] + text[i + 1:], text[:i] + char + text[i:],
                       text[:i] + char + text[i + 1:], text[:i]))


def test_malformed_input_never_escapes_main(run, data_dir, tmp_path):
    rng = random.Random(14)
    inputs = {"bq": "kishinoT.bq", "code": "kishino.gauss", "cyc": "phi1.cyc"}
    exits = []
    for key, name in inputs.items():
        text = (data_dir / name).read_text()
        for _ in range(40):
            paths = {k: str(data_dir / v) for k, v in inputs.items()}
            paths[key] = str(tmp_path / name)
            (tmp_path / name).write_text(_mutate(rng, text))
            runs = [("invariant", "--code", paths["code"], "--biquandle", paths["bq"],
                     "--cocycle", paths["cyc"])]
            if key != "code":
                runs.append(("cohomology", "--biquandle", paths["bq"],
                             "--classify", paths["cyc"]))
            for argv in runs:
                rc, _, err = run(*argv)
                lines = err.splitlines()
                assert all(line.startswith(("error: ", "warning: ")) for line in lines)
                errors = sum(line.startswith("error: ") for line in lines)
                assert (rc, errors) in ((0, 0), (1, 1)), (argv, err)
                exits.append(rc)
    assert 0 in exits and 1 in exits


def test_suite_values(run, data_dir):
    rc, out, _ = run("suite", "--code", str(data_dir / "kishino.gauss"),
                     "--biquandle", str(data_dir / "kishinoT.bq"))
    assert rc == 0
    assert out == "phi[1]: 2*t^-1 + 12 + 2*t\nphi[2]: 2*t^-2 + 12 + 2*t^2\n"


def test_suite_mod_five(run, data_dir):
    rc, out, _ = run("suite", "--field", "Zp:5",
                     "--code", str(data_dir / "kishino.gauss"),
                     "--biquandle", str(data_dir / "kishinoT.bq"))
    assert rc == 0
    assert out.splitlines()[0] == "phi[1]: 12 + 2*t + 2*t^4"


def test_suite_unknot(run, data_dir):
    rc, out, _ = run("suite", "--code", str(data_dir / "unknot.gauss"),
                     "--biquandle", str(data_dir / "kishinoT.bq"))
    assert (rc, out) == (0, "phi[1]: 4\nphi[2]: 4\n")


# --- usage and entry point ---------------------------------------------------


def test_usage_errors(run):
    assert run("frobnicate")[0] == 2
    assert run("colorings", "--biquandle", BQ)[0] == 2  # missing --code
    assert main([]) == 2


def test_module_entry_point_deterministic(data_dir):
    cmd = [sys.executable, "-m", "biquandles", "suite",
           "--code", str(data_dir / "kishino.gauss"),
           "--biquandle", str(data_dir / "kishinoT.bq")]
    first = subprocess.run(cmd, capture_output=True, text=True)
    second = subprocess.run(cmd + ["--jobs", "2"], capture_output=True, text=True)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout.startswith("phi[1]: ")


EVERYTHING_BUT_SEARCH = {"core", "gauss", "presentation", "coloring", "linalg",
                         "cohomology", "invariant"}


@pytest.mark.parametrize("argv, loaded", [
    (["validate", "--biquandle", "{data}/kishinoT.bq"], {"core"}),
    (["alexander", "5", "2", "3"], {"core"}),
    (["cohomology", "--field", "Zp:7", "--biquandle", "{data}/kishinoT.bq"],
     {"core", "linalg", "cohomology"}),
    (["colorings", "--count-only", "--code", "{data}/conway.gauss",
      "--biquandle", "{data}/kishinoT.bq"],
     {"core", "gauss", "presentation", "coloring"}),
    (["suite", "--code", "{data}/kishino.gauss", "--biquandle", "{data}/kishinoT.bq"],
     EVERYTHING_BUT_SEARCH),
    (["invariant", "--code", "{data}/kishino.gauss", "--biquandle", "{data}/kishinoT.bq",
      "--cocycle", "{data}/phi1.cyc"],
     EVERYTHING_BUT_SEARCH),
    (["enumerate", "2", "-o", "{tmp}/e2"], {"core", "search"}),
], ids=["validate", "alexander", "cohomology", "colorings", "suite", "invariant",
        "enumerate"])
def test_subcommand_loads_only_its_modules(data_dir, tmp_path, argv, loaded):
    # a fresh interpreter, since this one has imported every module
    argv = [a.format(data=data_dir, tmp=tmp_path) for a in argv]
    script = ("import sys, contextlib, io\n"
              "from biquandles.cli import main\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              f"    rc = main({argv!r})\n"
              "print(rc, sorted(m for m in sys.modules if m.startswith('biquandles.')))\n")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert done.stderr == ""
    expected = sorted(f"biquandles.{m}" for m in loaded | {"cli"})
    assert done.stdout == f"0 {expected}\n"


def test_startup_imports_no_dataclasses_and_json_only_for_porcelain(data_dir):
    # one fresh interpreter runs every computing subcommand: record classes
    # are created without dataclasses (which pulls in inspect), and json is
    # imported by the first --porcelain run, not before.  It imports the
    # biquandles this suite imported, installed or not.
    home = pathlib.Path(biquandles.__file__).resolve().parent.parent
    runs = [["validate", "--biquandle", BQ],
            ["alexander", "5", "2", "3"],
            ["cohomology", "--field", "Zp:7", "--biquandle", BQ],
            ["colorings", "--count-only", "--code", "data/conway.gauss", "--biquandle", BQ],
            ["invariant", "--code", "data/kishino.gauss", "--biquandle", BQ,
             "--cocycle", "data/phi1.cyc"],
            ["suite", "--code", "data/kishino.gauss", "--biquandle", BQ]]
    script = ("import sys, contextlib, io\n"
              "from biquandles.cli import main\n"
              "def loaded():\n"
              "    return [m for m in ('dataclasses', 'inspect', 'json') if m in sys.modules]\n"
              f"for argv in {runs!r}:\n"
              "    with contextlib.redirect_stdout(io.StringIO()):\n"
              "        assert main(argv) == 0, argv\n"
              "    print(argv[0], loaded())\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              f"    main(['validate', '--porcelain', '--biquandle', {BQ!r}])\n"
              "print('porcelain', loaded())\n")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          cwd=data_dir.parent, env={**os.environ, "PYTHONPATH": str(home)})
    assert done.stderr == ""
    assert done.stdout == "".join(f"{argv[0]} []\n" for argv in runs) + "porcelain ['json']\n"
