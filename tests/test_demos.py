"""The demos, each run as a script against its checked-in transcript."""

import pathlib
import subprocess
import sys

import pytest

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", sorted(p.stem for p in DEMOS.glob("*.py")))
def test_demo_matches_transcript(name):
    # a demo that warns (a reduction cut short, a cocycle that is not
    # RI-reduced) fails under -W error
    done = subprocess.run([sys.executable, "-W", "error", str(DEMOS / f"{name}.py")],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout == (DEMOS / "expected" / f"{name}.txt").read_text()
