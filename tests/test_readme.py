"""README's "Public API" list names only what the package defines."""

import importlib
import pathlib
import re

import pytest

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def api_bullets() -> list[str]:
    """The bullets of the "Public API" section, one string each."""
    section = README.read_text().split("### Public API\n", 1)[1]
    section = re.split(r"^#", section, maxsplit=1, flags=re.M)[0]
    return [" ".join(b.split()) for b in re.findall(r"^\* .*?(?=^\* |^\s*$)", section,
                                                    flags=re.M | re.S)]


BULLETS = api_bullets()


def test_api_list_covers_every_module():
    named = [re.match(r"\* `(\w+)`:", b).group(1) for b in BULLETS]
    assert named == ["core", "gauss", "presentation", "coloring", "cohomology",
                     "invariant", "linalg", "search"]


@pytest.mark.parametrize("bullet", BULLETS, ids=lambda b: b.split("`")[1])
def test_api_names_resolve(bullet):
    # the first name is the module; a name at parenthesis depth 0 is an
    # attribute of it, and a name inside a parenthesis an attribute of the
    # last depth-0 name before it
    module = None
    owner = None
    depth = 0
    for token in re.findall(r"`[^`]+`|[()]", bullet):
        if token in "()":
            depth += 1 if token == "(" else -1
        elif module is None:
            module = importlib.import_module(f"biquandles.{token[1:-1]}")
        elif depth == 0:
            owner = getattr(module, token[1:-1])
        else:
            assert hasattr(owner, token[1:-1]), (owner, token)
    assert module is not None and depth == 0
