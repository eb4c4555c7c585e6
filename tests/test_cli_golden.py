"""Golden CLI documents: every listed command renders byte-identically.

``cli_golden.json`` holds, for each argv, the exact text of
``cli.render(cli.run(argv), fmt)``: the 20 README commands, two error
documents, the wider product commands and the CSV catalog.  A change that
alters any digit of any of them fails here.  The file was recorded with

    PYTHONPATH=src python tests/test_cli_golden.py

which rewrites it from the current code; do that only when an output change
is intended.
"""

import json
import shlex
from pathlib import Path

import pytest

from chebdisk import cli

GOLDEN_FILE = Path(__file__).resolve().parent / "cli_golden.json"
README = Path(__file__).resolve().parents[1] / "README.md"

# The fenced block under "## CLI" in README.md, in order.
README_COMMANDS = (
    ("theta", "--j", "3", "--v", "0", "--tau-im", "0.5"),
    ("elliptic", "--v", "0.7", "--tau-im", "20"),
    ("cb", "build", "--n", "5", "--tau-im", "0.75"),
    ("cb", "eval", "--n", "2", "--tau-im", "0.5", "--z", "0.5,0"),
    ("cb", "coeffs", "--n", "4", "--tau-im", "1"),
    ("cb", "derivs", "--n", "3", "--tau-im", "1", "--order", "7"),
    ("cb", "critical", "--n", "3", "--tau-im", "1"),
    ("cb", "modulus", "--n", "2", "--tau-im", "1"),
    ("cb", "compose", "--m", "2", "--n", "3", "--tau-im", "0.5"),
    ("monodromy", "analyze", "--sigma1", "(1 2)", "--sigma2", "(2 3)"),
    ("monodromy", "equiv", "--sigma1", "(1 2)", "--sigma2", "(2 3)",
     "--other-sigma1", "(2 3)", "--other-sigma2", "(1 2)", "--n", "3"),
    ("monodromy", "chebyshev", "--n", "6"),
    ("modulus", "annulus", "--r", "0.1"),
    ("modulus", "grotzsch", "--t", "0.70710678118654752"),
    ("modulus", "geodesic", "--a=-0.41,0", "--b=0.41,0"),
    ("modulus", "dessin-size", "--n", "2", "--tau-im", "1"),
    ("landen", "verify", "--id", "n4_sum", "--tau-im", "1"),
    ("landen", "limit", "--id", "n6_prod", "--y-large", "30"),
    ("landen", "all"),
    ("verify-all",),
)

COMMANDS = README_COMMANDS + (
    # error documents
    ("theta", "--j", "3", "--tau-im", "0.001"),
    ("elliptic", "--v", "0.7", "--tau-im", "500"),
    # wider product commands
    ("cb", "critical", "--n", "24", "--tau-im", "0.3"),
    ("cb", "coeffs", "--n", "17", "--tau-im", "0.5"),
    ("cb", "derivs", "--n", "8", "--tau-im", "0.5", "--order", "20"),
    ("modulus", "dessin-size", "--n", "40", "--tau-im", "11.5"),
    ("--format", "csv", "landen", "all"),
)


def _render(argv):
    result = cli.run(list(argv))
    return cli.render(result, result.fmt)


def _load():
    with open(GOLDEN_FILE) as fh:
        return {tuple(rec["argv"]): rec["output"] for rec in json.load(fh)}


def test_golden_file_lists_every_command():
    assert sorted(_load()) == sorted(COMMANDS)


def _readme_cli_block():
    """argv of each command in the first fenced block under "## CLI"."""
    section = README.read_text().split("\n## CLI\n", 1)[1]
    block = section.split("```\n", 2)[1]
    lines = block.replace("\\\n", " ").splitlines()
    return [tuple(shlex.split(line.removeprefix("chebdisk "), comments=True)) for line in lines]


def test_readme_cli_block_is_the_golden_readme_section():
    assert _readme_cli_block() == list(README_COMMANDS)


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_cli_output_matches_golden(argv):
    assert _render(argv) == _load()[argv]


if __name__ == "__main__":
    records = [{"argv": list(argv), "output": _render(argv)} for argv in COMMANDS]
    with open(GOLDEN_FILE, "w") as fh:
        json.dump(records, fh, indent=1)
        fh.write("\n")
