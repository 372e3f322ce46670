"""Byte-identity of the CLI output on a fixed command corpus at 128 bits.

``tests/data/cli_corpus/commands.json`` lists the commands; each ``.out``
file next to it holds the exact stdout the command printed when it was
recorded.  ``{dir}`` in an argument stands for the corpus directory and
``{word400}`` for the 400-token twist word in ``word400.txt``.
"""

import json
from pathlib import Path

import pytest

from lamkit.cli import main

CORPUS = Path(__file__).parent / "data" / "cli_corpus"
CASES = json.loads((CORPUS / "commands.json").read_text())


def _argv(case):
    word = (CORPUS / "word400.txt").read_text().strip()
    args = [a.replace("{dir}", str(CORPUS)).replace("{word400}", word) for a in case["argv"]]
    return args + ["--precision", "128"]


@pytest.mark.parametrize("case", CASES, ids=[c["out"] for c in CASES])
def test_cli_output_is_byte_identical(case, capsys):
    code = main(_argv(case))
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode() == (CORPUS / case["out"]).read_bytes()
