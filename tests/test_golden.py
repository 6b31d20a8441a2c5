"""Golden reports: the structured report of every corpus file that runs,
compared byte for byte with a stored copy.

Reports must not change for a fixed file and seed.  A change that is meant
to alter an answer regenerates the stored copy on purpose, e.g.

    PYTHONPATH=src python -m gdiff.cli run tests/data/c3_basic.json \\
        --seed 0 --format structured > tests/golden/c3_basic.json

(adding ``--backend complex`` for ``c3_basic.complex.json``).
"""

import os

import pytest

from gdiff.cli import main

HERE = os.path.dirname(__file__)

# (golden file, corpus file, extra flags, exit code)
CASES = [
    ("c3_basic.json", "c3_basic.json", [], 0),
    ("c3_basic.complex.json", "c3_basic.json", ["--backend", "complex"], 0),
    ("c6_complex.json", "c6_complex.json", [], 0),
    ("failing.json", "failing.json", [], 1),
]


@pytest.mark.parametrize("golden, corpus, flags, code", CASES,
                         ids=[c[0] for c in CASES])
def test_structured_report_matches_golden(golden, corpus, flags, code, capsys):
    argv = ["run", os.path.join(HERE, "data", corpus), "--seed", "0",
            "--format", "structured", *flags]
    assert main(argv) == code
    with open(os.path.join(HERE, "golden", golden), encoding="utf-8") as fh:
        expected = fh.read()
    assert capsys.readouterr().out == expected
