"""Byte-for-byte guard on the JSON reports of `qwh check --suite all`, and
on its exit code.

The golden files under `tests/data/` were produced before the systems at a
rational point were memoised (the passing ones) or before the suite
registry called each check directly (the others: FAIL with --generic-q and
at u=1, ERROR at u=0); a refactor or a faster scalar backend must
reproduce them exactly.  Regenerate them only for an intended change of
report content:

    PYTHONPATH=src python -m qwh.cli check --suite all --format json \
        > tests/data/check_all_symbolic.json
    PYTHONPATH=src python -m qwh.cli check --suite all --format json \
        --params u=2,s=3 > tests/data/check_all_u2_s3.json
    PYTHONPATH=src python -m qwh.cli check --suite all --format json \
        --generic-q > tests/data/check_all_generic_q.json
    PYTHONPATH=src python -m qwh.cli check --suite all --format json \
        --params u=1,s=3 > tests/data/check_all_u1_s3.json
    PYTHONPATH=src python -m qwh.cli check --suite all --format json \
        --params u=0 > tests/data/check_all_u0.json
"""

import os

import pytest
from click.testing import CliRunner

from qwh.cli import main

DATA = os.path.join(os.path.dirname(__file__), "data")


CASES = [
    ("check_all_symbolic.json", [], 0),
    ("check_all_u2_s3.json", ["--params", "u=2,s=3"], 0),
    ("check_all_generic_q.json", ["--generic-q"], 1),
    ("check_all_u1_s3.json", ["--params", "u=1,s=3"], 1),
    ("check_all_u0.json", ["--params", "u=0"], 2),
]


# the ids name the golden file and the position of its arguments, as they
# did before the exit code joined the parameters
@pytest.mark.parametrize(
    "golden, extra, code", CASES, ids=[f"{g}-extra{i}" for i, (g, _, _) in enumerate(CASES)]
)
def test_check_all_json_matches_golden(golden, extra, code):
    res = CliRunner().invoke(main, ["check", "--suite", "all", "--format", "json"] + extra)
    assert res.exit_code == code, res.output
    with open(os.path.join(DATA, golden)) as fh:
        want = fh.read()
    assert res.output == want
