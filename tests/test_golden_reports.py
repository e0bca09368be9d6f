"""Byte-for-byte guard on the JSON reports of `qwh check --suite all`.

The golden files under `tests/data/` were produced before the systems at a
rational point were memoised; a refactor or a faster scalar backend must
reproduce them exactly.  Regenerate them only for an intended change of
report content:

    PYTHONPATH=src python -m qwh.cli check --suite all --format json \
        > tests/data/check_all_symbolic.json
    PYTHONPATH=src python -m qwh.cli check --suite all --format json \
        --params u=2,s=3 > tests/data/check_all_u2_s3.json
"""

import os

import pytest
from click.testing import CliRunner

from qwh.cli import main

DATA = os.path.join(os.path.dirname(__file__), "data")


@pytest.mark.parametrize(
    "golden, extra",
    [
        ("check_all_symbolic.json", []),
        ("check_all_u2_s3.json", ["--params", "u=2,s=3"]),
    ],
)
def test_check_all_json_matches_golden(golden, extra):
    res = CliRunner().invoke(main, ["check", "--suite", "all", "--format", "json"] + extra)
    assert res.exit_code == 0, res.output
    with open(os.path.join(DATA, golden)) as fh:
        want = fh.read()
    assert res.output == want
