"""Byte-for-byte guard on the outputs of the CLI, and on their exit codes.

The first five golden files under `tests/data/` pin the JSON reports of
`qwh check --suite all`.  They were produced before the systems at a
rational point were memoised (the passing ones) or before the suite
registry called each check directly (the others: FAIL with --generic-q and
at u=1, ERROR at u=0).  The other files pin `check` at two more points, the
usage error of a bound q under --generic-q (its one `error:` line), both
ansatz derivations symbolically and at a point, and one `normalize` and
one `d` query.  A refactor or a faster scalar backend must reproduce them
exactly.  Regenerate them only for an intended change of output:

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
    PYTHONPATH=src python -m qwh.cli check --suite all --format json \
        --params u=-1,s=0 > tests/data/check_all_um1_s0.json
    PYTHONPATH=src python -m qwh.cli check --suite all --format json \
        --params u=-1/2,s=5 > tests/data/check_all_um1_2_s5.json
    PYTHONPATH=src python -m qwh.cli check --suite all --format json \
        --generic-q --params u=3,q=2 2> tests/data/check_all_generic_q_u3_q2.err
    PYTHONPATH=src python -m qwh.cli derive --ansatz xi \
        > tests/data/derive_xi.txt
    PYTHONPATH=src python -m qwh.cli derive --ansatz xi --params u=2,s=3 \
        > tests/data/derive_xi_u2_s3.txt
    PYTHONPATH=src python -m qwh.cli derive --ansatz xi3sq-variant \
        > tests/data/derive_xi3sq_variant.txt
    PYTHONPATH=src python -m qwh.cli derive --ansatz xi3sq-variant \
        --params u=2,s=3 > tests/data/derive_xi3sq_variant_u2_s3.txt
    PYTHONPATH=src python -m qwh.cli normalize -a xspace \
        -e "1/(1+u)*x1*x2" > tests/data/normalize_xspace_quotient.txt
    PYTHONPATH=src python -m qwh.cli d --index 1 --expr "x1*x2" \
        > tests/data/d1_x1x2.txt
"""

import os
import subprocess
import sys

import pytest
from click.testing import CliRunner

from qwh.cli import main

DATA = os.path.join(os.path.dirname(__file__), "data")
SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def _golden(name):
    with open(os.path.join(DATA, name)) as fh:
        return fh.read()


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
    assert res.output == _golden(golden)


CHECK_ALL = ["check", "--suite", "all", "--format", "json"]

# (golden file, arguments, exit code); with nothing on stdout, the golden
# file holds what went to stderr
CLI_CASES = [
    ("check_all_um1_s0.json", CHECK_ALL + ["--params", "u=-1,s=0"], 0),
    ("check_all_um1_2_s5.json", CHECK_ALL + ["--params", "u=-1/2,s=5"], 0),
    (
        "check_all_generic_q_u3_q2.err",
        CHECK_ALL + ["--generic-q", "--params", "u=3,q=2"],
        2,
    ),
    ("derive_xi.txt", ["derive", "--ansatz", "xi"], 0),
    ("derive_xi_u2_s3.txt", ["derive", "--ansatz", "xi", "--params", "u=2,s=3"], 0),
    ("derive_xi3sq_variant.txt", ["derive", "--ansatz", "xi3sq-variant"], 1),
    (
        "derive_xi3sq_variant_u2_s3.txt",
        ["derive", "--ansatz", "xi3sq-variant", "--params", "u=2,s=3"],
        1,
    ),
    (
        "normalize_xspace_quotient.txt",
        ["normalize", "-a", "xspace", "-e", "1/(1+u)*x1*x2"],
        0,
    ),
    ("d1_x1x2.txt", ["d", "--index", "1", "--expr", "x1*x2"], 0),
]


@pytest.mark.parametrize(
    "golden, args, code", CLI_CASES, ids=[g for g, _, _ in CLI_CASES]
)
def test_cli_output_matches_golden(golden, args, code):
    """`output` holds stdout and stderr together, so one comparison pins
    both: each case writes to one stream only."""
    res = CliRunner().invoke(main, args)
    assert res.exit_code == code, res.output
    assert res.output == _golden(golden)


def test_report_bytes_do_not_depend_on_the_hash_seed():
    """A fresh interpreter under a fixed hash seed (the test run's own is
    random) writes the same symbolic report."""
    env = dict(os.environ, PYTHONHASHSEED="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath(SRC), env.get("PYTHONPATH")) if p
    )
    res = subprocess.run(
        [sys.executable, "-m", "qwh.cli"] + CHECK_ALL,
        env=env,
        capture_output=True,
        text=True,
    )
    assert (res.returncode, res.stderr) == (0, "")
    assert res.stdout == _golden("check_all_symbolic.json")
