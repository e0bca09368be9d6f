import os

import pytest
from hypothesis import settings

# a falsifying example found in CI prints the blob that reproduces it
# (`@reproduce_failure`); the tests keep their own example counts
settings.register_profile("ci", print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")

ACCEPTANCE_LINES = []


@pytest.fixture
def criterion():
    """Record one pass/fail line per acceptance criterion and assert it."""

    def _criterion(num, desc, ok):
        line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {desc}"
        ACCEPTANCE_LINES.append(line)
        print(line)
        assert ok, line

    return _criterion


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)
