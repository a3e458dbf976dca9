"""Shared pytest hooks: a fixed hypothesis profile, fresh faulttol memos
for every test, and acceptance lines collected for the terminal summary."""

import pytest
from hypothesis import settings

from nocosim import faulttol

# reproducible property tests; no per-example deadline, since a cold first
# example can exceed it
settings.register_profile(
    "nocosim", derandomize=True, database=None, deadline=None, max_examples=30
)
settings.load_profile("nocosim")


@pytest.fixture(autouse=True)
def fresh_faulttol_memos():
    """Start each test with empty memos, so no test reads a budget term that
    another test computed under its own monkeypatch."""
    for memo in (faulttol._gate_weight, faulttol._idle_weight, faulttol._round_rates):
        memo.cache_clear()


RESULTS = []


def record(line: str) -> None:
    RESULTS.append(line)


def pytest_terminal_summary(terminalreporter):
    if RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in RESULTS:
            terminalreporter.write_line(line)
