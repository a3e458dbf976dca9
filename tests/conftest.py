"""Shared pytest hooks: a fixed hypothesis profile and acceptance lines
collected for the terminal summary."""

from hypothesis import settings

# reproducible property tests; no per-example deadline, since a cold first
# example can exceed it
settings.register_profile(
    "nocosim", derandomize=True, database=None, deadline=None, max_examples=30
)
settings.load_profile("nocosim")


RESULTS = []


def record(line: str) -> None:
    RESULTS.append(line)


def pytest_terminal_summary(terminalreporter):
    if RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in RESULTS:
            terminalreporter.write_line(line)
