import sys

from hypothesis import settings

# No per-example deadline: several property tests run a whole kernel per
# example, a first example that loads scipy (the reference of the tail tests)
# can take longer than hypothesis's default 200 ms on a slow machine, and a
# Student-t tail at 10,000 degrees of freedom steps 5,000 times.
settings.register_profile("stormrisk", deadline=None)
settings.load_profile("stormrisk")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance-criterion pass/fail lines after the test run."""
    mod = sys.modules.get("test_acceptance") or sys.modules.get(
        "tests.test_acceptance"
    )
    lines = getattr(mod, "CRITERION_LINES", None)
    if not lines:
        return
    terminalreporter.section("acceptance criteria")
    for line in sorted(lines):
        terminalreporter.write_line(line)
