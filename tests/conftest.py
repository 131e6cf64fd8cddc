import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import planepart as pp  # noqa: E402

# wall-clock seconds for the expensive session computations, keyed by name;
# the acceptance tests check these against the published runtime budgets
TIMINGS: dict[str, float] = {}


def _timed(name, fn):
    start = time.monotonic()
    result = fn()
    TIMINGS[name] = time.monotonic() - start
    return result


@pytest.fixture(scope="session")
def ctx50():
    return pp.PrecisionContext(decimal_digits=50)


@pytest.fixture(scope="session")
def timings():
    return TIMINGS


@pytest.fixture(scope="session")
def exact_table_7000():
    return _timed("exact_table_7000", lambda: pp.p2_exact_table(7000))


def _report_for(n, exact_table):
    report = _timed(f"estimate_{n}", lambda: pp.p2_estimate(n, with_exact=False))
    report.exact = exact_table[n]
    with pp.precision_for(n).workdps():
        report.actual_error = report.estimate - report.exact
    return report


@pytest.fixture(scope="session")
def mstar_7000_k1():
    """Arc 1 at n = 7000 truncated with the default floor."""
    return pp.mstar_numeric(pp.Arc(7000, 1, pp.precision_for(7000)))


@pytest.fixture(scope="session")
def report_750(exact_table_7000):
    return _report_for(750, exact_table_7000)


@pytest.fixture(scope="session")
def report_6491(exact_table_7000):
    return _report_for(6491, exact_table_7000)


@pytest.fixture(scope="session")
def report_6999(exact_table_7000):
    return _report_for(6999, exact_table_7000)
