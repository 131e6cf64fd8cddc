import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# Property tests draw the same examples on every run and take no time limit,
# so a result does not depend on the seed or on how busy the machine is.
settings.register_profile("planepart", derandomize=True, deadline=None,
                          max_examples=100, database=None)
settings.load_profile("planepart")

import planepart as pp  # noqa: E402


def run_in_fresh_process(script, *args):
    """stdout of `python -c script args` in a fresh interpreter on this
    checkout, in Python's development mode when this interpreter runs in it."""
    env = dict(os.environ, PYTHONPATH=str(Path(pp.__file__).parents[1]))
    dev = ["-X", "dev"] if sys.flags.dev_mode else []
    return subprocess.run([sys.executable, *dev, "-c", script, *map(str, args)], env=env,
                          capture_output=True, text=True, check=True).stdout


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
