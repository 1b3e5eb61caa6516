"""Suite-wide pytest wiring: the ``--sanitize`` opt-in.

``pytest --sanitize`` (or ``REPRO_SANITIZE=1``, picked up at import by
:mod:`repro.sanitize`) runs every test with the runtime invariant
checkers on — the sanitizer build of the suite, which is how the CI
sanitize job runs tier-1.

While sanitizing, each test starts from fresh ledgers: the sanitizer
keys its cost ledgers by ``id(controller)``, and CPython reuses
ids of collected objects, so stale entries from a previous test could
otherwise alias a new controller.
"""

import pytest

from repro.sanitize import SANITIZE


def pytest_addoption(parser):
    parser.addoption(
        "--sanitize",
        action="store_true",
        default=False,
        help="enable the repro.sanitize runtime invariant checkers for every test",
    )


def pytest_configure(config):
    if config.getoption("--sanitize"):
        SANITIZE.enable()


@pytest.fixture(autouse=True)
def _sanitize_fresh_ledgers():
    if SANITIZE.enabled:
        SANITIZE.reset()
    yield
