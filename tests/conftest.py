"""Suite-wide pytest wiring: the ``--sanitize`` opt-in.

``pytest --sanitize`` (or ``REPRO_SANITIZE=1``, picked up at import by
:mod:`repro.sanitize`) runs every test with the runtime invariant
checkers on — the sanitizer build of the suite, which is how the CI
sanitize job runs tier-1.
"""

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
