"""Suite-wide pytest wiring: the ``--sanitize`` opt-in.

``pytest --sanitize`` (or ``REPRO_SANITIZE=1``, picked up at import by
:mod:`repro.sanitize`) runs every test with the runtime invariant
checkers on — the sanitizer build of the suite, which is how the CI
sanitize job runs tier-1.
"""

from repro.sanitize import SANITIZE
from repro.testbed import Testbed


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


def run_count_rig(seconds, depth=64):
    """The count rig: one cgroup of ``Testbed("ssd_new", "iocost", seed=0)``
    keeps ``depth`` 4 KiB random reads outstanding for ``seconds`` simulated
    seconds — ``solo_randread``'s closed loop — then drains.  Two calls do
    identical simulated work.  Returns the drained, detached testbed."""
    bed = Testbed("ssd_new", "iocost", seed=0)
    bed.saturate(bed.add_cgroup("workload.slice/solo"), depth=depth, stop_at=seconds)
    bed.run(seconds)
    bed.detach()
    bed.sim.run()
    return bed
