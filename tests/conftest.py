import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

try:
    from hypothesis import settings
except ImportError:  # then the property-test modules fail, at collection
    pass
else:
    # the same examples on every run, no example database, and no per-example
    # deadline for a machine whose speed drifts
    settings.register_profile("qnc", derandomize=True, deadline=None, database=None)
    settings.load_profile("qnc")


@pytest.fixture
def announce(capfd):
    """Print a line to the real terminal even while pytest captures output."""

    def _announce(line: str) -> None:
        with capfd.disabled():
            print(line, flush=True)

    return _announce
