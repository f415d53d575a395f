"""Settings shared by every test module."""

import pytest


@pytest.fixture(autouse=True, scope="session")
def runtime_warnings_are_errors():
    """pyproject's ``error::RuntimeWarning`` filter holds in the test process
    only; the variable carries it to every interpreter a test starts: the
    runner's workers, the demo scripts and the import check."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONWARNINGS", "error::RuntimeWarning")
        yield
