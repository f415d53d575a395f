"""Settings shared by every test module."""

import pytest


@pytest.fixture(autouse=True, scope="session")
def warnings_are_errors(pytestconfig):
    """pyproject's ``filterwarnings`` hold in the test process only; the
    variable carries every one of them to each interpreter a test starts:
    the runner's workers, the demo scripts and the import check."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONWARNINGS",
                  ",".join(pytestconfig.getini("filterwarnings")))
        yield
