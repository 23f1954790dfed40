import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from fixture_store import FixtureStore

FIXTURES = Path(__file__).parent / "fixtures.json"


@pytest.fixture(scope="session")
def frozen():
    """Read-only access to the write-once oracle fixtures."""
    return FixtureStore(FIXTURES)
