"""The write-once store of frozen oracle values in ``tests/fixtures.json``."""

import json
from pathlib import Path

from shufflemix.report import json_bytes


class FixtureStore:
    """Write-once store of frozen oracle values.

    Each entry carries the value and a provenance note naming the oracle that
    produced it.  Overwriting requires force=True; routine runs must never
    silently regenerate a fixture.
    """

    def __init__(self, path):
        self.path = Path(path)
        self._data = {}
        if self.path.exists():
            self._data = json.loads(self.path.read_text(encoding="utf-8"))

    def __contains__(self, key):
        return key in self._data

    def get(self, key):
        entry = self._data.get(key)
        if entry is None:
            raise KeyError(f"no fixture {key!r} in {self.path}")
        return entry["value"]

    def note(self, key) -> str:
        return self._data[key]["note"]

    def record(self, key, value, note, force=False):
        if key in self._data and not force:
            raise ValueError(f"fixture {key!r} already frozen; pass force=True to overwrite")
        self._data[key] = {"value": json.loads(json_bytes(value)), "note": note}
        self.path.write_bytes(json_bytes(self._data))

    def keys(self):
        return sorted(self._data)
