"""Serialization and run manifests.

Output contract: CSV is RFC-4180 style (comma separated, header row, LF line
endings); JSON uses UTF-8 with sorted keys.  Rationals render as "p/q"
strings.  Doubles roundtrip exactly: CSV cells carry 17 significant digits,
JSON the shortest round-trip form json.dumps writes.  Payload files carry no timestamps; manifests do, so replaying a
manifest reproduces byte-identical payloads while the manifest itself may
differ in its clock fields.
"""

from __future__ import annotations

import csv
import datetime
import hashlib
import io
import json
import os
import sys
from dataclasses import asdict, dataclass, field, fields
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__ as TOOL_VERSION


def render_value(v) -> str:
    """A CSV cell: floats (numpy's too) to 17 significant digits, Python
    bools as true/false, anything else, a Fraction's "p/q" included, by str."""
    if isinstance(v, float):
        return format(v, ".17g")
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def csv_bytes(header, rows) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(map(render_value, row) for row in rows)
    return buf.getvalue().encode("utf-8")


def json_bytes(obj) -> bytes:
    """obj as indented JSON with sorted keys and a final newline, in one
    json.dumps pass (:func:`_json_default`); every dict key is a string."""
    text = json.dumps(obj, sort_keys=True, indent=2, default=_json_default)
    return (text + "\n").encode("utf-8")


def emit_json(path, obj) -> Path:
    path = Path(path)
    path.write_bytes(json_bytes(obj))
    return path


def _json_default(obj):
    """What json.dumps cannot write itself, one level down (json.dumps calls
    this again on anything inside): a Fraction as "p/q", a complex as
    {re, im}, a dataclass as its fields, a numpy array or scalar by tolist."""
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if hasattr(obj, "__dataclass_fields__"):
        return {f.name: getattr(obj, f.name) for f in fields(obj)}
    if hasattr(obj, "tolist"):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_env() -> dict:
    """The versions payload bytes may depend on: python, numpy, and the
    platform (exact tails and spectra depend on numpy's summation order)."""
    uname = os.uname() if hasattr(os, "uname") else None
    return {
        "python": ".".join(map(str, sys.version_info[:3])),
        "numpy": np.__version__,
        "platform": (f"{uname.sysname}-{uname.release}-{uname.machine}"
                     if uname else sys.platform),
    }


@dataclass
class RunManifest:
    """Record of one CLI invocation, sufficient to replay it."""

    subcommand: str
    argv: list
    params: dict
    seed: int | None
    version: str = TOOL_VERSION
    started: str = ""
    finished: str = ""
    outputs: dict = field(default_factory=dict)   # filename -> sha256 of bytes
    env: dict = field(default_factory=run_env)

    def start(self):
        self.started = datetime.datetime.now(datetime.timezone.utc).isoformat()

    def finish(self):
        self.finished = datetime.datetime.now(datetime.timezone.utc).isoformat()

    def add_output(self, path: Path, data: bytes):
        self.outputs[Path(path).name] = sha256_hex(data)

    def write(self, path) -> Path:
        return emit_json(path, asdict(self))

    def write_failure(self, path, status: str, error: str, trace) -> Path:
        """The manifest of a run that stopped early: every field of a
        successful one (outputs lists what was written before the stop) plus
        the failure's status, message and diagnostic trace."""
        return emit_json(path, {**asdict(self), "status": status, "error": error,
                                "trace": trace})

    @staticmethod
    def load(path) -> "RunManifest":
        """A saved manifest; a failed run's status, error and trace are dropped."""
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
        names = {f.name for f in fields(RunManifest)}
        return RunManifest(**{"seed": None, "env": {},
                              **{k: v for k, v in raw.items() if k in names}})
