"""Serialization, run manifests, and the package's record base.

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
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__ as TOOL_VERSION

# the variables OpenBLAS reads at load for its kernel and thread count
_BLAS_VARIABLES = ("OPENBLAS_CORETYPE", "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                   "OMP_NUM_THREADS")


class Record:
    """A frozen record: its fields, in order, are its class's ``__slots__``,
    and one ``__init__``, ``==``, ``hash`` and ``repr`` serve every class, so
    creating a record class generates no code.  A field not given takes the
    ``_defaults`` value, else a fresh ``_factories`` value; ``__post_init__``,
    the class's check, runs on construction and on :meth:`_replace`; ``==``
    (within one class) and ``hash`` skip the ``_uncompared`` fields.  Fields
    are set only by ``object.__setattr__``."""

    __slots__ = ()
    _defaults: dict = {}
    _factories: dict = {}
    _uncompared: tuple = ()

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        for name in names[len(args):]:
            if name in kwargs:
                value = kwargs.pop(name)
            elif name in self._defaults:
                value = self._defaults[name]
            elif name in self._factories:
                value = self._factories[name]()
            else:
                raise TypeError(f"{type(self).__name__} is missing field {name!r}")
            object.__setattr__(self, name, value)
        if kwargs or len(args) > len(names):
            raise TypeError(f"{type(self).__name__} takes the fields {names}, got {len(args)} "
                            f"by position and {sorted(kwargs)} left over")
        self.__post_init__()

    def __post_init__(self):
        pass

    def _asdict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}

    def _replace(self, **changes):
        """A copy with the named fields changed, checked as a new record is."""
        return type(self)(**{**self._asdict(), **changes})

    def _key(self) -> tuple:
        return tuple([getattr(self, n) for n in self.__slots__ if n not in self._uncompared])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete {type(self).__name__}.{name}")

    __delattr__ = __setattr__

    def __repr__(self):
        shown = ", ".join(f"{k}={v!r}" for k, v in self._asdict().items() if k[0] != "_")
        return f"{type(self).__qualname__}({shown})"


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
    {re, im}, a :class:`Record` as {field: value} over every field, a numpy
    array or scalar by tolist."""
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, Record):
        return obj._asdict()
    if hasattr(obj, "tolist"):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_env() -> dict:
    """The versions payload bytes may depend on: python, numpy, the platform
    (numpy's summation order), the BLAS build (``blas``), numpy's found SIMD
    features and the OpenBLAS variables set.  The kernel OpenBLAS runs, which
    Fourier payloads depend on, is recorded only when OPENBLAS_CORETYPE is set."""
    uname = os.uname() if hasattr(os, "uname") else None
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return {
        "python": ".".join(map(str, sys.version_info[:3])),
        "numpy": np.__version__,
        "platform": (f"{uname.sysname}-{uname.release}-{uname.machine}"
                     if uname else sys.platform),
        "blas": f"{blas['name']} {blas['version']}",
        "simd": list(config["SIMD Extensions"]["found"]),   # a copy: config is numpy's own
        **{var: os.environ[var] for var in _BLAS_VARIABLES if var in os.environ},
    }


class RunManifest(Record):
    """Record of one CLI invocation, sufficient to replay it; mutable, since a
    run fills it in.  ``outputs`` maps a file name to the sha256 of its bytes."""

    __slots__ = ("subcommand", "argv", "params", "seed", "version", "started", "finished",
                 "outputs", "env")
    _defaults = {"version": TOOL_VERSION, "started": "", "finished": ""}
    _factories = {"outputs": dict, "env": run_env}
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def start(self):
        self.started = datetime.datetime.now(datetime.timezone.utc).isoformat()

    def finish(self):
        self.finished = datetime.datetime.now(datetime.timezone.utc).isoformat()

    def add_output(self, path: Path, data: bytes):
        self.outputs[Path(path).name] = sha256_hex(data)

    def write(self, path) -> Path:
        return emit_json(path, self._asdict())

    def write_failure(self, path, status: str, error: str, trace) -> Path:
        """The manifest of a run that stopped early: every field of a
        successful one (outputs lists what was written before the stop) plus
        the failure's status, message and diagnostic trace."""
        return emit_json(path, {**self._asdict(), "status": status, "error": error,
                                "trace": trace})

    @staticmethod
    def load(path) -> "RunManifest":
        """A saved manifest; a failed run's status, error and trace are dropped."""
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
        return RunManifest(**{"seed": None, "env": {},
                              **{k: v for k, v in raw.items() if k in RunManifest.__slots__}})
