"""The package's one binary container, and strict readers shared across
modules.

The tensor table is little-endian: magic 'PSCT', u32 version, u32 count,
then per entry u32 name length, utf-8 name, u32 ndim, u32 dims..., float64
data row-major. Checkpoints and saved corpora use it. The reader checks
every size a header declares against the bytes left in the file before
reading, so a bad or truncated file is a DataError, never an attempt to
read more than the file holds. checked_entries then checks the entries a
caller expects, and strict_dataclass builds a config dataclass from a JSON
object that must name each of its fields.
"""

from __future__ import annotations

import dataclasses
import math
import os
import struct

import numpy as np

from .errors import ConfigError, DataError

TABLE_MAGIC = b"PSCT"
FORMAT_VERSION = 1


def _read(fh, n, path, what):
    """Exactly n bytes from fh; fewer left in the file is a DataError naming
    what was being read, raised before reading."""
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if n > left:
        raise DataError(f"{path}: truncated {what} ({left} of {n} bytes)")
    return fh.read(n)


def save_tensor_table(path, table):
    """Write a name -> array mapping; iteration order is sorted by name so
    files are byte-reproducible. Every shape round-trips, 0-d included."""
    with open(path, "wb") as fh:
        fh.write(TABLE_MAGIC)
        fh.write(struct.pack("<II", FORMAT_VERSION, len(table)))
        for name in sorted(table):
            arr = np.asarray(table[name], dtype="<f8")
            raw = name.encode("utf-8")
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<I", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.tobytes())


def load_tensor_table(path):
    out = {}
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != TABLE_MAGIC:
            raise DataError(f"{path}: bad magic {magic!r}, expected {TABLE_MAGIC!r}")
        version, count = struct.unpack("<II", _read(fh, 8, path, "table header"))
        if version != FORMAT_VERSION:
            raise DataError(f"{path}: unsupported table version {version}")
        for i in range(count):
            (nlen,) = struct.unpack("<I", _read(fh, 4, path, f"entry {i} header"))
            try:
                name = _read(fh, nlen, path, f"entry {i} name").decode("utf-8")
            except UnicodeDecodeError as exc:
                raise DataError(f"{path}: entry {i} name is not UTF-8: {exc}") from None
            (ndim,) = struct.unpack("<I", _read(fh, 4, path, f"entry {name!r} header"))
            shape = struct.unpack(f"<{ndim}I", _read(fh, 4 * ndim, path, f"entry {name!r} shape"))
            n = math.prod(shape)  # a Python int: 1 for a 0-d entry, and no overflow
            data = _read(fh, 8 * n, path, f"entry {name!r}")
            out[name] = np.frombuffer(data, dtype="<f8").reshape(shape).copy()
    return out


def checked_entries(table, shapes, source, prefix=""):
    """The float64 arrays table[prefix + name] for every name -> shape in
    shapes, keyed by name. A missing key, a wrong shape or a non-finite
    value is a DataError naming the key, raised before anything is
    returned, so a caller that assigns only the result restores all of the
    entries or none."""
    out = {}
    for name, shape in shapes.items():
        key = prefix + name
        if key not in table:
            raise DataError(f"{source}: missing {key}")
        arr = np.asarray(table[key], dtype=np.float64)
        if arr.shape != shape:
            raise DataError(f"{source}: {key} has shape {arr.shape}, expected {shape}")
        if not np.all(np.isfinite(arr)):
            raise DataError(f"{source}: {key} holds a non-finite value")
        out[name] = arr
    return out


def strict_dataclass(cls, raw):
    """cls(**raw) for a JSON object raw that names every field of the
    dataclass cls and no other; anything else is a ConfigError naming the
    fields. Defaults never fill a gap, so a file read back means what it
    says."""
    if not isinstance(raw, dict):
        raise ConfigError(f"config must be a JSON object, got {type(raw).__name__}")
    expected = {f.name for f in dataclasses.fields(cls)}
    missing = expected - set(raw)
    if missing:
        raise ConfigError(f"missing config field(s): {', '.join(sorted(missing))}")
    unknown = set(raw) - expected
    if unknown:
        raise ConfigError(f"unknown config field(s): {', '.join(sorted(unknown))}")
    return cls(**raw)
