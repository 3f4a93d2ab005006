"""Readers/writers for the IEMB binary container and typed JSONL.

A container is the 4-byte magic "IEMB", a u32 format version, a 4-byte
sub-chunk tag ("STYL", "ADPT"; none for embeddings), a block of scalar
fields, then the arrays. Everything is little-endian, and a file must end
where its last array ends. `write_head` (which `write_container` calls)
and `read_container` are the only code that knows this framing; each
artifact module names its fields and arrays.

Pair, truth and latent files are JSON Lines: a header object whose "kind"
names the file type, then one object per record. `write_records` and
`read_records` hold that format; each module declares its keys' types.

Every writer goes through a temp file beside its path (`atomic_write`), so a
failed or interrupted write leaves the previous file (or no file), never a
half-written one.
"""

import contextlib
import json
import math
import os
import struct
from typing import BinaryIO

import numpy as np

from .errors import (CorruptField, MagicMismatch, NonFiniteValue, StylePairError, TrailingBytes,
                     TruncatedFile, VersionUnsupported)

MAGIC = b"IEMB"
VERSION = 1
STYLE_CHUNK = b"STYL"
ADAPTER_CHUNK = b"ADPT"
RECORDS_PER_WRITE = 4096   # records of a JSONL file formatted and written at once


@contextlib.contextmanager
def atomic_write(path: str | os.PathLike, mode: str = "wb", **kwargs):
    """Open a temp file beside `path`; it replaces `path` only if the block succeeds."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, **kwargs) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def read_exact(f: BinaryIO, n: int, what: str) -> bytes:
    # a corrupt size field must not allocate more than the file can hold
    pos = f.tell()
    left = f.seek(0, os.SEEK_END) - pos
    f.seek(pos)
    if n > left:
        raise TruncatedFile(f"expected {n} bytes for {what}, only {left} left in the file")
    buf = f.read(n)
    if len(buf) != n:
        raise TruncatedFile(f"expected {n} bytes for {what}, got {len(buf)}")
    return buf


def read_array(f: BinaryIO, dtype: str, count: int, what: str) -> np.ndarray:
    dt = np.dtype(dtype)
    # read-only, over the bytes read: a copy would hold the rows twice
    return np.frombuffer(read_exact(f, dt.itemsize * count, what), dtype=dt)


def write_array(f: BinaryIO, arr: np.ndarray, dtype: str) -> None:
    # the array's own bytes, not a copy; a uint8 view, as memoryview.cast refuses 0 rows
    f.write(np.ascontiguousarray(arr, dtype=np.dtype(dtype)).view(np.uint8))


def write_head(f: BinaryIO, tag: bytes, fields: str, values, arrays) -> None:
    """Write magic, version, `tag`, `values` packed little-endian as the struct format
    `fields`, then each (array, dtype) of `arrays`."""
    f.write(MAGIC + struct.pack("<I", VERSION) + tag + struct.pack("<" + fields, *values))
    for arr, dtype in arrays:
        write_array(f, arr, dtype)


def write_container(path: str | os.PathLike, tag: bytes, fields: str, values,
                    arrays) -> None:
    """write_head's bytes, and nothing after them, atomically at `path`."""
    with atomic_write(path) as f:
        write_head(f, tag, fields, values, arrays)


@contextlib.contextmanager
def read_container(path: str | os.PathLike, tag: bytes, fields: str, what: str):
    """Yield (file, field values) with the file at the first array.

    The caller reads the arrays with `read_array`, and builds and checks its
    object, inside the block; once it has, the file must have ended
    (TrailingBytes otherwise). A tagless container must not hold a tagged
    sub-chunk. Any StylePairError raised in the block, here or by the caller,
    gets the path in front of its message.
    """
    try:
        with open(path, "rb") as f:
            magic = read_exact(f, 4, "magic")
            if magic != MAGIC:
                raise MagicMismatch(f"expected {MAGIC!r}, found {magic!r}")
            (version,) = struct.unpack("<I", read_exact(f, 4, "version"))
            if version != VERSION:
                raise VersionUnsupported(f"format version {version} not supported")
            found = read_exact(f, len(tag), "chunk tag") if tag else f.peek(4)[:4]
            if tag and found != tag:
                raise MagicMismatch(f"expected {tag!r} sub-chunk, found {found!r}")
            if not tag and found in (STYLE_CHUNK, ADAPTER_CHUNK):
                raise MagicMismatch(f"file holds a {found.decode()} sub-chunk, not {what}")
            block = struct.Struct("<" + fields)
            yield f, block.unpack(read_exact(f, block.size, f"{what} fields"))
            if f.read(1):
                raise TrailingBytes(f"bytes follow the end of the {what} payload")
    except StylePairError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def write_records(path: str | os.PathLike, header: dict, columns: dict) -> None:
    """Write `header`, then each row of the numpy `columns` as json.dumps writes its dict:
    a number as `str` of its Python value, a string json.dumps'd once per distinct value.
    Records are formatted and written RECORDS_PER_WRITE at a time."""
    lengths = {len(col) for col in columns.values()}
    if len(lengths) > 1:
        raise ValueError("record columns must have equal length")
    for key, value in header.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise NonFiniteValue(f"header field {key!r} is not finite: {value!r}")
    record = "{" + ", ".join(json.dumps(key).replace("%", "%%") + ": %s" for key in columns) + "}\n"
    with atomic_write(path, "w", encoding="utf-8") as f:
        f.write(json.dumps(header) + "\n")
        for lo in range(0, max(lengths, default=0), RECORDS_PER_WRITE):
            cells = []
            for key, col in columns.items():
                part = col[lo:lo + RECORDS_PER_WRITE]
                if part.dtype.kind == "f" and not np.isfinite(part).all():
                    raise NonFiniteValue(f"record column {key!r} holds a non-finite value")
                values = part.tolist()
                cells.append(map({v: json.dumps(v) for v in set(values)}.__getitem__, values)
                             if part.dtype.kind in "OU" else values)
            f.write("".join(map(record.__mod__, zip(*cells))))


_INT64 = range(-2**63, 2**63)
_DTYPES = {int: np.int64, float: np.float64, str: object}   # object keeps every str as read


def _typed(line_no: int, line: bytes, schema: dict, kind: str | None = None) -> list:
    """The values, in `schema` order, of the JSON object on one line; see `read_records`."""
    where = f"line {line_no}"
    try:   # UnicodeDecodeError and JSONDecodeError are ValueErrors
        obj = json.loads(line.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise CorruptField(f"{where}: {exc}") from exc
    if type(obj) is not dict:
        raise CorruptField(f"{where}: expected a JSON object, found {obj!r:.40}")
    if kind is not None and obj.get("kind") != kind:
        raise MagicMismatch(f"{where}: not a {kind} file (kind {obj.get('kind')!r:.40})")
    if obj.keys() != schema.keys():
        key = min(obj.keys() ^ schema.keys())
        raise CorruptField(f"{where}: key {key!r} is {'missing' if key in schema else 'extra'}")
    values = []
    for key, want in schema.items():
        value = obj[key]
        if want is float and type(value) is int and value in _INT64:
            value = float(value)
        if not (type(value) is want and (want is not float or math.isfinite(value))
                and (want is not int or kind is not None or value in _INT64)):
            raise CorruptField(f"{where}: bad {want.__name__} {key!r}: {obj[key]!r:.40}")
        values.append(value)
    return values


@contextlib.contextmanager
def read_records(path: str | os.PathLike, kind: str, fields: dict | None, header_fields: dict):
    """Yield (header, columns: int64, float64 or object arrays); with `fields` None, only the
    header.

    `fields` and `header_fields` map keys to int, float or str. Another "kind" is a MagicMismatch;
    a missing or extra key, a bool or float for an int (or one past int64 in a record), or a
    non-finite float is a CorruptField naming the line and key. The caller builds and checks
    its object inside the block; any StylePairError raised in it, here or by the caller, gets
    the path in front of its message.
    """
    try:
        with open(path, "rb") as f:
            schema = {"kind": str, **header_fields}
            header = dict(zip(schema, _typed(1, f.readline(), schema, kind)))
            rows = None if fields is None else [
                _typed(n, line, fields) for n, line in enumerate(f, start=2) if line.strip()]
        if rows is None:
            yield header, None
        else:
            columns = zip(*rows) if rows else [()] * len(fields)
            yield header, {key: np.array(col, dtype=_DTYPES[want])
                           for (key, want), col in zip(fields.items(), columns)}
    except StylePairError as exc:
        raise type(exc)(f"{path}: {exc}") from exc
