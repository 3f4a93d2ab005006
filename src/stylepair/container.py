"""Readers/writers for the IEMB binary container and typed JSONL.

A container is the 4-byte magic "IEMB", a u32 format version, a 4-byte
sub-chunk tag ("STYL", "ADPT"; none for embeddings), a block of scalar
fields, then the arrays. Everything is little-endian, and a file must end
where its last array ends. `write_container`/`read_container` are the
only code that knows this framing; each artifact module names its fields
and arrays.

Pair, truth and latent files are JSON Lines: a header object whose "kind"
names the file type, then one object per record.

Every writer goes through `atomic_write`, so a failed or interrupted write
leaves the previous file (or no file), never a half-written one.
"""

import contextlib
import json
import os
import struct
from typing import BinaryIO

import numpy as np

from .errors import MagicMismatch, TrailingBytes, TruncatedFile, VersionUnsupported

MAGIC = b"IEMB"
VERSION = 1
STYLE_CHUNK = b"STYL"
ADAPTER_CHUNK = b"ADPT"


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
    buf = read_exact(f, dt.itemsize * count, what)
    return np.frombuffer(buf, dtype=dt).copy()


def write_array(f: BinaryIO, arr: np.ndarray, dtype: str) -> None:
    f.write(np.ascontiguousarray(arr, dtype=np.dtype(dtype)).tobytes())


def write_container(path: str | os.PathLike, tag: bytes, fields: str, values,
                    arrays) -> None:
    """Write magic, version, `tag`, `values` packed little-endian as the struct format
    `fields`, then each (array, dtype) of `arrays`."""
    with atomic_write(path) as f:
        f.write(MAGIC + struct.pack("<I", VERSION) + tag + struct.pack("<" + fields, *values))
        for arr, dtype in arrays:
            write_array(f, arr, dtype)


@contextlib.contextmanager
def read_container(path: str | os.PathLike, tag: bytes, fields: str, what: str):
    """Yield (file, field values) with the file at the first array.

    The caller reads the arrays with `read_array`; once it has, the file
    must have ended (TrailingBytes otherwise). A tagless container must not
    hold a tagged sub-chunk.
    """
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
            raise TrailingBytes(f"{path}: bytes follow the end of the {what} payload")


def write_records(path: str | os.PathLike, header: dict, records) -> None:
    with atomic_write(path, "w", encoding="utf-8") as f:
        f.write(json.dumps(header) + "\n")
        for record in records:
            f.write(json.dumps(record) + "\n")


def _typed_header(f, path, kind: str) -> dict:
    header = json.loads(f.readline() or "null")
    if not isinstance(header, dict) or header.get("kind") != kind:
        raise ValueError(f"{path} is not a {kind} file")
    return header


def read_record_header(path: str | os.PathLike, kind: str) -> dict:
    """Header of a typed JSONL file; the records are not read."""
    with open(path, "r", encoding="utf-8") as f:
        return _typed_header(f, path, kind)


def read_records(path: str | os.PathLike, kind: str) -> tuple[dict, list[dict]]:
    with open(path, "r", encoding="utf-8") as f:
        header = _typed_header(f, path, kind)
        return header, [json.loads(line) for line in f if line.strip()]
