"""Low-level readers/writers for the IEMB binary container and typed JSONL.

All integers and floats are little-endian. A container starts with the
4-byte magic "IEMB" and a u32 format version. What follows is either the
embedding payload (count/dim/flags/ids/data) or a tagged sub-chunk
("STYL", "ADPT") for model parameters.

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

from .errors import MagicMismatch, TruncatedFile, VersionUnsupported

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


def read_u32(f: BinaryIO, what: str) -> int:
    return struct.unpack("<I", read_exact(f, 4, what))[0]


def read_u64(f: BinaryIO, what: str) -> int:
    return struct.unpack("<Q", read_exact(f, 8, what))[0]


def read_f64(f: BinaryIO, what: str) -> float:
    return struct.unpack("<d", read_exact(f, 8, what))[0]


def write_u32(f: BinaryIO, value: int) -> None:
    f.write(struct.pack("<I", value))


def write_u64(f: BinaryIO, value: int) -> None:
    f.write(struct.pack("<Q", value))


def write_f64(f: BinaryIO, value: float) -> None:
    f.write(struct.pack("<d", value))


def write_header(f: BinaryIO) -> None:
    f.write(MAGIC)
    write_u32(f, VERSION)


def read_header(f: BinaryIO) -> None:
    magic = read_exact(f, 4, "magic")
    if magic != MAGIC:
        raise MagicMismatch(f"expected {MAGIC!r}, found {magic!r}")
    version = read_u32(f, "version")
    if version != VERSION:
        raise VersionUnsupported(f"format version {version} not supported")


def read_chunk_tag(f: BinaryIO, expected: bytes) -> None:
    tag = read_exact(f, 4, "chunk tag")
    if tag != expected:
        raise MagicMismatch(f"expected {expected!r} sub-chunk, found {tag!r}")


def read_array(f: BinaryIO, dtype: str, count: int, what: str) -> np.ndarray:
    dt = np.dtype(dtype)
    buf = read_exact(f, dt.itemsize * count, what)
    return np.frombuffer(buf, dtype=dt).copy()


def write_array(f: BinaryIO, arr: np.ndarray, dtype: str) -> None:
    f.write(np.ascontiguousarray(arr, dtype=np.dtype(dtype)).tobytes())


def write_string(f: BinaryIO, text: str) -> None:
    raw = text.encode("utf-8")
    write_u32(f, len(raw))
    f.write(raw)


def read_string(f: BinaryIO, what: str) -> str:
    length = read_u32(f, f"{what} length")
    return read_exact(f, length, what).decode("utf-8")


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
