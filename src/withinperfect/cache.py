"""Binary on-disk format for sieved segments.

Layout: magic b"SGMA", version u32, lo u64, hi u64 (all little-endian),
then the sigma payload as little-endian u64 values, then a CRC32 of the
payload as a u32 trailer.
"""

from __future__ import annotations

import os
import struct
import zlib

import numpy as np

from .errors import CacheChecksumError, CacheFormatError
from .sieve import SigmaSegment

MAGIC = b"SGMA"
VERSION = 1
_HEADER = struct.Struct("<4sIQQ")
_TRAILER = struct.Struct("<I")


def write_segment(segment: SigmaSegment, path: str) -> None:
    """Persist a segment; the write is atomic (temp file + rename)."""
    payload = np.ascontiguousarray(segment.sigma, dtype="<u8")  # no copy on a little-endian host
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, segment.lo, segment.hi))
        fh.write(payload)
        fh.write(_TRAILER.pack(zlib.crc32(payload)))
    os.replace(tmp, path)


def read_segment(path: str) -> SigmaSegment:
    """Load a segment, rejecting bad magic/version/length/checksum.  The sigma
    array is a read-only view of the bytes read, not a copy."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HEADER.size + _TRAILER.size:
        raise CacheFormatError(f"{path}: truncated header")
    magic, version, lo, hi = _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise CacheFormatError(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise CacheFormatError(f"{path}: unsupported version {version}")
    if hi < lo or lo < 1:
        raise CacheFormatError(f"{path}: bad range [{lo}, {hi}]")
    expected = _HEADER.size + (hi - lo + 1) * 8 + _TRAILER.size
    if len(blob) != expected:
        raise CacheChecksumError(f"{path}: expected {expected} bytes, found {len(blob)}")
    payload = memoryview(blob)[_HEADER.size : -_TRAILER.size]
    (crc,) = _TRAILER.unpack_from(blob, len(blob) - _TRAILER.size)
    if zlib.crc32(payload) != crc:
        raise CacheChecksumError(f"{path}: CRC32 mismatch")
    return SigmaSegment(lo, hi, np.frombuffer(payload, dtype="<u8"))
