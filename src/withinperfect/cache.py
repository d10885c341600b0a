"""Binary on-disk format for sieved segments.

Layout (version 2): magic b"SGMA", version u32, lo u64, hi u64, payload width
u32 (4 or 8), four zero bytes (all little-endian; the header is 32 bytes, so a
u64 payload stays 8-byte aligned), then the sigma payload as little-endian
unsigned values of that width, then a CRC32 of the payload as a u32 trailer.
The width is the range's (sieve.sigma_dtype): 4 up to hi = U32_SIGMA_LIMIT, 8
above.  A version-1 file (always u64, a 24-byte header) fails the version
check, so SigmaSource resieves and overwrites it.
"""

from __future__ import annotations

import os
import struct
import zlib

import numpy as np

from .errors import CacheChecksumError, CacheFormatError
from .sieve import SigmaSegment, sigma_dtype

MAGIC = b"SGMA"
VERSION = 2
_HEADER = struct.Struct("<4sIQQI4x")
_TRAILER = struct.Struct("<I")


def write_segment(segment: SigmaSegment, path: str) -> None:
    """Persist a segment whose sigma has its range's width (as sieve_segment
    gives it); the write is atomic (temp file + rename)."""
    width = sigma_dtype(segment.hi).itemsize
    if segment.sigma.dtype.itemsize != width:
        raise ValueError(f"sigma over [{segment.lo}, {segment.hi}] must be "
                         f"{8 * width}-bit, not {segment.sigma.dtype}")
    payload = np.ascontiguousarray(segment.sigma, dtype=f"<u{width}")  # no copy on a little-endian host
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, segment.lo, segment.hi, width))
        fh.write(payload)
        fh.write(_TRAILER.pack(zlib.crc32(payload)))
    os.replace(tmp, path)


def read_segment(path: str) -> SigmaSegment:
    """Load a segment, rejecting bad magic/version/range/width/length/checksum.
    The sigma array is a read-only view of the bytes read, not a copy."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HEADER.size + _TRAILER.size:
        raise CacheFormatError(f"{path}: truncated header")
    magic, version, lo, hi, width = _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise CacheFormatError(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise CacheFormatError(f"{path}: unsupported version {version}")
    if hi < lo or lo < 1:
        raise CacheFormatError(f"{path}: bad range [{lo}, {hi}]")
    if width != sigma_dtype(hi).itemsize:
        raise CacheFormatError(f"{path}: payload width {width} does not match "
                               f"the range [{lo}, {hi}]")
    expected = _HEADER.size + (hi - lo + 1) * width + _TRAILER.size
    if len(blob) != expected:
        raise CacheChecksumError(f"{path}: expected {expected} bytes, found {len(blob)}")
    payload = memoryview(blob)[_HEADER.size : -_TRAILER.size]
    (crc,) = _TRAILER.unpack_from(blob, len(blob) - _TRAILER.size)
    if zlib.crc32(payload) != crc:
        raise CacheChecksumError(f"{path}: CRC32 mismatch")
    return SigmaSegment(lo, hi, np.frombuffer(payload, dtype=f"<u{width}"))
