import struct
import zlib

import numpy as np
import pytest

from withinperfect.cache import read_segment, write_segment
from withinperfect.errors import CacheChecksumError, CacheFormatError
from withinperfect.sieve import (U32_SIGMA_LIMIT, SigmaSegment, SigmaSource, sieve_segment,
                                 sigma_oracle)


def test_roundtrip_identity(tmp_path):
    for lo, hi in ((1, 1000), (5000, 6000)):
        seg = sieve_segment(lo, hi)
        path = str(tmp_path / f"s{lo}.sgma")
        write_segment(seg, path)
        back = read_segment(path)
        assert (back.lo, back.hi) == (lo, hi)
        assert np.array_equal(back.sigma, seg.sigma)


def test_truncated_file_rejected(tmp_path):
    path = tmp_path / "seg.sgma"
    write_segment(sieve_segment(1, 500), str(path))
    blob = path.read_bytes()
    path.write_bytes(blob[:-100])
    with pytest.raises(CacheChecksumError):
        read_segment(str(path))


def test_corrupted_payload_rejected(tmp_path):
    path = tmp_path / "seg.sgma"
    write_segment(sieve_segment(1, 500), str(path))
    blob = bytearray(path.read_bytes())
    blob[100] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(CacheChecksumError):
        read_segment(str(path))


def test_wrong_magic_rejected(tmp_path):
    path = tmp_path / "seg.sgma"
    write_segment(sieve_segment(1, 500), str(path))
    blob = bytearray(path.read_bytes())
    blob[:4] = b"NOPE"
    path.write_bytes(bytes(blob))
    with pytest.raises(CacheFormatError):
        read_segment(str(path))


def test_wrong_version_rejected(tmp_path):
    path = tmp_path / "seg.sgma"
    write_segment(sieve_segment(1, 500), str(path))
    blob = bytearray(path.read_bytes())
    blob[4] = 99
    path.write_bytes(bytes(blob))
    with pytest.raises(CacheFormatError):
        read_segment(str(path))


def test_source_populates_and_reuses_cache(tmp_path):
    source = SigmaSource(segment_length=2**10, cache_dir=str(tmp_path))
    first = [s.sigma.copy() for s in source.segments(3000)]
    files = sorted(p.name for p in tmp_path.iterdir())
    assert files == ["sigma_1025_2048.sgma", "sigma_1_1024.sgma", "sigma_2049_3000.sgma"]
    second = [s.sigma.copy() for s in source.segments(3000)]
    for a, b in zip(first, second):
        assert np.array_equal(a, b)


def test_source_makes_a_missing_cache_dir(tmp_path, monkeypatch):
    from withinperfect import sieve
    from withinperfect.distribution import empirical_cdf

    cache_dir = str(tmp_path / "a" / "b")
    grid = ["3/2", "2", "21/10", "3"]
    first = empirical_cdf(5000, grid, SigmaSource(cache_dir=cache_dir, segment_length=1024))
    assert len(list((tmp_path / "a" / "b").iterdir())) == 5  # ceil(5000 / 1024) segments

    def no_sieving(lo, hi):
        raise AssertionError(f"segment [{lo}, {hi}] sieved instead of read")

    monkeypatch.setattr(sieve, "sieve_segment", no_sieving)
    second = empirical_cdf(5000, grid, SigmaSource(cache_dir=cache_dir, segment_length=1024))
    assert second.counts == first.counts


def test_source_resieves_corrupt_cache(tmp_path):
    source = SigmaSource(segment_length=2**10, cache_dir=str(tmp_path))
    list(source.segments(2000))
    victim = tmp_path / "sigma_1_1024.sgma"
    blob = bytearray(victim.read_bytes())
    blob[50] ^= 0xFF
    victim.write_bytes(bytes(blob))
    segs = list(source.segments(2000))
    assert segs[0].sigma_of(24) == 60  # repaired transparently


def _v2_header(lo, hi, width):
    """The 32 header bytes of version 2, spelled out field by field."""
    return (b"SGMA" + (2).to_bytes(4, "little") + lo.to_bytes(8, "little")
            + hi.to_bytes(8, "little") + width.to_bytes(4, "little") + bytes(4))


def test_file_layout_and_read_only_view(tmp_path):
    # a range up to 2^27 is stored as u32
    seg = sieve_segment(7, 700)
    path = tmp_path / "seg.sgma"
    write_segment(seg, str(path))
    payload = np.array([sigma_oracle(n) for n in range(7, 701)], dtype="<u4").tobytes()
    assert path.read_bytes() == (_v2_header(7, 700, 4) + payload
                                 + struct.pack("<I", zlib.crc32(payload)))
    back = read_segment(str(path))
    assert back.sigma.dtype == np.uint32 and not back.sigma.flags.writeable
    assert np.array_equal(back.sigma, seg.sigma)


def test_file_layout_of_a_u64_payload(tmp_path):
    lo, hi = U32_SIGMA_LIMIT + 1, U32_SIGMA_LIMIT + 300
    seg = sieve_segment(lo, hi)
    path = tmp_path / "seg.sgma"
    write_segment(seg, str(path))
    payload = np.array([sigma_oracle(n) for n in range(lo, hi + 1)], dtype="<u8").tobytes()
    blob = path.read_bytes()
    assert blob == _v2_header(lo, hi, 8) + payload + struct.pack("<I", zlib.crc32(payload))
    back = read_segment(str(path))
    assert back.sigma.dtype == np.uint64 and not back.sigma.flags.writeable
    assert back.sigma.flags.aligned  # the 32-byte header keeps u64 aligned
    assert np.array_equal(back.sigma, seg.sigma)


@pytest.mark.parametrize("lo, hi, width", [(7, 700, 8), (U32_SIGMA_LIMIT + 1,
                                                          U32_SIGMA_LIMIT + 300, 4)])
def test_width_not_matching_the_range_is_refused(tmp_path, lo, hi, width):
    payload = np.array([sigma_oracle(n) for n in range(lo, hi + 1)],
                       dtype=f"<u{width}").tobytes()
    path = tmp_path / "seg.sgma"
    path.write_bytes(_v2_header(lo, hi, width) + payload
                     + struct.pack("<I", zlib.crc32(payload)))
    with pytest.raises(CacheFormatError, match="width"):
        read_segment(str(path))
    seg = SigmaSegment(lo, hi, np.frombuffer(payload, dtype=f"<u{width}"))
    with pytest.raises(ValueError, match="bit"):
        write_segment(seg, str(tmp_path / "out.sgma"))


def test_version_1_file_is_resieved_as_version_2(tmp_path):
    # the version-1 layout: a 24-byte header and a u64 payload
    payload = np.array([sigma_oracle(n) for n in range(1, 1025)], dtype="<u8").tobytes()
    v1 = tmp_path / "sigma_1_1024.sgma"
    v1.write_bytes(struct.pack("<4sIQQ", b"SGMA", 1, 1, 1024) + payload
                   + struct.pack("<I", zlib.crc32(payload)))
    with pytest.raises(CacheFormatError, match="version 1"):
        read_segment(str(v1))
    (seg,) = SigmaSource(segment_length=1024, cache_dir=str(tmp_path)).segments(1024)
    assert seg.sigma.tolist() == np.frombuffer(payload, dtype="<u8").tolist()
    fresh = tmp_path / "fresh.sgma"
    write_segment(sieve_segment(1, 1024), str(fresh))
    assert v1.read_bytes() == fresh.read_bytes()
    assert v1.read_bytes()[:32] == _v2_header(1, 1024, 4)
