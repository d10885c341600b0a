import numpy as np
import pytest

from withinperfect.cache import read_segment, write_segment
from withinperfect.errors import CacheChecksumError, CacheFormatError
from withinperfect.sieve import SigmaSource, sieve_segment


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


def test_source_resieves_corrupt_cache(tmp_path):
    source = SigmaSource(segment_length=2**10, cache_dir=str(tmp_path))
    list(source.segments(2000))
    victim = tmp_path / "sigma_1_1024.sgma"
    blob = bytearray(victim.read_bytes())
    blob[50] ^= 0xFF
    victim.write_bytes(bytes(blob))
    segs = list(source.segments(2000))
    assert segs[0].sigma_of(24) == 60  # repaired transparently
