"""Sieve correctness, theta certification, and the cache format."""

from __future__ import annotations

import math
import struct
import zlib

import mpmath as mp
import pytest

from psiverify.arith import primorial
from psiverify.errors import RangeError, ResourceError
from psiverify.numerics import cv_log_int
from psiverify.primes import build_table, inspect_cache, load_table, save_table


def trial_is_prime(n: int) -> bool:
    if n < 2:
        return False
    for d in range(2, math.isqrt(n) + 1):
        if n % d == 0:
            return False
    return True


def test_first_primes():
    assert list(build_table(10).primes) == [2, 3, 5, 7]


def test_prime_count_at_20000():
    # exactly 2262 primes below 20000: the first prime >= 20000 has index 2263
    t = build_table(20000)
    assert t.prime_count(19999) == 2262


def test_nth_prime_small():
    t = build_table(100)
    assert t.nth_prime(1) == 2
    assert t.nth_prime(4) == 7
    with pytest.raises(RangeError):
        t.nth_prime(0)
    with pytest.raises(RangeError):
        t.nth_prime(t.count + 1)


def test_nth_prime_2263_is_first_at_20000(table):
    p = table.nth_prime(2263)
    assert p == 20011
    assert p >= 20000
    assert trial_is_prime(p)
    assert table.nth_prime(2262) < 20000
    for m in range(20000, p):
        assert not trial_is_prime(m)


def test_theta_examples():
    t = build_table(30)
    th2 = t.theta(2)
    assert abs(th2.value - math.log(2)) <= th2.radius + 1e-15
    th7 = t.theta(7)
    # log(210) = 5.34710753..., oracle: sum of four logs at 100 digits
    with mp.workdps(100):
        oracle = mp.fsum(mp.log(p) for p in (2, 3, 5, 7))
        assert mp.mpf(th7.value) - th7.radius <= oracle <= mp.mpf(th7.value) + th7.radius
    assert abs(th7.value - 5.347107530717469) < 1e-12
    # no prime in (7, 10]
    assert t.theta(10).value == th7.value
    # ten logs: 22.59039453011566 (high-precision summation oracle)
    th30 = t.theta(30)
    with mp.workdps(100):
        oracle = mp.fsum(mp.log(p) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29))
        assert mp.mpf(th30.value) - th30.radius <= oracle <= mp.mpf(th30.value) + th30.radius
    assert abs(th30.value - 22.590394530115656) < 1e-12


def test_theta_range_errors():
    t = build_table(100)
    with pytest.raises(RangeError):
        t.theta(1)
    with pytest.raises(RangeError):
        t.theta(101)


def test_theta_recurrence():
    t = build_table(2000)
    prev = t.theta(2)
    for x in range(3, 2001):
        cur = t.theta(x)
        if t.is_prime(x):
            expected = prev.value + math.log(x)
            assert abs(cur.value - expected) <= prev.radius + cur.radius + 4 * math.ulp(expected)
        else:
            assert cur.value == prev.value and cur.radius == prev.radius
        prev = cur


def test_theta_prefix_strictly_increasing(table):
    vals = table.theta_values
    assert all(vals[i] < vals[i + 1] for i in range(len(vals) - 1))


def test_theta_matches_exact_primorial_logs(table):
    # theta(p_n) = log N_n as real numbers; exact-integer logs for n <= 15
    for n in range(1, 16):
        th = table.theta_at_index(n)
        ln = cv_log_int(primorial(n, table))
        assert abs(th.value - ln.value) <= th.radius + ln.radius


def test_sieve_matches_trial_division_to_1e5():
    t = build_table(10**5)
    sieved = set(t.primes)
    for n in range(2, 10**5 + 1):
        assert (n in sieved) == trial_is_prime(n)


def test_segment_size_does_not_change_anything():
    base = build_table(50000)
    for seg in (1 << 12, 1 << 14, 1 << 18):
        other = build_table(50000, segment_size=seg)
        assert other.primes == base.primes
        assert other.theta_values == base.theta_values
        assert other.theta_radii == base.theta_radii


def test_build_guards():
    with pytest.raises(RangeError):
        build_table(1)
    with pytest.raises(ResourceError):
        build_table(10**12)


# ---------------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------------


def test_cache_roundtrip(tmp_path):
    t = build_table(12345)
    path = tmp_path / "primes.ptab"
    save_table(t, path)
    loaded = load_table(path)
    assert loaded.limit == t.limit
    assert loaded.primes == t.primes
    assert loaded.theta_values == t.theta_values
    assert loaded.theta_radii == t.theta_radii
    info = inspect_cache(path)
    assert info["count"] == t.count
    assert info["largest_prime"] == t.primes[-1]


def test_cache_reuse_and_invalidation(tmp_path):
    t1 = build_table(10000, cache_dir=tmp_path)
    assert (tmp_path / "primes.ptab").exists()
    # smaller request reuses the cached, larger table
    t2 = build_table(5000, cache_dir=tmp_path)
    assert t2.limit == 10000
    # larger request invalidates and rebuilds
    t3 = build_table(20000, cache_dir=tmp_path)
    assert t3.limit == 20000
    assert load_table(tmp_path / "primes.ptab").limit == 20000
    assert t1.primes == t3.primes[: t1.count]


def test_cache_rejects_corruption(tmp_path):
    t = build_table(1000)
    path = tmp_path / "primes.ptab"
    save_table(t, path)
    blob = bytearray(path.read_bytes())
    blob[40] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError):
        load_table(path)


def test_cache_rejects_bad_magic_and_version(tmp_path):
    t = build_table(1000)
    path = tmp_path / "primes.ptab"
    save_table(t, path)
    blob = bytearray(path.read_bytes())
    good = bytes(blob)
    blob[:4] = b"XXXX"
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError):
        load_table(path)
    blob = bytearray(good)
    blob[4:6] = struct.pack("<H", 99)
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError):
        load_table(path)


def test_cache_file_is_little_endian_layout(tmp_path):
    t = build_table(100)
    path = tmp_path / "primes.ptab"
    save_table(t, path)
    blob = path.read_bytes()
    magic, version, _, limit, count = struct.unpack_from("<4sHHQQ", blob, 0)
    assert magic == b"PSIV" and version == 1
    assert limit == 100 and count == 25
    # first varint gap is 2 (0 -> 2), second is 1 (2 -> 3)
    assert blob[24] == 2 and blob[25] == 1


def _cache_blob(limit: int, count: int, body: bytes) -> bytes:
    """A cache file with a well-formed header and a valid CRC over ``body``."""
    header = struct.pack("<4sHHQQ", b"PSIV", 1, 0, limit, count)
    return header + body + struct.pack("<I", zlib.crc32(body))


def test_cache_rejects_truncated_gaps_and_primes_above_limit(tmp_path):
    path = tmp_path / "primes.ptab"
    # 168 primes announced, but the body ends inside the first varint
    path.write_bytes(_cache_blob(1000, 168, b"\x82" * 5))
    with pytest.raises(ValueError, match="truncated"):
        load_table(path)
    # a well-formed table of the primes to 1000 whose header claims limit 100
    save_table(build_table(1000), path)
    blob = path.read_bytes()
    path.write_bytes(_cache_blob(100, 168, blob[struct.calcsize("<4sHHQQ") : -4]))
    with pytest.raises(ValueError, match="above its limit"):
        load_table(path)
