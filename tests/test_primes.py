"""Sieve correctness, theta from the prefix pass, and the cache format."""

from __future__ import annotations

import math
import os
import struct
import tracemalloc
import zlib
from bisect import bisect_right

import mpmath as mp
import pytest

from psiverify.arith import primorial
from psiverify.bounds import _BALL, DUAL
from psiverify.errors import RangeError, ResourceError
from psiverify.numerics import log_ball, log_int_ball
from psiverify.primes import build_table, inspect_cache, load_table, save_table
from psiverify.series import prefix_sums


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


def theta_at(table, x: int):
    """Certified theta(x), the sum of log p over primes p <= x, from the prefix pass."""
    _, theta, _ = next(prefix_sums(table, (), (table.prime_count(x),)))
    return theta


def test_theta_examples():
    t = build_table(30)
    value, radius = theta_at(t, 2)
    assert abs(value - math.log(2)) <= radius + 1e-15
    value, radius = th7 = theta_at(t, 7)
    # log(210) = 5.34710753..., oracle: sum of four logs at 100 digits
    with mp.workdps(100):
        oracle = mp.fsum(mp.log(p) for p in (2, 3, 5, 7))
        assert mp.mpf(value) - radius <= oracle <= mp.mpf(value) + radius
    assert abs(value - 5.347107530717469) < 1e-12
    # no prime in (7, 10]
    assert theta_at(t, 10)[0] == th7[0]
    # ten logs: 22.59039453011566 (high-precision summation oracle)
    value, radius = theta_at(t, 30)
    with mp.workdps(100):
        oracle = mp.fsum(mp.log(p) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29))
        assert mp.mpf(value) - radius <= oracle <= mp.mpf(value) + radius
    assert abs(value - 22.590394530115656) < 1e-12


def test_theta_range_errors():
    t = build_table(100)
    # a pass past the last prime, a point beyond the limit, a descending index
    with pytest.raises(RangeError):
        next(prefix_sums(t, (), (t.count + 1,)))
    with pytest.raises(RangeError):
        theta_at(t, 101)
    with pytest.raises(RangeError):
        list(prefix_sums(t, (), (5, 4)))


def test_theta_recurrence():
    t = build_table(2000)
    thetas = [theta for _, theta, _ in prefix_sums(t, (), range(1, t.count + 1))]
    prev = thetas[0]
    for x in range(3, 2001):
        cur = thetas[t.prime_count(x) - 1]
        if t.is_prime(x):
            expected = prev[0] + math.log(x)
            assert abs(cur[0] - expected) <= prev[1] + cur[1] + 4 * math.ulp(expected)
        else:
            assert cur == prev
        prev = cur


def test_theta_prefix_strictly_increasing(table):
    vals = [theta[0] for _, theta, _ in prefix_sums(table, (), range(1, table.count + 1))]
    assert len(vals) == table.count
    assert all(vals[i] < vals[i + 1] for i in range(len(vals) - 1))


def test_theta_matches_exact_primorial_logs(table):
    # theta(p_n) = log N_n as real numbers; exact-integer logs for n <= 15
    for n, th, _ in prefix_sums(table, (), range(1, 16)):
        ln, ln_radius = log_int_ball(primorial(n, table))
        assert abs(th[0] - ln) <= th[1] + ln_radius


# p^2 - 1, p^2 and p^2 + 1 for every p <= 31: the first multiple a base prime crosses out
_AT_PRIME_SQUARES = sorted({p * p + d for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31) for d in (-1, 0, 1)})


@pytest.mark.parametrize(
    "limits,segment",
    [
        ((10**5,), None),
        (range(2, 2001), None),
        (_AT_PRIME_SQUARES, None),
        # an odd segment length starts segments on both parities, an even one on one
        ((*range(2, 300), *_AT_PRIME_SQUARES, 10**4), 7),
        ((*range(2, 300), *_AT_PRIME_SQUARES, 10**4), 8),
    ],
    ids=["1e5", "every-limit-to-2000", "prime-squares", "segment-7", "segment-8"],
)
def test_sieve_matches_trial_division_to_1e5(monkeypatch, limits, segment):
    import psiverify.primes as primes_mod

    if segment is not None:
        monkeypatch.setattr(primes_mod, "DEFAULT_SEGMENT_FLAGS", segment)
    trial = [n for n in range(2, max(limits) + 1) if trial_is_prime(n)]
    for limit in limits:
        assert list(build_table(limit).primes) == trial[: bisect_right(trial, limit)], limit


def test_segment_size_does_not_change_anything(monkeypatch):
    import psiverify.primes as primes_mod

    base = build_table(50000)
    for seg in (1 << 12, 1 << 14, 1 << 18):
        monkeypatch.setattr(primes_mod, "DEFAULT_SEGMENT_FLAGS", seg)
        other = build_table(50000)
        assert other.primes == base.primes


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
    info = inspect_cache(path)
    assert info["count"] == t.count
    assert info["largest_prime"] == t.primes[-1]
    theta = theta_at(t, t.limit)
    assert (info["theta_at_limit"], info["theta_radius_at_limit"]) == theta


def test_load_table_holds_one_copy_of_the_primes(tmp_path):
    # the primes are read straight into their array: one copy, with a little
    # room for the checks (the file's bytes and then an array read 2.07 times)
    path = tmp_path / "primes.ptab"
    table = build_table(10**6)
    save_table(table, path)
    tracemalloc.start()
    try:
        loaded = load_table(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loaded.primes == table.primes
    assert peak <= 1.1 * 8 * table.count


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
    assert magic == b"PSIV" and version == 2
    assert limit == 100 and count == 25
    # the primes follow the 24-byte header as int64, then the 4-byte CRC
    assert len(blob) == 24 + 8 * 25 + 4
    assert struct.unpack_from("<qq", blob, 24) == (2, 3)
    assert struct.unpack_from("<q", blob, 24 + 8 * 24) == (97,)


def _cache_blob(limit: int, count: int, body: bytes) -> bytes:
    """A cache file with a well-formed header and a valid CRC over ``body``."""
    header = struct.pack("<4sHHQQ", b"PSIV", 2, 0, limit, count)
    return header + body + struct.pack("<I", zlib.crc32(body))


def _primes_body(*primes: int) -> bytes:
    return struct.pack(f"<{len(primes)}q", *primes)


def test_cache_rejects_truncated_gaps_and_primes_above_limit(tmp_path):
    path = tmp_path / "primes.ptab"
    # 168 primes announced, but the body ends inside the first prime
    path.write_bytes(_cache_blob(1000, 168, b"\x02" * 5))
    with pytest.raises(ValueError, match="168 primes need 1344"):
        load_table(path)
    # a well-formed table of the primes to 1000 whose header claims limit 100
    save_table(build_table(1000), path)
    blob = path.read_bytes()
    path.write_bytes(_cache_blob(100, 168, blob[struct.calcsize("<4sHHQQ") : -4]))
    with pytest.raises(ValueError, match="above its limit"):
        load_table(path)


@pytest.mark.parametrize(
    "count,body,message",
    [
        (4, _primes_body(2, 3, 5, 7) + b"\0", "primes need 32"),
        (5, _primes_body(2, 3, 5, 7), "primes need 40"),
        (0, b"", "start at the prime 2"),
        (3, _primes_body(3, 5, 7), "start at the prime 2"),
        (5, _primes_body(2, 3, 5, 5, 7), "strictly increase"),
        (4, _primes_body(2, 5, 3, 7), "strictly increase"),
        (4, _primes_body(2, 3, 5, 31), "above its limit"),
        (2**61, _primes_body(2, 3, 5, 7), "primes need"),
    ],
    ids=["padded", "short", "empty", "no-2", "repeated", "descending", "above-limit", "huge-count"],
)
def test_cache_rejects_malformed_prime_blocks(tmp_path, count, body, message):
    # every file here has a valid CRC and limit 30, so only the structure checks can catch it;
    # the size is checked before the primes are allocated, so a huge count raises no MemoryError
    path = tmp_path / "primes.ptab"
    path.write_bytes(_cache_blob(30, count, body))
    with pytest.raises(ValueError, match=message):
        load_table(path)


def _short_cache(path, limit: int) -> None:
    """A CRC-valid cache of the primes to 50000 whose header claims ``limit``."""
    save_table(build_table(50000), path)
    blob = path.read_bytes()
    path.write_bytes(_cache_blob(limit, 5133, blob[struct.calcsize("<4sHHQQ") : -4]))


@pytest.mark.parametrize(
    "limit,message",
    [(100000, "lacks the primes between 49999 and it"), (50021, "lacks the primes"), (2**40, "sieve cap")],
    ids=["long-tail", "short-tail", "beyond-cap"],
)
def test_cache_rejects_a_limit_its_primes_do_not_reach(tmp_path, limit, message):
    # 50021 is the first prime after 49999: a header limit at or above it claims
    # a prime the file lacks, and a limit above the sieve cap is never honest
    path = tmp_path / "primes.ptab"
    _short_cache(path, limit)
    with pytest.raises(ValueError, match=message):
        load_table(path)
    _short_cache(path, 50020)  # (49999, 50020] holds no prime
    assert load_table(path).limit == 50020


def _log_g(table, x: int) -> float:
    """log g, the log of the DUAL row's lhs, at the largest prime <= x; it depends on theta and inv only."""
    n = table.prime_count(x)
    ((_, theta, sums),) = prefix_sums(table, DUAL.sums, (n,))
    return log_ball(DUAL.sides(_BALL, table.nth_prime(n), log_ball(theta), *sums)[0])[0]


def test_build_table_replaces_a_cache_that_lacks_primes(tmp_path):
    # the short cache would serve this request, and a criterion value built on
    # it would be certified from the wrong primes
    _short_cache(tmp_path / "primes.ptab", 100000)
    table = build_table(60000, cache_dir=tmp_path)
    assert table.limit == 60000 and table.primes == build_table(60000).primes
    assert abs(_log_g(table, 55000) - -0.00082303) < 1e-8
    assert load_table(tmp_path / "primes.ptab").limit == 60000


@pytest.mark.xfail(
    strict=True,
    reason="the CRC and the structure checks catch corruption and truncation, not a crafted file "
    "that omits a prime; ROADMAP item 5 adds the check that makes this pass",
)
def test_build_table_rejects_a_cache_that_omits_a_prime(tmp_path):
    # a CRC-valid cache of the primes to 60000 without 30011 passes every loader check,
    # and build_table serves its 6056 primes
    honest = build_table(60000)
    crafted = [p for p in honest.primes if p != 30011]
    (tmp_path / "primes.ptab").write_bytes(_cache_blob(60000, len(crafted), _primes_body(*crafted)))
    table = build_table(55000, cache_dir=tmp_path)
    lhs = _log_g(table, 55000)  # -0.00080699 from the crafted file
    assert abs(lhs - -0.00082303) < 1e-8
    assert table.primes[: table.prime_count(55000)] == honest.primes[: honest.prime_count(55000)]


def test_save_table_leaves_no_temp_file_when_the_write_fails(tmp_path, monkeypatch):
    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="disk full"):
        save_table(build_table(100), tmp_path / "primes.ptab")
    assert list(tmp_path.iterdir()) == []
