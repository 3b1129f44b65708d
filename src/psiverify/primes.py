"""Segmented prime sieve, a primes-only table, and its binary disk cache.

The sieve produces every prime up to a limit in bounded memory (one segment
of flags at a time) and appends each segment's primes in ascending order,
so the table is identical for any segment size.  The table holds only the
limit and the primes; every sum over them, theta(p_n) = log N_n included,
is accumulated by the one prefix pass in :mod:`psiverify.series`.  After
construction the table is immutable and safe to share across threads.

Cache file layout (little-endian throughout)::

    magic   4s   b"PSIV"
    version u16  2
    flags   u16  0 (reserved)
    limit   u64  sieve upper bound
    count   u64  number of primes
    primes  count * i64  the primes, ascending
    crc     u32  CRC-32 of everything after the header

The loader checks the structure as well as the CRC: the body is exactly
``8 * count`` bytes, the first prime is 2, the primes strictly increase, the
last one is at most ``limit``, ``limit`` is within the sieve cap
:data:`MAX_LIMIT`, and no prime lies between the last one and ``limit`` (the
loader sieves that short segment), so a file cannot claim primes it does
not hold.  A file that fails a check, or that has another version, raises
``ValueError``, and :func:`build_table` rebuilds it.
A cache is reused only when its limit covers the request; a larger request
rebuilds and overwrites it.  The file is written to a unique temporary file
in the cache directory and renamed over the old one, so concurrent builders
never share a temporary file.
"""

from __future__ import annotations

import math
import os
import struct
import sys
import tempfile
import zlib
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

import numpy as np

from .errors import RangeError, ResourceError

__all__ = ["PrimeTable", "build_table", "save_table", "load_table", "inspect_cache"]

DEFAULT_SEGMENT_FLAGS = 1 << 20  # sieve flags per segment; the table does not depend on it
MAX_LIMIT = 1 << 31  # sieve cap: the largest table limit built or loaded
# The maximal prime gap below 2^31 is 292, after 1,453,168,141 (the next record,
# 320, follows 2,300,942,549), so a complete table ends within 292 of its limit.
_MAX_PRIME_GAP = 292
CACHE_FILENAME = "primes.ptab"

_MAGIC = b"PSIV"
_VERSION = 2
_HEADER = struct.Struct("<4sHHQQ")


@dataclass
class PrimeTable:
    """All primes up to ``limit``, ascending.

    Treat as immutable once built.
    """

    limit: int
    primes: array = field(repr=False)

    @property
    def count(self) -> int:
        return len(self.primes)

    def nth_prime(self, n: int) -> int:
        """The n-th prime, 1-indexed (p_1 = 2)."""
        if not 1 <= n <= self.count:
            raise RangeError(f"nth_prime: n={n} outside [1, {self.count}]")
        return self.primes[n - 1]

    def prime_count(self, x: int) -> int:
        """pi(x): number of primes <= x."""
        if x > self.limit:
            raise RangeError(f"prime_count: x={x} beyond table limit {self.limit}")
        return bisect_right(self.primes, x)

    def is_prime(self, x: int) -> bool:
        if x > self.limit:
            raise RangeError(f"is_prime: x={x} beyond table limit {self.limit}")
        i = bisect_left(self.primes, x)
        return i < self.count and self.primes[i] == x


def _simple_sieve(limit: int) -> np.ndarray:
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.nonzero(flags)[0]


def _sieve_segment(lo: int, hi: int, base) -> np.ndarray:
    """The primes in [lo, hi), for 2 <= lo, given ``base``: every prime <= isqrt(hi - 1)."""
    flags = np.ones(hi - lo, dtype=bool)
    for p in base:
        first = max(p * p, ((lo + p - 1) // p) * p)
        if first < hi:
            flags[first - lo :: p] = False
    return np.nonzero(flags)[0] + lo


def build_table(limit: int, *, cache_dir: str | os.PathLike | None = None) -> PrimeTable:
    """Sieve all primes up to ``limit``.

    With ``cache_dir`` set, a cached table whose limit covers the request is
    loaded instead of sieving; otherwise the new table is written back.
    """
    if limit < 2:
        raise RangeError(f"build_table: limit must be >= 2, got {limit}")
    if limit > MAX_LIMIT:
        raise ResourceError(f"build_table: limit {limit} exceeds the sieve cap {MAX_LIMIT}")

    cache_file = None
    if cache_dir is not None:
        cache_file = os.path.join(os.fspath(cache_dir), CACHE_FILENAME)
        try:
            cached = load_table(cache_file)
        except (OSError, ValueError):  # missing, unreadable, malformed or another version
            cached = None
        if cached is not None and cached.limit >= limit:
            return cached

    # the base primes are all primes <= isqrt(limit); the segments cover the rest
    root = math.isqrt(limit)
    base = _simple_sieve(root).tolist()
    primes = array("q", base)
    lo = root + 1
    while lo <= limit:
        hi = min(lo + DEFAULT_SEGMENT_FLAGS, limit + 1)
        primes.extend(_sieve_segment(lo, hi, base).tolist())
        lo = hi

    table = PrimeTable(limit=limit, primes=primes)
    if cache_file is not None:
        os.makedirs(os.fspath(cache_dir), exist_ok=True)
        save_table(table, cache_file)
    return table


def save_table(table: PrimeTable, path: str | os.PathLike) -> None:
    path = os.fspath(path)
    body = np.asarray(table.primes, dtype="<i8").tobytes()
    header = _HEADER.pack(_MAGIC, _VERSION, 0, table.limit, table.count)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", prefix=os.path.basename(path) + ".")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(header)
            fh.write(body)
            fh.write(struct.pack("<I", zlib.crc32(body)))
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def load_table(path: str | os.PathLike) -> PrimeTable:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HEADER.size + 4:
        raise ValueError("prime cache truncated")
    magic, version, _, limit, count = _HEADER.unpack_from(blob, 0)
    if magic != _MAGIC:
        raise ValueError("not a psiverify prime cache")
    if version != _VERSION:
        raise ValueError(f"unsupported prime cache version {version}")
    body = memoryview(blob)[_HEADER.size : -4]
    (crc,) = struct.unpack("<I", blob[-4:])
    if zlib.crc32(body) != crc:
        raise ValueError("prime cache checksum mismatch")
    if len(body) != 8 * count:
        raise ValueError(f"prime cache body holds {len(body)} bytes; {count} primes need {8 * count}")
    table = PrimeTable(limit=limit, primes=array("q"))
    table.primes.frombytes(body)  # the one copy of the primes
    if sys.byteorder == "big":
        table.primes.byteswap()
    primes = np.frombuffer(table.primes, dtype=np.int64)
    if count == 0 or primes[0] != 2:
        raise ValueError("prime cache does not start at the prime 2")
    if not np.all(primes[1:] > primes[:-1]):
        raise ValueError("prime cache primes do not strictly increase")
    last = int(primes[-1])
    if last > limit:
        raise ValueError(f"prime cache holds prime {last} above its limit {limit}")
    if limit > MAX_LIMIT:
        raise ValueError(f"prime cache limit {limit} exceeds the sieve cap {MAX_LIMIT}")
    # the file holds every prime up to its limit only if (last, limit] holds none
    base = _simple_sieve(math.isqrt(limit)).tolist()
    if limit - last > _MAX_PRIME_GAP or _sieve_segment(last + 1, limit + 1, base).size:
        raise ValueError(f"prime cache claims limit {limit} but lacks the primes between {last} and it")
    return table


def inspect_cache(path: str | os.PathLike) -> dict:
    from .series import prefix_sums  # series builds on this module

    table = load_table(path)
    _, theta, _ = next(prefix_sums(table, (), (table.count,)))
    return {
        "path": os.fspath(path),
        "limit": table.limit,
        "count": table.count,
        "largest_prime": table.primes[-1],
        "theta_at_limit": theta[0],
        "theta_radius_at_limit": theta[1],
    }
