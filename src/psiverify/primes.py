"""Segmented prime sieve, a primes-only table, and its binary disk cache.

The sieve produces every prime up to a limit in bounded memory: it finds
the primes up to the square root of the limit, then sieves the rest in
segments, each a ``bytearray`` with one flag per odd number, and appends
each segment's primes in ascending order, so the table is identical for
any segment size.  Sieve, cache and loader use the standard library alone.
The table holds only the limit and the primes; every sum over them,
theta(p_n) = log N_n included, is accumulated by the one prefix pass in
:mod:`psiverify.series`.  After construction the table is immutable and
safe to share across threads.

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
The loader holds one copy of the primes: it checks the file's size against
the header's count before it allocates, then reads the body straight into
the table's array and takes the CRC over that array.
A cache is reused only when its limit covers the request; a larger request
rebuilds and overwrites it.  The file is written to a unique temporary file
in the cache directory and renamed over the old one, so concurrent builders
never share a temporary file.
"""

from __future__ import annotations

import math
import operator
import os
import struct
import sys
import tempfile
import zlib
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import compress, islice, repeat
from typing import Iterator

from .errors import RangeError, ResourceError

__all__ = ["PrimeTable", "build_table", "save_table", "load_table", "inspect_cache"]

DEFAULT_SEGMENT_FLAGS = 1 << 20  # numbers per segment, a flag for each odd one; the table does not depend on it
_CHUNK_FLAGS = 1 << 14  # flags read into primes per step; the table does not depend on it
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


def _small_primes(limit: int) -> list[int]:
    """Every prime <= ``limit``, for the short ranges of the base primes."""
    flags = bytearray(b"\x01") * (limit + 1)
    flags[:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return list(compress(range(limit + 1), flags))


def _odd_primes(lo: int, hi: int, base: list[int]) -> Iterator[list[int]]:
    """The odd primes in [lo, hi), ascending, in one list per chunk of flags.

    Needs 3 <= lo and ``base``: every odd prime <= isqrt(hi - 1).
    """
    lo |= 1  # flags[i] is the odd number lo + 2i
    size = (hi - lo + 1) // 2
    flags = bytearray(b"\x01") * size
    for p in base:
        first = max(p * p, -(-lo // p) * p)
        if not first & 1:
            first += p  # the first odd multiple: the even ones have no flag
        start = (first - lo) // 2
        if start < size:
            flags[start::p] = bytes((size - 1 - start) // p + 1)
    # each chunk's primes are its flagged offsets plus its first number, so only
    # the primes, not every odd number, become int objects
    offsets = list(range(0, 2 * min(size, _CHUNK_FLAGS), 2))
    return (
        list(map(operator.add, compress(offsets, flags[c : c + _CHUNK_FLAGS]), repeat(lo + 2 * c)))
        for c in range(0, size, _CHUNK_FLAGS)
    )


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

    # the base primes are all primes <= isqrt(limit), and 2; the segments cover the rest
    root = max(math.isqrt(limit), 2)
    base = _small_primes(root)
    primes = array("q", base)
    odd_base = base[1:]
    lo = root + 1
    while lo <= limit:
        hi = min(lo + DEFAULT_SEGMENT_FLAGS, limit + 1)
        for chunk in _odd_primes(lo, hi, odd_base):
            primes.fromlist(chunk)
        lo = hi

    table = PrimeTable(limit=limit, primes=primes)
    if cache_file is not None:
        os.makedirs(os.fspath(cache_dir), exist_ok=True)
        save_table(table, cache_file)
    return table


def save_table(table: PrimeTable, path: str | os.PathLike) -> None:
    path = os.fspath(path)
    primes = table.primes
    if sys.byteorder == "big":
        primes = array("q", primes)
        primes.byteswap()
    header = _HEADER.pack(_MAGIC, _VERSION, 0, table.limit, table.count)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", prefix=os.path.basename(path) + ".")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(header)
            primes.tofile(fh)
            fh.write(struct.pack("<I", zlib.crc32(primes)))
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def load_table(path: str | os.PathLike) -> PrimeTable:
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size < _HEADER.size + 4:
            raise ValueError("prime cache truncated")
        magic, version, _, limit, count = _HEADER.unpack(fh.read(_HEADER.size))
        if magic != _MAGIC:
            raise ValueError("not a psiverify prime cache")
        if version != _VERSION:
            raise ValueError(f"unsupported prime cache version {version}")
        body = size - _HEADER.size - 4
        if body != 8 * count:  # before the allocation: a header cannot ask for more than the file holds
            raise ValueError(f"prime cache body holds {body} bytes; {count} primes need {8 * count}")
        primes = array("q", bytes(8)) * count  # the one copy of the primes; readinto fills it
        read = fh.readinto(primes)
        trailer = fh.read(4)
    if read != body or len(trailer) != 4:  # the file shrank after the fstat
        raise ValueError("prime cache truncated")
    (crc,) = struct.unpack("<I", trailer)
    if zlib.crc32(primes) != crc:  # over the file's little-endian bytes
        raise ValueError("prime cache checksum mismatch")
    if sys.byteorder == "big":
        primes.byteswap()
    if count == 0 or primes[0] != 2:
        raise ValueError("prime cache does not start at the prime 2")
    if not all(map(operator.lt, primes, islice(primes, 1, None))):
        raise ValueError("prime cache primes do not strictly increase")
    last = primes[-1]
    if last > limit:
        raise ValueError(f"prime cache holds prime {last} above its limit {limit}")
    if limit > MAX_LIMIT:
        raise ValueError(f"prime cache limit {limit} exceeds the sieve cap {MAX_LIMIT}")
    # the file holds every prime up to its limit only if (last, limit] holds none
    base = _small_primes(math.isqrt(limit))[1:]
    if limit - last > _MAX_PRIME_GAP or any(_odd_primes(last + 1, limit + 1, base)):
        raise ValueError(f"prime cache claims limit {limit} but lacks the primes between {last} and it")
    return PrimeTable(limit=limit, primes=primes)


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
