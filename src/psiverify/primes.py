"""Segmented prime sieve with certified Chebyshev theta prefix sums.

The sieve produces every prime up to a limit in bounded memory (one segment
of flags at a time) and, in the same ascending pass, accumulates

    theta(p_k) = log p_1 + ... + log p_k

with a Neumaier-compensated sum whose error radius is tracked explicitly
(2 ulp per log for the libm call, plus the compensation rounding).  The
prefix is stored per prime index, so memory is proportional to pi(limit)
and theta(x) is answered by binary search.

Segment order is fixed ascending, so the theta prefix is bit-identical for
any segment size.  After construction the table is immutable and safe to
share across threads.

Cache file layout (little-endian throughout)::

    magic   4s   b"PSIV"
    version u16  1
    flags   u16  0 (reserved)
    limit   u64  sieve upper bound
    count   u64  number of primes
    gaps    LEB128 varints, prime deltas (first delta counted from 0)
    theta   count * f64  prefix values
    radii   count * f64  prefix error radii
    crc     u32  CRC-32 of everything after the header

A cache is reused only when its limit covers the request; a larger request
rebuilds and overwrites it.
"""

from __future__ import annotations

import math
import os
import struct
import zlib
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

import numpy as np

from .errors import RangeError, ResourceError
from .numerics import CertifiedAccumulator, CertifiedValue

__all__ = ["PrimeTable", "build_table", "save_table", "load_table", "inspect_cache"]

DEFAULT_SEGMENT_FLAGS = 1 << 20
DEFAULT_MAX_LIMIT = 1 << 31
CACHE_FILENAME = "primes.ptab"

_MAGIC = b"PSIV"
_VERSION = 1
_HEADER = struct.Struct("<4sHHQQ")


@dataclass
class PrimeTable:
    """All primes up to ``limit`` plus the certified theta prefix.

    Treat as immutable once built.
    """

    limit: int
    primes: array = field(repr=False)
    theta_values: array = field(repr=False)
    theta_radii: array = field(repr=False)

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

    def theta(self, x: int) -> CertifiedValue:
        """Certified enclosure of theta(x) = sum of log p over primes p <= x."""
        if not 2 <= x <= self.limit:
            raise RangeError(f"theta: x={x} outside [2, {self.limit}]")
        k = bisect_right(self.primes, x)
        return CertifiedValue(self.theta_values[k - 1], self.theta_radii[k - 1])

    def theta_at_index(self, n: int) -> CertifiedValue:
        """Certified theta(p_n) = log of the n-th primorial, 1-indexed."""
        if not 1 <= n <= self.count:
            raise RangeError(f"theta_at_index: n={n} outside [1, {self.count}]")
        return CertifiedValue(self.theta_values[n - 1], self.theta_radii[n - 1])


def _simple_sieve(limit: int) -> np.ndarray:
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.nonzero(flags)[0]


def build_table(
    limit: int,
    *,
    segment_size: int = DEFAULT_SEGMENT_FLAGS,
    max_limit: int = DEFAULT_MAX_LIMIT,
    cache_dir: str | os.PathLike | None = None,
) -> PrimeTable:
    """Sieve all primes up to ``limit`` and accumulate the theta prefix.

    With ``cache_dir`` set, a cached table whose limit covers the request is
    loaded instead of sieving; otherwise the new table is written back.
    """
    if limit < 2:
        raise RangeError(f"build_table: limit must be >= 2, got {limit}")
    if limit > max_limit:
        raise ResourceError(
            f"build_table: limit {limit} exceeds memory budget cap {max_limit}; "
            "raise max_limit explicitly if you really want this"
        )
    if segment_size < 64:
        raise ValueError("segment_size too small to be useful")

    cache_file = None
    if cache_dir is not None:
        cache_file = os.path.join(os.fspath(cache_dir), CACHE_FILENAME)
        if os.path.exists(cache_file):
            try:
                cached = load_table(cache_file)
            except (OSError, ValueError):
                cached = None
            if cached is not None and cached.limit >= limit:
                return cached

    base = _simple_sieve(math.isqrt(limit))
    primes = array("q")
    theta_values = array("d")
    theta_radii = array("d")
    acc = CertifiedAccumulator()

    def take(p: int) -> None:
        lp = math.log(p)
        acc.add(lp, 2.0 * math.ulp(lp))
        primes.append(p)
        t = acc.total()
        theta_values.append(t.value)
        theta_radii.append(t.radius)

    for p in base:
        if p <= limit:
            take(int(p))
    start = max(int(base[-1]) + 1 if len(base) else 2, 2)
    lo = start
    while lo <= limit:
        hi = min(lo + segment_size, limit + 1)
        flags = np.ones(hi - lo, dtype=bool)
        for p in base:
            p = int(p)
            first = max(p * p, ((lo + p - 1) // p) * p)
            if first < hi:
                flags[first - lo :: p] = False
        if lo <= 1:
            flags[: 2 - lo] = False
        for q in np.nonzero(flags)[0]:
            take(lo + int(q))
        lo = hi

    table = PrimeTable(limit=limit, primes=primes, theta_values=theta_values, theta_radii=theta_radii)
    if cache_file is not None:
        os.makedirs(os.fspath(cache_dir), exist_ok=True)
        save_table(table, cache_file)
    return table


def _encode_varint(out: bytearray, value: int) -> None:
    while value >= 0x80:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def save_table(table: PrimeTable, path: str | os.PathLike) -> None:
    gaps = bytearray()
    prev = 0
    for p in table.primes:
        _encode_varint(gaps, p - prev)
        prev = p
    values = table.theta_values
    radii = table.theta_radii
    if hasattr(values, "byteswap") and struct.pack("<H", 1) != struct.pack("=H", 1):
        values = array("d", values)
        radii = array("d", radii)
        values.byteswap()
        radii.byteswap()
    body = bytes(gaps) + values.tobytes() + radii.tobytes()
    header = _HEADER.pack(_MAGIC, _VERSION, 0, table.limit, table.count)
    tmp = os.fspath(path) + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(header)
        fh.write(body)
        fh.write(struct.pack("<I", zlib.crc32(body)))
    os.replace(tmp, path)


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
    body = blob[_HEADER.size : -4]
    (crc,) = struct.unpack("<I", blob[-4:])
    if zlib.crc32(body) != crc:
        raise ValueError("prime cache checksum mismatch")

    primes = array("q")
    pos = 0
    prev = 0
    try:
        for _ in range(count):
            shift = 0
            gap = 0
            while True:
                b = body[pos]
                pos += 1
                gap |= (b & 0x7F) << shift
                if b < 0x80:
                    break
                shift += 7
            prev += gap
            primes.append(prev)
    except IndexError:
        raise ValueError("prime cache gap block truncated") from None
    if prev > limit:
        raise ValueError(f"prime cache holds prime {prev} above its limit {limit}")
    floats = body[pos:]
    if len(floats) != 16 * count:
        raise ValueError("prime cache theta block has wrong size")
    theta_values = array("d")
    theta_values.frombytes(floats[: 8 * count])
    theta_radii = array("d")
    theta_radii.frombytes(floats[8 * count :])
    if struct.pack("<H", 1) != struct.pack("=H", 1):
        theta_values.byteswap()
        theta_radii.byteswap()
    return PrimeTable(limit=limit, primes=primes, theta_values=theta_values, theta_radii=theta_radii)


def inspect_cache(path: str | os.PathLike) -> dict:
    table = load_table(path)
    return {
        "path": os.fspath(path),
        "limit": table.limit,
        "count": table.count,
        "largest_prime": table.primes[-1] if table.count else None,
        "theta_at_limit": table.theta_values[-1] if table.count else None,
        "theta_radius_at_limit": table.theta_radii[-1] if table.count else None,
    }
