"""Exact arithmetic functions against brute-force oracles."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from psiverify.arith import (
    factorize,
    phi,
    primorial,
    primorials_up_to,
    psi,
    psi_ratio_tables,
    robin_ratio,
    robin_ratio_from_factors,
    sigma,
    Factorization,
)
import psiverify.arith as arith_mod
from psiverify.errors import CapabilityError, DomainError, ResourceError
from psiverify.primes import MAX_LIMIT, build_table
from psiverify.numerics import E_GAMMA, VerdictStatus, ball_status, sub_ball


# independent oracles, straight from the definitions
def oracle_sigma(n: int) -> int:
    return sum(d for d in range(1, n + 1) if n % d == 0)


def oracle_phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def oracle_psi(n: int) -> int:
    out = Fraction(n)
    m, p = n, 2
    while p * p <= m:
        if m % p == 0:
            out *= Fraction(p + 1, p)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        out *= Fraction(m + 1, m)
    assert out.denominator == 1
    return out.numerator


def test_factorize_examples():
    assert factorize(1).factors == ()
    assert factorize(12).factors == ((2, 2), (3, 1))
    assert factorize(510510).factors == tuple((p, 1) for p in (2, 3, 5, 7, 11, 13, 17))
    assert factorize(2**10).factors == ((2, 10),)
    # past the last prime of a table, the odd numbers divide: 1009 and 1013 lie beyond build_table(30)
    assert factorize(1009 * 1013, build_table(30)).factors == ((1009, 1), (1013, 1))
    assert factorize(999999999989).factors == ((999999999989, 1),)  # a prime: every odd divisor to 10^6


def test_factorize_sieves_no_table(monkeypatch, tmp_path):
    # factorize(12) and compute 12 trial-divide by 2, 3 and the odd numbers past them, and sieve nothing
    from psiverify.cli import main

    limits = []
    real = arith_mod.build_table

    def spy(limit, **kwargs):
        limits.append(limit)
        return real(limit, **kwargs)

    monkeypatch.setattr(arith_mod, "build_table", spy)
    assert factorize(12).factors == ((2, 2), (3, 1))
    assert main(["compute", "12", "--output", str(tmp_path / "compute.out")]) == 0
    assert limits == []


def test_factorize_validates():
    with pytest.raises(DomainError):
        factorize(0)
    with pytest.raises(CapabilityError):
        factorize(10**12 + 1)
    with pytest.raises(ValueError):
        Factorization(12, ((3, 1), (2, 2)))
    with pytest.raises(ValueError):
        Factorization(12, ((2, 2),))


def test_psi_examples():
    assert psi(1) == 1
    assert psi(6) == 12  # 6 * (3/2) * (4/3)
    assert psi(13) == 14
    for p in (2, 3, 5, 7, 11, 101, 997):
        assert psi(p) == p + 1


def test_phi_sigma_examples():
    assert phi(1) == 1 and sigma(1) == 1
    assert sigma(6) == 12 and psi(6) == sigma(6)  # 6 squarefree
    assert phi(12) == 4 and sigma(12) == 28 and psi(12) == 24


def test_against_definition_oracles():
    for n in range(1, 300):
        assert sigma(n) == oracle_sigma(n), n
        assert phi(n) == oracle_phi(n), n
        assert psi(n) == oracle_psi(n), n
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randrange(2, 10**6)
        assert psi(n) == oracle_psi(n)


def test_multiplicativity_on_coprime_pairs():
    rng = random.Random(42)
    pairs = 0
    while pairs < 1000:
        a = rng.randrange(2, 10**6)
        b = rng.randrange(2, 10**6)
        if math.gcd(a, b) != 1:
            continue
        pairs += 1
        assert psi(a * b) == psi(a) * psi(b)
        assert phi(a * b) == phi(a) * phi(b)
        assert sigma(a * b) == sigma(a) * sigma(b)


def test_psi_le_sigma_with_equality_iff_squarefree():
    limit = 10**4  # the acceptance suite pushes this to 1e5
    sig = np.zeros(limit + 1, dtype=np.int64)
    for d in range(1, limit + 1):
        sig[d::d] += d
    num, den = psi_ratio_tables(limit)
    m = np.arange(limit + 1, dtype=np.int64)
    psi_all = m * num // den
    squarefree = np.ones(limit + 1, dtype=bool)
    for p in range(2, math.isqrt(limit) + 1):
        squarefree[p * p :: p * p] = False
    assert np.all(psi_all[1:] <= sig[1:])
    eq = psi_all[1:] == sig[1:]
    assert np.array_equal(eq, squarefree[1:])


def test_psi_ratio_depends_only_on_kernel():
    for n in range(2, 10**4):
        r = math.prod(factorize(n).distinct_primes)  # rad(n), the squarefree kernel
        assert Fraction(psi(n), n) == Fraction(psi(r), r)


def test_sandwich_small():
    # n^2 > phi(n) psi(n) exactly, and phi psi zeta(2) > n^2 certified
    from psiverify.numerics import ZETA2, ball_status, int_ball, mul_ball, sub_ball

    for n in range(2, 2000):
        pp = phi(n) * psi(n)
        assert n * n > pp
        margin = sub_ball(mul_ball(int_ball(pp), ZETA2), int_ball(n * n))
        assert ball_status(margin, ">") is VerdictStatus.HOLDS, n


def test_robin_ratio_examples():
    r30 = robin_ratio(30)
    assert abs(r30[0] - 1.9605800214449640) < 1e-13
    assert ball_status(sub_ball(r30, E_GAMMA), ">") is VerdictStatus.HOLDS
    r31 = robin_ratio(31)
    assert abs(r31[0] - 0.8367022993088898) < 1e-13
    r210 = robin_ratio(210)
    assert abs(r210[0] - 1.6360071034244227) < 1e-13
    assert ball_status(sub_ball(r210, E_GAMMA), "<") is VerdictStatus.HOLDS


def test_robin_ratio_encloses_oracle():
    with mp.workdps(60):
        for n in (3, 4, 30, 31, 210, 104729, 2 * 3 * 5 * 7 * 11 * 13):
            value, radius = robin_ratio(n)
            oracle = mp.mpf(psi(n)) / (n * mp.log(mp.log(n)))
            assert mp.mpf(value) - radius <= oracle <= mp.mpf(value) + radius


def test_robin_ratio_domain():
    with pytest.raises(DomainError):
        robin_ratio(2)
    with pytest.raises(DomainError):
        robin_ratio(1)
    # n = 3 and 4 are legal even though log log n is tiny
    assert robin_ratio(3)[0] > 14
    assert robin_ratio(4)[0] > 4


def test_robin_ratio_big_integer_path():
    # exact primorial N_15 exceeds 2^53; the certified log-int path covers it
    n15 = primorial(15)
    assert n15 == 614889782588491410
    fz = Factorization(n15, tuple((p, 1) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)))
    value, radius = robin_ratio_from_factors(fz)
    with mp.workdps(60):
        oracle = mp.mpf(psi_exact_primorial(15)) / (mp.mpf(n15) * mp.log(mp.log(n15)))
        assert mp.mpf(value) - radius <= oracle <= mp.mpf(value) + radius


def psi_exact_primorial(k: int) -> int:
    out = 1
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)[:k]:
        out *= p + 1
    return out


def test_primorials():
    assert primorial(1) == 2
    assert primorial(4) == 210
    assert primorials_up_to(10**6) == [2, 6, 30, 210, 2310, 30030, 510510]
    assert primorials_up_to(1) == []


def strided_psi_ratio_tables(limit: int) -> tuple[np.ndarray, np.ndarray]:
    """Reference tables: one strided update per prime, for every prime <= limit."""
    num = np.ones(limit + 1, dtype=np.int64)
    den = np.ones(limit + 1, dtype=np.int64)
    for p in build_table(max(limit, 2)).primes:
        if p > limit:
            break
        num[p::p] *= p + 1
        den[p::p] *= p
    return num, den


# (limit, j, p): limit // j == p is a prime, so p is the last strided prime
# (j = 64) or the last prime of the group for j (p > limit // 64)
_SPLITS_ON_A_PRIME = [(64 * 7, 64, 7), (64 * 97 + 63, 64, 97), (64 * 1009, 64, 1009),
                      (2 * 4999, 2, 4999), (7 * 10007 + 6, 7, 10007), (63 * 1009, 63, 1009)]


@pytest.mark.parametrize(
    "limit", [1, 2, 3, 63, 64, 65, 127, *(split[0] for split in _SPLITS_ON_A_PRIME), 10**5, 10**6]
)
def test_psi_ratio_tables_equal_the_strided_reference(limit):
    assert arith_mod._GROUPED_MULTIPLES == 64
    table = build_table(20000)
    for at, j, p in _SPLITS_ON_A_PRIME:
        assert at // j == p and table.is_prime(p) and (j == 64 or p > at // 64)
    num, den = psi_ratio_tables(limit)
    ref_num, ref_den = strided_psi_ratio_tables(limit)
    assert num.dtype == ref_num.dtype and den.dtype == ref_den.dtype
    assert np.array_equal(num, ref_num)
    assert np.array_equal(den, ref_den)


def test_psi_ratio_tables_reject_a_limit_above_the_sieve_cap():
    with pytest.raises(ResourceError):
        psi_ratio_tables(MAX_LIMIT + 1)


def test_psi_ratio_tables_match_factorize():
    num, den = psi_ratio_tables(5000)
    for n in range(1, 5001):
        assert Fraction(int(num[n]), int(den[n])) == Fraction(psi(n), n)
