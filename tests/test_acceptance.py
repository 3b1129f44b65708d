"""Acceptance suite: one test per exit criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Depths and tolerances are pinned here; nothing is deferred to later
calibration.
"""

from __future__ import annotations

import json
import math
import random
import time

import mpmath as mp
import numpy as np

from psiverify.arith import psi, psi_ratio_tables
from psiverify.bounds import scan_bound
from psiverify.claims import champion_scan, verify_lower, verify_upper
from psiverify.cli import main
from psiverify.errors import DomainError
from psiverify.numerics import (
    E_GAMMA,
    E_GAMMA_OVER_ZETA2,
    ZETA2,
    VerdictStatus,
    add_ball,
    ball_status,
    div_ball,
    exp_ball,
    int_ball,
    log1p_ball,
    log_ball,
    mul_ball,
    sub_ball,
)
from psiverify.series import stream_points


def report(criterion: str, ok: bool, extra: str = "") -> None:
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if extra:
        line += f" ({extra})"
    print(line)
    assert ok, line


def test_criterion_1_champion_exactness():
    t0 = time.monotonic()
    res = champion_scan(10**6)
    elapsed = time.monotonic() - t0
    ok = (
        res.holds
        and res.details["champions"] == [2, 6, 30, 210, 2310, 30030, 510510]
        and elapsed < 60.0
    )
    report("1 champion-exactness", ok, f"{elapsed:.1f}s, zero tolerance")


def test_criterion_2_prime_count_anchor(table):
    ok = table.prime_count(19999) == 2262 and table.nth_prime(2263) >= 20000
    report("2 pi(20000)=2262", ok)


def test_criterion_3_upper_bound(table):
    t0 = time.monotonic()
    res = verify_upper(table)
    r30 = div_ball(int_ball(psi(30) * 30), mul_ball(int_ball(30 * 30), log_ball(log_ball(int_ball(30)))))
    r30_above = ball_status(sub_ball(r30, E_GAMMA), ">")
    elapsed = time.monotonic() - t0
    ok = (
        res.holds
        and res.details["a"]["counterexamples"] == []
        and res.details["b"]["counterexamples"] == []
        and res.details["c"]["counterexamples"] == []
        and r30_above is VerdictStatus.HOLDS
        and elapsed < 30.0
    )
    report("3 upper-bound", ok, f"{elapsed:.1f}s, sharpness witness R(30) > e^gamma")


def test_criterion_4_lower_bound_scan(table):
    t0 = time.monotonic()
    res = verify_lower(table, 10**5)
    elapsed = time.monotonic() - t0
    margins = [res.details["checkpoint_margins"][str(c)] for c in (10, 100, 1000, 10**4, 10**5)]
    decreasing = all(b[0] + b[1] < a[0] - a[1] for a, b in zip(margins, margins[1:]))
    positive = all(m[0] - m[1] > 0 for m in margins)
    ok = (
        res.holds
        and res.details["dual_mismatch"] == []
        and positive
        and decreasing
        and margins[-1][0] < 0.02  # regression: 1.38e-4 at n = 1e5 on first run
        and elapsed < 300.0
    )
    report("4 lower-bound-criterion", ok, f"{elapsed:.1f}s, min margin {res.details['min_margin']:.2e}")


def test_criterion_5_sandwich():
    limit = 10**5
    num_psi, den = psi_ratio_tables(limit)
    num_phi = np.ones(limit + 1, dtype=np.int64)
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    for p in np.nonzero(flags)[0]:
        num_phi[p::p] *= int(p) - 1
    prod = num_psi * num_phi  # prod (p^2 - 1) over p | n, exact in int64
    den2 = den * den
    assert int(prod.max()) < (1 << 62) and int(den2.max()) < (1 << 62)
    # exact part: n^2 > phi(n) psi(n)  <=>  den^2 > prod, for every n >= 2
    exact_ok = bool(np.all(prod[2:] < den2[2:]))
    # certified part: phi(n) psi(n) zeta(2) > n^2  <=>  prod * zeta(2) > den^2
    certified_ok = True
    for n in range(2, limit + 1):
        margin = sub_ball(mul_ball(int_ball(int(prod[n])), ZETA2), int_ball(int(den2[n])))
        if ball_status(margin, ">") is not VerdictStatus.HOLDS:
            certified_ok = False
            break
    report("5 sandwich", exact_ok and certified_ok, f"all 2 <= n <= {limit}")


def test_criterion_6_identity_suite(table):
    # (i) g(p_n) R(N_n) = e^gamma/zeta(2) within combined radii, every scanned n
    identity_ok = True
    for point in stream_points(table, 10**5):
        if point.g_ball is None:
            continue
        value, radius = mul_ball(point.g_ball, point.ratio_ball)
        if abs(value - E_GAMMA_OVER_ZETA2[0]) > radius + E_GAMMA_OVER_ZETA2[1]:
            identity_ok = False
            break

    # (ii) psi = sigma exactly on squarefree n <= 1e5, psi < sigma otherwise
    limit = 10**5
    sig = np.zeros(limit + 1, dtype=np.int64)
    for d in range(1, limit + 1):
        sig[d::d] += d
    num, den = psi_ratio_tables(limit)
    m = np.arange(limit + 1, dtype=np.int64)
    psi_all = m * num // den
    squarefree = np.ones(limit + 1, dtype=bool)
    for p in range(2, math.isqrt(limit) + 1):
        squarefree[p * p :: p * p] = False
    sigma_ok = bool(np.all(psi_all[1:] <= sig[1:])) and bool(
        np.array_equal(psi_all[1:] == sig[1:], squarefree[1:])
    )

    # (iii) multiplicativity of psi, phi, sigma on 1000 random coprime pairs
    from psiverify.arith import factorize, phi_from_factors, psi_from_factors, sigma_from_factors

    rng = random.Random(2024)
    pairs = 0
    mult_ok = True
    while pairs < 1000:
        a = rng.randrange(2, 10**6)
        b = rng.randrange(2, 10**6)
        if math.gcd(a, b) != 1:
            continue
        pairs += 1
        fa, fb, fab = factorize(a), factorize(b), factorize(a * b)
        if (
            psi_from_factors(fab) != psi_from_factors(fa) * psi_from_factors(fb)
            or phi_from_factors(fab) != phi_from_factors(fa) * phi_from_factors(fb)
            or sigma_from_factors(fab) != sigma_from_factors(fa) * sigma_from_factors(fb)
        ):
            mult_ok = False
            break
    report(
        "6 identity-suite",
        identity_ok and sigma_ok and mult_ok,
        "g*R identity, psi/sigma squarefree law, multiplicativity",
    )


def test_criterion_7_bound_suite(table):
    stop = 10**5
    results = {}
    for name, start in [
        ("rs-product", 1),
        ("zeta-tail", 2),
        ("psi-bound", 2263),
        ("threshold", 2263),
        ("criterion-gap", 3),
    ]:
        scan = scan_bound(table, name, start, stop)
        results[name] = scan
    # robin-log: from its empirically reported start (2199), every point holds
    robin_all = scan_bound(table, "robin-log", 3, stop)
    holds_from = max(robin_all.failed_at) + 1 if robin_all.failed_at else 3
    ok = all(s.all_hold for s in results.values())
    robin_ok = holds_from <= 2263 and all(x < holds_from for x in robin_all.failed_at)
    ok = ok and robin_ok
    worst = {k: f"{v.worst_slack:.1e}@{v.worst_at}" for k, v in results.items()}
    report("7 bound-suite", ok, f"robin-log holds from n={holds_from}; worst slacks {worst}")


def test_criterion_8_numerics_soundness():
    rng = random.Random(319)
    checked = 0
    ok = True
    with mp.workdps(100):
        while checked < 10**4:
            v = rng.uniform(-1, 1) * 10.0 ** rng.randint(-8, 8)
            r = 0.0 if rng.random() < 0.25 else abs(v) * 10.0 ** rng.randint(-15, -7)
            a = (v, r)
            ta = mp.mpf(v) + mp.mpf(rng.uniform(-1, 1)) * mp.mpf(r)
            w = rng.uniform(-1, 1) * 10.0 ** rng.randint(-8, 8)
            b = (w, abs(w) * 1e-13)
            tb = mp.mpf(w) + mp.mpf(rng.uniform(-1, 1)) * mp.mpf(b[1])
            op = rng.choice(["add", "sub", "mul", "div", "log", "exp", "log1p"])
            try:
                if op == "add":
                    out, truth = add_ball(a, b), ta + tb
                elif op == "sub":
                    out, truth = sub_ball(a, b), ta - tb
                elif op == "mul":
                    out, truth = mul_ball(a, b), ta * tb
                elif op == "div":
                    out, truth = div_ball(a, b), ta / tb
                elif op == "log":
                    out, truth = log_ball(a), mp.log(ta)
                elif op == "log1p":
                    out, truth = log1p_ball(a), mp.log(1 + ta)
                else:
                    if abs(v) > 300:
                        continue
                    out, truth = exp_ball(a), mp.exp(ta)
            except DomainError:
                continue
            checked += 1
            value, radius = out
            if not (mp.mpf(value) - radius <= truth <= mp.mpf(value) + radius):
                ok = False
                break
    report("8 numerics-soundness", ok and checked == 10**4, f"{checked} randomized ops vs 100-digit oracle")


def test_criterion_9_determinism(table, tmp_path):
    args = [
        "verify",
        "--champion-limit",
        "100000",
        "--n-max",
        "3000",
    ]
    out1 = tmp_path / "r1.json"
    out4 = tmp_path / "r4.json"
    code1 = main(args + ["--workers", "1", "--json", str(out1), "--output", str(tmp_path / "t1")])
    code4 = main(args + ["--workers", "4", "--json", str(out4), "--output", str(tmp_path / "t4")])
    identical = out1.read_bytes() == out4.read_bytes()
    all_hold = json.loads(out1.read_text())["all_hold"]
    ok = code1 == 0 and code4 == 0 and identical and all_hold
    report("9 determinism", ok, "verify-all byte-identical across worker counts")
