"""The four benchmark workloads and the checks on each op's output.

Every timed op is one ``psiverify`` CLI command in a fresh process.  The
seed goes to ``verify --seed`` (reduction sampling) and picks the rows that
are checked against the oracle; the scans themselves always cover their
full ranges.
"""

from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import dataclass

from oracle import LowerOracle, first_primes, primorials_upto

ALL_CLAIMS = (
    "champions",
    "reduction",
    "upper",
    "lower",
    "mertens-trend",
    "rs-product",
    "zeta-tail",
    "psi-bound",
    "threshold",
    "robin-log",
    "criterion-gap",
)
CHECKPOINTS = (10, 100, 1000, 10**4, 10**5)
CSV_COLUMNS = [
    "n", "p_n", "theta", "log_theta", "R_value", "R_radius",
    "g_value", "g_radius", "margin_lower", "verdict",
]
CSV_SAMPLE_ROWS = 64
REDUCTION_MAX_INDEX = 8


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "verify" or "scan"
    flags: tuple[str, ...]
    n_max: int
    champion_limit: int
    table_limit: int  # sieve limit of the prime table the op holds
    claims: tuple[str, ...] = ()  # empty: every claim
    cache_limit: int | None = None  # set-up builds a warm cache to this limit
    cache_primes: int | None = None  # primes that cache must hold
    points_per_op: int | None = None  # certified primorial indices, for points_per_s

    @property
    def claim_ids(self) -> tuple[str, ...]:
        return self.claims or ALL_CLAIMS

    @property
    def output_name(self) -> str:
        return "rows.csv" if self.kind == "scan" else "report.json"

    def argv(self, work: str, seed: int) -> list[str]:
        """psiverify arguments for one op; ``work`` holds its output (and cache)."""
        out = f"{work}/{self.output_name}"
        if self.kind == "scan":
            return ["scan", "lower", *self.flags, "--cache-dir", f"{work}/cache", "--output", out]
        return ["verify", *self.claims, *self.flags, "--seed", str(seed), "--json", out]

    def sizes(self) -> dict:
        return {
            "n_max": self.n_max,
            "champion_limit": self.champion_limit,
            "table_limit": self.table_limit,
            "claims": list(self.claim_ids),
            "cache_limit": self.cache_limit,
            "cache_primes": self.cache_primes,
            "points_per_op": self.points_per_op,
        }

    def oracle_indices(self, seed: int) -> list[int]:
        if self.kind == "scan":
            return [n for n, _ in csv_sample(self, seed)]
        return [c for c in CHECKPOINTS if c <= self.n_max and "lower" in self.claim_ids]


# Sizes keep each op near 2-4 s on the 2-CPU sandbox, so that a 22 s run
# holds four to nine ops.  Single ops of one command vary there by about 20%
# (coefficient of variation); at the default config (about 10 s per op) a
# run holds two or three ops and the run medians spread by 25-37%.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="verify-default",
            kind="verify",
            flags=("--workers", "1", "--n-max", "20000", "--champion-limit", "300000"),
            n_max=20000,
            champion_limit=300000,
            table_limit=243937,
        ),
        Workload(
            name="lower-deep",
            kind="verify",
            claims=("lower",),
            flags=("--n-max", "50000", "--workers", "2"),
            n_max=50000,
            champion_limit=10**6,
            table_limit=660067,
            points_per_op=49998,
        ),
        Workload(
            name="exact-arith",
            kind="verify",
            claims=("champions", "reduction"),
            flags=("--champion-limit", "3000000"),
            n_max=10**5,
            champion_limit=3 * 10**6,
            table_limit=1395649,
        ),
        Workload(
            name="scan-lower-cached",
            kind="scan",
            flags=("--n-max", "30000"),
            n_max=30000,
            table_limit=16441312,
            cache_limit=16441312,
            points_per_op=29998,
            champion_limit=10**6,
            cache_primes=1057662,
        ),
    )
}


def csv_sample(wl: Workload, seed: int) -> list[tuple[int, int]]:
    """Seeded (n, row position) pairs, always including the first and last row."""
    rng = random.Random(seed)
    ns = {3, wl.n_max} | {rng.randrange(3, wl.n_max + 1) for _ in range(CSV_SAMPLE_ROWS)}
    return [(n, n - 3) for n in sorted(ns)]


# ---------------------------------------------------------------------------
# output checks: each returns a list of problems, empty when the output holds
# ---------------------------------------------------------------------------


def _check_margins(where: str, margins: dict, wl: Workload, oracle: LowerOracle) -> list[str]:
    live = [c for c in CHECKPOINTS if c <= wl.n_max]
    if sorted(int(k) for k in margins) != live:
        return [f"{where}: checkpoints {sorted(margins)} != {live}"]
    bad = []
    for n in live:
        v, r = margins[str(n)]
        if not oracle.margin_encloses(n, v, r):
            bad.append(f"{where}: margin at n={n} [{v!r}, {r!r}] misses the oracle")
    return bad


def check_report(text: str, wl: Workload, seed: int, oracle: LowerOracle | None) -> list[str]:
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"report is not JSON: {exc}"]
    problems = []
    claims = report.get("claims", {})
    if sorted(claims) != sorted(wl.claim_ids):
        return [f"claims {sorted(claims)} != {sorted(wl.claim_ids)}"]
    if report.get("all_hold") is not True:
        problems.append("all_hold is not true")
    problems += [f"claim {cid} does not hold" for cid, res in claims.items() if res.get("holds") is not True]
    cfg = report.get("config", {})
    if cfg.get("seed") != seed or cfg.get("n_max") != wl.n_max or cfg.get("champion_limit") != wl.champion_limit:
        problems.append(f"config {cfg} does not match the workload")
    if "champions" in claims:
        want = primorials_upto(wl.champion_limit)
        got = claims["champions"]["details"]["champions"]
        if got != want:
            problems.append(f"champions {got} != primorials {want}")
    if "reduction" in claims:
        primes = first_primes(REDUCTION_MAX_INDEX)
        blocks = claims["reduction"]["details"]["blocks"]
        if [b["details"]["n_index"] for b in blocks] != list(range(2, REDUCTION_MAX_INDEX + 1)):
            problems.append("reduction blocks do not cover n_index 2..8")
        for b in blocks:
            k = b["details"]["n_index"]
            num = den = 1
            for p in primes[:k]:
                num *= p + 1
                den *= p
            if b["details"]["psi_ratio"] != [num, den]:
                problems.append(f"reduction block {k}: psi_ratio {b['details']['psi_ratio']} != {[num, den]}")
    if "lower" in claims:
        if claims["lower"]["covered"] != {"n": [3, wl.n_max]}:
            problems.append(f"lower covers {claims['lower']['covered']}")
        problems += _check_margins("lower", claims["lower"]["details"]["checkpoint_margins"], wl, oracle)
    if "mertens-trend" in claims:
        problems += _check_margins("mertens-trend", claims["mertens-trend"]["details"]["margins"], wl, oracle)
    return problems


def check_rows(text: str, wl: Workload, seed: int, oracle: LowerOracle) -> list[str]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != CSV_COLUMNS:
        return ["CSV header is wrong"]
    data = rows[1:]
    want = wl.n_max - 2
    if len(data) != want:
        return [f"{len(data)} data rows, want {want}"]
    problems = []
    if [int(r[0]) for r in data] != list(range(3, wl.n_max + 1)):
        problems.append("row indices are not 3..n_max in order")
    not_holding = sum(1 for r in data if r[-1] != "holds")
    if not_holding:
        problems.append(f"{not_holding} rows do not hold")
    for n, pos in csv_sample(wl, seed):
        row = data[pos]
        if int(row[1]) != oracle.nth_prime(n):
            problems.append(f"row n={n}: p_n {row[1]} != {oracle.nth_prime(n)}")
        if not oracle.ratio_encloses(n, float(row[4]), float(row[5])):
            problems.append(f"row n={n}: R {row[4]} +/- {row[5]} misses the oracle")
    return problems


def check_output(text: str, wl: Workload, seed: int, oracle: LowerOracle | None) -> list[str]:
    if wl.kind == "scan":
        return check_rows(text, wl, seed, oracle)
    return check_report(text, wl, seed, oracle)

