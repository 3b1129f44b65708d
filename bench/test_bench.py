"""Smoke test of the benchmark at tiny sizes, and proof that its checks are live.

    python3 -m pytest bench/test_bench.py -q

Each workload runs once untraced and once traced at a size that takes about
a second.  Then every output check is shown to reject a deliberately
corrupted report or CSV.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
from pathlib import Path

import pytest

from oracle import LowerOracle
from run import run, run_op
from workloads import WORKLOADS, check_report, check_rows, csv_sample

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 7

# n_max 10^4 is the smallest size with every checkpoint the probes read.
TINY = {
    "verify-default": dict(flags=("--workers", "1", "--n-max", "10000", "--champion-limit", "100000"),
                           n_max=10000, champion_limit=100000, table_limit=114316),
    "lower-deep": dict(flags=("--n-max", "10000", "--workers", "2"), n_max=10000, table_limit=114316,
                       points_per_op=9998),
    "exact-arith": dict(flags=("--champion-limit", "100000", "--n-max", "10000"),
                        n_max=10000, champion_limit=100000, table_limit=114316),
    "scan-lower-cached": dict(flags=("--n-max", "10000"), n_max=10000, table_limit=200000, cache_limit=200000,
                              points_per_op=9998, cache_primes=17984),
}


def tiny(name: str):
    return dataclasses.replace(WORKLOADS[name], **TINY[name])


def test_workload_names_match_benchmark_json():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_workload_runs_tiny(name, trace):
    final, record = run(tiny(name), SEED, 0.1, trace, ROOT)
    problems = [p for op in record["ops"] for p in op["problems"]] + record["setup_problems"]
    # Interpreter start and exit take about 0.2 s, more than 10% of a tiny
    # op, so the span-coverage check can only hold at the real sizes.
    problems = [p for p in problems if not p.startswith("traced layer spans cover")]
    assert problems == []
    assert final["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {k: v["unit"] for k, v in final["metrics"].items()}
    if trace:
        assert 0.0 < final["metrics"]["trace.gap_frac"]["value"] < 1.0
    else:
        assert final["correct"] and final["failed"] == 0


def test_failing_op_is_counted(tmp_path):
    wl = dataclasses.replace(tiny("scan-lower-cached"), flags=("--n-max", "1"))
    op = run_op(wl, SEED, ROOT, tmp_path, oracle=None)
    assert "exit code 2" in op["problems"]


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    wl = tiny("verify-default")
    oracle = LowerOracle(wl.oracle_indices(SEED))
    work = tmp_path_factory.mktemp("report")
    op = run_op(wl, SEED, ROOT, work, oracle)
    assert op["problems"] == []
    return wl, oracle, json.loads((work / "report.json").read_text())


def _corrupt_holds(r):
    r["claims"]["upper"]["holds"] = False


def _corrupt_margin(r):
    m = r["claims"]["lower"]["details"]["checkpoint_margins"]["1000"]
    m[0] += 4 * m[1]


def _corrupt_trend(r):
    m = r["claims"]["mertens-trend"]["details"]["margins"]["100"]
    m[0] -= 4 * m[1]


def _corrupt_champions(r):
    r["claims"]["champions"]["details"]["champions"].pop()


def _corrupt_reduction(r):
    r["claims"]["reduction"]["details"]["blocks"][3]["details"]["psi_ratio"][0] += 1


def _corrupt_seed(r):
    r["config"]["seed"] += 1


def _corrupt_claim_set(r):
    del r["claims"]["zeta-tail"]


@pytest.mark.parametrize("corrupt", [_corrupt_holds, _corrupt_margin, _corrupt_trend, _corrupt_champions,
                                     _corrupt_reduction, _corrupt_seed, _corrupt_claim_set])
def test_report_check_rejects_corruption(report, corrupt):
    wl, oracle, good = report
    assert check_report(json.dumps(good), wl, SEED, oracle) == []
    bad = json.loads(json.dumps(good))
    corrupt(bad)
    assert check_report(json.dumps(bad), wl, SEED, oracle)


@pytest.fixture(scope="module")
def rows(tmp_path_factory):
    wl = tiny("scan-lower-cached")
    oracle = LowerOracle(wl.oracle_indices(SEED))
    work = tmp_path_factory.mktemp("rows")
    op = run_op(wl, SEED, ROOT, work, oracle)
    assert op["problems"] == []
    return wl, oracle, list(csv.reader(io.StringIO((work / "rows.csv").read_text())))


def _sampled_row(wl):
    return csv_sample(wl, SEED)[1][1] + 1  # +1 for the header


def _drop_row(wl, rows):
    rows.pop()


def _fail_verdict(wl, rows):
    rows[-1][-1] = "fails"


def _shift_ratio(wl, rows):
    row = rows[_sampled_row(wl)]
    row[4] = repr(float(row[4]) + 4 * float(row[5]))


def _wrong_prime(wl, rows):
    row = rows[_sampled_row(wl)]
    row[1] = str(int(row[1]) + 2)


def _bad_header(wl, rows):
    rows[0][4] = "R"


@pytest.mark.parametrize("corrupt", [_drop_row, _fail_verdict, _shift_ratio, _wrong_prime, _bad_header])
def test_csv_check_rejects_corruption(rows, corrupt):
    wl, oracle, good = rows

    def text(rs):
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(rs)
        return buf.getvalue()

    assert check_rows(text(good), wl, SEED, oracle) == []
    bad = [list(r) for r in good]
    corrupt(wl, bad)
    assert check_rows(text(bad), wl, SEED, oracle)
