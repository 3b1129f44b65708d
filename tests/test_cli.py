"""CLI contract: output formats, exit codes, cache, CSV round-trips."""

from __future__ import annotations

import csv
import io
import json
import os
import stat
import struct
import tracemalloc
import zlib

import pytest

from psiverify.cli import CSV_COLUMNS, main
from psiverify.primes import MAX_LIMIT, build_table


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_6(capsys):
    code, out, _ = run_cli(capsys, "compute", "6")
    assert code == 0
    assert "psi    = 12" in out
    assert "sigma  = 12" in out
    assert "phi    = 2" in out


def test_compute_1_has_undefined_ratio(capsys):
    code, out, _ = run_cli(capsys, "compute", "1")
    assert code == 0
    assert "psi    = 1" in out
    assert "undefined (n < 3)" in out


def test_compute_210_json(capsys):
    code, out, _ = run_cli(capsys, "compute", "210", "--format", "json")
    assert code == 0
    rec = json.loads(out)
    assert rec["psi"] == 576
    assert abs(rec["R"]["value"] - 1.636007103424423) < 1e-12
    assert rec["factorization"] == [[2, 1], [3, 1], [5, 1], [7, 1]]


def test_compute_domain_error_exit_2(capsys):
    code, _, err = run_cli(capsys, "compute", "0")
    assert code == 2
    assert "error" in err


def test_scan_lower_1000_rows(capsys):
    code, out, _ = run_cli(capsys, "scan", "lower", "--n-max", "1000")
    assert code == 0
    lines = out.strip().split("\n")
    # header plus n = 3..1000
    assert len(lines) == 999
    assert lines[0] == ",".join(CSV_COLUMNS)
    reader = csv.DictReader(io.StringIO(out))
    rows = list(reader)
    assert all(r["verdict"] == "holds" for r in rows)
    assert rows[0]["n"] == "3"


def test_scan_lower_below_start_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "scan", "lower", "--n-max", "2")
    assert code == 2
    assert "n starts at 3" in err


def test_scan_points_includes_n2(capsys):
    code, out, _ = run_cli(capsys, "scan", "points", "--n-max", "5")
    assert code == 0
    reader = csv.DictReader(io.StringIO(out))
    rows = list(reader)
    assert rows[0]["n"] == "2"
    assert rows[0]["g_value"] == ""  # criterion functions start at p >= 5
    assert rows[0]["verdict"] == ""
    assert rows[1]["g_value"] != ""


def test_scan_csv_roundtrip(capsys, table):
    from psiverify.series import stream_points

    code, out, _ = run_cli(capsys, "scan", "lower", "--n-max", "50")
    assert code == 0
    reader = csv.DictReader(io.StringIO(out))
    rows = {int(r["n"]): r for r in reader}
    for point in stream_points(table, 50):
        if point.n < 3:
            continue
        row = rows[point.n]
        assert (float(row["R_value"]), float(row["R_radius"])) == point.ratio_ball
        assert float(row["theta"]) == point.theta_ball[0]
        assert float(row["g_value"]) == point.g_ball[0]
        assert float(row["margin_lower"]) == point.margin_ball[0]
        assert int(row["p_n"]) == point.p


def test_scan_points_json_format(capsys):
    code, out, _ = run_cli(capsys, "scan", "points", "--n-max", "4", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert [r["n"] for r in rows] == [2, 3, 4]


def test_scan_bounds_json(capsys):
    code, out, _ = run_cli(
        capsys, "scan", "bounds", "--name", "zeta-tail", "--from", "2", "--to", "200"
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["bound"] == "zeta-tail"
    assert rep["verdicts"]["fails"] == 0
    assert rep["points_checked"] == 199


def test_scan_bounds_unknown_name(capsys):
    code, _, err = run_cli(capsys, "scan", "bounds", "--name", "nope", "--from", "2", "--to", "10")
    assert code == 2
    assert "unknown bound" in err


def test_scan_bounds_robin_below_validity_exits_1(capsys):
    code, out, _ = run_cli(
        capsys, "scan", "bounds", "--name", "robin-log", "--from", "3", "--to", "50"
    )
    assert code == 1
    assert json.loads(out)["verdicts"]["fails"] > 0


def test_verify_unknown_claim(capsys):
    code, _, err = run_cli(capsys, "verify", "no-such-claim")
    assert code == 2
    assert "registry" in err


def test_verify_subset(capsys, tmp_path):
    out_json = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys,
        "verify",
        "champions",
        "mertens-trend",
        "--champion-limit",
        "10000",
        "--n-max",
        "500",
        "--json",
        str(out_json),
    )
    assert code == 0
    assert "champions" in out and "HOLDS" in out
    assert "all claims hold" in out
    rep = json.loads(out_json.read_text())
    assert rep["all_hold"] is True
    assert rep["claims"]["champions"]["details"]["champions"] == [2, 6, 30, 210, 2310]


def test_verify_n_max_below_a_bound_start_checks_its_first_index(capsys, tmp_path):
    # psi-bound and threshold start at n = 2263; an n_max below that still
    # checks the first valid index, as upper (c) does
    out_json = tmp_path / "report.json"
    argv = ["verify", "--n-max", "1000", "--champion-limit", "1000", "--json", str(out_json)]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert "all claims hold" in out
    claims = json.loads(out_json.read_text())["claims"]
    for name in ("psi-bound", "threshold"):
        assert claims[name]["covered"] == {"n": [2263, 2263], "points_checked": 1}
    assert claims["zeta-tail"]["covered"] == {"n": [2, 1000], "points_checked": 999}


def test_verify_report_does_not_depend_on_the_cache_size(capsys, tmp_path):
    # a cache built past what n_max needs must not change what any claim reads
    cache = tmp_path / "cache"
    reports = []
    for run in ("cold", "cached"):
        if run == "cached":
            assert run_cli(capsys, "cache", "build", "--limit", "200000", "--cache-dir", str(cache))[0] == 0
        out_json = tmp_path / f"{run}.json"
        argv = ["verify", "--n-max", "3000", "--champion-limit", "10000", "--json", str(out_json)]
        code, _, err = run_cli(capsys, *argv, *(["--cache-dir", str(cache)] if run == "cached" else []))
        assert code == 0, err
        reports.append(out_json.read_bytes())
    assert reports[0] == reports[1]


def test_cache_commands(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("PSIVERIFY_CACHE_DIR", str(tmp_path))
    code, out, _ = run_cli(capsys, "cache", "build", "--limit", "50000")
    assert code == 0
    assert json.loads(out)["count"] == 5133
    code, out, _ = run_cli(capsys, "cache", "inspect")
    assert code == 0
    assert json.loads(out)["largest_prime"] == 49999
    code, out, _ = run_cli(capsys, "cache", "clear")
    assert code == 0
    assert json.loads(out)["removed"] is not None
    code, _, err = run_cli(capsys, "cache", "inspect")
    assert code == 2


def _cache_blob(version: int, limit: int, count: int, body: bytes) -> bytes:
    header = struct.pack("<4sHHQQ", b"PSIV", version, 0, limit, count)
    return header + body + struct.pack("<I", zlib.crc32(body))


def test_cache_with_truncated_gaps_rebuilds_or_exits_2(capsys, tmp_path):
    # valid header and CRC, but the body ends inside the first prime
    cache = tmp_path / "primes.ptab"
    cache.write_bytes(_cache_blob(2, 10**6, 168, b"\x02" * 5))
    code, _, err = run_cli(capsys, "cache", "inspect", "--cache-dir", str(tmp_path))
    assert code == 2
    assert "168 primes need 1344" in err
    code, out, _ = run_cli(capsys, "scan", "lower", "--n-max", "10", "--cache-dir", str(tmp_path))
    assert code == 0
    assert len(list(csv.DictReader(io.StringIO(out)))) == 8
    code, out, _ = run_cli(capsys, "cache", "inspect", "--cache-dir", str(tmp_path))
    assert code == 0  # the scan rebuilt the cache
    assert json.loads(out)["largest_prime"] > 29


def test_cache_version_1_rebuilds_or_exits_2(capsys, tmp_path):
    # the previous format: varint gaps of the primes to 10, then theta floats
    (tmp_path / "primes.ptab").write_bytes(_cache_blob(1, 10, 4, bytes([2, 1, 2, 2]) + bytes(64)))
    code, _, err = run_cli(capsys, "cache", "inspect", "--cache-dir", str(tmp_path))
    assert code == 2
    assert "psiverify: error: unsupported prime cache version 1" in err
    code, out, _ = run_cli(capsys, "scan", "lower", "--n-max", "10", "--cache-dir", str(tmp_path))
    assert code == 0
    assert len(list(csv.DictReader(io.StringIO(out)))) == 8
    code, out, _ = run_cli(capsys, "cache", "inspect", "--cache-dir", str(tmp_path))
    assert code == 0
    assert json.loads(out)["limit"] >= 20011


@pytest.mark.parametrize("command", [["scan", "lower"], ["verify", "lower"]], ids=["scan", "verify"])
def test_cache_claiming_primes_it_lacks_rebuilds_or_exits_2(capsys, tmp_path, command):
    # valid header, CRC and structure: the primes to 49999 under header limit 100000
    primes = build_table(50000).primes
    body = struct.pack(f"<{len(primes)}q", *primes)
    (tmp_path / "primes.ptab").write_bytes(_cache_blob(2, 100000, len(primes), body))
    code, _, err = run_cli(capsys, "cache", "inspect", "--cache-dir", str(tmp_path))
    assert code == 2
    assert "lacks the primes between 49999 and it" in err
    # n = 5500 needs primes beyond 50000, inside the claimed limit
    out = tmp_path / "out"
    code, _, err = run_cli(capsys, *command, "--n-max", "5500", "--cache-dir", str(tmp_path), "--output", str(out))
    assert code == 0, err
    code, info, _ = run_cli(capsys, "cache", "inspect", "--cache-dir", str(tmp_path))
    assert code == 0  # rebuilt
    assert json.loads(info)["largest_prime"] > 50000


def test_stale_temp_directory_does_not_block_the_cache(capsys, tmp_path):
    # a directory where an older writer put its fixed temporary file
    (tmp_path / "primes.ptab.tmp").mkdir()
    code, out, err = run_cli(capsys, "scan", "lower", "--n-max", "50", "--cache-dir", str(tmp_path))
    assert code == 0, err
    assert len(list(csv.DictReader(io.StringIO(out)))) == 48
    assert sorted(p.name for p in tmp_path.iterdir()) == ["primes.ptab", "primes.ptab.tmp"]
    code, out, _ = run_cli(capsys, "cache", "inspect", "--cache-dir", str(tmp_path))
    assert code == 0


@pytest.mark.parametrize(
    "argv,config",
    [
        (["verify", "champions", "--workers", "0"], None),
        (["verify", "champions", "--workers", "-2"], None),
        (["verify", "champions"], {"n_max": [1]}),
        (["verify", "champions"], {"champion_limit": 1000.5}),
        (["scan", "lower"], {"n_max": "200"}),
        (["scan", "lower", "--n-max", "10"], {"cache_dir": 5}),
        (["scan", "lower", "--n-max", "5"], {"format": "xml"}),
        (["scan", "points", "--n-max", "5"], {"format": "table"}),
        (["compute", "30"], {"format": "xml"}),
        (["verify", "champions", "--champion-limit", str(MAX_LIMIT + 1)], None),
        (["verify", "champions", "--champion-limit", "1000"], None),  # the tables fail to allocate
        (["verify", "mertens-trend", "--n-max", "9"], None),
        # the code, not a flag, sets the reduction sampling and the escalation
        (["verify", "reduction", "--samples", "5"], None),
        (["scan", "bounds", "--name", "zeta-tail", "--from", "2", "--to", "50", "--no-escalate"], None),
    ],
    ids=[
        "workers-0", "workers-negative",
        "config-n_max-list", "config-champion_limit-float", "config-n_max-string", "config-cache_dir-int",
        "config-format-scan-lower", "config-format-scan-points", "config-format-compute",
        "champion_limit-above-sieve-cap", "champion_limit-out-of-memory", "n_max-below-first-checkpoint",
        "samples-removed", "scan-bounds-no-escalate-removed",
    ],
)
def test_malformed_numbers_exit_2(capsys, tmp_path, monkeypatch, request, argv, config):
    monkeypatch.delenv("PSIVERIFY_CONFIG", raising=False)
    monkeypatch.delenv("PSIVERIFY_CACHE_DIR", raising=False)
    if request.node.callspec.id == "champion_limit-out-of-memory":
        import psiverify.claims as claims_mod

        def out_of_memory(limit):
            raise MemoryError(f"cannot allocate the psi(m)/m tables to {limit}")

        monkeypatch.setattr(claims_mod, "psi_ratio_tables", out_of_memory)
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = ["--config", str(cfg), *argv]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects a flag at parse time
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2
    assert "psiverify: error:" in err
    assert "Traceback" not in err


@pytest.fixture
def first_ball_comparison_inconclusive(monkeypatch):
    """Make the first ball comparison of bounds and claims INCONCLUSIVE, as a thin margin would."""
    import psiverify.bounds as bounds_mod
    import psiverify.claims as claims_mod
    from psiverify.numerics import VerdictStatus

    real_status = bounds_mod.ball_status
    state = {"first": True}

    def flaky_status(margin, claim):
        status = real_status(margin, claim)
        if state["first"] and margin[1] > 1e-20:
            state["first"] = False
            return VerdictStatus.INCONCLUSIVE
        return status

    # bound scans and claims both decide on margin pairs with the core
    monkeypatch.setattr(bounds_mod, "ball_status", flaky_status)
    monkeypatch.setattr(claims_mod, "ball_status", flaky_status)


def test_scan_bounds_escalates_an_inconclusive_point(capsys, first_ball_comparison_inconclusive):
    got, out, err = run_cli(capsys, "scan", "bounds", "--name", "zeta-tail", "--from", "25", "--to", "25")
    assert got == 0, err
    report = json.loads(out)
    assert report["verdicts"] == {"holds": 1, "inconclusive": 0, "fails": 0}
    assert report["escalated_at"] == [25]


@pytest.mark.parametrize("kind", ["lower", "points"])
def test_scan_rows_re_decide_an_inconclusive_margin_at_113_bits(capsys, monkeypatch, kind):
    import psiverify.cli as cli_mod
    from psiverify.numerics import VerdictStatus

    real_status, real_sides, calls, escalated = cli_mod.ball_status, cli_mod._interval_sides, [], []

    def flaky_status(margin, claim):  # the first margin, at n = 3, reads INCONCLUSIVE, as a thin one would
        calls.append(margin)
        return VerdictStatus.INCONCLUSIVE if len(calls) == 1 else real_status(margin, claim)

    def sides(table, bound, n):
        escalated.append(n)
        return real_sides(table, bound, n)

    monkeypatch.setattr(cli_mod, "ball_status", flaky_status)
    monkeypatch.setattr(cli_mod, "_interval_sides", sides)
    code, out, err = run_cli(capsys, "scan", kind, "--n-max", "20", "--format", "json")
    assert code == 0, err
    rows = {row["n"]: row["verdict"] for row in json.loads(out) if row["n"] >= 3}
    assert escalated == [3]
    assert rows[3] == "holds" and set(rows.values()) == {"holds"}


def test_verify_no_escalate_fails_on_an_inconclusive_point(capsys, tmp_path, first_ball_comparison_inconclusive):
    """``--no-escalate`` is gone: the code escalates the inconclusive point, and the claim holds."""
    report = tmp_path / "report.json"
    with pytest.raises(SystemExit) as refused:  # argparse rejects the flag at parse time
        main(["verify", "lower", "--n-max", "50", "--no-escalate", "--json", str(report)])
    assert refused.value.code == 2
    assert "unrecognized arguments: --no-escalate" in capsys.readouterr().err
    assert not report.exists()
    code, _, err = run_cli(capsys, "verify", "lower", "--n-max", "50", "--json", str(report))
    assert code == 0, err
    rep = json.loads(report.read_text())
    assert rep["claims"]["lower"]["counterexamples"] == []
    assert rep["claims"]["lower"]["details"]["escalated_at"] == [3]


def test_cache_requires_directory(capsys, monkeypatch):
    monkeypatch.delenv("PSIVERIFY_CACHE_DIR", raising=False)
    code, _, err = run_cli(capsys, "cache", "inspect")
    assert code == 2
    assert "cache directory" in err


def test_config_file_and_flag_precedence(capsys, tmp_path, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_max": 4}))
    monkeypatch.setenv("PSIVERIFY_CONFIG", str(cfg))
    code, out, _ = run_cli(capsys, "scan", "points")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows[-1]["n"] == "4"  # config file supplied the depth
    code, out, _ = run_cli(capsys, "scan", "points", "--n-max", "6")
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows[-1]["n"] == "6"  # flag wins over config file


def test_output_file_option(capsys, tmp_path):
    target = tmp_path / "rows.csv"
    code, out, _ = run_cli(capsys, "scan", "lower", "--n-max", "10", "--output", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text().startswith(",".join(CSV_COLUMNS))


# ---------------------------------------------------------------------------
# streamed scans
# ---------------------------------------------------------------------------


_STREAMED_SCANS = [("lower", "csv"), ("points", "json")]


@pytest.mark.parametrize("kind,fmt", _STREAMED_SCANS, ids=["lower-csv", "points-json"])
def test_streamed_scan_writes_the_bytes_of_the_materialised_rows(capsys, tmp_path, kind, fmt):
    # stdout and --output carry the same bytes, and they are what the whole
    # row list gives through _json_dumps or csv.writer
    from psiverify.cli import _json_dumps, _point_rows
    from psiverify.claims import required_table_limit

    code, out, err = run_cli(capsys, "scan", kind, "--n-max", "2000", "--format", fmt)
    assert code == 0, err
    target = tmp_path / f"rows.{fmt}"
    code, printed, err = run_cli(capsys, "scan", kind, "--n-max", "2000", "--format", fmt, "--output", str(target))
    assert code == 0 and printed == "", err
    assert target.read_bytes() == out.encode()
    assert list(tmp_path.iterdir()) == [target]  # no temporary file left behind
    umask = os.umask(0o022)
    os.umask(umask)
    assert target.stat().st_mode & 0o777 == 0o666 & ~umask  # the mode open() gives, not a temp file's 0600

    rows = list(_point_rows(build_table(required_table_limit(2000)), 3 if kind == "lower" else 2, 2000))
    if fmt == "json":
        expected = _json_dumps([dict(zip(CSV_COLUMNS, row)) for row in rows])
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        writer.writerows(rows)
        expected = buf.getvalue()
    assert out == expected


@pytest.mark.parametrize("kind,fmt", _STREAMED_SCANS, ids=["lower-csv", "points-json"])
def test_a_failing_row_exits_1_with_every_row_written(capsys, monkeypatch, kind, fmt):
    import psiverify.cli as cli_mod
    from psiverify.numerics import VerdictStatus

    real_status, calls = cli_mod.ball_status, []

    def fails_first(margin, claim):  # the first margin, at n = 3, reads FAILS
        calls.append(margin)
        return VerdictStatus.FAILS if len(calls) == 1 else real_status(margin, claim)

    monkeypatch.setattr(cli_mod, "ball_status", fails_first)
    code, out, err = run_cli(capsys, "scan", kind, "--n-max", "200", "--format", fmt)
    assert code == 1, err
    if fmt == "json":
        verdicts = {row["n"]: row["verdict"] for row in json.loads(out)}
    else:
        verdicts = {int(row["n"]): row["verdict"] for row in csv.DictReader(io.StringIO(out))}
    assert sorted(verdicts) == list(range(3 if kind == "lower" else 2, 201))
    assert verdicts.pop(3) == "fails"
    assert set(verdicts.values()) - {""} == {"holds"}


@pytest.mark.parametrize("kind,fmt", _STREAMED_SCANS, ids=["lower-csv", "points-json"])
def test_a_scan_that_fails_partway_leaves_no_partial_output(capsys, tmp_path, monkeypatch, kind, fmt):
    # the margin at n = 100 reads INCONCLUSIVE and its 113-bit path cannot import:
    # exit 2, and --output holds what it held before, or nothing
    import psiverify.cli as cli_mod
    from psiverify.numerics import VerdictStatus

    real_status, calls = cli_mod.ball_status, []

    def inconclusive_at_100(margin, claim):
        calls.append(margin)
        return VerdictStatus.INCONCLUSIVE if len(calls) == 98 else real_status(margin, claim)

    def no_mpmath(table, bound, n):
        assert n == 100
        raise ImportError("No module named 'mpmath'")

    monkeypatch.setattr(cli_mod, "ball_status", inconclusive_at_100)
    monkeypatch.setattr(cli_mod, "_interval_sides", no_mpmath)
    fresh, kept = tmp_path / f"fresh.{fmt}", tmp_path / f"kept.{fmt}"
    kept.write_text("an earlier scan\n")
    for target in (fresh, kept):
        calls.clear()
        code, out, err = run_cli(capsys, "scan", kind, "--n-max", "200", "--format", fmt, "--output", str(target))
        assert code == 2 and out == ""
        assert "mpmath" in err
    assert not fresh.exists()
    assert kept.read_text() == "an earlier scan\n"
    assert list(tmp_path.iterdir()) == [kept]


def test_output_to_a_device_is_written_in_place(capsys):
    # a device is not renamed over: writing to os.devnull leaves it a device
    code, out, err = run_cli(capsys, "scan", "lower", "--n-max", "10", "--output", os.devnull)
    assert code == 0 and out == "", err
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)


def test_scan_peak_memory_is_flat_in_n_max(tmp_path):
    # each row is written as it is made: ten times the rows peak within 1 MB,
    # the larger table and sieve; a scan that held its rows grew by about 15 MB
    peaks = []
    for n_max in (2000, 20000):
        tracemalloc.start()
        try:
            assert main(["scan", "lower", "--n-max", str(n_max), "--output", str(tmp_path / "rows.csv")]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < peaks[0] + 2**20, peaks
