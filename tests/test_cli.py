"""CLI contract: output formats, exit codes, cache, CSV round-trips."""

from __future__ import annotations

import csv
import io
import json
import struct
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
        assert float(row["R_value"]) == point.ratio.value
        assert float(row["R_radius"]) == point.ratio.radius
        assert float(row["theta"]) == point.theta.value
        assert float(row["g_value"]) == point.g.value
        assert float(row["margin_lower"]) == point.margin_lower.value
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
    # a cache built past what n_max needs must not add upper (c) steps
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
    upper = json.loads(reports[0])["claims"]["upper"]
    assert upper["details"]["c"]["monotone_checked_at"] == [2263, 2500]


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
    assert rep["config"]["escalate"] is True
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
