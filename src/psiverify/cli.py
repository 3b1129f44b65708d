"""Command-line front end: compute, scan, verify, cache.

Exit codes are a stable contract for CI:

    0   everything requested holds
    1   a mathematical claim FAILS or stays INCONCLUSIVE
    2   usage, configuration, domain, or range errors, requests beyond the
        sieve cap or the available memory, and a library the run needs that
        does not import (numpy for ``champions`` and ``reduction``, mpmath
        for a point re-decided at 113 bits)

Settings resolve as flags > environment > config file > defaults.  The
environment knows ``PSIVERIFY_CACHE_DIR`` (prime-table cache directory) and
``PSIVERIFY_CONFIG`` (path to a JSON config file with keys ``cache_dir``,
``n_max``, ``champion_limit``, ``format``); the defaults are those of
``VerifyConfig``: two depths and a seed.  The code, not a flag, sets the
stride of ``scan bounds``, the reduction sampling and the escalation.
Malformed settings are usage errors and exit 2 with a ``psiverify: error:``
message: a ``--workers`` below 1, a config value of the wrong type, or a
config ``format`` that the subcommand's ``--format`` does not offer.

``verify`` runs its claims on one prefix pass; ``--workers`` has no effect yet.
``scan lower`` and ``scan points`` write each row as it is made, so their
peak memory does not grow with ``n_max``.  Every ``--output`` (and ``--json``)
file goes to a temporary file that is renamed into place at the end: a run
that fails partway leaves no partial file and an earlier file unchanged.  To
stdout the rows stream as they are made.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import sys
import tempfile
from typing import Sequence

from .arith import factorize, phi_from_factors, psi_from_factors, robin_ratio_from_factors, sigma_from_factors
from .bounds import BOUND_NAMES, LOWER, _interval_sides, scan_bound
from .claims import (
    CLAIM_IDS,
    VerifyConfig,
    build_default_table,
    check_claim_ids,
    claim_description,
    required_table_limit,
    run_claims,
)
from .errors import PsiverifyError
from .numerics import VerdictStatus, ball_status, sub_ball
from .primes import CACHE_FILENAME, build_table, inspect_cache
from .series import points_at

__all__ = ["main"]

_ENV_CACHE = "PSIVERIFY_CACHE_DIR"
_ENV_CONFIG = "PSIVERIFY_CONFIG"

COMPUTE_FORMATS = ("table", "json")
SCAN_FORMATS = ("csv", "json")

CSV_COLUMNS = [
    "n",
    "p_n",
    "theta",
    "log_theta",
    "R_value",
    "R_radius",
    "g_value",
    "g_radius",
    "margin_lower",
    "verdict",
]


def _load_file_config(path: str | None) -> dict:
    path = path or os.environ.get(_ENV_CONFIG)
    if not path:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError("config file must hold a JSON object")
    return cfg


def _setting(flag_value, file_cfg: dict, key: str, env_key: str | None, default, kind: type = str):
    if flag_value is not None:
        return flag_value
    if env_key and os.environ.get(env_key):
        return os.environ[env_key]
    if key not in file_cfg:
        return default
    if type(file_cfg[key]) is not kind:
        raise PsiverifyError(f"config key {key!r} must be of type {kind.__name__}, got {file_cfg[key]!r}")
    return file_cfg[key]


def _format(args, file_cfg: dict, formats: tuple[str, ...]) -> str:
    fmt = _setting(args.format, file_cfg, "format", None, formats[0])
    if fmt not in formats:
        raise PsiverifyError(f"config key 'format' must be one of {', '.join(formats)}, got {fmt!r}")
    return fmt


def _cache_dir(args, file_cfg: dict) -> str | None:
    return _setting(getattr(args, "cache_dir", None), file_cfg, "cache_dir", _ENV_CACHE, None)


@contextlib.contextmanager
def _output(output: str | None):
    """Stdout, or a file that appears at ``output`` whole or not at all.

    The file is written to a temporary file in the same directory and renamed
    over ``output`` when the block ends; a block that raises leaves no partial
    file and an earlier one unchanged.  A device or a pipe is written in place.
    """
    if not output:
        yield sys.stdout
        return
    if os.path.exists(output) and not os.path.isfile(output):
        with open(output, "w", encoding="utf-8") as fh:
            yield fh
        return
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(output) or ".", prefix=os.path.basename(output) + ".")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            umask = os.umask(0o022)
            os.umask(umask)
            os.fchmod(fd, 0o666 & ~umask)  # the mode open() gives a new file, not mkstemp's 0600
            yield fh
        os.replace(tmp, output)
    except BaseException:
        os.unlink(tmp)
        raise


def _emit(text: str, output: str | None) -> None:
    with _output(output) as out:
        out.write(text)


def _json_dumps(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


# ---------------------------------------------------------------------------
# compute
# ---------------------------------------------------------------------------


def _cmd_compute(args, file_cfg: dict) -> int:
    n = args.n
    fmt = _format(args, file_cfg, COMPUTE_FORMATS)
    fz = factorize(n)
    record = {
        "n": n,
        "factorization": [[p, e] for p, e in fz.factors],
        "psi": psi_from_factors(fz),
        "phi": phi_from_factors(fz),
        "sigma": sigma_from_factors(fz),
    }
    if n >= 3:
        value, radius = robin_ratio_from_factors(fz)
        record["R"] = {"value": value, "radius": radius}
    else:
        record["R"] = None
    if fmt == "json":
        _emit(_json_dumps(record), args.output)
    else:
        lines = [
            f"n      = {n}",
            "factorization = "
            + (" * ".join(f"{p}^{e}" if e > 1 else str(p) for p, e in fz.factors) or "1"),
            f"psi    = {record['psi']}",
            f"phi    = {record['phi']}",
            f"sigma  = {record['sigma']}",
        ]
        if record["R"] is None:
            lines.append("R      = undefined (n < 3)")
        else:
            lines.append(f"R      = {record['R']['value']!r} +/- {record['R']['radius']:.3e}")
        _emit("\n".join(lines) + "\n", args.output)
    return 0


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------


def _point_rows(table, n_start: int, n_max: int):
    # one tuple per index, in CSV_COLUMNS order; the verdict is R > e^gamma/zeta(2), the row LOWER
    for point in points_at(table, range(n_start, n_max + 1)):
        g_value, g_radius = point.g_ball or (None, None)
        yield (
            point.n,
            point.p,
            point.theta_ball[0],
            point.log_theta_ball[0],
            point.ratio_ball[0],
            point.ratio_ball[1],
            g_value,
            g_radius,
            point.margin_ball[0],
            _lower_verdict(table, point) if point.n >= 3 else "",
        )


def _lower_verdict(table, point) -> str:
    """The row ``LOWER`` at the point, an INCONCLUSIVE margin re-decided on the 113-bit path."""
    status = ball_status(point.margin_ball, LOWER.claim)
    if status is VerdictStatus.INCONCLUSIVE:
        status = ball_status(sub_ball(*_interval_sides(table, LOWER, point.n)), LOWER.claim)
    return status.value


def _write_rows(out, fmt: str, rows) -> bool:
    """Write each row to ``out`` as it is made; whether every verdict is "" or "holds".

    The CSV is ``csv.writer``'s: floats as repr(), None as an empty cell.  The
    JSON array has the bytes of ``_json_dumps`` over the rows as dicts: each
    row's own dump, every line indented one level more.
    """
    writer = csv.writer(out, lineterminator="\n")
    if fmt == "csv":
        writer.writerow(CSV_COLUMNS)
    holds, sep = True, "[\n"
    for row in rows:
        if fmt == "csv":
            writer.writerow(row)
        else:
            text = json.dumps(dict(zip(CSV_COLUMNS, row)), indent=2, sort_keys=True, allow_nan=False)
            out.write(sep + "  " + text.replace("\n", "\n  "))
            sep = ",\n"
        holds = holds and row[-1] in ("", "holds")
    if fmt == "json":
        out.write("[]\n" if sep == "[\n" else "\n]\n")
    return holds


def _cmd_scan(args, file_cfg: dict) -> int:
    cache = _cache_dir(args, file_cfg)
    if args.kind in ("points", "lower"):
        n_max = _setting(args.n_max, file_cfg, "n_max", None, VerifyConfig.n_max, int)
        fmt = _format(args, file_cfg, SCAN_FORMATS)
        n_start = 3 if args.kind == "lower" else 2
        if n_max < n_start:
            raise PsiverifyError(f"scan {args.kind}: n-max must be >= {n_start} (n starts at {n_start})")
        table = build_table(required_table_limit(n_max), cache_dir=cache)
        with _output(args.output) as out:
            holds = _write_rows(out, fmt, _point_rows(table, n_start, n_max))
        return 0 if holds else 1

    # bound scan; scan_bound checks the name and the range
    table = build_table(required_table_limit(args.stop), cache_dir=cache)
    scan = scan_bound(table, args.name, args.start, args.stop)
    _emit(_json_dumps(scan.to_dict()), args.output)
    return 0 if scan.all_hold else 1


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _cmd_verify(args, file_cfg: dict) -> int:
    ids = args.claims or None
    if ids:
        check_claim_ids(ids)  # before the sieve
    config = VerifyConfig(
        champion_limit=_setting(
            args.champion_limit, file_cfg, "champion_limit", None, VerifyConfig.champion_limit, int
        ),
        n_max=_setting(args.n_max, file_cfg, "n_max", None, VerifyConfig.n_max, int),
        seed=args.seed,
    )
    table = build_default_table(config, cache_dir=_cache_dir(args, file_cfg))
    report = run_claims(ids, table, config)
    if args.json:
        _emit(_json_dumps(report), args.json)
    width = max(len(c) for c in report["claims"])
    lines = []
    for cid, res in report["claims"].items():
        status = "HOLDS" if res["holds"] else "FAILS"
        lines.append(f"{cid:<{width}}  {status:<6} {claim_description(cid)}")
    lines.append("all claims hold" if report["all_hold"] else "SOME CLAIMS DO NOT HOLD")
    _emit("\n".join(lines) + "\n", args.output)
    return 0 if report["all_hold"] else 1


# ---------------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------------


def _cmd_cache(args, file_cfg: dict) -> int:
    cache = _cache_dir(args, file_cfg)
    if cache is None:
        raise PsiverifyError(
            f"no cache directory configured (use --cache-dir or {_ENV_CACHE})"
        )
    path = os.path.join(cache, CACHE_FILENAME)
    if args.action == "build":
        table = build_table(args.limit, cache_dir=cache)
        _emit(
            _json_dumps({"path": path, "limit": table.limit, "count": table.count}),
            args.output,
        )
        return 0
    if args.action == "inspect":
        if not os.path.exists(path):
            raise PsiverifyError(f"no cache at {path}")
        _emit(_json_dumps(inspect_cache(path)), args.output)
        return 0
    if os.path.exists(path):
        os.remove(path)
        _emit(_json_dumps({"removed": path}), args.output)
    else:
        _emit(_json_dumps({"removed": None}), args.output)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Usage errors, in subcommands too, read ``psiverify: error: ...`` and exit 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(2, f"psiverify: error: {message}\n")


def _positive_int(text: str) -> int:
    """An argparse type: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="psiverify",
        description="Dedekind psi computations and certified inequality verification",
    )
    parser.add_argument("--config", help="JSON config file (or set PSIVERIFY_CONFIG)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="psi/phi/sigma/R and factorization of one integer")
    p.add_argument("n", type=int)
    p.add_argument("--format", choices=COMPUTE_FORMATS, default=None)
    p.add_argument("--output")

    p = sub.add_parser("scan", help="stream primorial points or scan an analytic bound")
    kind = p.add_subparsers(dest="kind", required=True)

    for k in ("points", "lower"):
        q = kind.add_parser(k, help=f"primorial stream ({k})")
        q.add_argument("--n-max", dest="n_max", type=int, default=None)
        q.add_argument("--format", choices=SCAN_FORMATS, default=None)
        q.add_argument("--output")
        q.add_argument("--cache-dir", dest="cache_dir")

    q = kind.add_parser("bounds", help="scan one analytic bound, JSON report")
    q.add_argument("--name", required=True, help=f"one of: {', '.join(BOUND_NAMES)}")
    q.add_argument("--from", dest="start", type=int, required=True)
    q.add_argument("--to", dest="stop", type=int, required=True)
    q.add_argument("--output")
    q.add_argument("--cache-dir", dest="cache_dir")

    p = sub.add_parser("verify", help="run claim verifications from the registry")
    p.add_argument("claims", nargs="*", help=f"claims to run (default all): {', '.join(CLAIM_IDS)}")
    p.add_argument("--n-max", dest="n_max", type=int, default=None)
    p.add_argument("--champion-limit", dest="champion_limit", type=int, default=None)
    p.add_argument("--seed", type=int, default=VerifyConfig.seed)
    p.add_argument("--workers", type=_positive_int, default=1, help="no effect yet: one pass serves all claims")
    p.add_argument("--json", help="write the full JSON report here")
    p.add_argument("--output")
    p.add_argument("--cache-dir", dest="cache_dir")

    p = sub.add_parser("cache", help="manage the prime-table disk cache")
    p.add_argument("action", choices=["build", "inspect", "clear"])
    p.add_argument("--limit", type=int, default=10**6)
    p.add_argument("--output")
    p.add_argument("--cache-dir", dest="cache_dir")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        file_cfg = _load_file_config(args.config)
        if args.command == "compute":
            return _cmd_compute(args, file_cfg)
        if args.command == "scan":
            return _cmd_scan(args, file_cfg)
        if args.command == "verify":
            return _cmd_verify(args, file_cfg)
        return _cmd_cache(args, file_cfg)
    except (PsiverifyError, ValueError, OSError, MemoryError) as exc:
        print(f"psiverify: error: {exc}", file=sys.stderr)
        return 2
    except ImportError as exc:
        print(
            f"psiverify: error: {exc} (the champions and reduction claims need numpy,"
            " a point re-decided at 113 bits needs mpmath)",
            file=sys.stderr,
        )
        return 2


if __name__ == "__main__":
    sys.exit(main())
