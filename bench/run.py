"""psiverify benchmark: one workload per call, every op a fresh CLI process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports psiverify from ``src``.
With ``--trace 0`` it sets up, then starts ops back to back for about S
seconds, and reports the end-to-end metrics.  With ``--trace 1`` it runs one
untraced op, one traced op in a fresh interpreter and the per-layer probes,
and reports the per-layer metrics.  Every op's output is checked against an
oracle computed here.  The last line of stdout is one JSON object; results
files and spans go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from oracle import LowerOracle
from spans import layer_self, read_jsonl, self_total
from workloads import WORKLOADS, Workload, check_output

BENCH_DIR = Path(__file__).resolve().parent
SETUP_REPEATS = 3
IMPORT_REPEATS = 3
OP_TIMEOUT_S = 150
MAX_GAP_FRAC = 0.10  # share of the traced op's wall time its spans may leave uncovered
CALIB_ITERATIONS = 300000
CALIB_REF_S = 0.2  # calibrate() at the reference speed; rescaled times are in these seconds
OUT_DIR = ".bench_out"


@dataclasses.dataclass
class Proc:
    wall_s: float
    returncode: int
    cpu_s: float
    peak_rss_mb: float


def spawn(argv: list[str], root: Path, stdout_path: Path | None = None) -> Proc:
    """Run one child to exit, through launch.py, which measures it alone."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
    launcher = [sys.executable, "-S", str(BENCH_DIR / "launch.py"), str(OP_TIMEOUT_S), str(stdout_path or "-")]
    res = subprocess.run([*launcher, *argv], cwd=root, env=env, stdout=subprocess.PIPE, text=True,
                         timeout=OP_TIMEOUT_S + 20, check=True)
    return Proc(**json.loads(res.stdout))


def psiverify_cmd(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "psiverify.cli", *args]


@dataclasses.dataclass(frozen=True, slots=True)
class _Ball:
    value: float
    radius: float


def calibrate() -> float:
    """Seconds for a fixed loop of the kind psiverify runs, without psiverify.

    The sandbox's speed drifts by up to 2x within a minute as other tenants
    come and go; an op's time divided by this loop's time, measured just
    before and after the op, drifts much less.
    """
    start = time.perf_counter()
    total = comp = 0.0
    for k in range(3, CALIB_ITERATIONS + 3):
        term = _Ball(math.log1p(1.0 / k), math.ulp(total))
        y = term.value - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return time.perf_counter() - start


def at_reference_speed(seconds: float, calib_before: float, calib_after: float) -> float:
    return seconds * CALIB_REF_S / (0.5 * (calib_before + calib_after))


# ---------------------------------------------------------------------------
# set-up, ops, traced run
# ---------------------------------------------------------------------------


def set_up(wl: Workload, root: Path, work: Path) -> tuple[list[dict], list[str]]:
    """Fresh work dir, warm import (+ warm prime cache); repeated, last one kept."""
    setups, problems = [], []
    calib = calibrate()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        if spawn([sys.executable, "-c", "import psiverify.cli"], root).returncode != 0:
            problems.append("set-up: import psiverify.cli failed")
        if wl.cache_limit is not None:
            build = ["cache", "build", "--limit", str(wl.cache_limit), "--cache-dir", str(work / "cache")]
            rc = spawn(psiverify_cmd(build), root, work / "build.json").returncode
        seconds = time.perf_counter() - start
        after = calibrate()
        setups.append({"s": seconds, "ref_s": at_reference_speed(seconds, calib, after), "calib_s": after})
        calib = after
        if wl.cache_limit is None:
            continue
        count = json.loads((work / "build.json").read_text()).get("count") if rc == 0 else None
        if count != wl.cache_primes:
            problems.append(f"set-up: cache build exited {rc} holding {count} primes, want {wl.cache_primes}")
    return setups, problems


def run_op(wl: Workload, seed: int, root: Path, work: Path, oracle, argv_prefix=()) -> dict:
    out = work / wl.output_name
    if out.exists():
        out.unlink()
    argv = wl.argv(str(work), seed)
    cmd = [*argv_prefix, *argv] if argv_prefix else psiverify_cmd(argv)
    proc = spawn(cmd, root, work / "stdout.txt")
    problems = [] if proc.returncode == 0 else [f"exit code {proc.returncode}"]
    if out.exists():
        problems += check_output(out.read_text(encoding="utf-8"), wl, seed, oracle)
        size = out.stat().st_size
    else:
        problems.append(f"no output {wl.output_name}")
        size = 0
    return {**dataclasses.asdict(proc), "output_bytes": size, "problems": problems}


def timed_ops(wl: Workload, seed: int, seconds: float, root: Path, work: Path, oracle) -> list[dict]:
    """Closed loop, one op at a time, for about ``seconds``.

    Another op starts while it would end at most half an op past the
    deadline, so a run of ops near seconds/2 long still gets two samples.
    Each op gets its time at reference speed from the calibrations on
    either side of it.
    """
    ops = []
    start = time.perf_counter()
    calib = calibrate()
    while True:
        op = run_op(wl, seed, root, work, oracle)
        after = calibrate()
        op.update(calib_s=after, wall_ref_s=at_reference_speed(op["wall_s"], calib, after))
        ops.append(op)
        calib = after
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * op["wall_s"] > seconds:
            return ops


def import_time(root: Path) -> float:
    code = "import time; t = time.perf_counter(); import psiverify.cli; print(time.perf_counter() - t)"
    times = []
    for _ in range(IMPORT_REPEATS):
        res = subprocess.run([sys.executable, "-c", code], cwd=root, capture_output=True, text=True, check=True,
                             env=dict(os.environ, PYTHONPATH=str(root / "src")))
        times.append(float(res.stdout))
    return statistics.median(times)


def traced_layers(wl: Workload, seed: int, root: Path, work: Path, results: Path, oracle) -> tuple[dict, list[dict], dict]:
    calib = [calibrate()]
    untraced = run_op(wl, seed, root, work, oracle)
    calib.append(calibrate())
    spans_path = results / f"{wl.name}-seed{seed}-spans.jsonl"
    traced = run_op(wl, seed, root, work, oracle,
                    argv_prefix=(sys.executable, str(BENCH_DIR / "traced.py"), "op", str(spans_path), "--"))
    calib.append(calibrate())
    spans = read_jsonl(spans_path) if spans_path.exists() else []
    layers = layer_self(spans)
    covered = sum(layers.values())
    gap = (traced["wall_s"] - covered) / traced["wall_s"]
    probe_out = work / "probes.json"
    probe = spawn([sys.executable, str(BENCH_DIR / "traced.py"), "probes", json.dumps(dataclasses.asdict(wl)),
                   str(seed), str(work), str(probe_out)], root)
    probe_rec = {**dataclasses.asdict(probe), "problems": []}
    if probe.returncode != 0 or not probe_out.exists():
        probe_rec["problems"].append(f"probes exited {probe.returncode}")
        return {}, [untraced, traced, probe_rec], {}
    p = json.loads(probe_out.read_text())
    probe_rec["problems"] += p["problems"]
    if p["counts"][0] != p["counts"][1]:
        probe_rec["problems"].append(f"numerics counts differ between runs: {p['counts']}")
    if gap > MAX_GAP_FRAC:
        traced["problems"].append(f"traced layer spans cover {covered:.3f} s of {traced['wall_s']:.3f} s")
    c = p["counts"][0]
    cl = p["claims"]
    bounds = [cid for cid in cl if "scan_s" in cl[cid]]
    m = {
        "primes.build_s": p["build_s"],
        "primes.primes_per_s": p["table_primes"] / p["build_s"],
        "primes.table_bytes": 24 * p["table_primes"],
        "primes.load_s": p["load_s"],
        "primes.save_s": p["save_s"],
        "primes.cache_bytes": p["cache_bytes"],
        "series.stream_s": p["stream_s"],
        "series.us_per_point": 1e6 * p["stream_s"] / p["points"],
        "series.points": p["points"],
        "numerics.values_per_point": c["certified_values"] / c["points"],
        "numerics.calls_per_point": c["numerics_calls"] / c["points"],
        "numerics.headroom_1e4": cl["lower"]["headroom_1e4"],
        "bounds.scan_s": sum(cl[b]["scan_s"] for b in bounds),
        **{f"bounds.{b}.scan_s": cl[b]["scan_s"] for b in bounds},
        "bounds.points_checked": sum(cl[b]["points_checked"] for b in bounds),
        "bounds.escalations": p["bound_escalations"],
        **{f"claims.{cid}_s": cl[cid]["s"] for cid in cl},
        "claims.lower.self_s": cl["lower"]["self_s"],
        "claims.lower.escalations": cl["lower"]["escalations"],
        "claims.champions.self_s": cl["champions"]["self_s"],
        "arith.psi_ratio_tables_s": cl["champions"]["psi_ratio_tables_s"],
        "arith.psi_ratio_tables_bytes": 16 * (wl.champion_limit + 1),
        "cli.import_s": import_time(root),
        "cli.self_s": self_total(spans, "cli.main"),
        "cli.output_bytes": untraced["output_bytes"],
        "proc.cpu_s": untraced["cpu_s"],
        "trace.overhead_s": traced["wall_s"] - untraced["wall_s"],
        "trace.gap_frac": gap,
        "host.calib_s": statistics.median(calib),
    }
    info = {"layer_self_s": layers, "traced_wall_s": traced["wall_s"], "untraced_wall_s": untraced["wall_s"],
            "covered_s": covered, "spans_file": str(spans_path.relative_to(root)), "probe_counts": p["counts"]}
    return m, [untraced, traced, probe_rec], info


# ---------------------------------------------------------------------------
# environment, metrics, report
# ---------------------------------------------------------------------------


def environment(root: Path, seed: int) -> dict:
    import mpmath
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10,
                             env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "git_sha": sha or os.environ.get("GIT_SHA", "unknown"),
        "seed": seed,
    }


UNITS = {
    "wall_ref_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "samples": "count",
    "points_per_s": "1/s",
    "primes.primes_per_s": "1/s",
    "series.us_per_point": "us",
    "numerics.headroom_1e4": "ratio",
    "trace.gap_frac": "ratio",
}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_bytes"):
        return "B"
    return "s" if name.endswith("_s") else "count"


def run(wl: Workload, seed: int, seconds: float, trace: bool, root: Path) -> tuple[dict, dict]:
    """One benchmark run; returns (final JSON object, results-file record)."""
    results = root / OUT_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    work = root / OUT_DIR / "work" / wl.name
    try:
        setups, problems = set_up(wl, root, work)
        indices = wl.oracle_indices(seed)
        oracle = LowerOracle(indices) if indices else None
        info: dict = {}
        if trace:
            metrics, ops, info = traced_layers(wl, seed, root, work, results, oracle)
            values = metrics
        else:
            ops = timed_ops(wl, seed, seconds, root, work, oracle)
            values = {
                "wall_ref_s": statistics.median(op["wall_ref_s"] for op in ops),
                "peak_rss_mb": statistics.median(op["peak_rss_mb"] for op in ops),
                "setup_s": statistics.median(s["ref_s"] for s in setups),
            }
            info = wall_summary(wl, ops, setups)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = sum(1 for op in ops if op["problems"]) + (1 if problems else 0)
    attempted = len(ops) + (1 if problems else 0)
    final = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in values.items()},
    }
    record = {
        "workload": wl.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(root, seed),
        "workloads": {w.name: {"argv": ["psiverify", *w.argv("W", seed)], "sizes": w.sizes()}
                      for w in WORKLOADS.values()},
        "setups": setups,
        "setup_problems": problems,
        "ops": ops,
        "failed_frac": failed / attempted,
        "info": info,
        "result": final,
    }
    path = results / f"{wl.name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1), encoding="utf-8")
    return final, record


def wall_summary(wl: Workload, ops: list[dict], setups: list[dict]) -> dict:
    """Raw wall time: median, the tail percentile with at least ten samples beyond it, points/s."""
    walls = [op["wall_s"] for op in ops]
    k = len(walls)
    info = {
        "samples": k,
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(op["cpu_s"] for op in ops),
        "setup_raw_s": statistics.median(s["s"] for s in setups),
        "calib_s": statistics.median(op["calib_s"] for op in ops),
    }
    if k >= 20:
        q = int(100 * (1 - 10 / k))
        info[f"wall_p{q}_s"] = statistics.quantiles(walls, n=100)[q - 1]
    if wl.points_per_op:
        info["points_per_s"] = wl.points_per_op / info["wall_s"]
    return info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "psiverify" / "cli.py").is_file():
        print("bench: run from the root of a psiverify checkout (no src/psiverify here)", file=sys.stderr)
        return 2
    final, record = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), root)
    env = record["environment"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace} nproc={env['nproc']} "
          f"python={env['python']} numpy={env['numpy']} mpmath={env['mpmath']} sha={env['git_sha']}")
    for name, m in final["metrics"].items():
        print(f"{name:32s} {m['value']:.6g} {m['unit']}")
    for name, v in record["info"].items():
        if isinstance(v, (int, float)):
            print(f"{name:32s} {v:.6g} {unit_of(name)}")
    print(f"{'failed_frac':32s} {record['failed_frac']:.6g} ({final['failed']}/{final['attempted']} ops)")
    for op in record["ops"]:
        for prob in op["problems"]:
            print(f"problem: {prob}")
    for prob in record["setup_problems"]:
        print(f"problem: {prob}")
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
