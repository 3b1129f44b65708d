"""Child process of the benchmark's traced run.

    python3 bench/traced.py op SPANS.jsonl -- <psiverify arguments>
        Runs one psiverify CLI command in this interpreter with spans around
        the public functions of every layer, then writes the spans.

    python3 bench/traced.py probes WORKLOAD_JSON SEED WORKDIR OUT.json
        Times each layer on its own at the workload's sizes (build, save and
        load a prime table, drain the primorial stream, run each claim
        alone) and counts numerics calls per point under cProfile, twice.

Both run in a fresh interpreter because ``arith`` keeps a shared sieve for
the life of the process.
"""

from __future__ import annotations

from time import perf_counter

MAIN_T = perf_counter()

import cProfile  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pstats  # noqa: E402
import sys  # noqa: E402

from spans import Tracer, self_total, total  # noqa: E402

COUNT_POINTS = 20000


def run_op(spans_path: str, argv: list[str]) -> int:
    tracer = Tracer()
    spawned = float(os.environ.get("PSIBENCH_SPAWN_T", MAIN_T))
    tracer.add("proc.start", spawned, MAIN_T)  # interpreter start and site
    with tracer.span("cli.import"):
        import psiverify.cli
    tracer.install()
    try:
        return psiverify.cli.main(argv)
    finally:
        tracer.write_jsonl(spans_path)


def count_numerics(n_points: int) -> dict:
    """Exact numerics call counts for a full drain of stream_points to n_points."""
    from psiverify import numerics
    from psiverify.primes import build_table
    from psiverify.series import stream_points

    from oracle import first_primes

    table = build_table(first_primes(n_points)[-1])
    prof = cProfile.Profile()
    prof.enable()
    points = sum(1 for _ in stream_points(table, n_points))
    prof.disable()
    calls = values = 0
    for (path, _, func), (_, ncalls, *_rest) in pstats.Stats(prof).stats.items():
        if path == numerics.__file__:
            calls += ncalls
            if func == "__post_init__":  # one per CertifiedValue built
                values += ncalls
    return {"points": points, "numerics_calls": calls, "certified_values": values}


def run_probes(workload_json: str, seed: int, work: str, out: str) -> None:
    from workloads import Workload

    wl = Workload(**json.loads(workload_json))
    counts = [count_numerics(min(COUNT_POINTS, wl.n_max)) for _ in range(2)]

    tracer = Tracer()
    tracer.install()
    from psiverify import bounds, claims, primes, series

    res: dict = {"counts": counts, "claims": {}, "problems": []}
    spans = tracer.spans

    m = tracer.mark()
    table = primes.build_table(wl.table_limit)
    res["build_s"] = total(spans[m:], "primes.build_table")
    res["table_primes"] = table.count
    path = os.path.join(work, "probe.ptab")
    m = tracer.mark()
    primes.save_table(table, path)
    res["save_s"] = total(spans[m:], "primes.save_table")
    res["cache_bytes"] = os.path.getsize(path)
    m = tracer.mark()
    loaded = primes.load_table(path)
    res["load_s"] = total(spans[m:], "primes.load_table")
    if loaded.count != table.count:
        res["problems"].append("load_table returned another prime count")
    del loaded
    os.remove(path)

    m = tracer.mark()
    res["points"] = sum(1 for _ in series.stream_points(table, wl.n_max))
    res["stream_s"] = total(spans[m:], "series.stream_points")

    config = claims.VerifyConfig(n_max=wl.n_max, champion_limit=wl.champion_limit, seed=seed)
    for cid in claims.CLAIM_IDS:
        m = tracer.mark()
        report = claims.run_claims([cid], table, config)
        sp = spans[m:]
        body = report["claims"][cid]
        entry = {"s": total(sp, "claims.run_claims")}
        if not body["holds"]:
            res["problems"].append(f"probe claim {cid} does not hold")
        if cid in bounds.BOUND_NAMES:
            entry["scan_s"] = total(sp, "bounds.scan_bound")
            entry["points_checked"] = body["covered"]["points_checked"]
        if cid == "lower":
            entry["self_s"] = self_total(sp, "claims.verify_lower")
            entry["escalations"] = len(body["details"]["escalated_at"])
            v, r = body["details"]["checkpoint_margins"]["10000"]
            entry["headroom_1e4"] = v / r
        if cid == "champions":
            entry["self_s"] = self_total(sp, "claims.champion_scan")
            entry["psi_ratio_tables_s"] = total(sp, "arith.psi_ratio_tables")
        res["claims"][cid] = entry
    res["bound_escalations"] = tracer.counts["bounds._interval_sides"]
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(res, fh)


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "op":
        sys.exit(run_op(sys.argv[2], sys.argv[4:]))
    run_probes(sys.argv[2], int(sys.argv[3]), sys.argv[4], sys.argv[5])
