"""Runs a workload and turns its samples into metrics and tables.

:func:`untraced_run` gives the end-to-end metrics, :func:`traced_run`
the per-layer ones.  Program counters are read through public results
(``MeshResult.stats`` / ``.metrics`` and
``MeshingService.metrics_snapshot()``), using sums and counts only.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import statistics
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from perfbench import checks, stats, tracing
from perfbench.workloads import (
    DELTA, PLANAR_ANGLE_BOUND_DEG, RADIUS_EDGE_BOUND, WORKLOADS,
)

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
# Reported by the workloads whose traffic has them; printed, not in JSON.
CLASS_METRICS = {
    "edit_latency_p50_s": ("s", "lower"),
    "hit_latency_p50_s": ("s", "lower"),
    "hit_latency_p90_s": ("s", "lower"),
    "failed_share": ("ratio", "lower"),
}
TIERS = ("fresh", "memory", "disk", "coalesced", "block_hit")


# -- helpers ---------------------------------------------------------------

def declared() -> Tuple[Dict[str, Tuple[str, str]], Dict[str, str]]:
    """End-to-end ``{name: (unit, better)}`` and per-layer
    ``{name: unit}``, as and in the order BENCHMARK.json declares them."""
    doc = json.loads(BENCHMARK_JSON.read_text())
    return ({m["name"]: (m["unit"], m["better"]) for m in doc["end_to_end"]},
            {m["name"]: m["unit"] for m in doc["per_layer"]})


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def dir_bytes(path: Optional[Path]) -> int:
    if path is None or not path.exists():
        return 0
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _children(pid: int) -> List[int]:
    out: List[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return out
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as fh:
                kids = [int(x) for x in fh.read().split()]
        except OSError:
            continue
        for kid in kids:
            out.append(kid)
            out.extend(_children(kid))
    return out


def _hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the peaks of its live descendants
    (the service's worker processes)."""
    pid = os.getpid()
    kb = _hwm_kb(pid) + sum(_hwm_kb(c) for c in _children(pid))
    return kb / 1024.0


def _service_delta(before: Optional[Dict[str, Any]],
                   after: Optional[Dict[str, Any]]) -> Dict[str, float]:
    """Counter deltas plus histogram ``sum``/``count`` deltas,
    flattened."""
    if before is None or after is None:
        return {}
    out: Dict[str, float] = {}
    for name, v in after.get("counters", {}).items():
        out[name] = v - before.get("counters", {}).get(name, 0)
    for name, h in after.get("histograms", {}).items():
        b = before.get("histograms", {}).get(name, {})
        out[f"{name}.sum"] = h["sum"] - b.get("sum", 0.0)
        out[f"{name}.count"] = h["count"] - b.get("count", 0)
    return out


def tier_counts(samples) -> Dict[str, int]:
    """Completed requests per tier the service served them from."""
    counts = {t: 0 for t in TIERS}
    for s in samples:
        if s.error is None:
            counts[s.tier] = counts.get(s.tier, 0) + 1
    return counts


def _fmt(v: float) -> str:
    if isinstance(v, int) or (isinstance(v, float) and v.is_integer()
                              and abs(v) < 1e12):
        return f"{int(v)}"
    return f"{v:.6g}"


# -- end-to-end --------------------------------------------------------------

def end_to_end(samples, rate_seconds: float, setup: List[float], rss: float,
               hausdorff: float, warm: checks.Verdict) -> Dict[str, Any]:
    """Every metric and the sample count behind each timing."""
    ok = [s for s in samples if s.ok]
    cold = [s for s in ok if s.kind == "cold"]
    verdicts = [v for v in [warm] + [s.verdict for s in ok]
                if v is not None and not math.isnan(v.max_radius_edge)]
    m: Dict[str, Any] = {}
    n: Dict[str, int] = {}
    m["setup_s"] = statistics.median(setup)
    n["setup_s"] = len(setup)
    if cold:
        m["cold_latency_p50_s"] = statistics.median(
            [s.latency for s in cold])
        m["tets_per_s"] = (sum(s.n_tets for s in cold)
                           / sum(s.latency for s in cold))
    n["cold_latency_p50_s"] = n["tets_per_s"] = len(cold)
    rated = [s for s in ok if s.in_rate]
    m["requests_per_s"] = len(rated) / rate_seconds
    n["requests_per_s"] = len(rated)
    m["peak_rss_mb"] = rss
    n["peak_rss_mb"] = 1
    m["max_radius_edge"] = max(v.max_radius_edge for v in verdicts)
    m["min_planar_angle_deg"] = min(v.min_planar_angle_deg
                                    for v in verdicts)
    n["max_radius_edge"] = n["min_planar_angle_deg"] = len(verdicts)
    m["hausdorff_rel"] = hausdorff
    n["hausdorff_rel"] = 1
    edits = [s.latency for s in ok if s.kind == "edit"]
    hits = [s.latency for s in ok if s.kind == "hit"]
    if edits:
        m["edit_latency_p50_s"] = statistics.median(edits)
        n["edit_latency_p50_s"] = len(edits)
    if hits:
        m["hit_latency_p50_s"] = statistics.median(hits)
        n["hit_latency_p50_s"] = len(hits)
        p90 = stats.value_at(hits, 90.0)
        if p90 is not None:
            m["hit_latency_p90_s"] = p90
            n["hit_latency_p90_s"] = len(hits)
    m["failed_share"] = _ratio(len(samples) - len(ok), len(samples))
    n["failed_share"] = len(samples)
    return {"values": m, "counts": n}


def print_end_to_end(name: str, e2e: Dict[str, Any], samples,
                     tiers: Dict[str, int]) -> None:
    print(f"workload {name}: end-to-end metrics")
    units = {**declared()[0], **CLASS_METRICS}
    for metric, (unit, better) in units.items():
        if metric not in e2e["values"]:
            continue
        print(f"  {metric:24s} {_fmt(e2e['values'][metric]):>14s} "
              f"{unit:6s} ({better} is better; n={e2e['counts'][metric]})")
    kinds: Dict[str, List[float]] = {}
    for s in samples:
        if s.ok:
            kinds.setdefault(s.kind, []).append(s.latency)
    for kind, lat in sorted(kinds.items()):
        sm = stats.summarize(lat)
        tail = (f", p{sm['tail_p']:g}={sm['tail']:.4f}s"
                if "tail" in sm else "")
        print(f"  latency[{kind}]: n={sm['n']}, p50={sm['p50']:.4f}s{tail}")
    total = sum(tiers.values())
    shares = ", ".join(f"{t}={_ratio(c, total):.3f}" for t, c in
                       tiers.items())
    print(f"  tier shares over {total} requests: {shares}")
    for s in samples:
        if not s.ok:
            why = s.error or "; ".join(s.verdict.problems)
            print(f"  FAILED {s.rid} ({s.kind}): {why}")


def untraced_run(name: str, seed: int, seconds: float, root: Path,
                 setup: List[float]) -> Dict[str, Any]:
    work = Path(tempfile.mkdtemp(prefix=f"run-{name}-", dir=root))
    wl = WORKLOADS[name](seed, work)
    try:
        try:
            wl.open()
            rate_seconds = wl.loop(seconds)
            rss = peak_rss_mb()
        finally:
            wl.close()
        warm = checks.check_mesh(wl.warmup_mesh, RADIUS_EDGE_BOUND,
                                 PLANAR_ANGLE_BOUND_DEG)
        hausdorff = checks.hausdorff_rel(wl.warmup_mesh, wl.warmup_image,
                                         DELTA)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    samples = wl.samples
    e2e = end_to_end(samples, rate_seconds, setup, rss, hausdorff, warm)
    print_end_to_end(name, e2e, samples, tier_counts(samples))
    failed = sum(1 for s in samples if not s.ok)
    end_to_end_units = declared()[0]
    metrics = {k: {"value": e2e["values"][k], "unit": unit}
               for k, (unit, _) in end_to_end_units.items()
               if k in e2e["values"]}
    correct = (failed == 0 and warm.ok and math.isfinite(hausdorff)
               and len(metrics) == len(end_to_end_units))
    if not warm.ok:
        print(f"  FAILED warm-up mesh: {'; '.join(warm.problems)}")
    return {"correct": correct, "attempted": len(samples),
            "failed": failed, "metrics": metrics}


# -- per-layer ---------------------------------------------------------------

def _primary_latency(samples) -> float:
    """The latency the traced/untraced comparison uses: cache hits where
    the workload has them, else cold requests."""
    ok = [s for s in samples if s.ok]
    for kind in ("hit", "cold"):
        lat = [s.latency for s in ok if s.kind == kind]
        if lat:
            return statistics.median(lat)
    return float("nan")


def layer_metrics(samples, rec: tracing.Recorder,
                  svc: Dict[str, float], cache_bytes: int,
                  overhead: float) -> Dict[str, float]:
    agg = rec.aggregates()
    vals = rec.values
    ok = [s for s in samples if s.ok]
    n_req = max(1, len(ok))

    def calls(name):
        return agg.get(name, [0, 0.0, 0.0])[0]

    def busy(name):
        return agg.get(name, [0, 0.0, 0.0])[1]

    def selft(name):
        return agg.get(name, [0, 0.0, 0.0])[2]

    results = [s.result for s in ok if isinstance(s.result, dict)]
    m: Dict[str, float] = {}
    m["refine.busy_s"] = busy("refine.sequential") / n_req
    m["refine.ops"] = calls("rules.refine_tet") / n_req
    m["refine.noop_share"] = _ratio(vals.get("refine.noop_ops", 0),
                                    calls("rules.refine_tet"))
    m["rules.is_poor.calls"] = calls("rules.is_poor") / n_req
    m["rules.is_poor.busy_s"] = busy("rules.is_poor") / n_req
    m["rules.refine_tet.calls"] = calls("rules.refine_tet") / n_req
    m["rules.refine_tet.self_s"] = selft("rules.refine_tet") / n_req
    for short in ("closest_point", "nearest_voxel"):
        m[f"oracle.{short}.calls"] = calls(f"oracle.{short}") / n_req
        m[f"oracle.{short}.busy_s"] = busy(f"oracle.{short}") / n_req
    for short in ("insert", "remove"):
        m[f"kernel.{short}.calls"] = calls(f"kernel.{short}") / n_req
        m[f"kernel.{short}.busy_s"] = busy(f"kernel.{short}") / n_req
    cav_tets = sum(r["metrics"].get("gauges", {}).get("kernel.cavity_tets", 0)
                   for r in results)
    cav_calls = sum(r["metrics"].get("gauges", {})
                    .get("kernel.cavity_calls", 0) for r in results)
    m["kernel.cavity_tets_mean"] = _ratio(cav_tets, cav_calls)
    m["extract.busy_s"] = busy("extract") / n_req
    m["edt.calls"] = calls("edt") / n_req
    m["edt.busy_s"] = busy("edt") / n_req
    m["domain.init_s"] = busy("domain.init") / n_req

    sharded = [r for r in results if "shard_stats" in r["stats"]]
    fresh_blocks = [b for r in sharded for b in r["stats"]["shard_stats"]
                    if "cached" not in b]
    stitch_ops = sum(r["stats"]["stitch"]["refine_operations"]
                     for r in sharded)
    useful = sum(r["stats"]["insertions"]
                 - r["stats"]["stitch"]["points_loaded"]
                 + r["stats"]["removals"] for r in sharded)
    bc = [r["stats"].get("block_cache", {}) for r in sharded]
    m["shard.decompose_s"] = busy("shard.decompose") / n_req
    m["shard.blocks"] = sum(r["stats"]["shards"] for r in sharded) / n_req
    m["shard.block_ops"] = sum(b["operations"] for b in fresh_blocks) / n_req
    m["shard.owned_point_share"] = _ratio(
        sum(b["owned_points"] for b in fresh_blocks),
        sum(b["insertions"] for b in fresh_blocks))
    m["shard.stitch_s"] = busy("shard.stitch") / n_req
    m["shard.stitch_ops"] = stitch_ops / n_req
    m["shard.stitch_useful_share"] = _ratio(useful, stitch_ops)
    m["shard.block_hit_share"] = _ratio(
        sum(b.get("hits", 0) for b in bc),
        sum(b.get("hits", 0) + b.get("misses", 0) for b in bc))
    m["shard.stitch_full_share"] = _ratio(
        sum(1 for r in sharded if r["stats"]["stitch"]["mode"] == "full"),
        len(sharded))

    trip = busy("pool.run") + busy("pool.run_shard")
    m["pool.calls"] = (calls("pool.run") + calls("pool.run_shard")) / n_req
    m["pool.round_trip_s"] = trip / n_req
    m["pool.overhead_s"] = (trip - vals.get("pool.child_s", 0.0)) / n_req
    m["queue.wait_s"] = svc.get(
        "service.stage.queue_wait_seconds.sum", 0.0) / n_req
    m["keys.hash_calls"] = calls("keys.hash") / n_req
    m["keys.hash_s"] = busy("keys.hash") / n_req
    m["cache.get_s"] = busy("cache.get") / n_req
    m["cache.put_s"] = busy("cache.put") / n_req
    hit, miss = svc.get("service.cache.hit", 0), svc.get(
        "service.cache.miss", 0)
    m["cache.hit_share"] = _ratio(hit, hit + miss)
    tiers = tier_counts(samples)
    mem, disk = tiers["memory"], tiers["disk"]
    m["cache.tier.memory_share"] = _ratio(mem, mem + disk)
    m["cache.tier.disk_share"] = _ratio(disk, mem + disk)
    m["cache.disk_bytes_written"] = cache_bytes / n_req
    m["coalesce.follower_share"] = _ratio(
        svc.get("service.coalesce.followers", 0),
        svc.get("service.jobs.submitted", 0))
    trips = calls("http.client_round_trip")
    m["http.round_trips_per_request"] = trips / n_req
    m["http.round_trip_s"] = busy("http.client_round_trip") / n_req
    m["http.handle_s"] = busy("http.handle") / n_req
    m["http.transport_s"] = (m["http.round_trip_s"] - m["http.handle_s"]
                             if trips else 0.0)
    m["http.response_bytes"] = vals.get("http.response_bytes", 0.0) / n_req
    m["http.image_uploads"] = calls("http.image_upload") / n_req
    total = sum(tiers.values())
    for t in TIERS:
        m[f"tier.{t}_share"] = _ratio(tiers.get(t, 0), total)
    m["trace.overhead_share"] = overhead
    return m


def print_layers(name: str, rec: tracing.Recorder, m: Dict[str, float],
                 n_req: int) -> None:
    agg = rec.aggregates()
    print(f"workload {name}: traced spans over {n_req} requests "
          "(self time = duration minus wrapped calls inside it)")
    print(f"  {'span':28s} {'calls':>9s} {'busy_s':>10s} {'self_s':>10s}")
    for span, (calls, busy, self_s) in sorted(
            agg.items(), key=lambda kv: -kv[1][2]):
        print(f"  {span:28s} {calls:9d} {busy:10.4f} {self_s:10.4f}")
    print(f"workload {name}: per-layer metrics (per completed request "
          "unless a share or mean)")
    for metric, unit in declared()[1].items():
        print(f"  {metric:32s} {_fmt(m[metric]):>14s} {unit}")


def traced_run(name: str, seed: int, seconds: float,
               root: Path) -> Dict[str, Any]:
    work = Path(tempfile.mkdtemp(prefix=f"trace-{name}-", dir=root))
    try:
        return _traced_run(name, seed, seconds, root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _traced_run(name: str, seed: int, seconds: float, root: Path,
                work: Path) -> Dict[str, Any]:
    # 1. untraced baseline with the same seed, for the tracing overhead.
    base = WORKLOADS[name](seed, work / "base")
    try:
        base.open()
        base.loop(seconds)
    finally:
        base.close()
    # 2. the same requests with every layer boundary wrapped.
    trace_dir = work / "spans"
    trace_dir.mkdir()
    rec = tracing.install()
    os.environ[tracing.TRACE_DIR_ENV] = str(trace_dir)
    os.environ["REPRO_WORKER_PLUGINS"] = "perfbench.tracing:worker_plugin"
    wl = WORKLOADS[name](seed, work / "traced")
    try:
        wl.open()
        tracing.collect_workers(tracing.Recorder(), str(trace_dir))
        rec.drain()
        svc_before = wl.service_metrics()
        bytes_before = dir_bytes(wl.cache_dir())
        t_origin = time.perf_counter()
        wl.loop(seconds, recorder=rec)
        svc_after = wl.service_metrics()
        cache_bytes = dir_bytes(wl.cache_dir()) - bytes_before
    finally:
        wl.close()
    tracing.collect_workers(rec, str(trace_dir))
    untraced = _primary_latency(base.samples)
    overhead = _ratio(_primary_latency(wl.samples) - untraced, untraced)
    m = layer_metrics(wl.samples, rec,
                      _service_delta(svc_before, svc_after), cache_bytes,
                      overhead)
    n_req = sum(1 for s in wl.samples if s.ok)
    print_layers(name, rec, m, n_req)
    out = root / f"trace-{name}-seed{seed}.json"
    out.write_text(json.dumps(tracing.chrome_trace(rec, t_origin)))
    print(f"  chrome trace: {out} ({len(rec.spans)} spans)")
    samples = base.samples + wl.samples
    failed = sum(1 for s in samples if not s.ok)
    return {"correct": failed == 0 and bool(samples),
            "attempted": len(samples), "failed": failed,
            "metrics": {k: {"value": m[k], "unit": u}
                        for k, u in declared()[1].items()}}
