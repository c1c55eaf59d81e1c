"""Span recorder for the traced run.

The benchmark does not change the program to trace it.  Instead it
wraps the public functions at each layer boundary (the refiner, the
rule engine, the surface oracle, the Delaunay kernel, extraction, the
EDT, the worker pool, the artifact cache, content keys, the HTTP
gateway and client) with timing wrappers defined here.  Each wrapped
call records its duration and its *self* time, the duration minus the
time of the wrapped calls nested inside it.  Hot leaf functions (tens
of thousands of calls per request) are only aggregated; every other
call is also kept as a span (name, start, end, parent, request id) for
the Chrome trace.

Worker processes of the process executor load :func:`worker_plugin`
through the ``REPRO_WORKER_PLUGINS`` hook, install the same wrappers
and, after every job, append what they recorded to a file in the trace
directory, which the parent merges at the end of the run.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

#: environment variable naming the directory worker processes write to.
TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"

# (span name, module, class or None, attribute, aggregate only)
REFINE_TARGETS = [
    ("refine.sequential", "repro.core.refiner", "SequentialRefiner",
     "refine", False),
    ("domain.init", "repro.core.domain", "RefineDomain", "__init__", False),
    ("rules.is_poor", "repro.core.domain", "RefineDomain", "is_poor", True),
    ("rules.refine_tet", "repro.core.domain", "RefineDomain",
     "refine_tet", True),
    ("oracle.closest_point", "repro.imaging.isosurface", "SurfaceOracle",
     "closest_surface_point", True),
    ("oracle.nearest_voxel", "repro.imaging.isosurface", "SurfaceOracle",
     "nearest_surface_voxel", True),
    ("kernel.insert", "repro.delaunay.triangulation", "Triangulation3D",
     "insert_point", True),
    ("kernel.remove", "repro.delaunay.triangulation", "Triangulation3D",
     "remove_vertex", True),
    ("extract", "repro.core.extract", None, "extract_mesh", False),
    ("edt", "repro.imaging.edt", None, "euclidean_feature_transform",
     False),
    ("edt", "repro.imaging.edt", None,
     "euclidean_feature_transform_parallel", False),
    ("shard.refine_block", "repro.delaunay.shard", None, "refine_block",
     False),
]

SERVICE_TARGETS = [
    ("api.mesh", "repro.api", None, "mesh", False),
    ("service.submit", "repro.service.service", "MeshingService", "submit",
     False),
    # the claiming thread's entry for one job: its spans carry the job id
    ("service.job", "repro.service.service", "MeshingService", "_process",
     False),
    ("shard.decompose", "repro.delaunay.shard", None, "decompose", False),
    ("shard.stitch", "repro.delaunay.shard", None, "stitch", False),
    ("pool.run", "repro.service.pool", "ProcessWorkerPool", "run", False),
    ("pool.run_shard", "repro.service.pool", "ProcessWorkerPool",
     "run_shard", False),
    ("keys.hash", "repro.service.keys", None, "image_content_key", False),
    ("http.client_round_trip", "repro.service.http", "HttpClient",
     "_request", False),
    ("http.handle", "repro.service.http", "MeshGateway", "handle", False),
    ("http.submit", "repro.service.http", "HttpClient", "submit", False),
    ("http.image_upload", "repro.service.http", None, "encode_image_b64",
     False),
]
for _m in ("get_mesh_tiered", "get_block_tiered", "get_stitch", "get_edt"):
    SERVICE_TARGETS.append(
        ("cache.get", "repro.service.cache", "ArtifactCache", _m, False))
for _m in ("put_mesh", "put_block", "put_stitch", "put_edt"):
    SERVICE_TARGETS.append(
        ("cache.put", "repro.service.cache", "ArtifactCache", _m, False))


class Recorder:
    """Per-thread span stacks, per-name aggregates and kept spans."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._aggs: List[Dict[str, List[float]]] = []
        self.spans: List[Dict[str, Any]] = []
        self.values: Dict[str, float] = {}
        #: client request id -> service job id
        self.links: Dict[str, str] = {}
        self.installed = False
        self.pid = os.getpid()

    # -- per-thread state ----------------------------------------------
    def _state(self):
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
            self._local.agg = {}
            self._local.rid = None
            with self._lock:
                self._aggs.append(self._local.agg)
        return st, self._local.agg

    def set_request(self, rid: Optional[str]) -> None:
        self._state()
        self._local.rid = rid

    def link(self, job_id: str) -> None:
        """Record that the calling thread's request became ``job_id``."""
        rid = getattr(self._local, "rid", None)
        if rid is not None:
            self.links[rid] = job_id

    def add(self, name: str, value: float) -> None:
        """Accumulate a value (a count or bytes) under ``name``."""
        with self._lock:
            self.values[name] = self.values.get(name, 0.0) + value

    # -- wrapping ------------------------------------------------------
    def wrap(self, name: str, fn: Callable, aggregate_only: bool,
             on_result: Optional[Callable[[Any, float], None]] = None,
             request_of: Optional[Callable[[tuple], Optional[str]]] = None
             ) -> Callable:
        """``fn`` timed under ``name``; ``on_result(result, seconds)`` sees
        each result, and ``request_of(args)`` names the request the call
        serves (its spans, and those nested in it, carry that id)."""
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack, agg = rec._state()
            prev_rid = rec._local.rid
            if request_of is not None:
                rec._local.rid = request_of(args) or prev_rid
            t0 = time.perf_counter()
            frame = [name, 0.0]
            stack.append(frame)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                dur = t1 - t0
                a = agg.get(name)
                if a is None:
                    a = agg[name] = [0, 0.0, 0.0]
                a[0] += 1
                a[2] += dur - frame[1]
                if not any(f[0] == name for f in stack):
                    a[1] += dur  # busy: outermost call of a name only
                if stack:
                    stack[-1][1] += dur
                if not aggregate_only:
                    rec.spans.append({
                        "name": name, "start": t0, "end": t1,
                        "parent": stack[-1][0] if stack else None,
                        "rid": rec._local.rid, "pid": rec.pid,
                        "tid": threading.get_ident(),
                    })
                if on_result is not None and result is not None:
                    on_result(result, dur)
                rec._local.rid = prev_rid

        wrapper.__perfbench_wrapped__ = fn
        return wrapper

    def install(self, targets, hooks: Dict[str, Callable],
                requests: Dict[str, Callable]) -> None:
        """Wrap every target; functions are replaced in every loaded
        ``repro`` module that imported them by name."""
        import importlib

        for name, mod_name, cls_name, attr, agg_only in targets:
            module = importlib.import_module(mod_name)
            owner = getattr(module, cls_name) if cls_name else module
            original = getattr(owner, attr)
            if hasattr(original, "__perfbench_wrapped__"):
                continue
            wrapped = self.wrap(name, original, agg_only, hooks.get(name),
                                requests.get(name))
            setattr(owner, attr, wrapped)
            if cls_name is None:
                for other in list(sys.modules.values()):
                    if (other is None or other is module
                            or not getattr(other, "__name__", "")
                            .startswith("repro")):
                        continue
                    for key, val in list(vars(other).items()):
                        if val is original:
                            setattr(other, key, wrapped)

    # -- results -------------------------------------------------------
    def aggregates(self) -> Dict[str, List[float]]:
        """``{name: [calls, busy_s, self_s]}`` summed over threads."""
        out: Dict[str, List[float]] = {}
        with self._lock:
            aggs = list(self._aggs)
        for agg in aggs:
            for name, (calls, busy, self_s) in list(agg.items()):
                o = out.setdefault(name, [0, 0.0, 0.0])
                o[0] += calls
                o[1] += busy
                o[2] += self_s
        return out

    def drain(self) -> Dict[str, Any]:
        """Everything recorded so far, then reset (worker flushes)."""
        doc = {"aggregates": self.aggregates(), "spans": self.spans,
               "values": dict(self.values)}
        with self._lock:
            for agg in self._aggs:
                agg.clear()
            self.spans = []
            self.values = {}
        return doc

    def merge(self, doc: Dict[str, Any]) -> None:
        """Fold a worker's drained document into this recorder."""
        _, agg = self._state()
        for name, (calls, busy, self_s) in doc["aggregates"].items():
            a = agg.setdefault(name, [0, 0.0, 0.0])
            a[0] += calls
            a[1] += busy
            a[2] += self_s
        self.spans.extend(doc["spans"])
        for name, value in doc["values"].items():
            self.add(name, value)


RECORDER = Recorder()


def _count_rule(result, dur: float) -> None:
    if getattr(result, "rule", None) == "none":
        RECORDER.add("refine.noop_ops", 1)


def _pool_reported(result, dur: float) -> None:
    """Seconds the child reports for its own meshing or refinement."""
    if isinstance(result, dict):
        child = result.get("stats", {}).get("refine_seconds", 0.0)
    else:
        child = getattr(result, "timings", {}).get("wall_seconds", 0.0)
    RECORDER.add("pool.child_s", float(child))


def _response_bytes(result, dur: float) -> None:
    # HttpClient._request returns (status, body, headers); the body's
    # JSON size stands in for the bytes read off the socket.
    RECORDER.add("http.response_bytes", len(json.dumps(result[1])))


def _job_path(args) -> Optional[str]:
    # MeshGateway.handle(self, method, path, ...): /v1/jobs/<id>[?...]
    parts = str(args[2]).split("?")[0].split("/")
    return parts[3] if len(parts) > 3 and parts[2] == "jobs" else None


HOOKS = {
    "rules.refine_tet": _count_rule,
    "pool.run": _pool_reported,
    "pool.run_shard": _pool_reported,
    "http.client_round_trip": _response_bytes,
    "service.submit": lambda job, dur: RECORDER.link(job.id),
    "http.submit": lambda job_id, dur: RECORDER.link(job_id),
}
REQUESTS = {
    "service.job": lambda args: args[1].id,
    "http.handle": _job_path,
}


def install(service_layers: bool = True) -> Recorder:
    """Wrap the layer boundaries of this process (idempotent)."""
    import repro.api  # noqa: F401  - load every module we patch
    import repro.core  # noqa: F401
    import repro.service  # noqa: F401
    import repro.service.shards  # noqa: F401

    targets = REFINE_TARGETS + (SERVICE_TARGETS if service_layers else [])
    RECORDER.install(targets, HOOKS, REQUESTS)
    RECORDER.installed = True
    return RECORDER


# -- worker-process side -------------------------------------------------
_FLUSH_SEQ = itertools.count(1)


def _flush(trace_dir: str) -> None:
    doc = RECORDER.drain()
    path = Path(trace_dir) / f"w{os.getpid()}-{next(_FLUSH_SEQ)}.json"
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(doc))
    os.replace(tmp, path)


def worker_plugin() -> Dict[str, Any]:
    """``REPRO_WORKER_PLUGINS`` entry point: trace this worker process.

    Loaded in the parent too (to learn plugin mesher names), where the
    install is a no-op.  Provides no meshers.
    """
    trace_dir = os.environ.get(TRACE_DIR_ENV)
    if not trace_dir or RECORDER.installed:
        return {}
    install(service_layers=False)
    from repro.service import procworker

    run_one = procworker._run_one

    @functools.wraps(run_one)
    def traced_run_one(body, meshers):
        RECORDER.set_request(body.get("content_key") or "worker-job")
        try:
            return RECORDER.wrap("worker.job", run_one, False)(body, meshers)
        finally:
            _flush(trace_dir)

    procworker._run_one = traced_run_one
    return {}


def collect_workers(recorder: Recorder, trace_dir: str) -> int:
    """Merge every worker flush file; returns how many were merged."""
    n = 0
    for path in sorted(Path(trace_dir).glob("w*.json")):
        recorder.merge(json.loads(path.read_text()))
        path.unlink()
        n += 1
    return n


def chrome_trace(recorder: Recorder, t_origin: float) -> Dict[str, Any]:
    """The kept spans as a Chrome trace (complete ``X`` events)."""
    events = []
    for s in sorted(recorder.spans, key=lambda s: s["start"]):
        events.append({
            "name": s["name"], "ph": "X", "pid": s["pid"],
            "tid": s["tid"] % 100000,
            "ts": round((s["start"] - t_origin) * 1e6, 1),
            "dur": round((s["end"] - s["start"]) * 1e6, 1),
            "args": {"parent": s["parent"], "request_id": s["rid"]},
        })
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "otherData": {"request_to_job": dict(recorder.links)}}
