"""The four workloads.

Every workload is a closed loop: a caller sends its next request only
after the previous one completed.  A workload object owns the system
under test for one run: :meth:`Workload.open` starts it and completes
the first request (the warm-up, whose mesh also serves the fidelity
check), :meth:`Workload.loop` drives requests for a fixed time and
records one :class:`Sample` per request, :meth:`Workload.close` stops
it and every process it started.
"""

from __future__ import annotations

import os
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

from perfbench import checks, inputs

# Bound at import, before a traced run wraps it: the benchmark's own
# hashing must not count as the service's key hashing.
from repro.service.keys import image_content_key as content_key

DELTA = 2.0
RADIUS_EDGE_BOUND = 2.0
PLANAR_ANGLE_BOUND_DEG = 30.0


def nproc() -> int:
    return max(1, len(os.sched_getaffinity(0)))


@dataclass
class Sample:
    """One completed (or failed) request."""

    rid: str
    kind: str                 # cold | edit | hit | coalesced
    tier: str                 # fresh | block_hit | cache | coalesced
    latency: float
    n_tets: int = 0
    error: Optional[str] = None
    key: Optional[str] = None
    digest: Optional[str] = None
    verdict: Optional[checks.Verdict] = None
    result: Any = field(default=None, repr=False)
    # False for requests outside the window requests_per_s is taken over.
    in_rate: bool = True

    @property
    def ok(self) -> bool:
        return self.error is None and (self.verdict is None
                                       or self.verdict.ok)


def _request(image, **kw):
    from repro.api import MeshRequest

    return MeshRequest(image=image, delta=DELTA,
                       radius_edge_bound=RADIUS_EDGE_BOUND,
                       planar_angle_bound_deg=PLANAR_ANGLE_BOUND_DEG, **kw)


def check(sample: Sample, mesh) -> None:
    sample.n_tets = int(mesh.n_tets)
    sample.digest = checks.mesh_digest(mesh)
    sample.verdict = checks.check_mesh(mesh, RADIUS_EDGE_BOUND,
                                       PLANAR_ANGLE_BOUND_DEG)


#: ``Job.tier`` (the SLO tier the service served a job from) -> sample tier.
SERVICE_TIERS = {"full_mesh": "fresh", "block_hit": "block_hit",
                 "memory_hit": "memory", "disk_hit": "disk",
                 "coalesced": "coalesced"}


def _job_client():
    """``HttpClient`` that keeps the id of the last job it submitted, so
    the caller can read the tier the service served it from."""
    from repro.service import HttpClient

    class JobClient(HttpClient):
        last_job: Optional[str] = None

        def submit(self, request, deadline=None):
            self.last_job = super().submit(request, deadline=deadline)
            return self.last_job

    return JobClient


def _slim(result):
    """Keep the counters of a result, drop its mesh and live objects."""
    return {"stats": result.stats, "metrics": result.metrics,
            "timings": result.timings}


class Workload:
    name = ""

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.warmup_image = None
        self.warmup_mesh = None
        self.samples: List[Sample] = []

    # -- lifecycle (overridden) ----------------------------------------
    def start_system(self) -> None:
        """Start whatever serves requests (no request yet)."""

    def first_request(self) -> None:
        """Send the warm-up request and keep its mesh.

        The warm-up image is fixed (not drawn from the seed) and distinct
        from every measured image, so the fidelity check computed on its
        mesh compares like with like across runs."""
        raise NotImplementedError

    def loop(self, seconds: float, recorder=None) -> float:
        """Drive requests for ``seconds``; returns the seconds that
        ``requests_per_s`` divides the ``in_rate`` requests by (the loop
        wall time unless the workload says otherwise)."""
        raise NotImplementedError

    def close(self) -> None:
        """Stop the system and every process it started."""

    def service_metrics(self) -> Optional[Dict[str, Any]]:
        return None

    def cache_dir(self) -> Optional[Path]:
        return None

    # -- shared ----------------------------------------------------------
    def open(self) -> None:
        self.start_system()
        self.first_request()


# ---------------------------------------------------------------------------
# cold-refine: repro.api.mesh in process
# ---------------------------------------------------------------------------

class ColdRefine(Workload):
    """Content-distinct knee variants through ``repro.api.mesh``."""

    name = "cold-refine"

    KNEE_N = 48
    WARMUP_N = 12

    @staticmethod
    def _mesh(image):
        from repro.api import mesh

        return mesh(_request(image))

    def first_request(self) -> None:
        from repro.imaging import knee_phantom

        self.warmup_image = knee_phantom(self.WARMUP_N)
        self.warmup_mesh = self._mesh(self.warmup_image).mesh

    def loop(self, seconds: float, recorder=None) -> float:
        from repro.imaging import knee_phantom

        images = inputs.variants(knee_phantom(self.KNEE_N), self.seed)
        t_start = time.perf_counter()
        i = 0
        while time.perf_counter() - t_start < seconds:
            image = next(images)
            rid = f"r{i}"
            if recorder is not None:
                recorder.set_request(rid)
            t0 = time.perf_counter()
            s = Sample(rid, "cold", "fresh", 0.0)
            try:
                result = self._mesh(image)
                s.latency = time.perf_counter() - t0
                check(s, result.mesh)
                s.result = _slim(result)
            except Exception as exc:  # counted, never fatal
                s.latency = time.perf_counter() - t0
                s.error = repr(exc)
            self.samples.append(s)
            i += 1
        return time.perf_counter() - t_start


# ---------------------------------------------------------------------------
# edit-stream: sharded scans and inclusion edits through MeshingService
# ---------------------------------------------------------------------------

class EditStream(Workload):
    name = "edit-stream"

    SCAN_N = 48
    WARMUP_N = 24
    SHARDS = 4
    # One edit per scan keeps five to seven cold scans in a 28 s run.
    EDIT_SHIFT = 2.0

    def start_system(self) -> None:
        from repro.service import MeshingService, ServiceConfig

        self.service = MeshingService(ServiceConfig(
            n_workers=nproc(), executor="process",
            cache_dir=str(self.work / "cache"),
        )).start()

    def _submit(self, image, rid: str, kind: str, recorder=None):
        """One request; returns its sample and the mesh (None on failure)."""
        from repro.service import JobState

        if recorder is not None:
            recorder.set_request(rid)
        t0 = time.perf_counter()
        s = Sample(rid, kind, "fresh", 0.0)
        job = self.service.submit(_request(image, shards=self.SHARDS))
        job.wait(120.0)
        s.latency = time.perf_counter() - t0
        s.tier = SERVICE_TIERS.get(job.tier or "", "fresh")
        if job.state is not JobState.DONE or job.result is None:
            s.error = f"{job.state.value}: {job.error}"
            return s, None
        check(s, job.result.mesh)
        s.result = _slim(job.result)
        hits = job.result.stats.get("block_cache", {}).get("hits", 0)
        if kind == "cold" and (s.tier != "fresh" or hits):
            s.verdict.problems.append(
                f"cold scan served by tier {s.tier} with {hits} cached "
                "block(s)")
        return s, job.result.mesh

    def first_request(self) -> None:
        from repro.imaging import near_duplicate_phantom

        self.warmup_image = near_duplicate_phantom(self.WARMUP_N)
        s, self.warmup_mesh = self._submit(self.warmup_image, "warmup",
                                           "cold")
        if s.error:
            raise RuntimeError(f"warm-up request failed: {s.error}")

    def loop(self, seconds: float, recorder=None) -> float:
        from repro.imaging import near_duplicate_phantom

        base = near_duplicate_phantom(self.SCAN_N)
        edited = near_duplicate_phantom(self.SCAN_N,
                                        inclusion_shift=self.EDIT_SHIFT)
        t_start = time.perf_counter()
        for i, lut in enumerate(inputs.relabellings(base, self.seed)):
            # Whole scan+edit cycles only, so every run has the same mix.
            if time.perf_counter() - t_start >= seconds:
                break
            self.samples.append(self._submit(
                inputs.relabel(base, lut), f"scan{i}", "cold", recorder)[0])
            self.samples.append(self._submit(
                inputs.relabel(edited, lut), f"scan{i}-edit", "edit",
                recorder)[0])
        return time.perf_counter() - t_start

    def close(self) -> None:
        self.service.shutdown()

    def service_metrics(self):
        return self.service.metrics_snapshot()

    def cache_dir(self) -> Optional[Path]:
        return self.work / "cache"


# ---------------------------------------------------------------------------
# http-repeat: zipfian repeats over HTTP with a small memory tier
# ---------------------------------------------------------------------------

class HttpRepeat(Workload):
    name = "http-repeat"

    MEMORY_ENTRIES = 3
    ZIPF_EXPONENT = 1.1

    @staticmethod
    def image_set(seed: int) -> list:
        """Two variants each of eight phantoms of 500-1,900 tets, each
        ~0.5-1.1 s to mesh, so a miss is dominated by meshing rather
        than transport jitter.

        The list is in popularity order: zipf rank k asks for image k.
        The order is fixed, so every seed draws the same mix of mesh
        sizes (hit latency depends on the response size, finding B3):
        all first variants, then all second ones, each half alternating
        the four smaller phantoms (500-1,200 tets) with the four larger
        (1,270-1,900)."""
        from repro.imaging import (
            abdominal_phantom, ball_grid_phantom, head_neck_phantom,
            knee_phantom, shell_phantom, sphere_phantom,
            two_spheres_phantom, vascular_phantom,
        )

        bases = [sphere_phantom(32), abdominal_phantom(28),
                 two_spheres_phantom(32), knee_phantom(20),
                 shell_phantom(28), vascular_phantom(28),
                 ball_grid_phantom(32), head_neck_phantom(24)]
        pairs = [inputs.variants(b, seed * 101 + i)
                 for i, b in enumerate(bases)]
        return [next(v) for v in pairs] + [next(v) for v in pairs]

    def start_system(self) -> None:
        from repro.service import (
            MeshHTTPServer, MeshingService, ServiceConfig,
        )

        self.service = MeshingService(ServiceConfig(
            n_workers=nproc(), executor="process",
            cache_dir=str(self.work / "cache"),
            memory_cache_entries=self.MEMORY_ENTRIES,
        )).start()
        self.server = MeshHTTPServer(self.service).start()
        host, port = self.server.address
        self.clients = [_job_client()(host, port, timeout=120.0)
                        for _ in range(nproc())]

    def first_request(self) -> None:
        from repro.imaging import sphere_phantom

        self.warmup_image = sphere_phantom(12)
        self.warmup_mesh = self.clients[0].mesh(
            _request(self.warmup_image)).mesh

    def loop(self, seconds: float, recorder=None) -> float:
        images = self.image_set(self.seed)
        keys = [content_key(im) for im in images]
        requests = [_request(im) for im in images]
        lock = threading.Lock()
        meshes: Dict[int, Any] = {}
        t_start = time.perf_counter()

        # Every client first asks for each image once, in one seeded
        # order shared by all clients: each image's first request then
        # has a coalesced twin and misses never overlap one another.
        # Zipfian repeats (cache hits) follow.  requests_per_s is taken
        # over the repeats only: the first pass is meshing, which
        # cold_latency_p50_s and tets_per_s measure.
        prologue = np.random.default_rng(self.seed).permutation(len(images))
        windows: List[float] = []

        def client_loop(c: int) -> None:
            rng = np.random.default_rng([self.seed, c])
            order = np.concatenate([prologue, inputs.zipf_sequence(
                len(images), 100000, rng, self.ZIPF_EXPONENT)])
            client = self.clients[c]
            repeats_from = time.perf_counter()
            for j, k in enumerate(order):
                if time.perf_counter() - t_start >= seconds:
                    break
                rid = f"c{c}-{j}"
                if recorder is not None:
                    recorder.set_request(rid)
                t0 = time.perf_counter()
                s = Sample(rid, "hit", "fresh", 0.0, key=keys[k],
                           in_rate=j >= len(prologue))
                try:
                    result = client.mesh(requests[k])
                    s.latency = time.perf_counter() - t0
                    s.tier = SERVICE_TIERS[
                        self.service.job(client.last_job).tier]
                    s.kind = {"fresh": "cold", "coalesced": "coalesced"}.get(
                        s.tier, "hit")
                    s.n_tets = int(result.mesh.n_tets)
                    s.digest = checks.mesh_digest(result.mesh)
                except Exception as exc:  # counted, never fatal
                    s.latency = time.perf_counter() - t0
                    s.error = repr(exc)
                with lock:
                    self.samples.append(s)
                    if s.error is None and s.kind == "cold":
                        meshes[id(s)] = result.mesh
                if j == len(prologue) - 1:
                    repeats_from = time.perf_counter()
            with lock:
                windows.append(time.perf_counter() - repeats_from)

        threads = [threading.Thread(target=client_loop, args=(c,))
                   for c in range(len(self.clients))]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        self._check(meshes)
        # The clients' mean repeat window: they leave the shared first
        # pass together, one coalesced pair after another.
        return statistics.mean(windows)

    def _check(self, meshes: Dict[int, Any]) -> None:
        """Full checks on every fresh response; every other response
        must match the fresh one for its key byte for byte."""
        fresh: Dict[str, str] = {}
        for s in self.samples:
            if id(s) in meshes:
                check(s, meshes[id(s)])
                fresh.setdefault(s.key, s.digest)
        for s in self.samples:
            if s.error is None and s.kind != "cold":
                s.verdict = checks.Verdict()
                if s.key not in fresh:
                    s.verdict.problems.append(
                        f"{s.tier} response for a key with no fresh one")
                elif s.digest != fresh[s.key]:
                    s.verdict.problems.append(
                        f"{s.tier} response differs from the fresh one")

    def close(self) -> None:
        for client in self.clients:
            client.close()
        self.server.close()
        self.service.shutdown()

    def service_metrics(self):
        return self.service.metrics_snapshot()

    def cache_dir(self) -> Optional[Path]:
        return self.work / "cache"


WORKLOADS = {w.name: w for w in (ColdRefine, EditStream, HttpRepeat)}

