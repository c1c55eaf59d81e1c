"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload cold-refine --seed 1 \\
        --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing.
``--trace 1`` runs the workload once untraced and once with every layer
boundary wrapped (see :mod:`perfbench.tracing`), writes the spans as a
Chrome trace under ``.bench_build/perfbench/`` and reports the per-layer
metrics.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

The program under test is imported from ``src/`` next to this
directory and nowhere else; without it the run exits non-zero and
prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_build" / "perfbench"
SETUP_PROBES = 3


def bootstrap() -> None:
    """Import the program from this checkout's ``src/`` and keep every
    file it writes (compiled kernel, caches, temp files) in ``WORK``."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {src}")
    for path in (str(ROOT), str(src)):
        if path in sys.path:
            sys.path.remove(path)
        sys.path.insert(0, path)
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_ACCEL_CACHE"] = str(WORK / "accel")
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}")


def stop_resource_tracker() -> None:
    """Stop and reap the helper process ``multiprocessing`` starts for
    shared memory, so the run leaves no process behind."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def run_probe(name: str, seed: int) -> None:
    """Set-up probe: start the system, complete the first request,
    report, stop."""
    from perfbench.workloads import WORKLOADS

    work = Path(tempfile.mkdtemp(prefix="probe-", dir=WORK))
    wl = WORKLOADS[name](seed, work)
    try:
        wl.open()
        print("READY", flush=True)
    finally:
        wl.close()
        shutil.rmtree(work, ignore_errors=True)


def measure_setup(name: str, seed: int) -> list:
    """Wall seconds from interpreter launch to the first completed
    request, for ``SETUP_PROBES`` fresh processes."""
    out = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--probe",
             "--workload", name, "--seed", str(seed)],
            cwd=str(ROOT), stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        finally:
            rc = proc.wait(timeout=120)
        if line.strip() != "READY" or rc != 0:
            raise RuntimeError(f"set-up probe failed (exit {rc})")
        out.append(elapsed)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    bootstrap()
    from perfbench import report
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"pick from {sorted(WORKLOADS)}")
    try:
        if args.probe:
            run_probe(args.workload, args.seed)
            return 0
        if args.trace:
            doc = report.traced_run(args.workload, args.seed, args.seconds,
                                    WORK)
        else:
            setup = measure_setup(args.workload, args.seed)
            doc = report.untraced_run(args.workload, args.seed,
                                      args.seconds, WORK, setup)
    finally:
        stop_resource_tracker()
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
