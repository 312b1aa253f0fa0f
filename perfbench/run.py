"""Run one workload of the maxtherm benchmark and print its metrics.

    python3 perfbench/run.py --workload verify --seed 0 --seconds 15 --trace 0

Run it from the repository root; it imports maxtherm from ``src/``.  One
process issues one job at a time (a closed loop with a single client) and
repeats whole passes over the workload's job list until ``--seconds`` have
passed, at least one pass.  With ``--trace 1`` untraced and traced passes
alternate, and the traced ones record spans around every call into a
maxtherm layer.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, the per-layer ones with
``--trace 1``.  A run record (config, seed, versions, pass times, failures
and, when traced, every span) is written to ``perfbench/runs/``.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
RUNS = ROOT / "perfbench" / "runs"

# fresh processes timed per run for setup_s; the median is reported
SETUP_PROBES = {"full": 3, "tiny": 1}


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _cap_blas_threads() -> None:
    """Cap the BLAS thread count at nproc; must run before numpy loads."""
    nproc = _nproc()
    current = os.environ.get("OPENBLAS_NUM_THREADS", "")
    threads = min(int(current), nproc) if current.isdigit() and int(current) > 0 else nproc
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)


def _use_source_tree() -> None:
    if not (SRC / "maxtherm" / "__init__.py").is_file():
        raise SystemExit(f"error: no maxtherm sources under {SRC}; run from a checkout")
    for path in (str(ROOT), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)


class SpeedProbe:
    """Samples the speed of the core this process runs on.

    Co-tenants slow this machine's cores by up to 2x for seconds at a
    time, so job times alone do not repeat.  While sampling, a SIGALRM
    handler times a fixed pure-Python burst every ``INTERVAL_S`` on the
    same core as the job it interrupts; ``calibrate`` scales a job's time
    by BURST_NOMINAL_S over the median burst time sampled during it (a
    burst that the kernel preempts takes milliseconds), which gives the
    job's time on an uncontended core.
    """

    INTERVAL_S = 0.05
    BURST_ROUNDS = 3000
    # burst time on an idle core of the machine the benchmark was defined
    # on (2-vCPU Intel Xeon, 300 MB L3)
    BURST_NOMINAL_S = 0.21e-3

    def __init__(self):
        self.starts: List[float] = []
        self.bursts: List[float] = []

    def _burst(self, *_) -> None:
        start = time.perf_counter()
        acc = 0
        for i in range(self.BURST_ROUNDS):
            acc += i * i % 7
        self.starts.append(start)
        self.bursts.append(time.perf_counter() - start)

    @contextlib.contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self._burst)
        self._burst()
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def calibrate(self, start: float, end: float) -> float:
        """Calibrated seconds of the interval [start, end], from the samples
        taken in it and the two on either side, so that a short job still
        has a median of several."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        near = self.bursts[max(lo - 2, 0):hi + 2]
        return (end - start) * self.BURST_NOMINAL_S / statistics.median(near)


def _probe(workload: str, seed: int, size: str) -> None:
    """Child process of a set-up measurement: import maxtherm and build the
    workload's inputs; print the raw and the calibrated seconds that took."""
    speed = SpeedProbe()
    with speed.sampling():
        start = time.perf_counter()
        from perfbench import workloads

        workloads.build(workload, seed, size)
        end = time.perf_counter()
    print(end - start, speed.calibrate(start, end))


def _setup_seconds(workload: str, seed: int, size: str) -> List[Tuple[float, float]]:
    """(raw, calibrated) set-up seconds of fresh processes; the first run
    in a checkout also fills the bytecode cache, which the median absorbs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe", "--workload", workload,
           "--seed", str(seed), "--size", size]
    times = []
    for _ in range(SETUP_PROBES[size]):
        out = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=170)
        raw, calibrated = out.stdout.split()[-2:]
        times.append((float(raw), float(calibrated)))
    return times


@dataclass
class Pass:
    traced: bool
    intervals: List[Tuple[float, float]]   # (start, end) of each job
    outcomes: list                         # ("ok", kept record) or ("raised", message)


def _run_pass(jobs, tracer, traced: bool) -> Pass:
    ctx: Dict = {}
    done = Pass(traced, [], [])
    for i, job in enumerate(jobs):
        span = tracer.job(i, job.name) if tracer else contextlib.nullcontext()
        start = time.perf_counter()
        try:
            with span:
                out = job.call(ctx)
        except Exception as exc:  # a job that raises is a counted failure
            done.intervals.append((start, time.perf_counter()))
            done.outcomes.append(("raised", f"{type(exc).__name__}: {exc}"))
        else:
            done.intervals.append((start, time.perf_counter()))
            done.outcomes.append(("ok", job.keep(out)))
            del out
    return done


def _pass_seconds(passes: List[Pass], traced: bool, seconds) -> float:
    """Time of one pass over the job list: the sum over jobs of each job's
    median time across the passes, a job's time being ``seconds(start, end)``."""
    per_job = zip(*([seconds(*iv) for iv in p.intervals] for p in passes if p.traced == traced))
    return sum(statistics.median(job) for job in per_job)


def _check(jobs, passes: List[Pass]) -> List[dict]:
    failures = []
    for index, done in enumerate(passes):
        for job, (status, value) in zip(jobs, done.outcomes):
            if status == "raised":
                failures.append({"pass": index, "job": job.name, "kind": "raised",
                                 "detail": value})
                continue
            try:
                reason = job.check(value)
            except Exception as exc:  # an oracle that cannot run rejects the output
                reason = f"check raised {type(exc).__name__}: {exc}"
            if reason is not None:
                kind = "reported" if job.verdict else "wrong"
                failures.append({"pass": index, "job": job.name, "kind": kind,
                                 "detail": reason})
    return failures


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 size: str = "full") -> dict:
    """One benchmark run; returns the result object printed by ``main``."""
    spec = json.loads(SPEC.read_text())
    _use_source_tree()
    probes = _setup_seconds(workload, seed, size)

    import maxtherm
    import numpy
    import scipy
    from perfbench import tracing, workloads

    setup_tracer = tracing.Tracer() if trace else None
    with setup_tracer.installed() if trace else contextlib.nullcontext():
        wl = workloads.build(workload, seed, size)

    passes: List[Pass] = []
    tracers = []
    speed = SpeedProbe()
    with speed.sampling():
        start = time.perf_counter()
        while True:
            traced = trace and len(passes) % 2 == 1
            tracer = tracing.Tracer() if traced else None
            with tracer.installed() if traced else contextlib.nullcontext():
                passes.append(_run_pass(wl.jobs, tracer, traced))
            if traced:
                tracers.append(tracer)
            if time.perf_counter() - start >= seconds and (not trace or len(passes) % 2 == 0):
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = _check(wl.jobs, passes)
    for f in failures:
        print(f"{f['kind']}: pass {f['pass']} {f['job']}: {f['detail']}", file=sys.stderr)
    plain_s = _pass_seconds(passes, False, speed.calibrate)
    if trace:
        values = _layer_metrics(wl, passes, tracers, setup_tracer)
        values["trace.overhead_s"] = _pass_seconds(passes, True, speed.calibrate) - plain_s
        declared = spec["per_layer"]
    else:
        values = {"wall_s": plain_s, "setup_s": statistics.median(c for _, c in probes),
                  "peak_rss_mb": peak_rss_mb}
        declared = spec["end_to_end"]
    result = {
        "correct": not any(f["kind"] == "wrong" for f in failures),
        "attempted": len(wl.jobs) * len(passes),
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
                    for m in declared},
    }
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "size": size, "config": wl.config,
        "versions": {"maxtherm": maxtherm.__version__, "numpy": numpy.__version__,
                     "scipy": scipy.__version__, "python": platform.python_version()},
        "nproc": _nproc(), "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "setup_probes_raw_s": [r for r, _ in probes],
        "setup_probes_calibrated_s": [c for _, c in probes],
        "peak_rss_mb": peak_rss_mb,
        "raw_wall_s": _pass_seconds(passes, False, lambda s, e: e - s),
        "passes": [{"traced": p.traced,
                    "job_raw_s": [e - s for s, e in p.intervals],
                    "job_calibrated_s": [speed.calibrate(s, e) for s, e in p.intervals]}
                   for p in passes],
        "speed_bursts_s": speed.bursts,
        "jobs": [job.name for job in wl.jobs],
        "failures": failures, "result": result,
    }
    if trace:
        record["spans"] = {"setup": setup_tracer.spans,
                           "passes": [tracer.spans for tracer in tracers]}
    RUNS.mkdir(exist_ok=True)
    path = RUNS / f"{workload}-{size}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record))
    return result


def _layer_metrics(wl, passes: List[Pass], tracers, setup_tracer) -> Dict[str, float]:
    """Per-layer values of one set-up plus the median traced pass.  Span
    times are raw seconds."""
    per_pass = [tracer.summarize() for tracer in tracers]
    setup = setup_tracer.summarize()
    names = set(setup).union(*per_pass)
    values = {name: setup.get(name, 0.0) + statistics.median(p.get(name, 0.0) for p in per_pass)
              for name in names}
    missing = [name for name in wl.expects if values.get(name + ".calls", 0.0) == 0.0]
    if missing:
        raise RuntimeError(
            f"workload {wl.name!r} recorded zero calls of {', '.join(missing)}; "
            "a traced function was renamed or is no longer reached")
    bounds = [record[1] for done in passes if done.traced
              for job, (status, record) in zip(wl.jobs, done.outcomes)
              if job.reports_bound and status == "ok"]
    values["ifs.error_bound"] = max(bounds, default=0.0)
    return values


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs every workload in well under a second "
                             "(the benchmark's own test)")
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    _cap_blas_threads()
    if args.probe:
        _use_source_tree()
        _probe(args.workload, args.seed, args.size)
        return 0
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
