"""noiseamp benchmark: one workload, measured end to end or layer by layer.

    python3 bench/run.py --workload interactive --seed 1 --seconds 30 --trace 0

Load model: a closed loop.  One client in this process sends the
workload's request list in order, each request an argv passed to
``noiseamp.cli.run`` with ``--out`` pointing at a scratch file, and sends
the next request only when the previous one has returned.  Passes over the
list repeat until the requests have run for ``--seconds`` seconds.  Every
exit code and report is checked outside the timed region (``checks.py``).

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` sends one warm-up pass, then alternates untraced and traced
passes, and reports the per-layer metrics of BENCHMARK.json from the
traced passes, together with the tracing overhead.  The last line of standard output is the result
object; the line before it holds details (tail percentile, sample counts,
failures, versions, the values as measured before scaling).

Every time metric is read at nominal machine speed (``reference.py``):
each request's latency, and each set-up probe's time, is scaled by the
reference's nominal time over the reference time measured right after
it, and the end-to-end metrics are computed from the scaled times.  The
per-layer times are scaled by the run's median reference time.  Rates
scale the other way; counts, sizes and ratios stay as measured.

Set-up time is measured in fresh processes: each runs this file with
``--probe``, imports ``noiseamp.cli`` from the checkout's ``src`` and
builds the request list, and the parent times it from spawn to its report.
"""

from __future__ import annotations

import os

# Pinned before numpy loads: no request needs BLAS or OpenMP threads.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import TAIL_PERCENTILE, WORKLOADS, build_requests

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_out"
SETUP_PROBES = 3
SETUP_REFERENCES = 10  # reference timings in each set-up probe


def import_cli():
    """Import ``noiseamp.cli`` from the checkout, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import noiseamp.cli
    if Path(noiseamp.cli.__file__).resolve().parents[1] != SRC:
        raise SystemExit(f"noiseamp imported from {noiseamp.cli.__file__}, "
                         f"not from {SRC}")
    return noiseamp.cli


def probe(workload: str, seed: int):
    t0 = time.perf_counter()
    import_cli()
    t1 = time.perf_counter()
    build_requests(workload, seed)
    t2 = time.perf_counter()
    print(json.dumps({"import_ms": (t1 - t0) * 1e3,
                      "inputs_ms": (t2 - t1) * 1e3}), flush=True)
    # After the report, so that the parent's timing has stopped; imported
    # only now, so that the set-up timed above is the program's alone.
    # Several timings, because a probe has a single set-up to scale.
    from reference import Speed
    speed = Speed()
    speed.sample(SETUP_REFERENCES)
    print(json.dumps(speed.samples), flush=True)


def measure_setup(workload: str, seed: int):
    """Time SETUP_PROBES fresh processes from spawn to request list built.

    Each probe's times are also given at nominal speed, scaled by the
    median reference time measured in that probe.
    """
    from reference import NOMINAL_S
    runs = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(
                [sys.executable, str(HERE / "run.py"), "--probe",
                 "--workload", workload, "--seed", str(seed)],
                stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            samples = proc.stdout.read()
        if proc.returncode != 0 or not line:
            raise SystemExit(f"set-up probe failed (exit {proc.returncode})")
        times = {"setup_s": elapsed, **json.loads(line)}
        factor = NOMINAL_S / statistics.median(json.loads(samples))
        runs.append({"measured": times, "factor": factor,
                     "nominal": {k: v * factor for k, v in times.items()}})
    return runs


class Loop:
    """The closed-loop client: sends requests, times and checks them."""

    def __init__(self, cli, requests, checker, tracer=None):
        self.cli, self.requests, self.checker = cli, requests, checker
        self.tracer = tracer
        self.out = SCRATCH / "report.out"
        self.sent = 0
        self.failures: dict[tuple, dict] = {}
        from reference import NOMINAL_S, Speed
        self.speed = Speed()
        self.nominal_s = NOMINAL_S
        self.nominal: list[float] = []  # latencies at nominal speed

    def request(self, req) -> tuple[float, int, int]:
        """Send one request; return (latency s, exit code, report bytes)."""
        argv = [*req.argv, "--out", str(self.out)]
        self.out.unlink(missing_ok=True)
        err = io.StringIO()
        crash = None
        with contextlib.redirect_stderr(err):
            if self.tracer:
                self.tracer.begin(self.sent)
            t0 = time.perf_counter()
            try:
                code = self.cli.run(argv)
            except Exception as exc:  # a traceback is a failed request
                code, crash = -1, f"{type(exc).__name__}: {exc}"
            latency = time.perf_counter() - t0
            if self.tracer:
                self.tracer.end()
        self.sent += 1
        text = self.out.read_text() if self.out.exists() else ""
        reason = crash or self.checker.check(req, code, text, err.getvalue())
        if reason:
            known = req.known_defect
            entry = self.failures.setdefault(
                (req.argv, reason),
                {"argv": " ".join(req.argv), "reason": reason,
                 "known_defect": (known.description
                                  if known and reason == known.reason
                                  else None),
                 "count": 0})
            entry["count"] += 1
        self.nominal.append(latency * self.nominal_s / self.speed.sample())
        return latency, code, len(text.encode())

    def one_pass(self) -> tuple[list[float], int, int]:
        """Send the list once; return latencies, report bytes, nonzero exits."""
        walls, out_bytes, nonzero = [], 0, 0
        for req in self.requests:
            latency, code, size = self.request(req)
            walls.append(latency)
            out_bytes += size
            nonzero += code != 0
        return walls, out_bytes, nonzero

    def passes(self, seconds: float) -> list[list[float]]:
        """Whole passes until ``seconds`` of request time; their latencies."""
        passes: list[list[float]] = []
        while not passes or sum(map(sum, passes)) < seconds:
            passes.append(self.one_pass()[0])
        return passes

    @property
    def failed(self) -> int:
        return sum(f["count"] for f in self.failures.values())

    @property
    def unexpected(self) -> list[dict]:
        return [f for f in self.failures.values() if not f["known_defect"]]


def requests_per_s(passes: list[list[float]]) -> float:
    """Requests completed per second of request time."""
    return sum(map(len, passes)) / sum(map(sum, passes))


def environment() -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


def setup_median(setup: list[dict], kind: str, name: str) -> float:
    return statistics.median(r[kind][name] for r in setup)


def end_to_end(loop: Loop, workload: str, seconds: float, setup: list[dict]):
    """The end-to-end metrics at nominal speed and as measured."""
    passes = loop.passes(seconds)
    q = TAIL_PERCENTILE[workload]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def metrics(latencies: list[float], kind: str) -> dict:
        tail = statistics.quantiles(latencies, n=100,
                                    method="inclusive")[q - 1]
        return {"setup_s": setup_median(setup, kind, "setup_s"),
                "requests_per_s": len(latencies) / sum(latencies),
                "latency_p50_ms": statistics.median(latencies) * 1e3,
                "latency_tail_ms": tail * 1e3,
                "peak_rss_mb": peak_rss_mb}
    latencies = [v for p in passes for v in p]
    values, measured = metrics(loop.nominal, "nominal"), metrics(latencies,
                                                                 "measured")
    tail = values["latency_tail_ms"] / 1e3
    detail = {"tail_percentile": q, "samples": len(loop.nominal),
              "samples_beyond_tail": sum(v > tail for v in loop.nominal),
              "passes": len(passes), "setup_probes": len(setup)}
    return values, measured, detail


def traced_pass(loop: Loop, tracer, spans) -> tuple[list[float], dict]:
    start = len(tracer.spans)
    tracer.install()
    try:
        walls, out_bytes, nonzero = loop.one_pass()
    finally:
        tracer.uninstall()
    return walls, spans.layer_metrics(tracer.spans[start:], start, walls,
                                      out_bytes, nonzero)


def per_layer(loop: Loop, seconds: float, setup: list[dict], tracer, spans,
              listed: list[dict]):
    """The per-layer metrics at nominal speed and as measured."""
    from reference import scale
    # A warm-up pass that counts for neither side, then pairs of passes
    # whose order alternates, so that neither a cold start nor a machine
    # that speeds up or slows down during the run shows up as tracing
    # overhead.
    loop.one_pass()
    untraced, traced, per_pass = [], [], []
    while not traced or sum(map(sum, untraced + traced)) < seconds:
        if len(traced) % 2:
            walls, metrics = traced_pass(loop, tracer, spans)
            untraced.append(loop.one_pass()[0])
        else:
            untraced.append(loop.one_pass()[0])
            walls, metrics = traced_pass(loop, tracer, spans)
        traced.append(walls)
        per_pass.append(metrics)
    measured = spans.median_metrics(per_pass)
    rps_untraced = requests_per_s(untraced)
    rps_traced = requests_per_s(traced)
    measured["trace.rps_ratio"] = rps_traced / rps_untraced
    values = {m["name"]: scale(measured[m["name"]], m["unit"],
                               loop.speed.factor)
              for m in listed if m["name"] in measured}
    for name in ("setup.import_ms", "setup.inputs_ms"):
        key = name.split(".")[1]
        measured[name] = setup_median(setup, "measured", key)
        values[name] = setup_median(setup, "nominal", key)
    detail = {"requests_per_s_untraced": rps_untraced,
              "requests_per_s_traced": rps_traced,
              "traced_passes": len(per_pass), "spans": len(tracer.spans)}
    return values, measured, detail


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.probe:
        probe(args.workload, args.seed)
        return 0
    started = time.perf_counter()

    setup = measure_setup(args.workload, args.seed)
    cli = import_cli()
    import checks
    import spans
    requests = build_requests(args.workload, args.seed)
    SCRATCH.mkdir(exist_ok=True)
    tracer = spans.Tracer() if args.trace else None
    loop = Loop(cli, requests, checks.Checker(), tracer)
    if args.trace:
        listed = spec["per_layer"]
        values, measured, detail = per_layer(loop, args.seconds, setup,
                                             tracer, spans, listed)
        tracer.write(SCRATCH / f"spans-{args.workload}.csv")
    else:
        listed = spec["end_to_end"]
        values, measured, detail = end_to_end(loop, args.workload,
                                              args.seconds, setup)
    metrics = {m["name"]: {"value": float(values[m["name"]]),
                           "unit": m["unit"]} for m in listed}
    attempted = loop.sent
    detail.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  measured={m["name"]: float(measured[m["name"]])
                            for m in listed},
                  speed_factor={
                      "setup": statistics.median(r["factor"] for r in setup),
                      "run": loop.speed.factor},
                  failed_frac=loop.failed / attempted,
                  failures=list(loop.failures.values()),
                  environment=environment(),
                  wall_s=time.perf_counter() - started)
    for name, m in metrics.items():
        print(f"{args.workload:14s} {name:45s} {m['value']:14.6g} {m['unit']}")
    print(f"{args.workload:14s} {'failed_frac':45s} "
          f"{detail['failed_frac']:14.6g} ratio "
          f"({loop.failed} of {attempted} requests)")
    for f in loop.failures.values():
        label = "known defect" if f["known_defect"] else "FAILED"
        print(f"  {label}: {f['count']}x {f['argv']}: {f['reason']}")
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": not loop.unexpected, "attempted": attempted,
                      "failed": loop.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
