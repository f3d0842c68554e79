"""Run every workload and print every benchmark metric with its unit.

    python3 bench/report.py                 # one seed per workload
    python3 bench/report.py --seeds 10      # spread check over ten seeds
    python3 bench/report.py --json out.json # also save what was measured

Each workload runs ``--seeds`` times untraced (seeds 1, 2, ...) for the
end-to-end metrics, then once traced for the per-layer metrics, every run
for BENCHMARK.json's ``run_seconds``.  For each
end-to-end metric the report gives the median over seeds and the spread,
the distance between the first and third quartiles as a share of the
median, next to the metric's regression bound.  It also records the git
sha, the Python, numpy and scipy versions, the CPU count, the pinned
thread settings and the machine-speed factors the time metrics were
scaled by (``reference.py``).  Exits 1 if a run reports an unexpected
failure.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}")
    *_, detail, result = proc.stdout.splitlines()
    return {**json.loads(result), **json.loads(detail)["detail"]}


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def git_sha() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except FileNotFoundError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    moves = json.loads((HERE / "layer_map.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, default=1)
    ap.add_argument("--json", type=Path, help="write the measurements here")
    args = ap.parse_args(argv)

    seconds = spec["run_seconds"]
    saved = {"git_sha": git_sha(), "seconds": seconds,
             "seeds": list(range(1, args.seeds + 1)), "workloads": {}}
    ok = True
    env = None
    for w in spec["workloads"]:
        name = w["name"]
        runs = [run(name, s, 0) for s in saved["seeds"]]
        traced = run(name, saved["seeds"][0], 1)
        env = env or traced["environment"]
        print(f"\n== {name}: {w['why']}")
        print(f"end to end, {len(runs)} run(s) of {seconds:g} s; "
              f"spread = quartile distance / median")
        e2e = {}
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in runs]
            e2e[m["name"]] = {"median": statistics.median(vals),
                              "spread": spread(vals), "values": vals,
                              "unit": m["unit"], "bound": m["bound"]}
            print(f"  {m['name']:18s} {statistics.median(vals):12.6g} "
                  f"{m['unit']:6s} spread {spread(vals):6.3f}  "
                  f"bound {m['bound']}")
        factors = [r["speed_factor"]["run"] for r in runs]
        print(f"  time metrics scaled to nominal speed; speed factor "
              f"(nominal / measured reference) median "
              f"{statistics.median(factors):.3f}, range {min(factors):.3f} "
              f"to {max(factors):.3f}")
        fracs = [r["failed_frac"] for r in runs]
        print(f"  {'failed_frac':18s} {statistics.median(fracs):12.6g} ratio")
        failures = [f for r in runs for f in r["failures"]]
        for defect in sorted({f["known_defect"] or "" for f in failures}):
            group = [f for f in failures if (f["known_defect"] or "") == defect]
            ok &= bool(defect)
            print(f"    {'known defect: ' + defect if defect else 'UNEXPECTED'}"
                  f" ({sum(f['count'] for f in group)} requests), e.g.\n"
                  f"      {group[0]['argv']}: {group[0]['reason']}")
        first = runs[0]
        print(f"  latency_tail_ms is p{first['tail_percentile']:g}: "
              f"{first['samples_beyond_tail']} of {first['samples']} samples "
              f"beyond it in the first run, {first['passes']} passes")
        layers = {k: v["value"] for k, v in traced["metrics"].items()}
        print(f"per layer, traced run (seed {saved['seeds'][0]}), "
              f"per pass over the request list")
        for m in spec["per_layer"]:
            print(f"  {m['name']:42s} {layers[m['name']]:12.6g} "
                  f"{m['unit']:15s} {moves[m['name']]}")
        self_ms = {k.split(".")[1]: v for k, v in layers.items()
                   if k.startswith("layer.") and k != "layer.unattributed_ms"}
        print(f"  largest self time: {max(self_ms, key=self_ms.get)}")
        print(f"  tracing overhead: requests_per_s traced "
              f"{traced['requests_per_s_traced']:.4g} vs untraced "
              f"{traced['requests_per_s_untraced']:.4g} (as measured)")
        ok &= all(r["correct"] for r in [*runs, traced])
        saved["workloads"][name] = {
            "end_to_end": e2e, "failed_frac": fracs,
            "speed_factor": [r["speed_factor"] for r in runs],
            "measured": [r["measured"] for r in runs],
            "failures": failures, "per_layer": layers,
            "tracing": {k: traced[k] for k in ("requests_per_s_traced",
                                               "requests_per_s_untraced")}}
    saved["environment"] = env
    print(f"\ngit {saved['git_sha']}  python {env['python']}  numpy "
          f"{env['numpy']}  scipy {env['scipy']}  nproc {env['nproc']}  "
          + " ".join(f"{k}={v}" for k, v in env["threads"].items()))
    if args.json:
        args.json.write_text(json.dumps(saved, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
