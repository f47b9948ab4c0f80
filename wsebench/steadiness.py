#!/usr/bin/env python3
"""Steadiness check for the wsebench benchmark.

Runs every workload of BENCHMARK.json repeatedly, alternating between
workloads and giving each run its own seed, then prints for every metric
the median, the quartiles and the interquartile spread as a share of the
median, next to the metric's bound. The bounds in BENCHMARK.json are set
from this output and re-checked with it.

    python3 wsebench/steadiness.py [--runs 10] [--seed-base 100]
                                   [--workloads tile-64,serve-mix]
                                   [--traced 1]

Run it from anywhere; it runs the command of BENCHMARK.json from the root
of the repository. With --traced K it also makes a traced run right after
each of the first K untraced runs of a workload, with the same seed,
prints the traced runs' per-layer medians and the tracing overhead: the
median over these pairs of the traced run's median latency against the
untraced one's. Pairing the runs keeps the host's drift out of the
comparison.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(command, workload, seed, seconds, trace):
    args = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    t0 = time.monotonic()
    proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True)
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    host = next((l for l in lines if l.startswith("host: ")), "host: ?")
    probe = next((l for l in lines if l.startswith("probe: ")), "probe: ?")
    return result, wall, host, probe


def spread(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=100)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--traced", type=int, default=0)
    opts = ap.parse_args()
    workloads = opts.workloads.split(",")
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    runs = {w: [] for w in workloads}
    traced = {w: [] for w in workloads}
    for i in range(opts.runs):
        for w in workloads:
            seed = opts.seed_base + i
            result, wall, host, probe = run_once(bench["command"], w, seed, opts.seconds, 0)
            runs[w].append(result)
            lat = result["metrics"].get("latency_s_p50", {}).get("value", float("nan"))
            print(f"[{w} seed {seed}] {wall:.1f} s wall, correct {result['correct']}, "
                  f"{result['failed']}/{result['attempted']} failed, latency_s_p50 {lat:.4f}; "
                  f"{probe}", flush=True)
            if i == 0 and w == workloads[0]:
                print(host, flush=True)
            if i < opts.traced:
                result, wall, _, _ = run_once(bench["command"], w, seed, opts.seconds, 1)
                traced[w].append(result)
                print(f"[{w} traced seed {seed}] {wall:.1f} s wall", flush=True)

    for w in workloads:
        rs = runs[w]
        shares = sorted({(r["failed"], r["attempted"]) for r in rs})
        print(f"\n== {w}: {len(rs)} runs, all correct: {all(r['correct'] for r in rs)}, "
              f"(failed, attempted) per run: {shares}")
        print(f"  {'metric':<26}{'median':>14}{'q1':>14}{'q3':>14}{'iqr/med':>10}{'bound':>8}")
        for name in rs[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in rs]
            med, q1, q3, rel = spread(vals)
            bound = bounds.get(name, {}).get("bound", float("nan"))
            flag = "" if rel <= bound / 3 else "  <- above bound/3"
            print(f"  {name:<26}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}{rel:>10.4f}{bound:>8}{flag}")
        if traced[w]:
            print(f"  per-layer medians over {len(traced[w])} traced runs:")
            for name in traced[w][0]["metrics"]:
                med = statistics.median(r["metrics"][name]["value"] for r in traced[w])
                print(f"    {name:<26}{med:>16.6g} {traced[w][0]['metrics'][name]['unit']}")
            ratios = [t["metrics"]["trace.latency_s_p50"]["value"]
                      / u["metrics"]["latency_s_p50"]["value"] - 1
                      for t, u in zip(traced[w], rs)]
            print(f"  tracing overhead on latency_s_p50, median of {len(ratios)} "
                  f"same-seed pairs: {statistics.median(ratios):+.2%} "
                  f"(pairs: {', '.join(f'{r:+.1%}' for r in ratios)})")


if __name__ == "__main__":
    main()
