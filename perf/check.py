#!/usr/bin/env python3
"""Repeatability self-check: runs the benchmark the way its driver does.

Reads BENCHMARK.json from the current directory (the repository root),
runs its command `--runs` times per workload, each time with another
seed, and does that twice. For every end-to-end metric and workload it
prints both medians, the spread of each set (distance between the first
and third quartile as a share of the median, quartiles as Python's
statistics.quantiles gives them), how much worse the second median is
than the first, and the metric's bound. Exits 1 when a spread (except
that of setup_s) or a gap exceeds its bound, or a run is not correct.

    python3 perf/check.py                       # 2 sets x 10 runs x 5 workloads
    python3 perf/check.py --workload live-query --runs 5
    python3 perf/check.py --workload sock-durable   # a workload BENCHMARK.json leaves out
    python3 perf/check.py --traced              # one traced run per workload
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def run(spec, workload, seed, seconds, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", str(trace)]
    began = time.time()
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
    took = time.time() - began
    if done.returncode != 0:
        sys.exit(f"{' '.join(cmd)}: exit code {done.returncode}\n{done.stdout}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit(f"{workload}: unexpected result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        sys.exit(f"{workload} seed {seed}: run not correct\n{done.stdout}")
    listed = spec["per_layer" if trace else "end_to_end"]
    if list(result["metrics"]) != [m["name"] for m in listed]:
        sys.exit(f"{workload}: metrics differ from BENCHMARK.json: {list(result['metrics'])}")
    for m in listed:
        if result["metrics"][m["name"]]["unit"] != m["unit"]:
            sys.exit(f"{workload}: {m['name']} has unit {result['metrics'][m['name']]['unit']}")
    return {k: v["value"] for k, v in result["metrics"].items()}, took


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--traced", action="store_true")
    args = ap.parse_args()
    spec = json.load(open("BENCHMARK.json"))
    seconds = spec["run_seconds"]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

    if args.traced:
        rows = {}
        for w in workloads:
            rows[w], took = run(spec, w, 1, seconds, 1)
            print(f"# {w}: traced run took {took:.1f} s", file=sys.stderr)
        print(f"{'per-layer metric':<44}" + "".join(f"{w:>15}" for w in workloads))
        for m in spec["per_layer"]:
            cells = "".join(f"{rows[w][m['name']]:>15.6g}" for w in workloads)
            print(f"{m['name']:<44}{cells}  {m['unit']}")
        return

    bad = 0
    print(f"{'workload':<13}{'metric':<17}{'median 1':>14}{'median 2':>14}"
          f"{'spread 1':>10}{'spread 2':>10}{'gap':>9}{'bound':>7}")
    for w in workloads:
        sets, wall = [], []
        for s in range(2):
            runs = []
            for r in range(args.runs):
                values, took = run(spec, w, 1 + s * args.runs + r, seconds, 0)
                runs.append(values)
                wall.append(took)
            sets.append(runs)
        for m in spec["end_to_end"]:
            a, b = ([r[m["name"]] for r in runs] for runs in sets)
            ma, mb = statistics.median(a), statistics.median(b)
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            sa, sb = spread(a), spread(b)
            is_time = m["unit"] in ("s", "ms", "us", "ns")
            flags = ""
            if m["name"] != "setup_s" and max(sa, sb) > m["bound"]:
                flags += " SPREAD>BOUND"
            elif m["name"] != "setup_s" and max(sa, sb) > m["bound"] / 3:
                flags += " (spread above a third of the bound)"
            if worse > m["bound"]:
                flags += " GAP>BOUND"
            if min(a + b) <= 0 or (is_time and len(set(a + b)) == 1):
                flags += " ZERO-OR-CONSTANT"
            bad += flags.count(">") + flags.count("ZERO")
            print(f"{w:<13}{m['name']:<17}{ma:>14.6g}{mb:>14.6g}{sa:>10.2%}{sb:>10.2%}"
                  f"{worse:>+9.2%}{m['bound']:>7.0%}{flags}")
        print(f"# {w}: a run took {statistics.median(wall):.1f} s (median), {max(wall):.1f} s (longest)",
              flush=True)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
