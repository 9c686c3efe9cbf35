#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs each workload N times with a different seed each time and prints, for
every end-to-end metric, the median, the quartiles, the interquartile
spread as a share of the median against the metric's bound, and the
min-max spread. Run it from the repository root:

    python3 perf/steady.py --runs 10
    python3 perf/steady.py --runs 5 --workloads tree-history --save a.json
    python3 perf/steady.py --runs 10 --save b.json --compare a.json

--compare checks a second set of runs against a saved first set: every
metric's median may be worse than the first set's by at most its bound,
and the share of failed operations must be exactly equal.
"""
import argparse
import json
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds):
    cmd = ["bash", "perf/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stdout + out.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    return json.loads(lines[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", nargs="*")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--save")
    ap.add_argument("--compare")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    results = {}
    ok = True
    for w in workloads:
        runs = []
        for i in range(args.runs):
            runs.append(run_once(w, args.first_seed + i, seconds))
        results[w] = runs
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"\n{w}: {args.runs} runs of {seconds} s, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}, failed share {sorted(shares)}, "
              f"correct {all(r['correct'] for r in runs)}")
        print(f"{'metric':24} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} "
              f"{'bound':>6} {'min':>12} {'max':>12} {'range/med':>9}")
        for m in metrics:
            vals = [r["metrics"][m["name"]]["value"] for r in runs]
            med, q1, q3, iqr = spread(vals)
            rng = (max(vals) - min(vals)) / med if med else float("inf")
            flag = ""
            if iqr > m["bound"]:
                flag, ok = "OVER", False
            elif iqr > m["bound"] / 3:
                flag = "over 1/3"
            print(f"{m['name']:24} {med:12.4f} {q1:12.4f} {q3:12.4f} {iqr:8.3f} "
                  f"{m['bound']:6.2f} {min(vals):12.4f} {max(vals):12.4f} {rng:9.3f} {flag}")
    if args.save:
        json.dump(results, open(args.save, "w"))
    if args.compare:
        base = json.load(open(args.compare))
        print("\ncompare against", args.compare)
        for w in workloads:
            if w not in base:
                continue
            s0 = {r["failed"] / r["attempted"] for r in base[w]}
            s1 = {r["failed"] / r["attempted"] for r in results[w]}
            if s0 != s1:
                ok = False
                print(f"{w}: failed share differs: {sorted(s0)} vs {sorted(s1)}")
            for m in metrics:
                m0 = statistics.median(r["metrics"][m["name"]]["value"] for r in base[w])
                m1 = statistics.median(r["metrics"][m["name"]]["value"] for r in results[w])
                worse = (m1 - m0) / m0 if m["better"] == "lower" else (m0 - m1) / m0
                flag = "WORSE" if worse > m["bound"] else ""
                if flag:
                    ok = False
                print(f"{w:14} {m['name']:24} {m0:12.4f} {m1:12.4f} {worse:+8.3f} {flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
