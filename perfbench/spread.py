#!/usr/bin/env python3
"""Runs the benchmark over several seeds and summarises each metric.

For every workload and end-to-end metric it prints the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and the spread
(third minus first quartile, over the median), next to the metric's bound
from BENCHMARK.json. Run from the repository root:

    python3 perfbench/spread.py --seeds 1-10 [--workloads fleet-mixed,...]
        [--seconds 30] [--trace 0] [--out perfbench/baseline.json]

Each run is a fresh ``cargo run`` of the command in BENCHMARK.json, the
way the benchmark is meant to be invoked; runs are sequential.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def seeds(spec):
    out = []
    for part in spec.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    return out


def main():
    bench = json.load(open("BENCHMARK.json"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    parser.add_argument("--out", help="write the summary as JSON here")
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    summary = {"seconds": args.seconds, "trace": int(args.trace), "workloads": {}}
    for workload in args.workloads.split(","):
        values, runs = {}, []
        for seed in seeds(args.seeds):
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", args.trace,
            ]
            start = time.time()
            proc = subprocess.run(cmd, capture_output=True, text=True)
            elapsed = time.time() - start
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
            try:
                result = json.loads(last)
            except json.JSONDecodeError:
                result = {}
            ok = proc.returncode == 0 and result.get("correct") is True
            runs.append({"seed": seed, "ok": ok, "elapsed_s": round(elapsed, 1),
                         "attempted": result.get("attempted"), "failed": result.get("failed")})
            print(f"{workload} seed {seed}: exit {proc.returncode}, correct {result.get('correct')}, "
                  f"{elapsed:.1f} s", file=sys.stderr)
            if not ok:
                sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
            for name, metric in result.get("metrics", {}).items():
                values.setdefault(name, []).append(metric["value"])
        table = {}
        print(f"\n{workload}: {len(runs)} runs, {sum(r['ok'] for r in runs)} correct")
        print(f"  {'metric':<34} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name, vals in values.items():
            vals = [v for v in vals if v is not None]
            if len(vals) < 2:
                continue
            q1, _, q3 = statistics.quantiles(vals, n=4)
            median = statistics.median(vals)
            spread = (q3 - q1) / median if median else float("nan")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                flag = "over bound" if spread > bound else ("over bound/3" if spread > bound / 3 else "")
            print(f"  {name:<34} {median:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.4f} "
                  f"{'' if bound is None else bound:>6} {flag}")
            table[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread, "n": len(vals)}
        summary["workloads"][workload] = {"runs": runs, "metrics": table}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"\nwrote {args.out}")


if __name__ == "__main__":
    main()
