#!/usr/bin/env python3
"""Runs the benchmark over several seeds and summarises each metric.

Run from the repository root:

    python3 perfbench/baseline.py --seeds 10 --out perfbench/baseline.json

Every workload of BENCHMARK.json runs untraced and traced with seeds
1..N. For every workload and metric this prints the median, the
quartiles (as statistics.quantiles(values, n=4) gives them) and the
spread, the quartile distance over the median, next to the bound from
BENCHMARK.json. A spread above a third of its bound is marked "wide":
the metric is too noisy to judge a change by that bound. With --out it
also writes the summary, stamped with the machine it ran on, as JSON.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds, trace):
    """One benchmark run; returns its parsed JSON result line."""
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit("perfbench: %s seed %d trace %d failed (exit %d)"
                 % (workload, seed, trace, out.returncode))
    return json.loads(lines[-1])


def machine_stamp():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            match = re.search(r"^model name\s*:\s*(.*)$", f.read(), re.M)
            cpu = match.group(1).strip() if match else cpu
    except OSError:
        pass
    compiler = "unknown"
    cache = os.path.join(ROOT, ".bench_build", "perfbench", "CMakeCache.txt")
    try:
        with open(cache) as f:
            text = f.read()
        cxx = re.search(r"^CMAKE_CXX_COMPILER:\w+=(.*)$", text, re.M)
        if cxx:
            version = subprocess.run([cxx.group(1), "--version"],
                                     stdout=subprocess.PIPE, text=True)
            compiler = version.stdout.splitlines()[0]
    except (OSError, IndexError):
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "compiler": compiler, "os": platform.platform()}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in
              bench["end_to_end"] + bench["per_layer"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10,
                        help="runs per workload and trace mode, seeds 1..N")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--out", help="write the summary here as JSON")
    args = parser.parse_args()

    summary = {"machine": machine_stamp(), "seconds": args.seconds,
               "seeds": list(range(1, args.seeds + 1)), "workloads": {}}
    for workload in [w["name"] for w in bench["workloads"]]:
        values = {}
        units = {}
        for trace in (0, 1):
            for seed in summary["seeds"]:
                result = run_once(workload, seed, args.seconds, trace)
                for name, metric in result["metrics"].items():
                    values.setdefault(name, []).append(metric["value"])
                    units[name] = metric["unit"]
        print("%s (%d seeds)" % (workload, args.seeds))
        rows = {}
        for name, vals in values.items():
            q1, median, q3 = (statistics.quantiles(vals, n=4)
                              if len(vals) > 1 else (vals[0],) * 3)
            spread = (q3 - q1) / median if median else 0.0
            rows[name] = {"unit": units[name], "median": median, "q1": q1,
                          "q3": q3, "spread": spread}
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                flag = "wide" if spread > bound / 3 else "ok"
            print("  %-30s %14.6g %-6s spread %6.3f bound %-5s %s"
                  % (name, median, units[name], spread,
                     "-" if bound is None else bound, flag))
        summary["workloads"][workload] = rows
        sys.stdout.flush()
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
