#!/usr/bin/env python3
"""Smoke test of the benchmark at a tiny scale (about a minute).

Run from the repository root:

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json untraced and traced at 2% of its
data and pool sizes, and checks that:
  * each run exits 0 and ends with the result JSON line, all checks passed;
  * the untraced run emits exactly the end-to-end metrics, the traced run
    exactly the per-layer metrics, each with its unit from BENCHMARK.json;
  * the per-layer self times add up to the traced end-to-end time per
    query within 1%, both as reported and as recomputed here from the
    written spans;
  * each workload's own layers report work (e.g. serve_mix shows shard
    fan-out overhead apart from the shard members' time).
Exits 1 on the first failed check.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
sys.dont_write_bytecode = True
import run  # noqa: E402  (perfbench/run.py: the build)

TOLERANCE = 0.01
SELF_LAYERS = ["engine", "cache", "shard", "plan", "estimate", "ingest"]
# Per-layer metrics that must be nonzero on each workload.
OWN_LAYERS = {
    "scan_solo": ["plan.walk_us_p50", "estimate.exec_us_p50",
                  "kernel.scan_us_p50", "kernel.fixed_share"],
    "serve_mix": ["engine.queue_ms_p50", "engine.run_ms_p50",
                  "cache.probe_us_p50", "shard.member_us_p50",
                  "shard.fanout_overhead_us_p50", "shard.merge_us_p50",
                  "plan.walk_us_p50", "kernel.scan_us_p50"],
    "ingest_mix": ["ingest.insert_us_p50", "plan.walk_us_p50",
                   "estimate.exec_us_p50", "kernel.scan_us_p50"],
}


def fail(message):
    print("selftest: FAIL " + message)
    sys.exit(1)


def run_workload(workload, trace, spans):
    command = [run.BINARY, "--workload", workload, "--seed", "7",
               "--seconds", "1", "--trace", str(trace), "--scale", "0.02",
               "--spans-out", spans]
    out = subprocess.run(command, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True)
    if out.returncode != 0:
        fail("%s trace %d exited %d:\n%s" % (workload, trace, out.returncode,
                                              out.stderr))
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("%s trace %d: result keys %s" % (workload, trace, sorted(result)))
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        fail("%s trace %d: correct=%s failed=%s attempted=%s" % (
            workload, trace, result["correct"], result["failed"],
            result["attempted"]))
    return result["metrics"]


def check_units(workload, trace, metrics, expected):
    want = {m["name"]: m["unit"] for m in expected}
    got = {name: m["unit"] for name, m in metrics.items()}
    if got != want:
        fail("%s trace %d: metrics differ from BENCHMARK.json: missing %s, "
             "extra or wrong unit %s" % (
                 workload, trace, sorted(set(want) - set(got)),
                 sorted(k for k in got if want.get(k) != got[k])))


def spans_self_total(path):
    """Recomputes, from the written spans, the blocking-path self time of
    every query and insert root; returns (sum of self times, sum of root
    durations), both in ns."""
    spans = {}
    children = {}
    with open(path) as f:
        next(f)
        for line in f:
            _, sid, parent, name, concurrent, start, end = line.split("\t")
            spans[int(sid)] = (int(parent), name, concurrent == "1",
                               int(start), int(end))
            children.setdefault(int(parent), []).append(int(sid))

    def self_time(sid):
        _, _, _, start, end = spans[sid]
        seq = sorted((spans[c][3], spans[c][4]) for c in children.get(sid, [])
                     if not spans[c][2])
        conc = [c for c in children.get(sid, []) if spans[c][2]]
        covered, reach = 0, start
        for s, e in seq:
            s, e = max(s, reach), min(e, end)
            if e > s:
                covered += e - s
                reach = e
        slowest = max(conc, key=lambda c: spans[c][4] - spans[c][3],
                      default=None)
        slow_ns = 0 if slowest is None else (spans[slowest][4] -
                                             spans[slowest][3])
        follow = [c for c in children.get(sid, []) if not spans[c][2]]
        if slowest is not None:
            follow.append(slowest)
        return end - start - covered - slow_ns, follow

    total_self = total_roots = 0
    for sid in children.get(0, []):
        if spans[sid][1].startswith("kernel."):
            continue
        total_roots += spans[sid][4] - spans[sid][3]
        stack = [sid]
        while stack:
            own, follow = self_time(stack.pop())
            total_self += own
            stack.extend(follow)
    return total_self, total_roots


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if not run.build():
        fail("build")
    out_dir = os.path.join(ROOT, ".bench_build", "selftest")
    os.makedirs(out_dir, exist_ok=True)
    for workload in [w["name"] for w in bench["workloads"]]:
        spans = os.path.join(out_dir, workload + ".tsv")
        e2e = run_workload(workload, 0, spans)
        check_units(workload, 0, e2e, bench["end_to_end"])
        layers = run_workload(workload, 1, spans)
        check_units(workload, 1, layers, bench["per_layer"])

        e2e_us = layers["trace.e2e_us_per_query"]["value"]
        self_us = layers["trace.glue_us_per_query"]["value"] + sum(
            layers[layer + ".self_us_per_query"]["value"]
            for layer in SELF_LAYERS)
        if e2e_us <= 0 or abs(self_us - e2e_us) > TOLERANCE * e2e_us:
            fail("%s: layer self times sum to %.3f us, traced end-to-end "
                 "is %.3f us per query" % (workload, self_us, e2e_us))
        total_self, total_roots = spans_self_total(spans)
        if total_roots <= 0 or abs(total_self - total_roots) > (
                TOLERANCE * total_roots):
            fail("%s: span self times sum to %d ns, roots to %d ns" % (
                workload, total_self, total_roots))
        for name in OWN_LAYERS[workload]:
            if not layers[name]["value"] > 0:
                fail("%s: %s is %s" % (workload, name, layers[name]["value"]))
        print("selftest: %-10s ok (self %.2f us = e2e %.2f us per query)"
              % (workload, self_us, e2e_us))
    print("selftest: PASS")


if __name__ == "__main__":
    main()
