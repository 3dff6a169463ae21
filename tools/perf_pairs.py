#!/usr/bin/env python3
"""Paired benchmark runs: a base revision against the working tree.

Run from anywhere inside the repository:

    tools/perf_pairs.py BASE_REF                  # every workload, 10 pairs
    tools/perf_pairs.py main~1 --workload serve_mix --first-seed 41
    tools/perf_pairs.py HEAD --scale 0.02 --seconds 1 --pairs 1  # smoke run

BASE_REF is exported with `git archive` into a temporary directory, as
tools/digest_diff.sh does; the working tree is the change. Each side runs
its own perfbench/run.py, which builds that side's benchmark (both sides
are built before the first pair). For each workload the tool runs N
pairs at BENCHMARK.json's run_seconds unless told otherwise. Both runs of
a pair share a seed no other pair of the invocation uses, and the side
that runs first alternates from pair to pair.

For each end-to-end metric of BENCHMARK.json (the per-layer ones with
--trace 1) it prints both medians, the base's quartiles, each pair's
change/base ratio and the number of pairs the change won, then a
verdict, taking the first rule that holds:

  gain        the change wins at least 90% of the pairs (9 of 10), and
              the medians differ by more than the base's interquartile
              range;
  worse       the change's median is worse than the base's by more than
              the metric's bound; a metric without a bound (the
              per-layer ones) reads worse when the base meets the gain
              rule against the change;
  unresolved  the base's spread, its interquartile range over its
              median, is wider than the bound, not every change run
              beats every base run, and the two sides differ in at least
              one pair;
  no change   anything else.

Quartiles are statistics.quantiles(method="inclusive"): linear
interpolation between order statistics, as perfbench takes its own
percentiles. perfbench/baseline.py uses the default exclusive method,
which reads a somewhat wider spread from the same ten runs.

It also prints each side's median CPU time per run: user plus system
seconds of the whole run.py process tree, setup included.

One JSON summary (--out, default perf_pairs.json) holds every run, the
verdicts, both commit ids, the paths `git status --porcelain` lists for
the working tree (untracked ones included), and perfbench/baseline.py's
machine stamp (nproc, CPU model, compiler, OS). Exits 1, naming the run,
as soon as a run fails or reports "correct": false (the summary then
holds the runs so far); 2 on a bad revision or a failed build.
"""

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = subprocess.run(
    ["git", "rev-parse", "--show-toplevel"], check=True, text=True,
    stdout=subprocess.PIPE, cwd=os.path.dirname(os.path.abspath(__file__))
).stdout.strip()
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
from baseline import machine_stamp  # noqa: E402


def git(*args):
    done = subprocess.run(["git", "-C", ROOT] + list(args), check=True,
                          text=True, stdout=subprocess.PIPE)
    return done.stdout.rstrip("\n")  # keeps a porcelain line's leading space


def quartiles(values):
    """(q1, median, q3) of the values; all three equal for one value."""
    if len(values) == 1:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def children_cpu_s():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def build(side, tree, log):
    """Builds a side's benchmark through its own run.py, untimed."""
    code = ("import sys; sys.path.insert(0, 'perfbench'); import run; "
            "sys.exit(0 if run.build() else 3)")
    with open(log, "w") as out:
        done = subprocess.run([sys.executable, "-c", code], cwd=tree,
                              stdout=out, stderr=subprocess.STDOUT)
    if done.returncode != 0:
        with open(log) as out:
            sys.stderr.write(out.read()[-4000:])
        print("perf_pairs: the %s build in %s failed" % (side, tree),
              file=sys.stderr)
        sys.exit(2)


def run_once(side, tree, workload, seed, args):
    """One perfbench run: returns its record and whether it passed."""
    command = [sys.executable, os.path.join("perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scale", str(args.scale)]
    cpu_before = children_cpu_s()
    started = time.monotonic()
    done = subprocess.run(command, cwd=tree, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    record = {"workload": workload, "seed": seed, "side": side,
              "exit_code": done.returncode,
              "wall_s": time.monotonic() - started,
              "cpu_s": children_cpu_s() - cpu_before}
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        record.update(correct=result["correct"],
                      attempted=result["attempted"],
                      failed=result["failed"],
                      metrics={name: metric["value"] for name, metric
                               in result["metrics"].items()})
    except (IndexError, ValueError, KeyError, TypeError):
        record["correct"] = False
    if done.returncode != 0 or not record["correct"]:
        sys.stderr.write(done.stdout[-3000:] + done.stderr[-3000:])
        return record, False
    return record, True


def verdict(base, change, better, bound):
    """The first rule of the module docstring that holds."""
    lower = better == "lower"

    def beats(a, b):
        return a < b if lower else a > b

    pairs = len(base)
    base_q1, base_med, base_q3 = quartiles(base)
    change_q1, change_med, change_q3 = quartiles(change)
    base_iqr, change_iqr = base_q3 - base_q1, change_q3 - change_q1
    wins = sum(beats(c, b) for b, c in zip(base, change))
    losses = sum(beats(b, c) for b, c in zip(base, change))
    needed = math.ceil(0.9 * pairs)
    if (wins >= needed and beats(change_med, base_med) and
            abs(change_med - base_med) > base_iqr):
        return "gain", wins
    if bound is None:
        if (losses >= needed and beats(base_med, change_med) and
                abs(change_med - base_med) > change_iqr):
            return "worse", wins
        return "no change", wins
    worse_by = (change_med - base_med) if lower else (base_med - change_med)
    if base_med != 0:
        worse_by /= abs(base_med)
    elif worse_by > 0:
        worse_by = math.inf
    if worse_by > bound:
        return "worse", wins
    spread = base_iqr / abs(base_med) if base_med != 0 else (
        math.inf if base_iqr > 0 else 0.0)
    every_change_beats = all(beats(c, b) for b in base for c in change)
    if (spread > bound and not every_change_beats and
            any(b != c for b, c in zip(base, change))):
        return "unresolved", wins
    return "no change", wins


def compare(workload, runs, specs):
    """Per-metric comparison of one workload's pairs, printed and returned."""
    pairs = [(runs[i], runs[i + 1]) for i in range(0, len(runs), 2)]
    pairs = [(a, b) if a["side"] == "base" else (b, a) for a, b in pairs]
    seeds = [base["seed"] for base, _ in pairs]
    print("\n%s: %d pair(s), seeds %s" % (workload, len(pairs),
                                          " ".join(map(str, seeds))))
    print("  %-30s %12s %25s %12s %6s  %s" % (
        "metric", "base", "base quartiles", "change", "wins", "verdict"))
    out = {}
    for spec in specs:
        name = spec["name"]
        if not all(name in side["metrics"] for pair in pairs for side in pair):
            continue
        base = [b["metrics"][name] for b, _ in pairs]
        change = [c["metrics"][name] for _, c in pairs]
        call, wins = verdict(base, change, spec["better"], spec.get("bound"))
        ratios = [c / b if b != 0 else (1.0 if c == 0 else math.inf)
                  for b, c in zip(base, change)]
        base_q1, base_median, base_q3 = quartiles(base)
        entry = {"unit": spec["unit"], "better": spec["better"],
                 "bound": spec.get("bound"),
                 "base_median": base_median,
                 "base_q1": base_q1,
                 "base_q3": base_q3,
                 "change_median": statistics.median(change),
                 "ratios": ratios, "wins": wins, "pairs": len(pairs),
                 "verdict": call}
        out[name] = entry
        print("  %-30s %12.6g %25s %12.6g %3d/%-2d  %s" % (
            name, entry["base_median"],
            "[%.6g, %.6g]" % (entry["base_q1"], entry["base_q3"]),
            entry["change_median"], wins, len(pairs), call))
        print("    ratios " + " ".join("%.3f" % r for r in ratios))
    base_cpu = [b["cpu_s"] for b, _ in pairs]
    change_cpu = [c["cpu_s"] for _, c in pairs]
    out["cpu_s"] = {"base_median": statistics.median(base_cpu),
                    "change_median": statistics.median(change_cpu),
                    "base": base_cpu, "change": change_cpu}
    print("  cpu seconds per run: base median %.2f (%.2f-%.2f), change "
          "median %.2f (%.2f-%.2f)" % (
              out["cpu_s"]["base_median"], min(base_cpu), max(base_cpu),
              out["cpu_s"]["change_median"], min(change_cpu),
              max(change_cpu)))
    return out


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base_ref", metavar="BASE_REF")
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in benchmark["workloads"]],
                        help="repeatable; default every workload")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float,
                        default=benchmark["run_seconds"])
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--first-seed", type=int, default=1,
                        help="pair i runs seed FIRST_SEED + i")
    parser.add_argument("--out", default="perf_pairs.json")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    workloads = args.workload or [w["name"] for w in benchmark["workloads"]]
    specs = benchmark["per_layer" if args.trace else "end_to_end"]

    try:
        base_commit = git("rev-parse", "--verify", "--quiet",
                          args.base_ref + "^{commit}")
    except subprocess.CalledProcessError:
        print("perf_pairs: unknown revision %s" % args.base_ref,
              file=sys.stderr)
        return 2
    # The change side is the whole working tree, untracked files included.
    status = git("status", "--porcelain").splitlines()
    summary = {
        "base": {"ref": args.base_ref, "commit": base_commit},
        "change": {"commit": git("rev-parse", "HEAD"),
                   "dirty": bool(status), "status": status},
        "pairs": args.pairs, "seconds": args.seconds, "scale": args.scale,
        "trace": args.trace, "first_seed": args.first_seed,
        "runs": [], "verdicts": {}}

    def write_summary():
        with open(args.out, "w") as out:
            json.dump(summary, out, indent=1)
            out.write("\n")

    tmp = tempfile.mkdtemp(prefix="perf_pairs.")
    try:
        base_tree = os.path.join(tmp, "base")
        os.mkdir(base_tree)
        archive = subprocess.Popen(["git", "-C", ROOT, "archive", base_commit],
                                   stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", base_tree], stdin=archive.stdout,
                       check=True)
        archive.stdout.close()
        if archive.wait() != 0:
            print("perf_pairs: git archive %s failed" % args.base_ref,
                  file=sys.stderr)
            return 2
        trees = {"base": base_tree, "change": ROOT}
        for side in ("base", "change"):
            build(side, trees[side], os.path.join(tmp, side + "-build.log"))
        # Stamped after the builds, so it names the change side's compiler.
        summary["machine"] = machine_stamp()

        for workload in workloads:
            runs = []
            for i in range(args.pairs):
                seed = args.first_seed + i
                order = ("base", "change") if i % 2 == 0 else ("change",
                                                               "base")
                for side in order:
                    record, ok = run_once(side, trees[side], workload, seed,
                                          args)
                    record["pair"] = i
                    summary["runs"].append(record)
                    runs.append(record)
                    if not ok:
                        write_summary()
                        print("perf_pairs: %s run of %s, seed %d, failed "
                              "(exit code %d, correct %s)" % (
                                  side, workload, seed, record["exit_code"],
                                  record["correct"]), file=sys.stderr)
                        return 1
                    print("[%s pair %d/%d seed %d] %s done in %.1f s" % (
                        workload, i + 1, args.pairs, seed, side,
                        record["wall_s"]), file=sys.stderr)
            summary["verdicts"][workload] = compare(workload, runs, specs)
        write_summary()
        print("\nsummary: %s (base %s, change %s%s; nproc %d, %s)" % (
            args.out, base_commit[:12], summary["change"]["commit"][:12],
            "+dirty" if summary["change"]["dirty"] else "",
            summary["machine"]["nproc"], summary["machine"]["cpu"]))
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
