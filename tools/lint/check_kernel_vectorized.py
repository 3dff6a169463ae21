#!/usr/bin/env python3
"""Fails when GCC stops vectorizing the scan kernel's accumulate loop.

The lane-striped accumulate in src/kernel/scan_kernel.cc is the hot loop
of every leaf scan. Timing sweeps cannot reliably catch it turning scalar
(a branchy select predicts well at the selectivities they time), so this
check asks the compiler instead. It re-runs the kernel TU's own compile
command from <build-dir>/compile_commands.json with -fopt-info-vec-all
and reads the report for the group loop, from
`for (; jj + kScanLanes <= len; ...)` to its closing brace. GCC reports
the lane loop on the line of its first body statement, so the whole line
range is matched, not one line.

Passes when that range reports at least one "optimized: loop vectorized"
and no "not vectorized: control flow in loop".

The report format is GCC's: run it on a GCC build directory.

Usage:
  check_kernel_vectorized.py BUILD_DIR

Exits 0 when the loop vectorizes, 1 when it does not, 2 on usage or
environment errors (no compile_commands.json, no kernel entry, compiler
failure).
"""

import json
import os
import re
import shlex
import subprocess
import sys

KERNEL = "src/kernel/scan_kernel.cc"
GROUP_LOOP = "for (; jj + kScanLanes <= len;"
VECTORIZED = "optimized: loop vectorized"
CONTROL_FLOW = "not vectorized: control flow in loop"


def fail(msg):
    print(f"check_kernel_vectorized: {msg}", file=sys.stderr)
    sys.exit(2)


def kernel_entry(build_dir):
    path = os.path.join(build_dir, "compile_commands.json")
    if not os.path.isfile(path):
        fail(f"{path} not found; configure the build first")
    with open(path, encoding="utf-8") as f:
        for entry in json.load(f):
            if entry["file"].replace(os.sep, "/").endswith(KERNEL):
                return entry
    fail(f"no compile command for {KERNEL} in {path}")


def report_command(entry):
    """The entry's compile command, writing no object, plus the report."""
    args = entry.get("arguments") or shlex.split(entry["command"])
    obj = args.index("-o")
    return (args[:obj] + args[obj + 2:] +
            ["-o", os.devnull, "-fopt-info-vec-all"])


def group_loop_lines(source):
    """1-based [first, last] lines of the group loop in `source`."""
    with open(source, encoding="utf-8") as f:
        lines = f.read().splitlines()
    starts = [i for i, line in enumerate(lines) if GROUP_LOOP in line]
    if len(starts) != 1:
        fail(f"expected one `{GROUP_LOOP}` in {source}, found {len(starts)}")
    depth = 0
    for i in range(starts[0], len(lines)):
        depth += lines[i].count("{") - lines[i].count("}")
        if depth == 0 and i > starts[0]:
            return starts[0] + 1, i + 1
    fail(f"no closing brace for the group loop in {source}")


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    entry = kernel_entry(sys.argv[1])
    source = entry["file"]
    first, last = group_loop_lines(source)

    proc = subprocess.run(report_command(entry), cwd=entry["directory"],
                          capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        fail(f"compiler exited {proc.returncode}:\n{proc.stderr[-2000:]}")

    pattern = re.compile(r"(?:^|/)" + re.escape(os.path.basename(source)) +
                         r":(\d+):\d+: (.*)$")
    vectorized = 0
    control_flow = 0
    for line in proc.stderr.splitlines():
        m = pattern.search(line)
        if not m or not first <= int(m.group(1)) <= last:
            continue
        if VECTORIZED in m.group(2):
            vectorized += 1
        if CONTROL_FLOW in m.group(2):
            control_flow += 1

    ok = vectorized > 0 and control_flow == 0
    print(f"{KERNEL}:{first}-{last} group loop: {vectorized} vectorized, "
          f"{control_flow} control-flow misses -> "
          f"{'ok' if ok else 'NOT VECTORIZED'}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
