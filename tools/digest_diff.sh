#!/usr/bin/env bash
# The bit gate for a change that must not move any answer: builds
# examples/answer_digest from BASE_REF (default HEAD) and from the working
# tree, diffs the two digests row by row and prints how many rows moved.
# Run from anywhere inside the repository:
#
#   tools/digest_diff.sh            # working tree against HEAD
#   tools/digest_diff.sh main~2     # against another revision
#
# A row is one labeled answer; it moved when its label is in both digests
# with different bits. Rows only the working tree prints are reported as
# added. Exits 0 when no row moved or disappeared, 1 otherwise, 2 when a
# build failed. BASE_REF is exported with `git archive` into a temporary
# directory, so the repository itself is never touched; the working-tree
# build stays in build-digest/ for fast reruns.
set -euo pipefail

base_ref="${1:-HEAD}"
root="$(git rev-parse --show-toplevel)"
tmp="$(mktemp -d)"
trap 'rm -rf "${tmp}"' EXIT

# Builds answer_digest from source dir $1 in build dir $2, printing to $3.
digest() {
  local flags=(-DCMAKE_BUILD_TYPE=Release -DPASS_BUILD_TESTS=OFF
               -DPASS_BUILD_BENCH=OFF)
  if ! cmake -S "$1" -B "$2" "${flags[@]}" >"${tmp}/cmake.log" 2>&1 ||
     ! cmake --build "$2" -j "$(nproc)" --target answer_digest \
         >>"${tmp}/cmake.log" 2>&1; then
    cat "${tmp}/cmake.log" >&2
    echo "digest_diff: build of $1 failed" >&2
    exit 2
  fi
  "$2/answer_digest" >"$3" 2>/dev/null
}

git -C "${root}" rev-parse --verify --quiet "${base_ref}^{commit}" \
  >/dev/null || { echo "digest_diff: unknown revision ${base_ref}" >&2
                  exit 2; }
mkdir "${tmp}/base"
git -C "${root}" archive "${base_ref}" | tar -x -C "${tmp}/base"
digest "${tmp}/base" "${tmp}/base-build" "${tmp}/base.txt"
digest "${root}" "${root}/build-digest" "${tmp}/work.txt"

# Keyed by label (everything before " value="), so added rows do not
# shift the comparison of the rows after them.
awk -v base_ref="${base_ref}" '
  { label = $0; sub(/ value=.*/, "", label) }
  NR == FNR { base[label] = $0; next }
  {
    seen[label] = 1
    if (!(label in base)) { added++ }
    else if (base[label] != $0) {
      if (moved++ < 10) print "moved: " $0
    }
  }
  END {
    for (label in base) if (!(label in seen)) removed++
    printf "%d of %d rows moved against %s (%d added, %d removed)\n",
           moved, length(base), base_ref, added, removed
    exit (moved + removed > 0)
  }
' "${tmp}/base.txt" "${tmp}/work.txt"
