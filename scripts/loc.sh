#!/usr/bin/env bash
# loc.sh — print Go line counts (raw lines, as wc -l counts them) for
# non-test and test files, excluding the separate benchmark module under
# bench/ and its build directory.
#
# Usage:
#   scripts/loc.sh [dir ...]
#
# With no arguments it prints the repo-wide counts. Each dir argument
# (relative to the repo root, e.g. internal/jobs) adds a line with that
# directory's counts, subdirectories included.
set -euo pipefail

cd "$(dirname "$0")/.."

# count <dir> <name-test|name-nontest> prints the summed line count.
count() {
  local dir=$1 kind=$2
  local -a sel
  if [ "$kind" = test ]; then
    sel=(-name '*_test.go')
  else
    sel=(! -name '*_test.go')
  fi
  find "$dir" -name '*.go' "${sel[@]}" \
    -not -path './bench/*' -not -path './.bench_build/*' -print0 |
    xargs -0 -r cat | wc -l
}

report() {
  printf '%-24s non-test %6d   test %6d\n' "$1" "$(count "$2" nontest)" "$(count "$2" test)"
}

report "repo (outside bench/)" .
for dir in "$@"; do
  report "$dir" "./${dir#./}"
done
