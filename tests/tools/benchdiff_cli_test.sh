#!/bin/sh
# CLI exit-code contract for tools/benchdiff (the CI soft gate relies on
# it): 0 ok, 2 usage/IO/schema, 3 warn, 4 fail. Fixture trajectories are
# built inline; the verdict *logic* is unit-tested in
# tests/obs/bench_report_test.cpp — this exercises the binary end to end.
set -u

BENCHDIFF="$1"
DIR="$(mktemp -d)"
trap 'rm -rf "$DIR"' EXIT
rc=0

check() {
  desc="$1"; want="$2"; shift 2
  "$@" > "$DIR/out.txt" 2>&1
  got=$?
  if [ "$got" -ne "$want" ]; then
    echo "FAIL: $desc: exit $got, want $want"
    cat "$DIR/out.txt"
    rc=1
  else
    echo "ok: $desc (exit $got)"
  fi
}

entry() {  # entry VALUE -> one trajectory entry with one gated metric
  printf '{"git_sha":"t","date_utc":"2026-01-01T00:00:00Z","threads":1,"cpus":1,"repeat":1,"metrics":{"virtual.t":{"value":%s,"unit":"ms","source":"virtual","dir":"lower"}}}' "$1"
}

traj() {  # traj NAME FILE VALUES... -> trajectory file
  name="$1"; file="$2"; shift 2
  {
    printf '{"schema":1,"name":"%s","entries":[\n' "$name"
    sep=""
    for v in "$@"; do
      printf '%s' "$sep"; entry "$v"; sep=','
    done
    printf '\n]}\n'
  } > "$file"
}

traj base "$DIR/ok.json"   100 104
traj base "$DIR/warn.json" 100 115
traj base "$DIR/fail.json" 100 150
traj base "$DIR/old.json"  100
traj base "$DIR/new.json"  115
traj other "$DIR/other.json" 100
traj base "$DIR/single.json" 100
traj base "$DIR/empty.json"
echo 'not json' > "$DIR/garbage.json"
# Deep nesting must be refused by the reader's depth bound, not recursed
# into until the stack overflows.
printf '%50000s' '' | tr ' ' '[' > "$DIR/deep.json"

check "within thresholds"            0 "$BENCHDIFF" "$DIR/ok.json"
check "regression past --warn"       3 "$BENCHDIFF" "$DIR/warn.json"
check "regression past --fail"       4 "$BENCHDIFF" "$DIR/fail.json"
check "two-file compare warns"       3 "$BENCHDIFF" "$DIR/old.json" "$DIR/new.json"
check "custom thresholds downgrade"  0 "$BENCHDIFF" --warn 20 --fail 50 "$DIR/warn.json"
check "custom thresholds upgrade"    4 "$BENCHDIFF" --warn 5 --fail 10 "$DIR/warn.json"
check "name mismatch is schema error" 2 "$BENCHDIFF" "$DIR/old.json" "$DIR/other.json"
# A first-ever entry is a baseline, not a broken pipeline: exit 0 plus a
# "baseline recorded" note — both single-file and empty-before flavors.
check "single entry is baseline"     0 "$BENCHDIFF" "$DIR/single.json"
if ! grep -q "baseline recorded" "$DIR/out.txt"; then
  echo "FAIL: single-entry baseline: missing 'baseline recorded' note"
  cat "$DIR/out.txt"
  rc=1
fi
check "empty before-file is baseline" 0 "$BENCHDIFF" "$DIR/empty.json" "$DIR/single.json"
check "zero entries cannot compare"  2 "$BENCHDIFF" "$DIR/empty.json"
check "empty after-file is error"    2 "$BENCHDIFF" "$DIR/single.json" "$DIR/empty.json"
check "malformed file"               2 "$BENCHDIFF" "$DIR/garbage.json"
check "50000 nested arrays"          2 "$BENCHDIFF" "$DIR/deep.json"
check "missing file"                 2 "$BENCHDIFF" "$DIR/does-not-exist.json"
check "no arguments is usage"        2 "$BENCHDIFF"

exit "$rc"
