#!/bin/sh
# Golden-digest gate for one builtin sweep grid: run tools/sweep on it and
# compare the per-run digests byte for byte with the committed file. A
# digest covers a run's trace, counters and report, so any behavioural
# drift fails here. After an intended change, regenerate the file with
#   sweep --grid GRID --out tests/harness/golden/GRID --quiet
# (it writes GRID.digests; delete the GRID.jsonl it writes beside it).
#
#   golden_grid_test.sh SWEEP GOLDEN_DIR GRID
set -u

SWEEP="$1"
GOLDEN="$2/$3.digests"
DIR="$(mktemp -d)"
trap 'rm -rf "$DIR"' EXIT

"$SWEEP" --grid "$3" --threads 2 --out "$DIR/$3" --quiet > /dev/null || {
  echo "FAIL: sweep --grid $3 exited $?"
  exit 1
}
if ! cmp "$DIR/$3.digests" "$GOLDEN"; then
  diff "$GOLDEN" "$DIR/$3.digests"
  exit 1
fi
echo "golden $3: $(wc -l < "$GOLDEN") runs match"
