#!/bin/sh
# Two-process loopback smoke: argusd serves a 100-object fleet, and
# argusctl runs one discovery round against it under a 10% send-side
# loss shim, twice: the second run orders a shutdown and leaves WITHOUT
# closing its connection. The test passes only if
#   * each run's round resolves every object ("delivery_ratio":1, the
#     JSON form of exactly 1) — the second run must not replay the first
#     run's nonces into the daemon's replay windows,
#   * each run's engine-level result set matches an in-process simulator
#     run (--compare-sim), and
#   * the daemon's keep-alive reaper retires the abandoned connection so
#     it exits with zero live conns (exit code 0, "conns_live":0).
#
# Usage: daemon_smoke_test.sh <argusd> <argusctl> [objects] [loss]
set -eu

ARGUSD="$1"
ARGUSCTL="$2"
OBJECTS="${3:-100}"
LOSS="${4:-0.1}"
SEED=17

WORK="$(mktemp -d "${TMPDIR:-/tmp}/argus_smoke.XXXXXX")"
trap 'kill "$DPID" 2>/dev/null || true; rm -rf "$WORK"' EXIT INT TERM

"$ARGUSD" --port 0 --objects "$OBJECTS" --seed "$SEED" \
  --keepalive-ms 300 --keepalive-timeout-ms 1200 \
  --snapshot-dir "$WORK" \
  > "$WORK/daemon.out" 2> "$WORK/daemon.err" &
DPID=$!

# Wait for the daemon to announce its ephemeral port.
PORT=""
i=0
while [ $i -lt 100 ]; do
  PORT="$(sed -n 's/^LISTENING \([0-9]*\)$/\1/p' "$WORK/daemon.out" 2>/dev/null | head -n 1)"
  [ -n "$PORT" ] && break
  if ! kill -0 "$DPID" 2>/dev/null; then
    echo "FAIL: argusd died before listening" >&2
    cat "$WORK/daemon.err" >&2
    exit 1
  fi
  i=$((i + 1))
  sleep 0.2
done
if [ -z "$PORT" ]; then
  echo "FAIL: argusd never printed LISTENING" >&2
  exit 1
fi

# run_ctl NAME [extra argusctl flags...]
run_ctl() {
  name="$1"
  shift
  if ! "$ARGUSCTL" --connect "127.0.0.1:$PORT" --objects "$OBJECTS" \
      --seed "$SEED" --loss "$LOSS" --compare-sim "$@" \
      > "$WORK/$name.out" 2> "$WORK/$name.err"; then
    echo "FAIL: argusctl ($name) reported an incomplete or mismatched round" >&2
    cat "$WORK/$name.out" "$WORK/$name.err" >&2
    exit 1
  fi
}
run_ctl ctl1
run_ctl ctl2 --shutdown

# The daemon must exit 0 on its own: shutdown frame seen, every
# connection reaped (the FIN-less client ages out on keep-alive).
DSTATUS=0
wait "$DPID" || DSTATUS=$?
DPID=""
if [ "$DSTATUS" -ne 0 ]; then
  echo "FAIL: argusd exited $DSTATUS (leaked connections?)" >&2
  cat "$WORK/daemon.out" "$WORK/daemon.err" >&2
  exit 1
fi

DAEMON_LINE="$(tail -n 1 "$WORK/daemon.out")"
for name in ctl1 ctl2; do
  CTL_LINE="$(cat "$WORK/$name.out")"
  echo "$name:   $CTL_LINE"
  case "$CTL_LINE" in
    *'"delivery_ratio":1,'*) ;;
    *) echo "FAIL: $name delivery_ratio != 1.0" >&2; exit 1 ;;
  esac
  case "$CTL_LINE" in
    *'"sim_match":true'*) ;;
    *) echo "FAIL: $name result set does not match the simulator" >&2; exit 1 ;;
  esac
done
echo "daemon: $DAEMON_LINE"

case "$DAEMON_LINE" in
  *'"conns_live":0,'*) ;;
  *) echo "FAIL: daemon leaked connections" >&2; exit 1 ;;
esac
if [ ! -s "$WORK/fleet.snap" ]; then
  echo "FAIL: no fleet snapshot written" >&2
  exit 1
fi

echo "PASS: $OBJECTS objects at ${LOSS} loss, two runs, zero leaked conns"
