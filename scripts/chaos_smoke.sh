#!/usr/bin/env bash
# chaos_smoke.sh — end-to-end fault-tolerance smoke over real processes.
#
# What it proves, with actual ascyserve binaries and actual signals:
#
#   1. Panic isolation: a get of the armed -chaospanickey kills only the
#      connection that sent it. The process keeps serving other
#      connections and counts the panic in handler_panics.
#   2. Drain stats: a SIGTERMed ascyserve that holds data drains, exits,
#      and prints its final stats line on the way down (the "last word" a
#      chaos harness reads post-mortem).
#
# The same hardening is pinned in-process by the internal/server tests
# (TestPanicIsolation, TestMaxConnsShed, TestShutdownDrain).
#
# Usage: scripts/chaos_smoke.sh
# Environment:
#   ASCYSERVE   path to ascyserve binary   (default: bin/ascyserve)
set -euo pipefail
cd "$(dirname "$0")/.."

ASCYSERVE=${ASCYSERVE:-bin/ascyserve}
RUNDIR=$(mktemp -d)

cleanup() {
  # Kill every server this script started.
  [ -n "${PANIC_PID:-}" ] && kill "$PANIC_PID" 2>/dev/null || true
  [ -n "${DRAIN_PID:-}" ] && kill "$DRAIN_PID" 2>/dev/null || true
  rm -rf "$RUNDIR"
}
trap cleanup EXIT

fail() {
  echo "FAIL: $*" >&2
  exit 1
}

# memcmd HOST:PORT COMMANDS... — pipe protocol lines into a server over
# /dev/tcp (no nc dependency) and print whatever comes back.
memcmd() {
  local addr=$1 host port
  shift
  host=${addr%:*}
  port=${addr##*:}
  exec 3<>"/dev/tcp/$host/$port" || return 1
  printf '%b' "$*" >&3
  timeout 5 cat <&3 || true
  exec 3>&- 3<&- || true
}

# --- 1. panic isolation ----------------------------------------------------
echo "== panic isolation =="
"$ASCYSERVE" -addr 127.0.0.1:0 -algo ht-clht-lb -quiet \
  -chaospanickey chaos-boom -addrfile "$RUNDIR/panic.addr" \
  > "$RUNDIR/panic.log" 2>&1 &
PANIC_PID=$!
for _ in $(seq 100); do [ -s "$RUNDIR/panic.addr" ] && break; sleep 0.1; done
[ -s "$RUNDIR/panic.addr" ] || fail "panic-test server never bound"
PADDR=$(cat "$RUNDIR/panic.addr")

# The armed key panics its handler; the connection dies mid-response.
memcmd "$PADDR" 'get chaos-boom\r\n' > /dev/null || true
kill -0 "$PANIC_PID" 2>/dev/null || fail "handler panic terminated ascyserve"
# A fresh connection must be served as if nothing happened...
out=$(memcmd "$PADDR" 'set k 0 0 2\r\nhi\r\nget k\r\nquit\r\n')
echo "$out" | grep -q "STORED" || fail "server not serving after panic: $out"
echo "$out" | grep -q "hi" || fail "stored value unreadable after panic: $out"
# ...and the panic must be on the books.
stats=$(memcmd "$PADDR" 'stats\r\nquit\r\n')
echo "$stats" | grep -q "STAT handler_panics 1" \
  || fail "handler_panics not counted: $(echo "$stats" | grep panics || true)"
kill "$PANIC_PID" && wait "$PANIC_PID" 2>/dev/null || true
unset PANIC_PID
echo "ok: panic isolated, counted, process survived"

# --- 2. drain stats on SIGTERM ----------------------------------------------
echo "== SIGTERM drain =="
"$ASCYSERVE" -addr 127.0.0.1:0 -algo ht-clht-lb -quiet \
  -addrfile "$RUNDIR/drain.addr" > "$RUNDIR/drain.log" 2>&1 &
DRAIN_PID=$!
for _ in $(seq 100); do [ -s "$RUNDIR/drain.addr" ] && break; sleep 0.1; done
[ -s "$RUNDIR/drain.addr" ] || fail "drain-test server never bound"
out=$(memcmd "$(cat "$RUNDIR/drain.addr")" 'set k 0 0 2\r\nhi\r\nquit\r\n')
echo "$out" | grep -q "STORED" || fail "server not serving before SIGTERM: $out"
kill -TERM "$DRAIN_PID"
# The drain budget is 5s; a clean drain exits 0.
wait "$DRAIN_PID" || fail "SIGTERMed ascyserve exited with status $?"
unset DRAIN_PID
grep "final stats:" "$RUNDIR/drain.log" \
  || fail "SIGTERMed ascyserve printed no final stats line: $(cat "$RUNDIR/drain.log")"
echo "ok: SIGTERM drained and left its final stats line"
echo "chaos smoke: all checks passed"
