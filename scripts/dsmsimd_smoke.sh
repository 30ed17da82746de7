#!/usr/bin/env bash
# End-to-end smoke for the dsmsimd daemon (wired into `make smoke` and the
# dsmsimd-smoke CI job):
#
#   1. start the daemon with a data directory,
#   2. run the E4 latency and E19 offered-load experiments through it and
#      assert each table is byte-identical to a direct invalsweep run,
#   3. repeat each request and assert the cached reply is byte-identical,
#   4. submit a point job and check it completes with zero duplicate runs,
#   5. SIGTERM the daemon and assert a clean (exit 0) drain that leaves the
#      persisted results, an empty jobs/ and nothing else in the data directory,
#   6. run invalsweep twice over one -data directory and assert identical
#      tables with zero engine runs the second time (for E19, all 12 points
#      from the store),
#   7. start the daemon over that directory and assert it serves the same
#      table with zero engine runs.
set -euo pipefail

cd "$(dirname "$0")/.."
work="$(mktemp -d)"
daemon_pid=""
cleanup() {
  [ -n "$daemon_pid" ] && kill -9 "$daemon_pid" 2>/dev/null || true
  rm -rf "$work"
}
trap cleanup EXIT

echo "== building =="
go build -o "$work/dsmsimd" ./cmd/dsmsimd
go build -o "$work/dsmsimctl" ./cmd/dsmsimctl
go build -o "$work/invalsweep" ./cmd/invalsweep

addr="127.0.0.1:18077"
url="http://$addr"

# start_daemon DATA_DIR: start dsmsimd over DATA_DIR and wait until healthy.
start_daemon() {
  "$work/dsmsimd" -addr "$addr" -data "$1" -workers 4 2>"$work/daemon.log" &
  daemon_pid=$!
  for _ in $(seq 1 100); do
    if "$work/dsmsimctl" -addr "$url" health >/dev/null 2>&1; then
      break
    fi
    if ! kill -0 "$daemon_pid" 2>/dev/null; then
      echo "daemon exited before becoming healthy:" >&2
      cat "$work/daemon.log" >&2
      exit 1
    fi
    sleep 0.1
  done
  "$work/dsmsimctl" -addr "$url" health >/dev/null
}

# stop_daemon: SIGTERM the daemon and require a clean drain.
stop_daemon() {
  kill -TERM "$daemon_pid"
  status=0
  wait "$daemon_pid" || status=$?
  daemon_pid=""
  if [ "$status" -ne 0 ]; then
    echo "daemon drain exited $status:" >&2
    cat "$work/daemon.log" >&2
    exit 1
  fi
  grep -q "drained cleanly" "$work/daemon.log"
}

echo "== starting daemon =="
start_daemon "$work/data"

for exp in latency load; do
  echo "== $exp: experiment byte-identity (daemon vs invalsweep) =="
  "$work/invalsweep" -experiment "$exp" -k 8 -trials 2 -progress=false >"$work/direct.txt"
  "$work/dsmsimctl" -addr "$url" experiment -name "$exp" -k 8 -trials 2 >"$work/served.txt"
  diff -u "$work/direct.txt" "$work/served.txt"

  echo "== $exp: cached repeat stays byte-identical =="
  "$work/dsmsimctl" -addr "$url" experiment -name "$exp" -k 8 -trials 2 >"$work/served2.txt"
  cmp "$work/served.txt" "$work/served2.txt"
done

echo "== point job =="
"$work/dsmsimctl" -addr "$url" run \
  -k 8 -scheme MI-MA-pa -d 6 -pattern random -trials 2 -seed 1 >"$work/job.json"
grep -q '"completed": 1' "$work/job.json"

echo "== stats: no duplicate engine runs =="
"$work/dsmsimctl" -addr "$url" stats >"$work/stats.json"
grep -q '"duplicate_runs": 0' "$work/stats.json"

echo "== SIGTERM: clean drain =="
stop_daemon

echo "== durable state: results/ filled, jobs/ empty, nothing else =="
ls "$work/data/results/"*.json >/dev/null
test -d "$work/data/jobs"
test -z "$(ls -A "$work/data/jobs")"
test "$(ls -A "$work/data" | sort | tr '\n' ' ')" = "jobs results "

echo "== invalsweep -data: a rerun runs nothing =="
sweep() {
  "$work/invalsweep" -experiment torus -k 8 -trials 2 -progress=false -data "$work/batch"
}
sweep >"$work/batch1.txt" 2>"$work/batch1.err"
sweep >"$work/batch2.txt" 2>"$work/batch2.err"
cmp "$work/batch1.txt" "$work/batch2.txt"
grep -q ' 0 run$' "$work/batch2.err"
load() {
  "$work/invalsweep" -experiment load -k 8 -progress=false -data "$work/batch"
}
load >"$work/load1.txt" 2>"$work/load1.err"
load >"$work/load2.txt" 2>"$work/load2.err"
cmp "$work/load1.txt" "$work/load2.txt"
grep -q ' 12 points from the store, 0 run$' "$work/load2.err"

echo "== dsmsimd over the batch directory serves it with zero engine runs =="
start_daemon "$work/batch"
"$work/dsmsimctl" -addr "$url" experiment -name torus -k 8 -trials 2 >"$work/batch_served.txt"
cmp "$work/batch1.txt" "$work/batch_served.txt"
"$work/dsmsimctl" -addr "$url" stats >"$work/batch_stats.json"
grep -q '"runs": 0,' "$work/batch_stats.json"
stop_daemon

echo "dsmsimd smoke: OK"
