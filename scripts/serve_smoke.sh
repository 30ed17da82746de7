#!/usr/bin/env bash
# End-to-end smoke for `dsmsimctl serve` (wired into `make smoke` and the
# serve-smoke CI job):
#
#   1. start the daemon with a data directory,
#   2. run the E4 latency, E19 offered-load and E9 application experiments
#      through it and assert each table is byte-identical to an in-process
#      run of the same dsmsimctl experiment command,
#   3. repeat each request and assert the cached reply is byte-identical,
#   4. submit a point job and check it completes with zero duplicate runs,
#   5. SIGTERM the daemon and assert a clean (exit 0) drain that leaves the
#      persisted results, an empty jobs/ and nothing else in the data directory,
#   6. run in-process experiments twice over one -data directory and assert
#      identical tables with zero engine runs the second time (for E19, all 6
#      points from the store; for E23, all 8 replays),
#   7. start the daemon over that directory and assert it serves the same
#      table with zero engine runs.
set -euo pipefail

addr="127.0.0.1:18077"
source "$(dirname "$0")/daemon.sh"

echo "== starting daemon =="
start_daemon -data "$work/data" -workers 4

for exp in latency load apps; do
  echo "== $exp: experiment byte-identity (daemon vs in process) =="
  "$work/dsmsimctl" experiment -name "$exp" -k 8 -trials 2 >"$work/direct.txt" 2>/dev/null
  ctl experiment -name "$exp" -k 8 -trials 2 >"$work/served.txt"
  diff -u "$work/direct.txt" "$work/served.txt"

  echo "== $exp: cached repeat stays byte-identical =="
  ctl experiment -name "$exp" -k 8 -trials 2 >"$work/served2.txt"
  cmp "$work/served.txt" "$work/served2.txt"
done

echo "== point job =="
ctl run -k 8 -scheme MI-MA-ec -d 6 -pattern random -trials 2 -seed 1 >"$work/job.json"
grep -q '"completed": 1' "$work/job.json"

echo "== stats: no duplicate engine runs =="
ctl stats >"$work/stats.json"
grep -q '"duplicate_runs": 0' "$work/stats.json"

echo "== SIGTERM: clean drain =="
stop_daemon

echo "== durable state: results/ filled, jobs/ empty, nothing else =="
ls "$work/data/results/"*.json >/dev/null
test -d "$work/data/jobs"
test -z "$(ls -A "$work/data/jobs")"
test "$(ls -A "$work/data" | sort | tr '\n' ' ')" = "jobs results "

echo "== in-process -data: a rerun runs nothing =="
# rerun NAME TALLY ARGS...: run experiment NAME twice over $work/batch; the
# second run must print the same table and end with the stderr line TALLY.
rerun() {
  local name=$1 tally=$2
  shift 2
  for i in 1 2; do
    "$work/dsmsimctl" experiment -name "$name" -data "$work/batch" "$@" \
      >"$work/$name$i.txt" 2>"$work/$name$i.err"
  done
  cmp "$work/${name}1.txt" "$work/${name}2.txt"
  grep -q " $tally\$" "$work/${name}2.err"
}
rerun cons '0 run'
rerun load '6 points from the store, 0 run' -k 8
rerun sharing '8 points from the store, 0 run'

echo "== serve over the batch directory serves it with zero engine runs =="
start_daemon -data "$work/batch" -workers 4
ctl experiment -name cons >"$work/batch_served.txt"
cmp "$work/cons1.txt" "$work/batch_served.txt"
ctl stats >"$work/batch_stats.json"
grep -q '"runs": 0,' "$work/batch_stats.json"
stop_daemon

echo "serve smoke: OK"
