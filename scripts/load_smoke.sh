#!/usr/bin/env bash
# Short verified load run against a live `dsmsimctl serve` (wired into
# `make loadtest` and the load-smoke CI job):
#
#   1. start the daemon,
#   2. closed-loop run: dsmsimctl load warms the universe, drives a seeded
#      schedule and self-verifies against /v1/stats + /v1/metrics,
#   3. repeat the identical schedule against the now-warm daemon and assert
#      the client-side counters are byte-identical (the determinism
#      contract from DESIGN.md section 17),
#   4. open-loop run at a fixed RPS, also verified,
#   5. self-hosted run of experiment requests, verified to have resolved
#      their points through the daemon's service,
#   6. check the cache-sizing study renders its full grid,
#   7. SIGTERM the daemon and assert a clean drain.
set -euo pipefail

addr="127.0.0.1:18078"
source "$(dirname "$0")/daemon.sh"

echo "== starting daemon =="
start_daemon -workers 4

common=(-seed 9 -requests 120 -universe 12 -clients 6)

echo "== closed-loop run (warm + verify) =="
ctl load "${common[@]}" -prefix smokeA \
  -counters-json "$work/c1.json" >"$work/run1.txt"
grep -q "verify ok" "$work/run1.txt"

echo "== identical schedule, counters byte-identical =="
ctl load "${common[@]}" -prefix smokeB -warm=false \
  -counters-json "$work/c2.json" >"$work/run2.txt"
grep -q "verify ok" "$work/run2.txt"
cmp "$work/c1.json" "$work/c2.json"

echo "== open-loop run (verified) =="
ctl load -seed 10 -mode open -rps 800 -requests 80 \
  -universe 12 -warm=false -prefix smokeC >"$work/run3.txt"
grep -q "verify ok" "$work/run3.txt"

echo "== self-hosted experiment run resolves through the service (verified) =="
"$work/dsmsimctl" load -requests 6 -clients 2 -mix experiment=1,stats=1 \
  -experiment-name latency -k 8 >"$work/run4.txt"
grep -q "verify ok" "$work/run4.txt"

echo "== cache-sizing study renders its grid =="
"$work/dsmsimctl" study -csv >"$work/study.csv"
if [ "$(wc -l <"$work/study.csv")" -ne 10 ]; then
  echo "study grid has $(wc -l <"$work/study.csv") lines; want header + 9 rows" >&2
  cat "$work/study.csv" >&2
  exit 1
fi
head -1 "$work/study.csv" | grep -q "zipf,capacity,requests,hits,hit_rate"

echo "== SIGTERM: clean drain =="
stop_daemon

echo "load smoke: OK"
