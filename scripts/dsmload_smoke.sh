#!/usr/bin/env bash
# Short verified load run against a live dsmsimd (wired into `make loadtest`
# and the dsmload-smoke CI job):
#
#   1. start the daemon,
#   2. closed-loop run: dsmload warms the universe, drives a seeded schedule
#      and self-verifies against /v1/stats + /v1/metrics,
#   3. repeat the identical schedule against the now-warm daemon and assert
#      the client-side counters are byte-identical (the determinism
#      contract from DESIGN.md section 17),
#   4. open-loop run at a fixed RPS, also verified,
#   5. self-hosted run of experiment requests, verified to have resolved
#      their points through the daemon's service,
#   6. check the cache-sizing study renders its full grid,
#   7. SIGTERM the daemon and assert a clean drain.
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
go build -o "$work/dsmload" ./cmd/dsmload
go build -o "$work/dsmsimctl" ./cmd/dsmsimctl

addr="127.0.0.1:18078"
url="http://$addr"

echo "== starting daemon =="
"$work/dsmsimd" -addr "$addr" -workers 4 2>"$work/daemon.log" &
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

common=(-addr "$url" -seed 9 -requests 120 -universe 12 -clients 6)

echo "== closed-loop run (warm + verify) =="
"$work/dsmload" "${common[@]}" -prefix smokeA \
  -counters-json "$work/c1.json" >"$work/run1.txt"
grep -q "verify ok" "$work/run1.txt"

echo "== identical schedule, counters byte-identical =="
"$work/dsmload" "${common[@]}" -prefix smokeB -warm=false \
  -counters-json "$work/c2.json" >"$work/run2.txt"
grep -q "verify ok" "$work/run2.txt"
cmp "$work/c1.json" "$work/c2.json"

echo "== open-loop run (verified) =="
"$work/dsmload" -addr "$url" -seed 10 -mode open -rps 800 -requests 80 \
  -universe 12 -warm=false -prefix smokeC >"$work/run3.txt"
grep -q "verify ok" "$work/run3.txt"

echo "== self-hosted experiment run resolves through the service (verified) =="
"$work/dsmload" -requests 6 -clients 2 -mix experiment=1,stats=1 \
  -experiment-name latency -k 8 >"$work/run4.txt"
grep -q "verify ok" "$work/run4.txt"

echo "== cache-sizing study renders its grid =="
"$work/dsmload" -study -study-csv >"$work/study.csv"
if [ "$(wc -l <"$work/study.csv")" -ne 10 ]; then
  echo "study grid has $(wc -l <"$work/study.csv") lines; want header + 9 rows" >&2
  cat "$work/study.csv" >&2
  exit 1
fi
head -1 "$work/study.csv" | grep -q "zipf,capacity,requests,hits,hit_rate"

echo "== SIGTERM: clean drain =="
kill -TERM "$daemon_pid"
wait "$daemon_pid"
status=$?
daemon_pid=""
if [ "$status" -ne 0 ]; then
  echo "daemon drain exited $status:" >&2
  cat "$work/daemon.log" >&2
  exit 1
fi
grep -q "drained cleanly" "$work/daemon.log"

echo "dsmload smoke: OK"
