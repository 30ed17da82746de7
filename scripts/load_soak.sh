#!/usr/bin/env bash
# Soak / crash-recovery test for the serving stack (wired into `make soak`):
# kill a daemon mid-load and prove nothing is lost. The data directory holds
# two things only: results/ (the content-addressed store, which is also the
# checkpoint) and jobs/<id>.json, one file per accepted-but-unfinished job.
#
#   A. start a durable daemon with one worker and a short drain grace, fire
#      an async-only dsmsimctl load schedule with -no-async-wait
#      (submissions land, jobs keep running), then SIGTERM while the engine
#      is still chewing — the grace expires, in-flight jobs are interrupted
#      and keep their files,
#   B. restart over the same data dir, wait for the resumed jobs to finish,
#      and assert zero duplicate engine runs and zero failed jobs,
#   C. run the identical schedule uninterrupted against a fresh daemon and
#      assert the persisted result set is byte-identical — the interrupted
#      path lost nothing and invented nothing.
set -euo pipefail

addr="127.0.0.1:18079"
source "$(dirname "$0")/daemon.sh"

# One schedule for all three phases: async-only submissions over a small
# universe of deliberately heavy points (k=32 meshes, 400 trials, ~150ms of
# engine time each) so a single worker is still busy when the SIGTERM lands.
loadargs=(-seed 7 -requests 36 -universe 12 -mix async=1
  -k 32 -d 16 -trials 400 -warm=false -prefix soak)
# One worker and a short drain grace, so the SIGTERM interrupts jobs.
daemonargs=(-workers 1 -drain-grace 100ms)

only_durable_artefacts() { # $1 = data dir
  local extra
  extra="$(find "$1" -mindepth 1 ! -path "$1/results" ! -path "$1/results/*.json" \
    ! -path "$1/jobs" ! -path "$1/jobs/*.json")"
  if [ -n "$extra" ]; then
    echo "data directory holds more than results/*.json and jobs/*.json:" >&2
    echo "$extra" >&2
    exit 1
  fi
}

wait_jobs_done() {
  # NB: grep -c over a here-string, not `echo | grep -q`: under pipefail a
  # -q early exit SIGPIPEs the echo and poisons the pipeline status.
  for _ in $(seq 1 600); do
    jobs_json="$(ctl jobs)"
    ids=$(grep -c '"id"' <<<"$jobs_json" || true)
    running=$(grep -c '"state": "running"' <<<"$jobs_json" || true)
    if [ "$ids" -gt 0 ] && [ "$running" -eq 0 ]; then
      return 0
    fi
    sleep 0.1
  done
  echo "jobs never finished:" >&2
  ctl jobs >&2
  exit 1
}

echo "== A: async load, SIGTERM mid-execution =="
start_daemon -data "$work/dataA" "${daemonargs[@]}"
ctl load "${loadargs[@]}" -no-async-wait -verify=false >"$work/runA.txt"
stop_daemon
only_durable_artefacts "$work/dataA"
interrupted=$(find "$work/dataA/jobs" -name 'soak-a*.json' | wc -l)
if [ "$interrupted" -eq 0 ]; then
  echo "no interrupted jobs under jobs/; the kill landed after all work finished" >&2
  ls -la "$work/dataA/jobs" >&2
  exit 1
fi
echo "   interrupted jobs journaled: $interrupted"

echo "== B: restart resumes the interrupted jobs to completion =="
start_daemon -data "$work/dataA" "${daemonargs[@]}"
wait_jobs_done
ctl stats >"$work/statsB.json"
grep -q '"duplicate_runs": 0' "$work/statsB.json"
grep -q '"jobs_failed": 0' "$work/statsB.json"
stop_daemon
only_durable_artefacts "$work/dataA"
if [ -n "$(ls -A "$work/dataA/jobs")" ]; then
  echo "jobs/ still holds unfinished jobs after resume:" >&2
  ls -la "$work/dataA/jobs" >&2
  exit 1
fi

echo "== C: uninterrupted control run =="
start_daemon -data "$work/dataB" "${daemonargs[@]}"
ctl load "${loadargs[@]}" >"$work/runC.txt"
grep -q "verify ok" "$work/runC.txt"
stop_daemon
only_durable_artefacts "$work/dataB"

echo "== interrupted and uninterrupted result sets are byte-identical =="
diff -r "$work/dataA/results" "$work/dataB/results"

echo "load soak: OK"
