# Daemon plumbing shared by the serving scripts (serve_smoke.sh,
# load_smoke.sh, load_soak.sh). Source it after setting addr (host:port).
# It makes a scratch directory $work, removed on exit, builds dsmsimctl
# into it, and defines
#
#   ctl ARGS...           dsmsimctl against the daemon at $addr;
#   start_daemon ARGS...  start dsmsimctl serve on $addr with ARGS and wait
#                         until it answers /healthz (stderr goes to
#                         $work/daemon.log);
#   stop_daemon           SIGTERM it and require a clean drain (exit 0).
#
# A daemon still running when the script exits is killed. The sourcing
# script runs under set -euo pipefail.

cd "$(dirname "${BASH_SOURCE[0]}")/.."
work="$(mktemp -d)"
daemon_pid=""
cleanup() {
  [ -n "$daemon_pid" ] && kill -9 "$daemon_pid" 2>/dev/null || true
  rm -rf "$work"
}
trap cleanup EXIT

echo "== building =="
go build -o "$work/dsmsimctl" ./cmd/dsmsimctl

url="http://$addr"
ctl() { "$work/dsmsimctl" -addr "$url" "$@"; }

start_daemon() {
  "$work/dsmsimctl" -addr "$addr" serve "$@" 2>"$work/daemon.log" &
  daemon_pid=$!
  for _ in $(seq 1 100); do
    if ctl health >/dev/null 2>&1; then
      return 0
    fi
    if ! kill -0 "$daemon_pid" 2>/dev/null; then
      echo "daemon exited before becoming healthy:" >&2
      cat "$work/daemon.log" >&2
      exit 1
    fi
    sleep 0.1
  done
  ctl health >/dev/null
}

stop_daemon() {
  kill -TERM "$daemon_pid"
  local status=0
  wait "$daemon_pid" || status=$?
  daemon_pid=""
  if [ "$status" -ne 0 ]; then
    echo "daemon drain exited $status:" >&2
    cat "$work/daemon.log" >&2
    exit 1
  fi
  grep -q "drained cleanly" "$work/daemon.log"
}
