#!/usr/bin/env bash
# Crash-safety smoke test: SIGKILL a checkpointed simulation mid-run, then
# relaunch it with --resume and require the stitched-together run to write
# per-job records byte-identical to an uninterrupted reference run.
#
# Two victims are exercised:
#   * a year-long replay under ADAPTIVE with a burst buffer (covers the
#     tier snapshot the policy reads between cycles), and
#   * a checkpoint-storm run — Young/Daly flush traffic, MTBF failures,
#     restart-from-checkpoint, deferrable flushes, and a burst buffer — so
#     the kill lands amid parked flushes, staged-but-not-durable markers,
#     and in-flight retry contexts, all of which must restore exactly.
#
# Usage: tools/kill_resume_smoke.sh [build-dir]
#   build-dir  defaults to ./build (must contain tools/iosched)
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-${repo_root}/build}"
iosched="${build_dir}/tools/iosched"
[[ -x "${iosched}" ]] || { echo "error: ${iosched} not built" >&2; exit 2; }

work="$(mktemp -d)"
trap 'rm -rf "${work}"' EXIT

run_case() {
  local label="$1"; shift
  local dir="${work}/${label}"
  mkdir -p "${dir}"

  echo "== [${label}] reference run (uninterrupted)"
  "${iosched}" "$@" --records "${dir}/reference.csv" > /dev/null

  echo "== [${label}] victim run (checkpointed, killed mid-flight)"
  "${iosched}" "$@" --records "${dir}/victim.csv" \
      --checkpoint-dir "${dir}/ckpt" --checkpoint-every 50000 &
  local victim=$!
  for _ in $(seq 1 2000); do
    compgen -G "${dir}/ckpt/ckpt-*.iosckpt" > /dev/null && break
    sleep 0.01
  done
  compgen -G "${dir}/ckpt/ckpt-*.iosckpt" > /dev/null || {
    echo "error: no checkpoint appeared before the victim finished" >&2
    exit 1
  }
  kill -KILL "${victim}"
  set +e
  wait "${victim}"
  local status=$?
  set -e
  if [[ "${status}" -ne 137 ]]; then
    echo "error: victim exited ${status} instead of dying to SIGKILL" >&2
    exit 1
  fi
  if [[ -f "${dir}/victim.csv" ]]; then
    echo "error: victim finished before the kill landed (records exist)" >&2
    exit 1
  fi
  echo "   killed pid ${victim}; checkpoints left behind:"
  ls "${dir}/ckpt"

  echo "== [${label}] resumed run"
  "${iosched}" "$@" --records "${dir}/resumed.csv" \
      --checkpoint-dir "${dir}/ckpt" --resume | tee "${dir}/resume.log"
  grep -q "resumed from" "${dir}/resume.log" || {
    echo "error: the relaunch did not resume from a checkpoint" >&2
    exit 1
  }

  echo "== [${label}] comparing per-job records"
  cmp "${dir}/reference.csv" "${dir}/resumed.csv" || {
    echo "error: resumed records differ from the reference" >&2
    exit 1
  }
  echo "PASS [${label}]: resumed run is byte-identical to the reference"
}

# A year-long replay runs for several seconds — a wide window to land the
# kill in — while the first checkpoint appears within milliseconds. The
# burst buffer makes the smoke cover ADAPTIVE's tier snapshot too: resuming
# must restore the cycle inputs exactly, or the policy's drain-backlog
# deferrals (and so the records) diverge after the resume.
run_case year simulate --workload 1 --days 365 --policy ADAPTIVE \
    --bb-capacity 4096 --bb-drain 50

# Mid-storm kill: a short application MTBF arms the full resilience stack
# (flush phases, failures, restart-from-checkpoint, 10-minute deferrals)
# and the burst buffer keeps absorbed flushes staged-but-not-durable when
# the SIGKILL lands.
run_case storm simulate --workload 1 --days 120 --policy ADAPTIVE \
    --app-ckpt-mtbf 7200 --bb-capacity 8192 --bb-drain 50

echo "PASS: all kill/resume cases are byte-identical to their references"
