#!/usr/bin/env bash
# Chaos soak: run N seeded randomized fault schedules under every policy
# with the from-scratch invariant checker on, and fail on any invariant
# violation, stuck run, engine error, non-reproducible same-seed digest, or
# a resume from the run's own checkpoint that diverges.
#
# Usage: tools/chaos_soak.sh [build-dir] [schedules] [csv-out]
#   build-dir  defaults to ./build (must contain tools/iosched)
#   schedules  defaults to 50 randomized fault schedules
#   csv-out    defaults to <build-dir>/chaos_summary.csv
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-${repo_root}/build}"
schedules="${2:-50}"
csv_out="${3:-${build_dir}/chaos_summary.csv}"
iosched="${build_dir}/tools/iosched"
[[ -x "${iosched}" ]] || { echo "error: ${iosched} not built" >&2; exit 2; }

echo "== chaos soak: ${schedules} schedules x all policies (run, re-run, resume)"
"${iosched}" chaos --chaos-schedules "${schedules}" --chaos-out "${csv_out}"

echo "PASS: chaos soak clean (summary: ${csv_out})"
