#!/usr/bin/env bash
# check_cli_bounds.sh — front ends must refuse impossible sweep inputs.
#
#   scripts/check_cli_bounds.sh NBXSIM BENCH_SIMD
#
# Every case must exit 2 with a diagnostic naming the offending flag
# (fault/sweep.hpp's bounds: a finite --percent in [0, 100], --trials in
# [1, 10^6]) instead of running. Past the front end only an assert that
# NDEBUG drops guards the range: a run at 150% would draw no fault and
# report "100.00% correct", and a negative trial count aborts. Runs
# every case, printing each verdict; exits 1 if any failed.
set -u

nbxsim="$1"
bench_simd="$2"
failed=0

expect_rejected() {
  local flag="$1"
  shift
  local err status
  err="$("$@" 2>&1 >/dev/null)"
  status=$?
  if [[ ${status} -ne 2 ]]; then
    echo "FAIL (exit ${status}, want 2): $*"
    failed=1
  elif [[ "${err}" != *"--${flag}"* ]]; then
    echo "FAIL (diagnostic does not name --${flag}): $*"
    echo "  ${err}"
    failed=1
  else
    echo "ok: $*"
  fi
}

for p in 150 -5 nan inf abc; do
  expect_rejected percent "${nbxsim}" --alu aluns --percent "${p}"
done
for t in 0 -1 1000001 x; do
  expect_rejected trials "${nbxsim}" --alu aluns --trials "${t}"
done
expect_rejected percent "${bench_simd}" --smoke --percent 150
expect_rejected trials "${bench_simd}" --smoke --trials 0

exit "${failed}"
