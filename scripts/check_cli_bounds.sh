#!/usr/bin/env bash
# check_cli_bounds.sh — front ends must refuse impossible inputs.
#
#   scripts/check_cli_bounds.sh NBXSIM BENCH_SIMD NBXD BENCH_SERVE
#
# Every case must exit 2 with a diagnostic naming the offending flag
# instead of running:
#   * nbxsim and bench_simd — fault/sweep.hpp's sweep bounds: a finite
#     --percent in [0, 100], --trials in [1, 10^6]. Past the front end
#     only an assert that NDEBUG drops guards the range: a run at 150%
#     would draw no fault and report "100.00% correct", and a negative
#     trial count aborts.
#   * nbxsim's own flags — a --policy name nbxd's wire format knows
#     (serve/wire.hpp's policy_from_name), a --burst in the wire's
#     [1, 64], --chips >= 1 and a --defects density in [0, 1]. An
#     unknown policy used to run round-nearest, and --chips 0 printed
#     "0.00% correct ... 0 chips".
#   * nbxd and bench_serve — serve/service.hpp's service_flag_message:
#     --workers in [1, 16], and no negative count. Cast straight to
#     unsigned, --workers -1 asks for 2^32 - 1 threads, and nbxd's
#     --queue/--cache -1 would never shed or evict.
#
# Each nbxd and bench_serve case also carries a second error that a
# binary without the bound stops on first (nbxd: no --socket; bench_serve:
# --repeats under its gate), so a regression fails the case instead of
# starting billions of threads. They run under `timeout` as well: an
# nbxd that accepted its flags would wait for SIGINT.
#
# Runs every case, printing each verdict; exits 1 if any failed.
set -u

nbxsim="$1"
bench_simd="$2"
nbxd="$3"
bench_serve="$4"
failed=0

expect_rejected() {
  local flag="$1"
  shift
  local err status
  err="$(timeout 30 "$@" 2>&1 >/dev/null)"
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
expect_rejected policy "${nbxsim}" --alu aluss --percent 2 --policy bogus
for l in 0 65; do
  expect_rejected burst "${nbxsim}" --alu aluss --percent 2 \
    --policy burst --burst "${l}"
done
expect_rejected chips "${nbxsim}" --alu aluts --defects 0.01 --chips 0
for d in 1.5 -0.5 nan; do
  expect_rejected defects "${nbxsim}" --alu aluts --defects "${d}"
done
expect_rejected percent "${bench_simd}" --smoke --percent 150
expect_rejected trials "${bench_simd}" --smoke --trials 0

for w in -1 0 17 4294967295; do
  expect_rejected workers "${nbxd}" --workers "${w}"
  expect_rejected workers "${bench_serve}" --smoke --workers "${w}" \
    --repeats 5
done
for flag in queue cache min-shard retry-ms; do
  expect_rejected "${flag}" "${nbxd}" "--${flag}" -1
done
expect_rejected retry-ms "${nbxd}" --retry-ms 4294967296
expect_rejected specs "${bench_serve}" --smoke --specs -1 --repeats 5
expect_rejected repeats "${bench_serve}" --smoke --repeats -1

exit "${failed}"
