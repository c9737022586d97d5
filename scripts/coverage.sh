#!/usr/bin/env bash
# coverage.sh — line-coverage report for the tier-1 suite.
#
#   scripts/coverage.sh [build-dir]
#
# Configures a -DCMAKE_BUILD_TYPE=Coverage tree (gcc --coverage, -O0),
# builds it, runs `ctest -L tier1`, harvests gcov data and hands it to
# scripts/coverage_report.py, which writes
#
#   <build-dir>/coverage/index.html   per-file drill-down
#   <build-dir>/coverage/summary.txt  per-directory table (also stdout)
#
# and FAILS (nonzero exit) when src/coding, src/sim, src/simd, src/alu,
# src/lut or src/obs drops below its line-coverage floor — those trees
# carry the paper's correctness claims, the only lane-sliced engine, the
# scalar ALU stack every backend is checked against and the one
# accounting and timing substrate, so untested code there is a review
# blocker, not a statistic.
# Floors live in coverage_report.py next to the calibration notes.
#
# Uses only gcov + python3 (both baked into the image); no gcovr/lcov.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-${repo_root}/build-cov}"

cmake -S "${repo_root}" -B "${build_dir}" -DCMAKE_BUILD_TYPE=Coverage
cmake --build "${build_dir}" -j"$(nproc)"

# tier1 only: the bounded must-stay-green suite defines the floor; soak
# minutes should never be needed to keep core trees covered.
ctest --test-dir "${build_dir}" -L tier1 --output-on-failure -j"$(nproc)"

gcov_dir="${build_dir}/gcov"
rm -rf "${gcov_dir}"
mkdir -p "${gcov_dir}"
(
  cd "${gcov_dir}"
  # -p preserves the full path in the .gcov file name, so two foo.cpp in
  # different directories cannot clobber each other's report.
  find "${build_dir}" -name '*.gcda' -print0 |
    xargs -0 -r gcov -p --source-prefix "${repo_root}" >/dev/null
)

python3 "${repo_root}/scripts/coverage_report.py" \
  --gcov-dir "${gcov_dir}" \
  --out-dir "${build_dir}/coverage"
