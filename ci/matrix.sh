#!/usr/bin/env bash
# Build-and-test matrix: the release build at both SIMD dispatch levels a
# host runs (AVX2 on x86-64, where the CPU has it, and the scalar
# reference), plus the sanitizer configurations from README.md.
# Each leg is an independent build tree under build-matrix/ so legs can be
# re-run individually:
#
#   ci/matrix.sh                 # all legs
#   ci/matrix.sh release tsan    # just these legs
#
# Legs:
#   release       Release build with -DINFRAME_WERROR=ON (src, tests,
#                 benches and examples must build warning-free), full
#                 ctest suite at the auto-detected vector level, then the
#                 tier-1 suites again with INFRAME_SIMD=scalar — the
#                 scalar dispatch path must stay green, not just
#                 parity-tested (a kernel whose vector path works but
#                 whose scalar path rotted would otherwise only fail on
#                 non-SIMD hosts).
#   tsan          -DINFRAME_SANITIZE=thread,    unit+pipeline+simd+fault+property+telemetry labels
#   asan          -DINFRAME_SANITIZE=address,   unit+pipeline+simd+fault+property+telemetry labels
#   ubsan         -DINFRAME_SANITIZE=undefined, unit+pipeline+simd+fault+property+telemetry labels
#   perfbench     python3 perfbench/selftest.py: builds src/ as a public-API
#                 client the way the benchmark does (perfbench/run.py, into
#                 .bench_build/) and checks every workload's result schema
#
# Every sanitizer leg also re-runs the simd label under INFRAME_SIMD=scalar:
# the scalar reference kernels are exactly what the differential harness
# trusts, so they get sanitizer coverage at both dispatch levels.

set -euo pipefail
cd "$(dirname "$0")/.."

legs=("$@")
if [ ${#legs[@]} -eq 0 ]; then
    legs=(release tsan asan ubsan perfbench)
fi

jobs="$(nproc 2>/dev/null || echo 2)"

run_leg() {
    local name="$1"
    local sanitize="$2"
    local build="build-matrix/${name}"
    echo "=== leg: ${name} (sanitize='${sanitize}') ==="
    local werror=OFF
    if [ "${name}" = release ]; then werror=ON; fi
    cmake -B "${build}" -S . -DCMAKE_BUILD_TYPE=Release \
          -DINFRAME_SANITIZE="${sanitize}" -DINFRAME_WERROR="${werror}" >/dev/null
    cmake --build "${build}" -j "${jobs}"
    if [ "${name}" = release ]; then
        ctest --test-dir "${build}" --output-on-failure -j "${jobs}"
        echo "--- ${name}: tier-1 suites again with INFRAME_SIMD=scalar ---"
        INFRAME_SIMD=scalar ctest --test-dir "${build}" --output-on-failure \
            -j "${jobs}" -L 'unit|pipeline|simd|property|fault|telemetry'
    else
        ctest --test-dir "${build}" --output-on-failure -j "${jobs}" \
            -L 'unit|pipeline|simd|fault|property|telemetry'
        echo "--- ${name}: simd suite again with INFRAME_SIMD=scalar ---"
        INFRAME_SIMD=scalar ctest --test-dir "${build}" --output-on-failure \
            -j "${jobs}" -L simd
    fi
}

for leg in "${legs[@]}"; do
    case "${leg}" in
    release) run_leg release "" ;;
    tsan) run_leg tsan thread ;;
    asan) run_leg asan address ;;
    ubsan) run_leg ubsan undefined ;;
    perfbench)
        echo "=== leg: perfbench ==="
        python3 perfbench/selftest.py
        ;;
    *)
        echo "unknown leg '${leg}' (expected: release tsan asan ubsan perfbench)" >&2
        exit 2
        ;;
    esac
done

echo "=== matrix green: ${legs[*]} ==="
