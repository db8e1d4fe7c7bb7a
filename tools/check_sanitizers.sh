#!/usr/bin/env bash
# Builds the whole tree under ASan+UBSan (the asan-ubsan CMake preset)
# and runs the tier-1 test suite. Any sanitizer report aborts the run
# (-fno-sanitize-recover=all), so a green ctest means a clean pass.
#
# Usage: tools/check_sanitizers.sh [extra ctest args...]
set -euo pipefail
cd "$(dirname "$0")/.."

cmake --preset asan-ubsan
cmake --build --preset asan-ubsan -j "$(nproc)"

# halt_on_error is implied by -fno-sanitize-recover; detect_leaks stays
# on to catch slab / closure lifetime bugs in the simulation engine.
export ASAN_OPTIONS=detect_leaks=1:strict_string_checks=1
export UBSAN_OPTIONS=print_stacktrace=1

ctest --preset asan-ubsan -j "$(nproc)" "$@"

# ThreadSanitizer over the concurrency suite (the "concurrency" ctest
# label): races in the fine-grained namespace locking, group-commit
# journal, the fuzzy checkpoint walking the namespace while mutators
# run, block-store streams racing reads, or balancing passes racing the
# heartbeat loop fail the run.
cmake --preset tsan
cmake --build --preset tsan -j "$(nproc)" \
    --target metadata_concurrency_test --target durability_test \
    --target repair_test --target storage_test --target rebalancer_test

export TSAN_OPTIONS=halt_on_error=1:second_deadlock_stack=1
ctest --preset tsan "$@"
echo "sanitizer pass clean"
