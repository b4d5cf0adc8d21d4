#!/usr/bin/env bash
# regen_golden.sh — regenerate the golden JSONL files in tests/golden/.
#
# The golden regression suites byte-compare generated output against the
# files checked in under tests/golden/: per-period traces of pinned
# configurations (tests/trace_golden_test.cpp), the steering decision
# log of the demo scenario (tests/steering_determinism_test.cpp) and the
# DES event-order digests of a seeded Simulator panel
# (tests/des_digest_test.cpp). After an *intentional* behavior change —
# controller tuning, simulator semantics, trace schema, steering bound
# math — run this script, review `git diff tests/golden/` like any other
# code change, and commit the new files together with the change that
# caused them.
#
# The QP reference panel (tests/golden/qp_reference.txt) is not a golden
# of the current code: it holds the answers of the earlier primal
# active-set solver, and tests/qp_reference_test.cpp checks the current
# solver against them within tolerances. Regenerating it from the current
# solver would turn that test into a self-comparison, so this script only
# verifies it. Its own, explicit step, for use only with the solver whose
# answers the panel should hold:
#
#   EUCON_REGEN_GOLDEN=1 BUILD_DIR/tests/qp_reference_test
#
# Usage: tools/regen_golden.sh [BUILD_DIR]   (default: build)
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${1:-$ROOT/build}"

# Prefer Ninja for fresh build dirs; an already-configured directory keeps
# whatever generator it was created with (cmake rejects a mismatch).
GENERATOR=()
if [[ ! -f "$BUILD/CMakeCache.txt" ]] && command -v ninja >/dev/null 2>&1; then
  GENERATOR=(-G Ninja)
fi

cmake -B "$BUILD" -S "$ROOT" "${GENERATOR[@]}" >/dev/null
cmake --build "$BUILD" -j "$(nproc 2>/dev/null || echo 4)" \
  --target trace_golden_test --target steering_determinism_test \
  --target des_digest_test --target qp_reference_test

mkdir -p "$ROOT/tests/golden"
EUCON_REGEN_GOLDEN=1 "$BUILD/tests/trace_golden_test" \
  --gtest_filter='Golden/*'
EUCON_REGEN_GOLDEN=1 "$BUILD/tests/steering_determinism_test" \
  --gtest_filter='GoldenSteering.*'
EUCON_REGEN_GOLDEN=1 "$BUILD/tests/des_digest_test" \
  --gtest_filter='DesDigestTest.PanelMatchesGoldenDigests'

# Prove the regenerated files round-trip, and that the current solver
# still matches the QP reference panel, before handing back to the user.
"$BUILD/tests/trace_golden_test" --gtest_filter='Golden/*'
"$BUILD/tests/steering_determinism_test" --gtest_filter='GoldenSteering.*'
"$BUILD/tests/des_digest_test" --gtest_filter='DesDigestTest.*'
"$BUILD/tests/qp_reference_test" --gtest_filter='QpReferenceTest.*'

echo
echo "regen_golden.sh: tests/golden/ regenerated and verified."
echo "Review with: git diff tests/golden/"
