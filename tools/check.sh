#!/usr/bin/env bash
# check.sh — one-button correctness driver (see docs/quality.md).
#
# Configures, builds and runs the test suite under each hardening preset:
#
#   default        plain RelWithDebInfo, -Wall -Wextra -Werror
#   release        -DCMAKE_BUILD_TYPE=Release (-O3), still -Werror: GCC's
#                  optimizer-dependent warnings (-Wrestrict and friends)
#                  only fire at this level
#   asan-ubsan     -DEUCON_SANITIZE=address;undefined (halt on first finding)
#   numeric        -DEUCON_NUMERIC_CHECKS=ON (std::isfinite guards in linalg/
#                  qp/control; numeric_guard_test's injection tests activate)
#   tsan           -DEUCON_SANITIZE=thread (opt-in via --tsan); runs the
#                  concurrency-focused subset that takes all three mutexes
#                  (the thread pool's, obs::Registry's and run_batch's
#                  progress lock): thread-pool tests, batch engine
#                  determinism tests, the obs registry/trace determinism
#                  tests and the bench_perf smoke run
#   faults         (opt-in via --faults) the fault-injection/degradation
#                  suite — fault plans, the watchdog, lane staleness, the
#                  faulted goldens and batch determinism — under both
#                  asan-ubsan and tsan (the faulted serial-vs-pooled check
#                  runs with real pool workers)
#   coverage       -DEUCON_COVERAGE=ON (opt-in via --coverage): Debug build
#                  with gcc --coverage, full ctest run, then
#                  tools/coverage_report.py gates aggregate src/ line
#                  coverage (no gcovr/lcov needed)
#
# plus the project linter (tools/eucon_lint) over the whole tree, exactly as
# the lint_repo ctest runs it, and, when a clang++ is on PATH, a build with
# -Wthread-safety -Werror so the EUCON_* capability annotations
# (common/annotations.h) are enforced, not just parsed.
#
# Usage:
#   tools/check.sh             # lint + default + release + asan-ubsan +
#                              # numeric
#   tools/check.sh --fast      # lint + default preset only
#   tools/check.sh --tsan      # also run the thread-sanitizer preset
#   tools/check.sh --faults    # fault/degradation suite under ASan/UBSan + TSan
#   tools/check.sh --coverage  # coverage preset + line-coverage gate only
#   tools/check.sh --lint      # lint gate + clang thread-safety build only
#   tools/check.sh --tidy      # clang-tidy over src/ and tools/ (.clang-tidy)
#   tools/check.sh --perf      # bench_perf --smoke (self-checking report)
#   tools/check.sh --steer     # scenario/steering suite under ASan/UBSan and
#                              # the determinism contract under TSan
#   tools/check.sh --scale     # bench_scaling --smoke (sharded controller up
#                              # to 10k processors, self-checking report)
#   tools/check.sh --help      # print this text
#
# Each preset builds into build-<preset>/ (gitignored). Exit status is
# nonzero as soon as any preset fails.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
JOBS="$(nproc 2>/dev/null || echo 4)"

# Prefer Ninja for fresh build dirs; an already-configured directory keeps
# whatever generator it was created with (cmake rejects a mismatch).
# Usage: cmake -B "$dir" -S "$ROOT" $(gen_flags "$dir") ...
gen_flags() {
  if [ ! -f "$1/CMakeCache.txt" ] && command -v ninja >/dev/null 2>&1; then
    echo "-G Ninja"
  fi
}

# Sanitizer runtime knobs: fail loudly, with stacks.
export ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1:strict_string_checks=1}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1}"

# configure_build_test NAME [--tests REGEX] [cmake args...]
# With --tests, only the ctest cases matching REGEX run (used by the tsan
# preset to focus on the concurrency surface).
configure_build_test() {
  local name="$1"
  shift
  local filter=""
  if [ "${1:-}" = "--tests" ]; then
    filter="$2"
    shift 2
  fi
  local dir="$ROOT/build-$name"
  echo "=== [$name] configure ==="
  # shellcheck disable=SC2046  # gen_flags emits zero or two words
  cmake -B "$dir" -S "$ROOT" $(gen_flags "$dir") "$@"
  echo "=== [$name] build ==="
  cmake --build "$dir" -j "$JOBS"
  echo "=== [$name] ctest ==="
  if [ -n "$filter" ]; then
    ctest --test-dir "$dir" --output-on-failure -j "$JOBS" -R "$filter"
  else
    ctest --test-dir "$dir" --output-on-failure -j "$JOBS"
  fi
  echo "=== [$name] OK ==="
}

run_lint() {
  local dir="$ROOT/build-default"
  echo "=== [lint] build eucon_lint ==="
  # shellcheck disable=SC2046  # gen_flags emits zero or two words
  cmake -B "$dir" -S "$ROOT" $(gen_flags "$dir") >/dev/null
  cmake --build "$dir" -j "$JOBS" --target eucon_lint
  echo "=== [lint] src/ tests/ tools/ bench/ examples/ ==="
  "$dir/tools/eucon_lint" \
    "$ROOT/src" "$ROOT/tests" "$ROOT/tools" "$ROOT/bench" "$ROOT/examples"
  echo "=== [lint] OK ==="
}

# Builds with clang so -Wthread-safety (wired in CMakeLists.txt for clang
# compilers) verifies the EUCON_GUARDED_BY/EUCON_REQUIRES annotations for
# real. GCC parses the macros away, so without clang this is a no-op.
run_thread_safety() {
  if ! command -v clang++ >/dev/null 2>&1; then
    echo "=== [thread-safety] SKIPPED: clang++ not found on PATH ==="
    return 0
  fi
  local dir="$ROOT/build-thread-safety"
  echo "=== [thread-safety] clang build with -Wthread-safety -Werror ==="
  # shellcheck disable=SC2046  # gen_flags emits zero or two words
  cmake -B "$dir" -S "$ROOT" $(gen_flags "$dir") \
    -DCMAKE_CXX_COMPILER=clang++ >/dev/null
  cmake --build "$dir" -j "$JOBS"
  echo "=== [thread-safety] OK ==="
}

# Coverage preset: Debug (so short-circuited branches aren't optimized
# away), gcc --coverage instrumentation, full test run, then the aggregate
# line-coverage gate. The threshold is deliberately below the current
# measurement (see docs/quality.md) so it catches coverage *collapses* —
# a new subsystem landing without tests — not normal fluctuation.
COVERAGE_THRESHOLD="${COVERAGE_THRESHOLD:-70}"
run_coverage() {
  local dir="$ROOT/build-coverage"
  configure_build_test coverage \
    -DCMAKE_BUILD_TYPE=Debug -DEUCON_COVERAGE=ON
  echo "=== [coverage] aggregate line coverage (gate: ${COVERAGE_THRESHOLD}%) ==="
  python3 "$ROOT/tools/coverage_report.py" \
    --build-dir "$dir" --repo-root "$ROOT" --threshold "$COVERAGE_THRESHOLD"
  echo "=== [coverage] OK ==="
}

run_tidy() {
  if ! command -v clang-tidy >/dev/null 2>&1; then
    echo "=== [tidy] SKIPPED: clang-tidy not found on PATH ==="
    return 0
  fi
  local dir="$ROOT/build-tidy"
  echo "=== [tidy] configure with compile_commands.json ==="
  # shellcheck disable=SC2046  # gen_flags emits zero or two words
  cmake -B "$dir" -S "$ROOT" $(gen_flags "$dir") \
    -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
  echo "=== [tidy] clang-tidy (config: .clang-tidy) ==="
  if command -v run-clang-tidy >/dev/null 2>&1; then
    run-clang-tidy -p "$dir" -quiet "$ROOT/src" "$ROOT/tools"
  else
    find "$ROOT/src" "$ROOT/tools" -name '*.cpp' -print0 |
      xargs -0 -n 1 -P "$JOBS" clang-tidy -p "$dir" --quiet
  fi
  echo "=== [tidy] OK ==="
}

# The fault-injection/degradation surface: plan parsing and the injector
# state machine, the watchdog and staleness fallback, the lane/statistics
# tests, the faulted golden trace, the faulted serial-vs-pooled batch
# check, and the CLI entry points.
FAULT_TESTS='FaultPlanTest|DegradationTest|FaultsTest|FeedbackLanesTest'
FAULT_TESTS+='|TraceGoldenTest|ReplicationTest|cli_faulted_demo'
FAULT_TESTS+='|cli_rejects_bad_replicas'
run_faults() {
  configure_build_test asan-ubsan --tests "$FAULT_TESTS" \
    "-DEUCON_SANITIZE=address;undefined"
  configure_build_test tsan --tests "$FAULT_TESTS" -DEUCON_SANITIZE=thread
}

# Perf smoke gate: builds bench_perf and runs its self-checking --smoke
# pass (bench/report_checks.h's rules on the freshly written report). The
# checked-in BENCH_PERF.json is held to the same rules by the tier-1
# bench_reports_test.
run_perf() {
  local dir="$ROOT/build-default"
  echo "=== [perf] build bench_perf ==="
  # shellcheck disable=SC2046  # gen_flags emits zero or two words
  cmake -B "$dir" -S "$ROOT" $(gen_flags "$dir") >/dev/null
  cmake --build "$dir" -j "$JOBS" --target bench_perf
  echo "=== [perf] bench_perf --smoke (self-checking report) ==="
  "$dir/bench/bench_perf" --smoke --json "$dir/bench_perf_smoke.json"
  echo "=== [perf] OK ==="
}

# Cluster-scale gate: builds bench_scaling and runs its self-checking
# --smoke pass (closed loops at every n from 16 to 10k, sharded-vs-central
# parity, bench/report_checks.h's rules on the freshly written report).
# The checked-in BENCH_SCALING.json is held to the same rules by the tier-1
# bench_reports_test.
run_scale() {
  local dir="$ROOT/build-default"
  echo "=== [scale] build bench_scaling ==="
  # shellcheck disable=SC2046  # gen_flags emits zero or two words
  cmake -B "$dir" -S "$ROOT" $(gen_flags "$dir") >/dev/null
  cmake --build "$dir" -j "$JOBS" --target bench_scaling
  echo "=== [scale] bench_scaling --smoke (self-checking report) ==="
  "$dir/bench/bench_scaling" --smoke --json "$dir/bench_scaling_smoke.json"
  echo "=== [scale] OK ==="
}

# The scenario-DSL + best-arm-steering surface (docs/steering.md): parser
# property tests, the statistical-correctness suite for the elimination
# rule, the serial-vs-pooled decision-log byte-equality contract (including
# the pinned golden), the bench_steering smoke gate, and the CLI entry
# point. The memory-safety preset runs all of it; TSan reruns the
# determinism contract with real pool workers racing on the batch engine.
# The checked-in BENCH_STEERING.json is held to bench_steering's own report
# rules by the tier-1 bench_reports_test.
STEER_TESTS='ScenarioParse|ScenarioValidate|ScenarioSeeds|ScenarioLabels'
STEER_TESTS+='|ScenarioFiles|SteeringStat|SteeringCi|SteeringStop'
STEER_TESTS+='|SteeringApi|SteeringScore|SteeringDeterminism|GoldenSteering'
STEER_TESTS+='|bench_steering_smoke|cli_steer_demo'
STEER_TSAN_TESTS='SteeringDeterminism|GoldenSteering'
run_steer() {
  configure_build_test asan-ubsan --tests "$STEER_TESTS" \
    "-DEUCON_SANITIZE=address;undefined"
  configure_build_test tsan --tests "$STEER_TSAN_TESTS" \
    -DEUCON_SANITIZE=thread
  echo "=== [steer] OK ==="
}

MODE="all"
TSAN=0
for arg in "$@"; do
  case "$arg" in
    --fast) MODE="fast" ;;
    --lint) MODE="lint" ;;
    --tidy) MODE="tidy" ;;
    --coverage) MODE="coverage" ;;
    --faults) MODE="faults" ;;
    --perf) MODE="perf" ;;
    --steer) MODE="steer" ;;
    --scale) MODE="scale" ;;
    --tsan) TSAN=1 ;;
    --help | -h)
      # The help text is the leading comment block, up to the first line
      # that is not a comment.
      awk 'NR > 1 { if (!/^#/) exit; print }' "$0"
      exit 0
      ;;
    *)
      echo "unknown argument: $arg (try --help)" >&2
      exit 2
      ;;
  esac
done

case "$MODE" in
  lint)
    run_lint
    run_thread_safety
    ;;
  tidy)
    run_tidy
    ;;
  coverage)
    run_coverage
    ;;
  faults)
    run_faults
    ;;
  perf)
    run_perf
    ;;
  steer)
    run_steer
    ;;
  scale)
    run_scale
    ;;
  fast)
    run_lint
    configure_build_test default
    ;;
  all)
    run_lint
    run_thread_safety
    configure_build_test default
    configure_build_test release -DCMAKE_BUILD_TYPE=Release
    configure_build_test asan-ubsan "-DEUCON_SANITIZE=address;undefined"
    configure_build_test numeric -DEUCON_NUMERIC_CHECKS=ON
    if [ "$TSAN" = 1 ]; then
      # Focused on the concurrency surface: the thread pool, the parallel
      # batch engine (serial-vs-pool determinism), the observability layer
      # (shared registry + per-run trace sinks under pooled workers, golden
      # byte-stability under instrumentation), and the bench_perf smoke run
      # (pooled batch section + JSON schema validation).
      configure_build_test tsan \
        --tests 'ThreadPoolTest|BatchTest|RegistryTest|TraceDeterminismTest|TraceGoldenTest|bench_perf_smoke' \
        -DEUCON_SANITIZE=thread
    fi
    ;;
esac

echo "check.sh: all requested presets passed"
