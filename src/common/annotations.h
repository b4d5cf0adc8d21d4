// Clang thread-safety capability annotations, no-ops on other compilers.
//
// The macros mirror the attribute set documented in clang's Thread Safety
// Analysis guide, spelled EUCON_* so call sites read as project vocabulary.
// They attach compile-time lock discipline to declarations: which mutex
// guards a field, which capability a function requires, what a scoped lock
// acquires. Under clang the build presets add -Wthread-safety (and the
// default -Werror), so a guarded field touched without its mutex is a
// build break; under GCC every macro expands to nothing and the code is
// ordinary C++.
//
// libstdc++'s std::mutex/std::lock_guard carry no capability annotations,
// so the analysis cannot see through them — use eucon::Mutex and
// eucon::MutexLock (common/mutex.h), which wrap the std types and carry
// the attributes.
//
// tools/eucon_lint's locked-field-access rule reads the same annotations
// textually, so the discipline is also checked (approximately) on GCC-only
// setups and inside files clang never compiles (headers without a TU).
#pragma once

#if defined(__clang__)
#define EUCON_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define EUCON_THREAD_ANNOTATION(x)
#endif

// Type annotations.
#define EUCON_CAPABILITY(x) EUCON_THREAD_ANNOTATION(capability(x))
#define EUCON_SCOPED_CAPABILITY EUCON_THREAD_ANNOTATION(scoped_lockable)

// Data-member annotations.
#define EUCON_GUARDED_BY(x) EUCON_THREAD_ANNOTATION(guarded_by(x))
#define EUCON_PT_GUARDED_BY(x) EUCON_THREAD_ANNOTATION(pt_guarded_by(x))

// Function annotations.
#define EUCON_REQUIRES(...) \
  EUCON_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define EUCON_ACQUIRE(...) \
  EUCON_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define EUCON_RELEASE(...) \
  EUCON_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define EUCON_TRY_ACQUIRE(...) \
  EUCON_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define EUCON_EXCLUDES(...) EUCON_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
#define EUCON_RETURN_CAPABILITY(x) EUCON_THREAD_ANNOTATION(lock_returned(x))
#define EUCON_NO_THREAD_SAFETY_ANALYSIS \
  EUCON_THREAD_ANNOTATION(no_thread_safety_analysis)

// ---------------------------------------------------------------------------
// Real-time-path contracts, read textually by tools/eucon_lint (v3). No
// compiler ever sees anything — every macro below expands to nothing.
// Placement is trailing: after the parameter list and cv/ref/override
// specifiers, before the body or the terminating ';'.
//
//   const Vector& update(const Vector& u) EUCON_REALTIME;
//   void add(std::string_view n) EUCON_REALTIME
//       EUCON_BLOCK_OK("one uncontended mutex per sample, by design");
//
// EUCON_REALTIME marks a function as a sampling-period hot-path root: the
// linter extracts the call graph and flags any allocation, blocking call,
// or nondeterminism source reachable from it (rules allocation-in-realtime,
// blocking-in-realtime, nondeterminism-in-realtime), printing the full call
// chain. The *_OK escape hatches acknowledge one category for a function
// and for everything reached through it; always pass a justification
// string. docs/quality.md documents the contract and when to hatch vs fix.
#define EUCON_REALTIME
#define EUCON_ALLOC_OK(...)
#define EUCON_BLOCK_OK(...)
#define EUCON_NONDET_OK(...)
