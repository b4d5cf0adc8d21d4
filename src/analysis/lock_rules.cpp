// The lock rule family: lock-order-inversion, blocking-while-locked,
// callback-under-lock.
//
// LockGraph (lockgraph.{h,cpp}) supplies the may-held-on-entry sets, the
// acquisition-order graph, and the chain rendering; this file turns them
// into findings:
//
//  - lock-order-inversion: a cycle in the acquisition graph (observed
//    acquisitions ∪ EUCON_ACQUIRED_BEFORE declarations) — every edge of the
//    cycle is rendered with its own acquisition chain from the root holder,
//    so a two-mutex inversion prints both paths. Calling a function whose
//    EUCON_EXCLUDES names a currently-held mutex is reported under the same
//    rule: the callee reserving the right to take the mutex while the
//    caller already holds it is a self-deadlock of length one.
//  - blocking-while-locked: a blocking primitive (wait/join/sleep/IO)
//    reached — directly or transitively — while some mutex may be held.
//    CondVar::wait/wait_for through a MutexLock& are excepted at extraction
//    time (they release the mutex while blocked); EUCON_BLOCK_OK on the
//    blocking function, or anywhere along the chain that propagated the
//    hold, is a trust boundary that silences the finding.
//  - callback-under-lock: a user-suppliable std::function field (mined from
//    class declarations) invoked while a mutex may be held — the classic
//    re-entrancy deadlock, since the callback can call back into the
//    component and re-acquire.
//
// Findings land on the offending site; line-level allow() suppression and
// cross-path dedup follow realtime_rules.cpp.
#include <algorithm>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "analysis/callgraph.h"
#include "analysis/lockgraph.h"

namespace eucon::analysis {

namespace {

constexpr const char* kOrderRule = "lock-order-inversion";
constexpr const char* kBlockRule = "blocking-while-locked";
constexpr const char* kCallbackRule = "callback-under-lock";

std::string quoted_list(const std::vector<std::string>& names) {
  std::string out;
  for (const std::string& n : names) {
    if (!out.empty()) out += ", ";
    out += "'" + n + "'";
  }
  return out;
}

}  // namespace

std::vector<Finding> CallGraph::check_locks() const {
  std::vector<Finding> findings;
  const LockGraph lg(*this);

  const auto suppressed = [this](const std::string& file, std::size_t line,
                                 const char* rule) {
    const auto file_it = allowed_.find(file);
    if (file_it == allowed_.end()) return false;
    const auto line_it = file_it->second.find(line);
    return line_it != file_it->second.end() && line_it->second.count(rule) > 0;
  };
  std::set<std::string> reported;
  const auto report = [&](const std::string& file, std::size_t line,
                          std::size_t col, const char* rule,
                          const std::string& message) {
    if (suppressed(file, line, rule)) return;
    const std::string key = std::string(rule) + '\x1f' + file + '\x1f' +
                            std::to_string(line) + '\x1f' +
                            std::to_string(col) + '\x1f' + message;
    if (!reported.insert(key).second) return;
    findings.push_back({file, line, col, rule, message});
  };

  // Deterministic iteration regardless of add_file order.
  std::vector<std::size_t> order(functions_.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return functions_[a].qname < functions_[b].qname;
  });

  // --- lock-order-inversion: acquisition-graph cycles ---------------------
  for (const std::vector<const LgEdge*>& cycle : lg.cycles()) {
    // Anchor the finding on the first observed edge; a declared-only cycle
    // (contradictory EUCON_ACQUIRED_BEFORE annotations) anchors on the
    // first declaration.
    const LgEdge* anchor = nullptr;
    for (const LgEdge* e : cycle)
      if (!e->declared) {
        anchor = e;
        break;
      }
    if (anchor == nullptr) anchor = cycle.front();

    std::string ring = "'" + cycle.front()->first + "'";
    for (const LgEdge* e : cycle) ring += " -> '" + e->second + "'";
    std::string msg = "mutex acquisition cycle " + ring + ": ";
    bool first_leg = true;
    for (const LgEdge* e : cycle) {
      if (!first_leg) msg += "; ";
      first_leg = false;
      if (e->declared) {
        msg += "EUCON_ACQUIRED_BEFORE declares '" + e->first + "' before '" +
               e->second + "' (" + e->file + ":" + std::to_string(e->line) +
               ")";
      } else {
        msg += lg.hold_chain(e->fn, e->first) + " then acquires '" +
               e->second + "' (" + e->file + ":" + std::to_string(e->line) +
               ")";
      }
    }
    msg += "; pick one global order, document it with EUCON_ACQUIRED_BEFORE, "
           "or drop one of the locks";
    report(anchor->file, anchor->line, anchor->col, kOrderRule, msg);
  }

  // --- lock-order-inversion: EUCON_EXCLUDES violated ----------------------
  for (const std::size_t i : order) {
    const CgFunction& fn = functions_[i];
    for (const CgCall& call : fn.calls) {
      for (const std::size_t t : call.targets) {
        if (t == i) continue;
        const CgFunction& callee = functions_[t];
        if (callee.lock_excludes.empty()) continue;
        const std::vector<std::string> held = lg.effective_held(i, call.held);
        for (const std::string& raw : callee.lock_excludes) {
          const std::string m = LockGraph::qualify(callee, raw);
          if (std::find(held.begin(), held.end(), m) == held.end()) continue;
          report(fn.file, call.line, call.col, kOrderRule,
                 std::string("'").append(LockGraph::display(callee.qname)) +
                     "' EUCON_EXCLUDES '" + m +
                     "' but is reached with it held: " +
                     lg.hold_chain(i, m) + " -> calls " +
                     LockGraph::display(callee.qname) + " (line " +
                     std::to_string(call.line) +
                     "); release it before the call to avoid the "
                     "self-deadlock");
        }
      }
    }
  }

  // --- blocking-while-locked ---------------------------------------------
  constexpr int kBlockCat = static_cast<int>(RtCategory::kBlock);
  for (const std::size_t i : order) {
    const CgFunction& fn = functions_[i];
    if (fn.ok[kBlockCat]) continue;  // hatched: trusted to manage blocking
    for (const CgBlockSite& site : fn.block_sites) {
      std::vector<std::string> held = lg.effective_held(i, site.held);
      held.erase(std::remove_if(held.begin(), held.end(),
                                [&](const std::string& m) {
                                  return lg.hold_chain_hatched(i, m);
                                }),
                 held.end());
      if (held.empty()) continue;
      report(site.file, site.line, site.col, kBlockRule,
             "'" + site.what + "' " + site.detail + " while holding " +
                 quoted_list(held) + ": " + lg.hold_chain(i, held.front()) +
                 " -> '" + site.what + "' blocks (" + site.file + ":" +
                 std::to_string(site.line) +
                 "); release the lock first, wait through the MutexLock "
                 "(CondVar::wait/wait_for), or hatch with "
                 "EUCON_BLOCK_OK(\"why\")");
    }
  }

  // --- callback-under-lock -----------------------------------------------
  for (const std::size_t i : order) {
    const CgFunction& fn = functions_[i];
    for (const CgCall& call : fn.calls) {
      // A resolved call is a real function (the realtime/order analyses own
      // it); only an unresolved name matching a std::function field is a
      // user callback.
      if (!call.targets.empty()) continue;
      if (callback_fields_.count(call.name) == 0) continue;
      const std::vector<std::string> held = lg.effective_held(i, call.held);
      if (held.empty()) continue;
      report(fn.file, call.line, call.col, kCallbackRule,
             "user callback '" + call.name + "' invoked with " +
                 quoted_list(held) + " held: " + lg.hold_chain(i, held.front()) +
                 " -> invokes '" + call.name + "' (line " +
                 std::to_string(call.line) +
                 "); copy what it needs and invoke after releasing, or "
                 "document the contract and allow(callback-under-lock) the "
                 "line");
    }
  }

  return findings;
}

}  // namespace eucon::analysis
