// Fault injection and graceful degradation (the robustness pillar).
//
// The paper's evaluation only injects i.i.d. report loss on the feedback
// lanes (§7's loss experiments). Real DRE deployments fail in richer ways:
// lanes drop reports in *bursts* (a congested or flapping link), actuation
// messages are lost or arrive late, processors take overload spikes from
// outside the controlled task set, and the controller process itself can
// black out for whole sampling periods. This module scripts all of those
// deterministically — a FaultPlan is a pure value, a FaultInjector is a
// seeded state machine evaluated once per sampling period — so a faulted
// run is exactly as reproducible (byte-for-byte under the golden-trace
// suite and run_batch's serial-vs-pooled check) as a clean one.
//
// The degradation half (DegradeConfig) configures how run_experiment's
// controller watchdog reacts: during a controller blackout it can hold the
// last rates, fall back to the open-loop design rates, or hand control to
// per-processor decentralized backup MPCs; independently, lanes whose
// reports have been lost `stale_limit` periods in a row are dropped from
// the central MPC's tracked set (reusing the constraint machinery — see
// MpcController::set_tracked_processors) instead of letting the controller
// chase a phantom measurement. docs/robustness.md documents the plan
// schema, the policies and the staleness semantics.
//
// Thread contract: FaultPlan and DegradeConfig are immutable values, safe
// to share read-only across run_batch pool workers. A FaultInjector is
// per-run state like FeedbackLanes — thread-compatible, not thread-safe.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/annotations.h"
#include "common/rng.h"

namespace eucon::faults {

// Two-state Gilbert–Elliott loss model, applied per feedback lane: each
// sampling period the lane's chain moves good->bad with probability
// p_enter and bad->good with probability p_exit, and the report is lost
// with probability loss_good / loss_bad depending on the state. The
// stationary loss rate is
//   pi_bad = p_enter / (p_enter + p_exit),
//   E[loss] = (1 - pi_bad) * loss_good + pi_bad * loss_bad,
// which the statistics tests check against realized counts. p_enter = 0
// and loss_good = 0 (the defaults) disable the model entirely.
struct GilbertElliott {
  double p_enter = 0.0;    // P(good -> bad) per period
  double p_exit = 1.0;     // P(bad -> good) per period
  double loss_good = 0.0;  // report-loss probability in the good state
  double loss_bad = 1.0;   // report-loss probability in the bad state

  bool enabled() const { return p_enter > 0.0 || loss_good > 0.0; }
  // Stationary per-period loss probability of the chain.
  double stationary_loss() const;
};

// Scripted events. All windows are half-open period ranges
// [start, start + duration) over the 1-based sampling-period index k.
struct LaneOutage {
  int lane = 0;  // processor whose feedback lane is down
  int start = 1;
  int duration = 1;
};

struct ActuationOutage {
  int processor = 0;  // rate commands to tasks owned by this processor drop
  int start = 1;
  int duration = 1;
};

struct OverloadSpike {
  int processor = 0;
  int start = 1;
  int duration = 1;
  double exec_units = 0.0;  // extra highest-priority work injected per period
};

struct ControllerBlackout {
  int start = 1;
  int duration = 1;
};

// A deterministic, seedable schedule of faults for one run. Empty (the
// default) injects nothing and costs nothing on the experiment hot path.
struct FaultPlan {
  // Folded with the run's sim seed so the same plan on different seeds
  // draws independent streams, while (plan, seed) stays reproducible.
  std::uint64_t seed = 0;

  GilbertElliott lane_loss;  // per-lane bursty report loss

  // I.i.d. per-processor per-period loss of the actuation message carrying
  // that processor's owned-task rates (owner = control/topology.h's rule:
  // the largest allocation entry, ties to the lowest index).
  double actuation_loss = 0.0;
  // Every actuation message arrives this many sampling periods late (0 =
  // the paper's assumption). Complements SimOptions::feedback_lane_delay,
  // which models sub-period latency in time units.
  int actuation_delay = 0;

  std::vector<LaneOutage> lane_outages;
  std::vector<ActuationOutage> actuation_outages;
  std::vector<OverloadSpike> overload_spikes;
  std::vector<ControllerBlackout> blackouts;

  // True when no fault source is configured at all.
  bool empty() const;
  // Throws std::invalid_argument on out-of-range probabilities, lane or
  // processor indices >= num_processors, or non-positive windows.
  void validate(int num_processors) const;
};

// Parses the JSON plan schema of docs/robustness.md (objects, arrays,
// numbers, strings, booleans — no comments). Unknown keys are an error so
// a typoed field never silently disables a fault. Throws
// std::invalid_argument with a one-line message on malformed input.
FaultPlan parse_fault_plan(const std::string& json);
// Reads `path` and parses it; throws std::runtime_error when unreadable.
FaultPlan load_fault_plan_file(const std::string& path);

// How the controller watchdog degrades when the central controller blacks
// out (see docs/robustness.md; all policies require ControllerKind::kEucon).
enum class DegradePolicy {
  kNone,       // no watchdog: rates freeze implicitly, staleness ignored
  kHoldRates,  // freeze the applied rates until the controller returns
  kOpenLoop,   // apply the open-loop design rates (OPEN's B = F r')
  kDecentralized,  // per-processor backup MPCs take over (DEUCON)
};

const char* degrade_policy_name(DegradePolicy policy);
// Accepts "none", "hold-rates", "open-loop", "decentralized"; throws
// std::invalid_argument otherwise.
DegradePolicy parse_degrade_policy(const std::string& name);

struct DegradeConfig {
  DegradePolicy policy = DegradePolicy::kNone;
  // After this many *consecutive* lost reports on a lane the processor is
  // dropped from the MPC's tracked set until a report arrives again
  // (0 disables the staleness fallback).
  int stale_limit = 0;

  bool enabled() const {
    return policy != DegradePolicy::kNone || stale_limit > 0;
  }
};

// Per-run fault state machine. begin_period(k) must be called exactly once
// per period with k = 1, 2, …; it advances the Gilbert–Elliott chains and
// draws the period's actuation losses, consuming a fixed number of RNG
// draws per period so the fault stream is independent of what the rest of
// the loop does with the answers.
class FaultInjector {
 public:
  FaultInjector(const FaultPlan& plan, std::size_t num_processors,
                std::uint64_t run_seed);

  // Runs once per sampling period on the control path: preallocated masks,
  // a fixed number of seeded-Rng draws, no heap traffic.
  void begin_period(int k) EUCON_REALTIME;

  // One flag per lane: report forcibly lost this period (Gilbert–Elliott
  // bad-state draw or a scripted LaneOutage window).
  const std::vector<unsigned char>& lane_loss_mask() const { return lane_lost_; }
  // Number of set flags in lane_loss_mask().
  std::uint64_t forced_losses_this_period() const { return forced_this_period_; }

  bool controller_down() const { return controller_down_; }
  bool actuation_lost(std::size_t processor) const;
  // Extra execution units to inject on `processor` this period (summed
  // over overlapping OverloadSpike windows; 0 almost always).
  double overload_for(std::size_t processor) const;

  // Monotone totals since construction.
  std::uint64_t forced_losses_total() const { return forced_total_; }

 private:
  const FaultPlan& plan_;  // non-owning; the plan must outlive the injector
  std::size_t num_processors_;
  int period_ = 0;
  std::vector<Rng> lane_rng_;         // one Gilbert–Elliott stream per lane
  std::vector<unsigned char> ge_bad_; // current chain state per lane
  Rng actuation_rng_;
  std::vector<unsigned char> lane_lost_;
  std::vector<unsigned char> actuation_lost_;
  std::vector<double> overload_;
  bool controller_down_ = false;
  std::uint64_t forced_this_period_ = 0;
  std::uint64_t forced_total_ = 0;
};

}  // namespace eucon::faults
