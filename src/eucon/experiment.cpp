#include "eucon/experiment.h"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <future>

#include "common/annotations.h"
#include "common/check.h"
#include "common/mutex.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "control/adaptive.h"
#include "control/open_loop.h"
#include "control/sparse_model.h"
#include "control/topology.h"
#include "eucon/feedback_lane.h"

namespace eucon {

const char* controller_kind_name(ControllerKind kind) {
  switch (kind) {
    case ControllerKind::kEucon:
      return "EUCON";
    case ControllerKind::kOpen:
      return "OPEN";
    case ControllerKind::kPid:
      return "PID";
    case ControllerKind::kDecentralized:
      return "DEUCON";
    case ControllerKind::kAdaptive:
      return "EUCON-A";
    case ControllerKind::kUncoordinated:
      return "FCS-IND";
    case ControllerKind::kHierarchical:
      return "HIER";
  }
  return "?";
}

namespace {

// Builds the configured controller over the run's one plant model: the
// sharded controllers take the CSR model as it is, the central ones its
// dense view.
std::unique_ptr<control::Controller> make_controller(
    const ExperimentConfig& config, const control::SparsePlantModel& model) {
  const linalg::Vector r0 = config.spec.initial_rate_vector();
  switch (config.controller) {
    case ControllerKind::kEucon:
      return std::make_unique<control::MpcController>(model.to_dense(),
                                                      config.mpc, r0);
    case ControllerKind::kOpen:
      return std::make_unique<control::OpenLoopController>(model.to_dense(),
                                                           r0);
    case ControllerKind::kPid:
      return std::make_unique<control::PidController>(model.to_dense(),
                                                      config.pid, r0);
    case ControllerKind::kDecentralized:
      return control::HierarchicalMpcController::decentralized(model,
                                                               config.mpc, r0);
    case ControllerKind::kAdaptive:
      return std::make_unique<control::AdaptiveMpcController>(
          model.to_dense(), config.mpc, r0);
    case ControllerKind::kUncoordinated:
      return std::make_unique<control::UncoordinatedFcsController>(
          model.to_dense(), config.fcs, r0);
    case ControllerKind::kHierarchical:
      return std::make_unique<control::HierarchicalMpcController>(
          model, config.mpc, config.hier, r0);
  }
  EUCON_FAIL_INVALID("unknown controller kind");
}

const char* qp_status_name(qp::Status status) {
  switch (status) {
    case qp::Status::kOptimal:
      return "optimal";
    case qp::Status::kInfeasible:
      return "infeasible";
    case qp::Status::kMaxIterations:
      return "max_iterations";
  }
  return "?";
}

}  // namespace

std::unique_ptr<control::Controller> make_controller(
    const ExperimentConfig& config) {
  return make_controller(
      config, control::make_sparse_plant_model(config.spec, config.set_points));
}

std::vector<double> ExperimentResult::utilization_series(
    std::size_t processor) const {
  std::vector<double> s;
  s.reserve(trace.size());
  for (const auto& rec : trace) s.push_back(rec.u.at(processor));
  return s;
}

std::vector<double> ExperimentResult::rate_series(std::size_t task) const {
  std::vector<double> s;
  s.reserve(trace.size());
  for (const auto& rec : trace) s.push_back(rec.rates.at(task));
  return s;
}

ExperimentResult run_experiment(const ExperimentConfig& config) {
  EUCON_REQUIRE(config.sampling_period > 0.0, "sampling period must be positive");
  EUCON_REQUIRE(config.num_periods > 0, "experiment needs at least one period");
  EUCON_REQUIRE(config.report_loss_probability >= 0.0 &&
                    config.report_loss_probability < 1.0,
                "report loss probability must be in [0, 1)");
  EUCON_REQUIRE(!config.enable_admission_control ||
                    config.controller == ControllerKind::kEucon,
                "admission control requires the EUCON controller");
  EUCON_REQUIRE(!config.enable_reallocation ||
                    config.controller == ControllerKind::kEucon,
                "task reallocation requires the EUCON controller");
  EUCON_REQUIRE(config.degrade.stale_limit >= 0,
                "stale_limit must be non-negative");
  EUCON_REQUIRE(!config.degrade.enabled() ||
                    config.controller == ControllerKind::kEucon,
                "degradation policies require the EUCON controller");
  EUCON_REQUIRE(config.lane_initial.empty() ||
                    config.lane_initial.size() ==
                        static_cast<std::size_t>(config.spec.num_processors),
                "lane_initial size mismatch");
  config.spec.validate();

  // The plant model, built once per run in CSR (F is n×m but holds only
  // the task chains' entries). Dense copies go only to the central
  // controllers and the EUCON-only adjuncts.
  const control::SparsePlantModel model =
      control::make_sparse_plant_model(config.spec, config.set_points);
  auto controller = make_controller(config, model);
  rts::Simulator sim(config.spec, config.sim);

  // OPEN assigns its designed rates from time zero; for the feedback
  // controllers this re-applies the (clamped) initial rates, a no-op.
  if (config.controller == ControllerKind::kOpen) {
    auto* open = dynamic_cast<control::OpenLoopController*>(controller.get());
    sim.set_rates(open->rates().data());
  }

  std::unique_ptr<control::AdmissionGovernor> governor;
  if (config.enable_admission_control) {
    governor = std::make_unique<control::AdmissionGovernor>(model.to_dense(),
                                                            config.admission);
  }
  std::unique_ptr<control::ReallocationPlanner> planner;
  if (config.enable_reallocation) {
    planner = std::make_unique<control::ReallocationPlanner>(
        config.spec, model.b, config.reallocation);
  }

  // Monitor -> controller channels (with optional loss injection); the
  // lanes' RNG stream is derived from the seed independently of the
  // execution-time jitter stream, keeping runs reproducible. Last-delivered
  // values start at the set points (or config.lane_initial) so a lost early
  // report reads as "on target", not as an idle processor.
  FeedbackLanes lanes(
      config.lane_initial.empty() ? model.b : config.lane_initial,
      config.report_loss_probability, config.sim.seed);

  // ---- Fault injection + degradation state (docs/robustness.md) ----
  const std::size_t n = static_cast<std::size_t>(config.spec.num_processors);
  const bool faults_on = !config.faults.empty();
  const bool faults_active = faults_on || config.degrade.enabled();
  std::unique_ptr<faults::FaultInjector> injector;
  if (faults_on)
    injector = std::make_unique<faults::FaultInjector>(config.faults, n,
                                                       config.sim.seed);
  // Actuation is modeled as one rate-command message per owning processor
  // per period (control/topology.h's rule, which the sharded controllers
  // use too); the plan can delay or drop those messages.
  std::vector<std::size_t> owner;
  std::vector<unsigned char> owner_has(n, 0);
  if (faults_on) {
    owner = control::compute_ownership(model.f);
    for (const std::size_t p : owner) owner_has[p] = 1;
  }
  struct PendingCommand {
    int arrive_k;
    linalg::Vector rates;
  };
  std::deque<PendingCommand> in_flight;

  const Ticks ts = units_to_ticks(config.sampling_period);
  ExperimentResult result;
  result.set_points = model.b;
  result.trace.reserve(static_cast<std::size_t>(config.num_periods));
  obs::RunSummary& summary = result.summary;

  std::vector<bool> enabled(config.spec.num_tasks(), true);

  // Degradation state: the rates actually at the plant (distinct from the
  // central controller's belief once actuation faults bite), the lazily
  // constructed blackout backup, and the MPC tracked set. kOpenLoop and
  // kDecentralized differ only in which backup takes over the actuators.
  linalg::Vector applied(sim.current_rates());
  const bool backup_policy =
      config.degrade.policy == faults::DegradePolicy::kOpenLoop ||
      config.degrade.policy == faults::DegradePolicy::kDecentralized;
  const auto make_backup = [&]() -> std::unique_ptr<control::Controller> {
    if (config.degrade.policy == faults::DegradePolicy::kOpenLoop)
      return std::make_unique<control::OpenLoopController>(
          model.to_dense(), config.spec.initial_rate_vector());
    return control::HierarchicalMpcController::decentralized(model, config.mpc,
                                                             applied);
  };
  std::unique_ptr<control::Controller> backup;
  std::vector<bool> tracked(n, true);

  // The central MPC itself, for the EUCON-only adjuncts (admission,
  // reallocation, degradation) and its per-solve timers; null for every
  // other controller. Diagnostics come from controller->diagnostics().
  auto* const central = dynamic_cast<control::MpcController*>(controller.get());

  // Observability taps (docs/observability.md): per-run views onto
  // caller-owned objects, each null when the caller attached none.
  obs::Registry* const metrics = config.metrics;
  if (central != nullptr) central->set_metrics_registry(metrics);
  obs::Sink* const sink = config.trace_sink;
  std::vector<double> prev_rates;     // for Δr in the trace
  std::uint64_t prev_stalls = 0;      // for per-period stall deltas
  if (sink != nullptr) {
    obs::RunInfo info;
    info.name = config.run_name;
    info.controller = controller_kind_name(config.controller);
    info.seed = config.sim.seed;
    info.num_periods = config.num_periods;
    info.num_processors = static_cast<std::size_t>(config.spec.num_processors);
    info.num_tasks = config.spec.num_tasks();
    info.set_points = model.b.data();
    sink->begin_run(info);
    prev_rates = sim.current_rates();
  }

  for (int k = 1; k <= config.num_periods; ++k) {
    OBS_TIMED(metrics, "experiment.period");
    std::uint64_t overload_hits = 0;
    if (injector != nullptr) {
      // Faults for period k are drawn before simulating it, so an overload
      // spike lands inside the window it is scripted for.
      injector->begin_period(k);
      for (std::size_t p = 0; p < n; ++p) {
        const double extra = injector->overload_for(p);
        if (extra > 0.0) {
          sim.inject_overhead(static_cast<int>(p), extra);
          ++overload_hits;
        }
      }
      summary.overload_injections += overload_hits;
    }
    {
      OBS_TIMED(metrics, "sim.advance");
      sim.run_until(static_cast<Ticks>(k) * ts);
    }
    const std::vector<double> u = sim.sample_utilizations();

    // Deliver the reports over the (possibly lossy) feedback lanes.
    const linalg::Vector& u_seen = lanes.deliver(
        linalg::Vector(u),
        injector != nullptr ? &injector->lane_loss_mask() : nullptr);
    summary.max_staleness =
        std::max(summary.max_staleness, lanes.max_staleness());

    const bool blackout = injector != nullptr && injector->controller_down();
    if (blackout) ++summary.blackout_periods;

    // Staleness fallback: a lane whose report is stale_limit periods old is
    // dropped from the MPC's tracked set (its frozen measurement neither
    // attracts the optimizer nor constrains it) and restored by the next
    // delivery. An all-stale mask leaves the set unchanged — the MPC needs
    // at least one tracked processor.
    if (config.degrade.stale_limit > 0) {
      std::vector<bool> fresh(n, true);
      bool any_fresh = false;
      for (std::size_t p = 0; p < n; ++p) {
        fresh[p] = lanes.staleness()[p] < config.degrade.stale_limit;
        any_fresh = any_fresh || fresh[p];
      }
      if (any_fresh && fresh != tracked) {
        for (std::size_t p = 0; p < n; ++p) {
          if (tracked[p] && !fresh[p]) ++summary.stale_drops;
          if (!tracked[p] && fresh[p]) ++summary.stale_restores;
        }
        tracked = fresh;
        central->set_tracked_processors(tracked);
      }
    }

    std::uint64_t act_lost_hits = 0;
    linalg::Vector rates;  // the central controller's belief this period
    if (!blackout) {
      if (backup != nullptr) {
        // Recovery: resynchronize the controller's rate belief with what
        // the backup actually applied, then retire the backup. Under
        // kNone/kHoldRates there is no backup: nothing moved, so nothing
        // needs resyncing.
        central->reset_rates(applied);
        backup.reset();
      }
      rates = controller->update(u_seen);
      if (!faults_on) {
        applied = rates;
        sim.set_rates(applied.data());
      } else {
        in_flight.push_back({k + config.faults.actuation_delay, rates});
      }
      if (config.controller_host >= 0 && config.controller_overhead > 0.0)
        sim.inject_overhead(config.controller_host, config.controller_overhead);
    } else {
      // Controller blackout: no central update, no co-hosted overhead, no
      // admission/reallocation adjuncts. The watchdog applies its policy:
      // under kNone/kHoldRates the rates freeze (in-flight commands still
      // arrive below); otherwise a backup takes over the actuators.
      rates = applied;
      if (backup_policy) {
        if (backup == nullptr) {
          in_flight.clear();  // the backup owns the actuators now
          backup = make_backup();
        }
        applied = backup->update(u_seen);
        sim.set_rates(applied.data());
      }
    }

    // Actuation arrivals: each queued command is one message per owning
    // processor, each subject to this period's actuation-loss draws. A
    // dropped message means the owner's tasks keep their previous rates
    // (the next period's command supersedes it — no retransmission).
    while (faults_on && !in_flight.empty() && in_flight.front().arrive_k <= k) {
      const PendingCommand cmd = std::move(in_flight.front());
      in_flight.pop_front();
      std::vector<unsigned char> lost(n, 0);
      for (std::size_t p = 0; p < n; ++p) {
        if (owner_has[p] != 0 && injector->actuation_lost(p)) {
          lost[p] = 1;
          ++act_lost_hits;
        }
      }
      for (std::size_t j = 0; j < owner.size(); ++j)
        if (lost[owner[j]] == 0) applied[j] = cmd.rates[j];
      sim.set_rates(applied.data());
    }
    summary.actuation_lost += act_lost_hits;

    if (governor != nullptr && !blackout) {
      const std::vector<bool>& mask = governor->update(linalg::Vector(u), rates);
      if (mask != enabled) {
        enabled = mask;
        for (std::size_t t = 0; t < enabled.size(); ++t)
          sim.set_task_enabled(static_cast<int>(t), enabled[t]);
        central->set_enabled_tasks(enabled);
      }
    }
    if (planner != nullptr && !blackout) {
      if (const auto move = planner->update(linalg::Vector(u), rates)) {
        sim.migrate_subtask(move->task, move->subtask, move->to);
        central->set_allocation_matrix(planner->allocation_matrix());
        result.reallocations.push_back(*move);
      }
    }
    if (config.on_period && !blackout) config.on_period(k, *controller);

    SampleRecord rec;
    rec.k = k;
    rec.u = u;
    rec.rates = applied.data();
    rec.enabled_tasks = static_cast<int>(
        std::count(enabled.begin(), enabled.end(), true));
    result.trace.push_back(std::move(rec));

    if (sink != nullptr) {
      obs::PeriodRecord prec;
      prec.k = k;
      prec.time_units = sim.now_units();
      prec.u = u;
      prec.u_seen = u_seen.data();
      prec.rates = applied.data();
      prec.delta_r.resize(prec.rates.size());
      for (std::size_t j = 0; j < prec.rates.size(); ++j)
        prec.delta_r[j] = prec.rates[j] - prev_rates[j];
      prev_rates = prec.rates;
      prec.enabled_tasks = result.trace.back().enabled_tasks;
      prec.lost_reports = lanes.last_period_losses();
      const std::uint64_t stalls = sim.release_guard_stalls();
      prec.release_guard_stalls = stalls - prev_stalls;
      prev_stalls = stalls;
      // A blackout period's controller did not run, so it writes no qp
      // block (its diagnostics still describe the last update).
      const control::Diagnostics* diag =
          blackout ? nullptr : controller->diagnostics();
      if (diag != nullptr) {
        prec.qp_iterations = diag->iterations;
        prec.qp_fast_path = diag->fast_path;
        prec.qp_fallback = diag->fallback;
        prec.qp_status = qp_status_name(diag->status);
        prec.qp_active_set.assign(diag->active.begin(), diag->active.end());
      }
      if (faults_active) {
        prec.faults_active = true;
        prec.fault_mode = blackout ? "blackout" : "normal";
        prec.forced_losses =
            injector != nullptr ? injector->forced_losses_this_period() : 0;
        prec.actuation_lost = act_lost_hits;
        prec.overload_injections = overload_hits;
        prec.tracked_processors = static_cast<int>(
            std::count(tracked.begin(), tracked.end(), true));
        prec.staleness.assign(lanes.staleness().begin(),
                              lanes.staleness().end());
      }
      sink->period(prec);
    }
  }

  summary.periods = static_cast<std::uint64_t>(config.num_periods);
  summary.lost_reports = lanes.lost_reports();
  summary.release_guard_stalls = sim.release_guard_stalls();
  summary.jobs_released = sim.jobs_released();
  const control::Diagnostics* const diag = controller->diagnostics();
  if (diag != nullptr) {
    summary.controller_updates = diag->updates;
    summary.controller_fallbacks = diag->fallbacks;
    summary.qp_iterations_total = diag->qp_iterations;
    summary.qp_fast_path_hits = diag->fast_path_hits;
  }
  summary.faults_active = faults_active;
  if (injector != nullptr)
    summary.forced_losses = injector->forced_losses_total();
  result.deadlines = sim.deadline_stats();
  if (config.sim.enable_trace) result.trace_log = sim.trace();
  if (governor != nullptr) {
    result.admission_suspensions = governor->suspensions();
    result.admission_readmissions = governor->readmissions();
  }

  if (sink != nullptr) sink->end_run(summary);
  if (metrics != nullptr) {
    metrics->add("experiment.runs");
    metrics->add("experiment.periods", summary.periods);
    metrics->add("experiment.lost_reports", summary.lost_reports);
    metrics->add("sim.release_guard_stalls", summary.release_guard_stalls);
    metrics->add("sim.jobs_released", summary.jobs_released);
    std::uint64_t e2e_misses = 0;
    const rts::DeadlineStats& ds = sim.deadline_stats();
    for (std::size_t t = 0; t < ds.num_tasks(); ++t)
      e2e_misses += ds.task(t).e2e_misses;
    metrics->add("sim.e2e_deadline_misses", e2e_misses);
    if (diag != nullptr) {
      metrics->add("mpc.updates", summary.controller_updates);
      metrics->add("mpc.fallbacks", summary.controller_fallbacks);
      metrics->add("mpc.qp_iterations", summary.qp_iterations_total);
      metrics->add("mpc.fast_path_hits", summary.qp_fast_path_hits);
    }
    if (governor != nullptr) {
      metrics->add("admission.suspensions", governor->suspensions());
      metrics->add("admission.readmissions", governor->readmissions());
    }
    metrics->add("reallocation.moves", result.reallocations.size());
    if (faults_active) {
      metrics->add("faults.forced_losses", summary.forced_losses);
      metrics->add("faults.actuation_lost", summary.actuation_lost);
      metrics->add("faults.overload_injections", summary.overload_injections);
      metrics->add("faults.blackout_periods", summary.blackout_periods);
      metrics->add("faults.stale_drops", summary.stale_drops);
      metrics->add("faults.stale_restores", summary.stale_restores);
      metrics->set_gauge("faults.max_staleness",
                         static_cast<double>(summary.max_staleness));
    }
  }
  return result;
}

std::string batch_trace_file_name(std::size_t run_index,
                                  const std::string& name) {
  char prefix[24];
  std::snprintf(prefix, sizeof(prefix), "run-%04zu", run_index);
  std::string file(prefix);
  if (!name.empty()) {
    file += '-';
    // Keep file names portable: anything outside [A-Za-z0-9._-] becomes '_'.
    for (const char c : name) {
      const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                      c == '-';
      file += ok ? c : '_';
    }
  }
  file += ".jsonl";
  return file;
}

std::uint64_t batch_run_seed(std::uint64_t seed_base, std::size_t run_index) {
  // SplitMix64 over (base, index): independent streams per run, stable
  // under any worker count or scheduling order.
  std::uint64_t state = seed_base + 0x9e3779b97f4a7c15ULL * (run_index + 1);
  return splitmix64_next(state);
}

std::vector<ExperimentResult> run_batch(const std::vector<ExperimentSpec>& specs,
                                        const BatchOptions& options) {
  std::vector<ExperimentResult> results(specs.size());
  if (specs.empty()) return results;

  // Materialize the per-run configs up front so seed derivation happens
  // exactly once, identically for the serial and the pooled path.
  std::vector<ExperimentConfig> configs;
  configs.reserve(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    configs.push_back(specs[i].config);
    if (options.derive_seeds)
      configs.back().sim.seed = batch_run_seed(options.seed_base, i);
    if (configs.back().run_name.empty())
      configs.back().run_name = specs[i].name;
    if (configs.back().metrics == nullptr)
      configs.back().metrics = options.metrics;
  }

  // Per-run trace files. Sinks are created up front (before any run starts)
  // so file assignment — and therefore every byte of every trace — depends
  // only on (run index, spec name), never on worker scheduling.
  std::vector<std::unique_ptr<obs::FileSink>> trace_sinks;
  if (!options.trace_dir.empty()) {
    std::filesystem::create_directories(options.trace_dir);
    trace_sinks.resize(configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
      if (configs[i].trace_sink != nullptr) continue;  // caller's sink wins
      const std::filesystem::path path =
          std::filesystem::path(options.trace_dir) /
          batch_trace_file_name(i, specs[i].name);
      trace_sinks[i] = std::make_unique<obs::FileSink>(path.string());
      configs[i].trace_sink = trace_sinks[i].get();
    }
  }

  const std::size_t total = configs.size();
  if (options.serial) {
    for (std::size_t i = 0; i < configs.size(); ++i) {
      results[i] = run_experiment(configs[i]);
      if (options.on_progress) options.on_progress(i + 1, total);
    }
    return results;
  }

  // The only state shared between pooled runs: the progress counter, its
  // mutex, and the callback. Everything else is per-run (each task touches
  // only its own config and result slot; run_experiment builds its own
  // simulator, controller and RNG streams from the config).
  struct BatchProgress {
    Mutex mu;
    std::size_t completed EUCON_GUARDED_BY(mu) = 0;
  } progress;

  ThreadPool pool(options.num_workers);
  std::vector<std::future<void>> futures;
  futures.reserve(configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    futures.push_back(
        pool.submit([&configs, &results, &options, &progress, total, i] {
          results[i] = run_experiment(configs[i]);
          if (options.on_progress) {
            // Holding mu across the callback serializes invocations and
            // makes the (completed, total) sequence strictly increasing —
            // that ordering IS the documented contract (experiment.h), so
            // the hold is deliberate. The price: a callback that blocks
            // stalls every worker's progress report, and one that
            // re-enters run_batch on this pool deadlocks.
            const MutexLock lock(progress.mu);
            ++progress.completed;
            options.on_progress(progress.completed, total);
          }
        }));
  }
  // Wait for everything, then surface the first failure (in spec order) —
  // the pool must fully drain before `configs`/`results` can go away.
  for (auto& f : futures) f.wait();
  for (auto& f : futures) f.get();
  return results;
}

std::vector<ExperimentResult> run_batch(
    const std::vector<ExperimentConfig>& configs, const BatchOptions& options) {
  std::vector<ExperimentSpec> specs;
  specs.reserve(configs.size());
  for (const auto& cfg : configs) specs.push_back({std::string(), cfg});
  return run_batch(specs, options);
}

}  // namespace eucon
