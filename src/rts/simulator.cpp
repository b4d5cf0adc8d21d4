#include "rts/simulator.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace eucon::rts {

Simulator::Simulator(SystemSpec spec, SimOptions options)
    : spec_(std::move(spec)),
      options_(std::move(options)),
      deadline_stats_(spec_.num_tasks()) {
  spec_.validate();
  EUCON_REQUIRE(options_.feedback_lane_delay >= 0.0,
                "feedback-lane delay must be non-negative");

  processors_.reserve(static_cast<std::size_t>(spec_.num_processors));
  for (int p = 0; p < spec_.num_processors; ++p)
    processors_.emplace_back(p, &queue_,
                             options_.enable_trace ? &trace_ : nullptr);

  const std::size_t m = spec_.num_tasks();
  rates_.resize(m);
  period_ticks_.resize(m);
  release_gen_.assign(m, 0);
  next_instance_.assign(m, 0);
  task_enabled_.assign(m, true);
  subtask_base_.resize(m);

  Rng base(options_.seed);
  std::size_t flat = 0;
  for (std::size_t i = 0; i < m; ++i) {
    rates_[i] = spec_.tasks[i].initial_rate;
    period_ticks_[i] = rate_to_period_ticks(rates_[i]);
    subtask_base_[i] = flat;
    const auto& subtasks = spec_.tasks[i].subtasks;
    double exec_sum = 0.0;
    for (const auto& sub : subtasks) exec_sum += sub.estimated_exec;
    ExecModelParams exec_params;
    exec_params.distribution = options_.exec_distribution;
    exec_params.jitter = options_.jitter;
    exec_params.burst_prob = options_.burst_prob;
    exec_params.burst_factor = options_.burst_factor;
    for (std::size_t j = 0; j < subtasks.size(); ++j, ++flat) {
      exec_models_.push_back(std::make_unique<ExecutionTimeModel>(
          options_.etf, exec_params, base.split(flat)));
      deadline_fraction_.push_back(
          options_.subdeadline_policy == SubdeadlinePolicy::kEvenByCount
              ? 1.0 / static_cast<double>(subtasks.size())
              : subtasks[j].estimated_exec / exec_sum);
    }
  }
  last_release_.assign(flat, kNeverTicks);
  pending_.resize(flat);

  // Initial releases: every task starts at time 0 (the paper's runs start
  // with all tasks active at their initial rates).
  for (std::size_t i = 0; i < m; ++i) {
    Event e;
    e.time = 0;
    e.kind = EventKind::kTaskRelease;
    e.task = static_cast<int>(i);
    e.gen = 0;
    queue_.push(e);
  }
}

Simulator::~Simulator() = default;

int Simulator::subtask_index(int task, int subtask) const {
  return eucon::narrow<int>(subtask_base_[static_cast<std::size_t>(task)] +
                            static_cast<std::size_t>(subtask));
}

void Simulator::run_until(Ticks t) {
  EUCON_REQUIRE(t >= now_, "run_until cannot move backwards");
  while (!queue_.empty() && queue_.top().time < t) {
    const Event e = queue_.pop();
    EUCON_ASSERT(e.time >= now_, "event queue produced an out-of-order event");
    now_ = e.time;
    handle(e);
  }
  now_ = t;
}

void Simulator::handle(const Event& e) {
  switch (e.kind) {
    case EventKind::kTaskRelease:
      on_task_release(e);
      break;
    case EventKind::kSubtaskRelease:
      on_subtask_release(e);
      break;
    case EventKind::kCompletion:
      on_completion(e);
      break;
    case EventKind::kRateChange:
      on_rate_change();
      break;
  }
}

Job* Simulator::make_job(int task, int subtask, std::uint64_t instance,
                         Ticks instance_release, Ticks abs_deadline,
                         Ticks release_time) {
  const std::size_t flat = static_cast<std::size_t>(subtask_index(task, subtask));
  const auto& sspec =
      spec_.tasks[static_cast<std::size_t>(task)].subtasks[static_cast<std::size_t>(subtask)];

  auto job = std::make_unique<Job>();
  job->id = next_job_id_++;
  job->task = task;
  job->subtask = subtask;
  job->instance = instance;
  job->instance_release = instance_release;
  job->abs_deadline = abs_deadline;
  // Subdeadline: this subtask's share of d_i = n_i / r_i, from the release
  // (even division makes this exactly one period, paper §7.1).
  const auto ni = static_cast<double>(
      spec_.tasks[static_cast<std::size_t>(task)].subtasks.size());
  job->sub_deadline =
      release_time + static_cast<Ticks>(std::llround(
                         deadline_fraction_[flat] * ni *
                         static_cast<double>(period_ticks(task))));
  job->release_time = release_time;
  job->exec_total = exec_models_[flat]->sample(sspec.estimated_exec, release_time);
  job->remaining = job->exec_total;
  job->priority_key = priority_key_for(*job);

  Job* raw = job.get();
  jobs_.emplace(raw->id, std::move(job));
  processors_[static_cast<std::size_t>(sspec.processor)].enqueue(raw, now_);
  return raw;
}

Ticks Simulator::priority_key_for(const Job& job) const {
  return options_.policy == SchedulingPolicy::kRateMonotonic
             ? period_ticks(job.task)
             : job.sub_deadline;
}

void Simulator::schedule_task_release(int task, Ticks not_before) {
  const auto t = static_cast<std::size_t>(task);
  const std::size_t flat0 = subtask_base_[t];
  Event rel;
  rel.time = last_release_[flat0] == kNeverTicks
                 ? not_before
                 : std::max(not_before, last_release_[flat0] + period_ticks_[t]);
  rel.kind = EventKind::kTaskRelease;
  rel.task = task;
  rel.gen = release_gen_[t];
  queue_.push(rel);
}

void Simulator::set_task_enabled(int task, bool enabled) {
  EUCON_REQUIRE(task >= 0 && static_cast<std::size_t>(task) < spec_.num_tasks(),
                "unknown task");
  const auto t = static_cast<std::size_t>(task);
  if (task_enabled_[t] == enabled) return;
  task_enabled_[t] = enabled;
  ++release_gen_[t];  // cancels the pending release either way
  if (enabled) schedule_task_release(task, now_);
}

void Simulator::migrate_subtask(int task, int subtask, int new_processor) {
  EUCON_REQUIRE(task >= 0 && static_cast<std::size_t>(task) < spec_.num_tasks(),
                "unknown task");
  auto& subtasks = spec_.tasks[static_cast<std::size_t>(task)].subtasks;
  EUCON_REQUIRE(subtask >= 0 &&
                    static_cast<std::size_t>(subtask) < subtasks.size(),
                "unknown subtask");
  EUCON_REQUIRE(new_processor >= 0 && new_processor < spec_.num_processors,
                "unknown processor");
  subtasks[static_cast<std::size_t>(subtask)].processor = new_processor;
}

bool Simulator::task_enabled(int task) const {
  EUCON_REQUIRE(task >= 0 && static_cast<std::size_t>(task) < spec_.num_tasks(),
                "unknown task");
  return task_enabled_[static_cast<std::size_t>(task)];
}

void Simulator::on_task_release(const Event& e) {
  const auto t = static_cast<std::size_t>(e.task);
  if (e.gen != release_gen_[t]) return;  // superseded by a rate change
  if (!task_enabled_[t]) return;         // suspended by admission control

  const std::uint64_t instance = next_instance_[t]++;
  const auto ni = static_cast<Ticks>(spec_.tasks[t].subtasks.size());
  const Ticks abs_deadline = now_ + ni * period_ticks(e.task);

  deadline_stats_.on_instance_released(e.task);
  last_release_[subtask_base_[t]] = now_;
  make_job(e.task, 0, instance, now_, abs_deadline, now_);

  Event next;
  next.time = now_ + period_ticks(e.task);
  next.kind = EventKind::kTaskRelease;
  next.task = e.task;
  next.gen = e.gen;
  queue_.push(next);
}

void Simulator::on_subtask_release(const Event& e) {
  const auto flat = static_cast<std::size_t>(subtask_index(e.task, e.subtask));
  EUCON_ASSERT(!pending_[flat].empty(), "subtask release without pending entry");
  const PendingRelease pr = pending_[flat].front();
  pending_[flat].pop_front();
  make_job(e.task, e.subtask, pr.instance, pr.instance_release, pr.abs_deadline,
           now_);
}

void Simulator::inject_overhead(int processor, double exec_units) {
  EUCON_REQUIRE(processor >= 0 && processor < spec_.num_processors,
                "unknown processor");
  EUCON_REQUIRE(exec_units > 0.0, "overhead must be positive");
  auto job = std::make_unique<Job>();
  job->id = next_job_id_++;
  job->task = -1;  // marks overhead: no deadline stats, no chain
  job->subtask = -1;
  job->release_time = now_;
  job->exec_total = std::max<Ticks>(units_to_ticks(exec_units), 1);
  job->remaining = job->exec_total;
  job->priority_key = 0;  // outranks every application job
  Job* raw = job.get();
  jobs_.emplace(raw->id, std::move(job));
  processors_[static_cast<std::size_t>(processor)].enqueue(raw, now_);
}

void Simulator::on_completion(const Event& e) {
  auto& proc = processors_[static_cast<std::size_t>(e.processor)];
  Job* job = proc.on_completion_event(e.gen, now_);
  if (job == nullptr) return;  // stale event
  if (job->task < 0) {         // injected overhead: account only
    jobs_.erase(job->id);
    return;
  }

  deadline_stats_.on_subtask_completed(job->task, now_, job->sub_deadline);

  const auto t = static_cast<std::size_t>(job->task);
  const auto next_sub = static_cast<std::size_t>(job->subtask) + 1;
  if (next_sub < spec_.tasks[t].subtasks.size()) {
    // Release guard (Sun & Liu): the successor is released when its
    // predecessor has completed AND at least one period has elapsed since
    // the successor's previous release — keeping the subtask periodic.
    const auto flat =
        static_cast<std::size_t>(subtask_index(job->task, static_cast<int>(next_sub)));
    const Ticks guarded =
        last_release_[flat] == kNeverTicks
            ? now_
            : std::max(now_, last_release_[flat] + period_ticks(job->task));
    if (guarded > now_) ++release_guard_stalls_;
    last_release_[flat] = guarded;
    pending_[flat].push_back({job->instance, job->instance_release, job->abs_deadline});

    Event rel;
    rel.time = guarded;
    rel.kind = EventKind::kSubtaskRelease;
    rel.task = job->task;
    rel.subtask = static_cast<int>(next_sub);
    queue_.push(rel);
  } else {
    deadline_stats_.on_instance_completed(job->task, now_, job->abs_deadline,
                                          job->instance_release);
  }
  jobs_.erase(job->id);
}

void Simulator::on_rate_change() {
  EUCON_ASSERT(!pending_rate_sets_.empty(), "rate change with no rates queued");
  const std::vector<double> requested = std::move(pending_rate_sets_.front());
  pending_rate_sets_.pop_front();
  for (std::size_t i = 0; i < spec_.num_tasks(); ++i) {
    const auto& task = spec_.tasks[i];
    const double clamped =
        std::clamp(requested[i], task.rate_min, task.rate_max);
    rates_[i] = clamped;
    period_ticks_[i] = rate_to_period_ticks(clamped);
    // Re-anchor the task's periodic release on the new period, respecting
    // the separation already established by the previous release.
    ++release_gen_[i];
    if (task_enabled_[i]) schedule_task_release(static_cast<int>(i), now_);
  }
  // RMS priorities follow the new periods. EDF keys are absolute
  // subdeadlines of already-released jobs and do not change.
  if (options_.policy == SchedulingPolicy::kRateMonotonic) {
    for (auto& proc : processors_) {
      proc.reprioritize(
          [this](const Job& j) {
            // Injected overhead jobs (task < 0) keep their key: they have no
            // period and already outrank every application job.
            return j.task < 0 ? j.priority_key : period_ticks(j.task);
          },
          now_);
    }
  }
}

std::vector<double> Simulator::sample_utilizations() {
  EUCON_REQUIRE(now_ > sample_window_start_,
                "sampling window is empty; run the simulator first");
  const double window = static_cast<double>(now_ - sample_window_start_);
  std::vector<double> u;
  u.reserve(processors_.size());
  for (auto& proc : processors_) {
    proc.account_until(now_);
    u.push_back(static_cast<double>(proc.take_window_busy()) / window);
  }
  sample_window_start_ = now_;
  return u;
}

void Simulator::set_rates(const std::vector<double>& rates) {
  EUCON_REQUIRE(rates.size() == spec_.num_tasks(),
                "set_rates needs one rate per task");
  pending_rate_sets_.push_back(rates);
  Event e;
  e.time = now_ + units_to_ticks(options_.feedback_lane_delay);
  e.kind = EventKind::kRateChange;
  queue_.push(e);
}

double Simulator::execution_time_factor_now() const {
  return options_.etf.factor_at(now_);
}

}  // namespace eucon::rts
