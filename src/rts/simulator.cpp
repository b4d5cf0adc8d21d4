#include "rts/simulator.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"

namespace eucon::rts {

namespace {
constexpr std::uint64_t kNoSeq = ~std::uint64_t{0};

SystemSpec validated(SystemSpec spec) {
  spec.validate();
  return spec;
}
}  // namespace

void Simulator::GuardFifo::push(Ticks instance_release, Ticks abs_deadline) {
  if (size_ == ring_.size()) {
    // Full: unroll into a buffer twice the size (at least 4). This is the
    // only allocation, and only when the backlog exceeds every earlier one.
    std::vector<PendingRelease> grown(  // eucon-lint: allow(allocation-in-realtime)
        std::max<std::size_t>(4, 2 * size_));
    for (std::size_t i = 0; i < size_; ++i)
      grown[i] = ring_[(head_ + i) & (ring_.size() - 1)];
    ring_.swap(grown);
    head_ = 0;
  }
  PendingRelease& r = ring_[(head_ + size_) & (ring_.size() - 1)];
  r.instance_release = instance_release;
  r.abs_deadline = abs_deadline;
  ++size_;
}

Simulator::PendingRelease Simulator::GuardFifo::pop() {
  EUCON_ASSERT(size_ > 0, "subtask release without pending entry");
  const PendingRelease r = ring_[head_];
  head_ = (head_ + 1) & (ring_.size() - 1);
  --size_;
  return r;
}

void Simulator::RateRing::enqueue(const std::vector<double>& rates) {
  if (size_ == capacity_) {
    // Full: unroll into twice as many buffers (at least 2). This is the
    // only allocation, and only when more requests are pending than ever
    // before.
    const std::size_t grown_capacity = std::max<std::size_t>(2, 2 * capacity_);
    std::vector<double> grown(grown_capacity * width_);
    for (std::size_t i = 0; i < size_; ++i) {
      const std::size_t from = (head_ + i) % capacity_ * width_;
      std::copy_n(buf_.begin() + static_cast<std::ptrdiff_t>(from), width_,
                  grown.begin() + static_cast<std::ptrdiff_t>(i * width_));
    }
    buf_.swap(grown);
    capacity_ = grown_capacity;
    head_ = 0;
  }
  const std::size_t at = (head_ + size_) % capacity_ * width_;
  std::copy(rates.begin(), rates.end(),
            buf_.begin() + static_cast<std::ptrdiff_t>(at));
  ++size_;
}

const double* Simulator::RateRing::front() const {
  EUCON_ASSERT(size_ > 0, "rate change with no rates queued");
  return buf_.data() + head_ * width_;
}

void Simulator::RateRing::pop() {
  head_ = (head_ + 1) % capacity_;
  --size_;
}

Simulator::Simulator(SystemSpec spec, SimOptions options)
    : spec_(validated(std::move(spec))),
      options_(std::move(options)),
      queue_(static_cast<std::size_t>(spec_.num_processors)),
      deadline_stats_(spec_.num_tasks()),
      pending_rates_(spec_.num_tasks()) {
  EUCON_REQUIRE(options_.feedback_lane_delay >= 0.0,
                "feedback-lane delay must be non-negative");
  exec_params_.distribution = options_.exec_distribution;
  exec_params_.jitter = options_.jitter;
  exec_params_.burst_prob = options_.burst_prob;
  exec_params_.burst_factor = options_.burst_factor;
  exec_params_.validate();

  const std::size_t m = spec_.num_tasks();
  const std::size_t flat_count = spec_.num_subtasks();
  EUCON_REQUIRE(flat_count <= std::numeric_limits<std::uint32_t>::max(),
                "system too large for 32-bit event indices");

  // Without overload a processor queues about one job per hosted subtask;
  // twice that, plus room for injected overhead, covers transient
  // backlogs, so the ready heaps stop growing after warm-up.
  const std::vector<int> hosted = spec_.subtasks_per_processor();
  processors_.reserve(static_cast<std::size_t>(spec_.num_processors));
  for (int p = 0; p < spec_.num_processors; ++p) {
    processors_.emplace_back(p, &queue_, &jobs_,
                             options_.enable_trace ? &trace_ : nullptr);
    processors_.back().reserve(
        2 * static_cast<std::size_t>(hosted[static_cast<std::size_t>(p)]) + 2);
  }

  rates_.resize(m);
  period_ticks_.resize(m);
  live_release_seq_.assign(m, kNoSeq);
  task_enabled_.assign(m, true);
  task_base_.resize(m + 1);
  subtasks_.reserve(flat_count);
  exec_rng_.reserve(flat_count);
  guard_.resize(flat_count);

  const Rng base(options_.seed);
  for (std::size_t i = 0; i < m; ++i) {
    task_base_[i] = subtasks_.size();
    const auto& chain = spec_.tasks[i].subtasks;
    double exec_sum = 0.0;
    for (const auto& sub : chain) exec_sum += sub.estimated_exec;
    const auto ni = static_cast<double>(chain.size());
    for (std::size_t j = 0; j < chain.size(); ++j) {
      SubtaskSlot slot;
      slot.task = static_cast<int>(i);
      slot.processor = chain[j].processor;
      slot.last = j + 1 == chain.size();
      slot.estimated_exec = chain[j].estimated_exec;
      const double fraction =
          options_.subdeadline_policy == SubdeadlinePolicy::kEvenByCount
              ? 1.0 / ni
              : chain[j].estimated_exec / exec_sum;
      slot.deadline_scale = fraction * ni;
      exec_rng_.push_back(base.split(subtasks_.size()));
      subtasks_.push_back(slot);
    }
  }
  task_base_[m] = subtasks_.size();
  for (std::size_t i = 0; i < m; ++i)
    set_task_rate(i, spec_.tasks[i].initial_rate);

  // Besides the completion slots, every pending event is a task release
  // (live or superseded), a guarded subtask release or a rate change; a
  // few per task and subtask cover the steady state, so the heap rarely
  // grows after warm-up.
  queue_.reserve(4 * (m + flat_count) + 16);

  // Initial releases: every task starts at time 0 (the paper's runs start
  // with all tasks active at their initial rates).
  for (std::size_t i = 0; i < m; ++i)
    live_release_seq_[i] =
        queue_.push(0, EventKind::kTaskRelease, static_cast<std::uint32_t>(i));
}

Simulator::~Simulator() = default;

void Simulator::run_until(Ticks t) {
  EUCON_REQUIRE(t >= now_, "run_until cannot move backwards");
  while (!queue_.empty() && queue_.next_time() < t) {
    const Event e = queue_.pop();
    EUCON_ASSERT(e.time >= now_, "event queue produced an out-of-order event");
    ++events_popped_;
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

void Simulator::release_job(std::size_t flat, Ticks instance_release,
                            Ticks abs_deadline) {
  const SubtaskSlot& slot = subtasks_[flat];
  const auto t = static_cast<std::size_t>(slot.task);
  const Ticks period = period_ticks_[t];

  const JobHandle h = jobs_.acquire();
  Job& job = jobs_[h];
  job.id = next_job_id_++;
  job.task = slot.task;
  job.subtask = static_cast<int>(flat - task_base_[t]);
  job.instance_release = instance_release;
  job.abs_deadline = abs_deadline;
  // Subdeadline: this subtask's share of d_i = n_i / r_i, from the release
  // (even division makes this exactly one period, paper §7.1).
  job.sub_deadline = now_ + slot.deadline_offset;
  job.remaining = draw_exec_time(options_.etf, exec_params_, exec_rng_[flat],
                                 slot.estimated_exec, now_);
  const Ticks key = options_.policy == SchedulingPolicy::kRateMonotonic
                        ? period
                        : job.sub_deadline;
  processors_[static_cast<std::size_t>(slot.processor)].make_ready(h, key, now_);
}

void Simulator::schedule_task_release(std::size_t task, Ticks not_before) {
  const Ticks last = subtasks_[task_base_[task]].last_release;
  const Ticks at = last == kNeverTicks
                       ? not_before
                       : std::max(not_before, last + period_ticks_[task]);
  live_release_seq_[task] = queue_.push(at, EventKind::kTaskRelease,
                                        static_cast<std::uint32_t>(task));
}

void Simulator::set_task_enabled(int task, bool enabled) {
  EUCON_REQUIRE(task >= 0 && static_cast<std::size_t>(task) < spec_.num_tasks(),
                "unknown task");
  const auto t = static_cast<std::size_t>(task);
  if (task_enabled_[t] == enabled) return;
  task_enabled_[t] = enabled;
  live_release_seq_[t] = kNoSeq;  // cancels the pending release either way
  if (enabled) schedule_task_release(t, now_);
}

void Simulator::migrate_subtask(int task, int subtask, int new_processor) {
  EUCON_REQUIRE(task >= 0 && static_cast<std::size_t>(task) < spec_.num_tasks(),
                "unknown task");
  auto& chain = spec_.tasks[static_cast<std::size_t>(task)].subtasks;
  EUCON_REQUIRE(subtask >= 0 && static_cast<std::size_t>(subtask) < chain.size(),
                "unknown subtask");
  EUCON_REQUIRE(new_processor >= 0 && new_processor < spec_.num_processors,
                "unknown processor");
  chain[static_cast<std::size_t>(subtask)].processor = new_processor;
  subtasks_[task_base_[static_cast<std::size_t>(task)] +
            static_cast<std::size_t>(subtask)]
      .processor = new_processor;
}

bool Simulator::task_enabled(int task) const {
  EUCON_REQUIRE(task >= 0 && static_cast<std::size_t>(task) < spec_.num_tasks(),
                "unknown task");
  return task_enabled_[static_cast<std::size_t>(task)];
}

void Simulator::on_task_release(const Event& e) {
  const std::size_t t = e.index;
  if (e.seq != live_release_seq_[t]) return;  // superseded by a rate change
  if (!task_enabled_[t]) return;              // suspended by admission control

  const std::size_t flat0 = task_base_[t];
  const auto ni = static_cast<Ticks>(task_base_[t + 1] - flat0);
  const Ticks abs_deadline = now_ + ni * period_ticks_[t];

  deadline_stats_.on_instance_released(static_cast<int>(t));
  subtasks_[flat0].last_release = now_;
  release_job(flat0, now_, abs_deadline);

  live_release_seq_[t] =
      queue_.push(now_ + period_ticks_[t], EventKind::kTaskRelease, e.index);
}

void Simulator::on_subtask_release(const Event& e) {
  const std::size_t flat = e.index;
  const PendingRelease pr = guard_[flat].pop();
  release_job(flat, pr.instance_release, pr.abs_deadline);
}

void Simulator::inject_overhead(int processor, double exec_units) {
  EUCON_REQUIRE(processor >= 0 && processor < spec_.num_processors,
                "unknown processor");
  EUCON_REQUIRE(exec_units > 0.0, "overhead must be positive");
  const JobHandle h = jobs_.acquire();
  Job& job = jobs_[h];
  job.id = next_job_id_++;
  job.task = -1;  // marks overhead: no deadline stats, no chain
  job.subtask = -1;
  job.remaining = std::max<Ticks>(units_to_ticks(exec_units), 1);
  // Priority key 0 outranks every application job.
  processors_[static_cast<std::size_t>(processor)].make_ready(h, 0, now_);
}

void Simulator::on_completion(const Event& e) {
  const JobHandle h = processors_[e.index].on_completion_event(e.seq, now_);
  const Job& job = jobs_[h];
  if (job.task < 0) {  // injected overhead: account only
    jobs_.release(h);
    return;
  }

  deadline_stats_.on_subtask_completed(job.task, now_, job.sub_deadline);

  const auto t = static_cast<std::size_t>(job.task);
  const std::size_t flat = task_base_[t] + static_cast<std::size_t>(job.subtask);
  if (!subtasks_[flat].last) {
    // Release guard (Sun & Liu): the successor is released when its
    // predecessor has completed AND at least one period has elapsed since
    // the successor's previous release — keeping the subtask periodic.
    const std::size_t next = flat + 1;
    SubtaskSlot& succ = subtasks_[next];
    const Ticks guarded =
        succ.last_release == kNeverTicks
            ? now_
            : std::max(now_, succ.last_release + period_ticks_[t]);
    if (guarded > now_) ++release_guard_stalls_;
    succ.last_release = guarded;
    guard_[next].push(job.instance_release, job.abs_deadline);
    queue_.push(guarded, EventKind::kSubtaskRelease,
                static_cast<std::uint32_t>(next));
  } else {
    deadline_stats_.on_instance_completed(job.task, now_, job.abs_deadline,
                                          job.instance_release);
  }
  jobs_.release(h);
}

void Simulator::set_task_rate(std::size_t task, double rate) {
  rates_[task] = rate;
  const Ticks period = rate_to_period_ticks(rate);
  period_ticks_[task] = period;
  for (std::size_t f = task_base_[task]; f < task_base_[task + 1]; ++f) {
    SubtaskSlot& slot = subtasks_[f];
    slot.deadline_offset = static_cast<Ticks>(
        std::llround(slot.deadline_scale * static_cast<double>(period)));
  }
}

void Simulator::on_rate_change() {
  const double* requested = pending_rates_.front();
  for (std::size_t i = 0; i < spec_.num_tasks(); ++i) {
    const auto& task = spec_.tasks[i];
    set_task_rate(i, std::clamp(requested[i], task.rate_min, task.rate_max));
    // Re-anchor the task's periodic release on the new period, respecting
    // the separation already established by the previous release.
    live_release_seq_[i] = kNoSeq;
    if (task_enabled_[i]) schedule_task_release(i, now_);
  }
  pending_rates_.pop();
  // RMS priorities follow the new periods. EDF keys are absolute
  // subdeadlines of already-released jobs and do not change.
  if (options_.policy == SchedulingPolicy::kRateMonotonic) {
    for (auto& proc : processors_) proc.reprioritize(period_ticks_, now_);
  }
}

std::vector<double> Simulator::sample_utilizations() {
  std::vector<double> u;
  sample_utilizations_into(u);
  return u;
}

void Simulator::sample_utilizations_into(std::vector<double>& u) {
  EUCON_REQUIRE(now_ > sample_window_start_,
                "sampling window is empty; run the simulator first");
  const double window = static_cast<double>(now_ - sample_window_start_);
  u.resize(processors_.size());
  for (std::size_t p = 0; p < processors_.size(); ++p) {
    Processor& proc = processors_[p];
    proc.account_until(now_);
    u[p] = static_cast<double>(proc.take_window_busy()) / window;
  }
  sample_window_start_ = now_;
}

void Simulator::set_rates(const std::vector<double>& rates) {
  EUCON_REQUIRE(rates.size() == spec_.num_tasks(),
                "set_rates needs one rate per task");
  for (const double r : rates)
    EUCON_REQUIRE(!std::isnan(r), "set_rates: a requested rate is NaN");
  pending_rates_.enqueue(rates);
  queue_.push(now_ + units_to_ticks(options_.feedback_lane_delay),
              EventKind::kRateChange, 0);
}

double Simulator::execution_time_factor_now() const {
  return options_.etf.factor_at(now_);
}

}  // namespace eucon::rts
