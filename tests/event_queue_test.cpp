#include "rts/event.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <queue>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace eucon::rts {
namespace {

constexpr EventKind kRelease = EventKind::kTaskRelease;

TEST(EventQueueTest, OrdersByTime) {
  EventQueue q;
  q.push(30, kRelease, 0);
  q.push(10, kRelease, 0);
  q.push(20, kRelease, 0);
  EXPECT_EQ(q.pop().time, 10);
  EXPECT_EQ(q.pop().time, 20);
  EXPECT_EQ(q.pop().time, 30);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, FifoAtEqualTimes) {
  EventQueue q;
  q.push(5, kRelease, 1);
  q.push(5, kRelease, 2);
  q.push(5, kRelease, 3);
  EXPECT_EQ(q.pop().index, 1u);
  EXPECT_EQ(q.pop().index, 2u);
  EXPECT_EQ(q.pop().index, 3u);
}

TEST(EventQueueTest, InterleavedPushPopPreservesCausality) {
  EventQueue q;
  q.push(10, kRelease, 0);
  const Event first = q.pop();
  EXPECT_EQ(first.time, 10);
  // An event created while processing time 10 for the same instant must
  // come out after previously queued time-10 events.
  q.push(10, kRelease, 7);
  q.push(10, kRelease, 8);
  EXPECT_EQ(q.pop().index, 7u);
  EXPECT_EQ(q.pop().index, 8u);
}

TEST(EventQueueTest, SizeTracksContents) {
  EventQueue q;
  EXPECT_EQ(q.size(), 0u);
  q.push(1, kRelease, 0);
  q.push(2, kRelease, 0);
  EXPECT_EQ(q.size(), 2u);
  (void)q.pop();
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueueTest, PayloadSurvives) {
  EventQueue q(4);
  (void)q.push(1, kRelease, 0);
  const std::uint64_t seq = q.schedule_completion(3, 42);
  (void)q.pop();
  const Event out = q.pop();
  EXPECT_EQ(out.kind, EventKind::kCompletion);
  EXPECT_EQ(out.index, 3u);
  // The seq schedule_completion() returned is the one the event carries:
  // the processor compares it to check that the completion is its own.
  EXPECT_EQ(out.seq, seq);
  EXPECT_EQ(seq, 1u);
}

// Rescheduling a completion moves its slot: one completion per processor
// is pending, under the newest seq, earlier or later than the old one.
TEST(EventQueueTest, RescheduledCompletionReplacesThePendingOne) {
  EventQueue q(2);
  (void)q.schedule_completion(0, 10);
  (void)q.schedule_completion(1, 12);
  (void)q.schedule_completion(0, 5);  // earlier: rises
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.next_time(), 5);
  const std::uint64_t late = q.schedule_completion(0, 20);  // later: sinks
  q.push(20, kRelease, 9);
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.next_time(), 12);
  EXPECT_EQ(q.pop().index, 1u);
  const Event c = q.pop();  // equal times: the older seq first
  EXPECT_EQ(c.kind, EventKind::kCompletion);
  EXPECT_EQ(c.seq, late);
  EXPECT_EQ(q.pop().index, 9u);
  EXPECT_TRUE(q.empty());
}

// The 4-ary heap pops in exactly (time, seq) order under any interleaving
// of pushes and pops, including long runs of equal times.
TEST(EventQueueTest, PopsInTimeSeqOrderUnderRandomInterleaving) {
  EventQueue q;
  Rng rng(42);
  std::vector<std::pair<Ticks, std::uint64_t>> pending;  // reference model
  Ticks now = 0;
  for (int step = 0; step < 20000; ++step) {
    if (pending.empty() || rng.next_double() < 0.55) {
      const Ticks t = now + rng.uniform_int(0, 8);
      const std::uint64_t seq =
          q.push(t, kRelease, static_cast<std::uint32_t>(step));
      pending.emplace_back(t, seq);
    } else {
      const auto want = std::min_element(pending.begin(), pending.end());
      const Event got = q.pop();
      ASSERT_EQ(got.time, want->first);
      ASSERT_EQ(got.seq, want->second);
      now = got.time;
      pending.erase(want);
    }
    ASSERT_EQ(q.size(), pending.size());
  }
}

// Differential check against the single-heap queue the completion slots
// replace: there, every completion was pushed like any other event, a
// rescheduled completion left its earlier event behind, and the pop loop
// skipped events whose seq was not the processor's live one. Both queues
// must yield the same (time, seq, kind, index) sequence.
TEST(EventQueueTest, MatchesSingleHeapWithStaleCompletionsSkipped) {
  constexpr std::uint32_t kProcessors = 7;
  constexpr std::uint64_t kNone = ~std::uint64_t{0};
  using Entry = std::tuple<Ticks, std::uint64_t, EventKind, std::uint32_t>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> model;
  std::vector<std::uint64_t> live(kProcessors, kNone);
  std::uint64_t model_seq = 0;
  std::size_t model_live = 0;
  // Pops the model's next live event, discarding stale completions.
  const auto model_pop = [&]() {
    while (true) {
      const Entry e = model.top();
      model.pop();
      if (std::get<2>(e) != EventKind::kCompletion) return e;
      std::uint64_t& l = live[std::get<3>(e)];
      if (std::get<1>(e) != l) continue;  // stale
      l = kNone;
      return e;
    }
  };

  EventQueue q(kProcessors);
  Rng rng(2024);
  Ticks now = 0;
  std::size_t pops = 0;
  std::size_t reschedules = 0;
  for (int step = 0; step < 30000; ++step) {
    const double r = rng.next_double();
    if (model_live == 0 || r < 0.3) {
      const Ticks t = now + rng.uniform_int(0, 6);
      const auto kind = rng.next_double() < 0.5 ? EventKind::kTaskRelease
                                                : EventKind::kSubtaskRelease;
      const auto index = static_cast<std::uint32_t>(rng.uniform_int(0, 50));
      ASSERT_EQ(q.push(t, kind, index), model_seq);
      model.emplace(t, model_seq++, kind, index);
      ++model_live;
    } else if (r < 0.6) {
      const auto p =
          static_cast<std::uint32_t>(rng.uniform_int(0, kProcessors - 1));
      const Ticks t = now + rng.uniform_int(0, 6);
      ASSERT_EQ(q.schedule_completion(p, t), model_seq);
      if (live[p] == kNone) ++model_live;
      live[p] = model_seq;
      model.emplace(t, model_seq++, EventKind::kCompletion, p);
      ++reschedules;
    } else {
      const Entry want = model_pop();
      --model_live;
      ASSERT_EQ(q.next_time(), std::get<0>(want)) << "pop " << pops;
      const Event got = q.pop();
      ASSERT_EQ(got.time, std::get<0>(want)) << "pop " << pops;
      ASSERT_EQ(got.seq, std::get<1>(want)) << "pop " << pops;
      ASSERT_EQ(got.kind, std::get<2>(want)) << "pop " << pops;
      ASSERT_EQ(got.index, std::get<3>(want)) << "pop " << pops;
      now = got.time;
      ++pops;
    }
    ASSERT_EQ(q.size(), model_live);
  }
  EXPECT_GT(pops, 5000u);
  EXPECT_GT(reschedules, 5000u);
}

}  // namespace
}  // namespace eucon::rts
