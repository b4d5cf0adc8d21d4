#include "rts/event.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace eucon::rts {
namespace {

Event at(Ticks t, EventKind kind = EventKind::kTaskRelease) {
  Event e;
  e.time = t;
  e.kind = kind;
  return e;
}

TEST(EventQueueTest, OrdersByTime) {
  EventQueue q;
  q.push(at(30));
  q.push(at(10));
  q.push(at(20));
  EXPECT_EQ(q.pop().time, 10);
  EXPECT_EQ(q.pop().time, 20);
  EXPECT_EQ(q.pop().time, 30);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, FifoAtEqualTimes) {
  EventQueue q;
  Event a = at(5);
  a.index = 1;
  Event b = at(5);
  b.index = 2;
  Event c = at(5);
  c.index = 3;
  q.push(a);
  q.push(b);
  q.push(c);
  EXPECT_EQ(q.pop().index, 1u);
  EXPECT_EQ(q.pop().index, 2u);
  EXPECT_EQ(q.pop().index, 3u);
}

TEST(EventQueueTest, InterleavedPushPopPreservesCausality) {
  EventQueue q;
  q.push(at(10));
  const Event first = q.pop();
  EXPECT_EQ(first.time, 10);
  // An event created while processing time 10 for the same instant must
  // come out after previously queued time-10 events.
  Event earlier = at(10);
  earlier.index = 7;
  q.push(earlier);
  Event later = at(10);
  later.index = 8;
  q.push(later);
  EXPECT_EQ(q.pop().index, 7u);
  EXPECT_EQ(q.pop().index, 8u);
}

TEST(EventQueueTest, SizeTracksContents) {
  EventQueue q;
  EXPECT_EQ(q.size(), 0u);
  q.push(at(1));
  q.push(at(2));
  EXPECT_EQ(q.size(), 2u);
  (void)q.pop();
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueueTest, PayloadSurvives) {
  EventQueue q;
  (void)q.push(at(1));
  Event e = at(42, EventKind::kCompletion);
  e.index = 3;
  const std::uint64_t seq = q.push(e);
  (void)q.pop();
  const Event out = q.pop();
  EXPECT_EQ(out.kind, EventKind::kCompletion);
  EXPECT_EQ(out.index, 3u);
  // The seq push() returned is the one the event carries: owners of
  // cancellable events compare it to tell the live event from stale ones.
  EXPECT_EQ(out.seq, seq);
  EXPECT_EQ(seq, 1u);
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
      Event e = at(now + rng.uniform_int(0, 8));
      e.index = static_cast<std::uint32_t>(step);
      const std::uint64_t seq = q.push(e);
      pending.emplace_back(e.time, seq);
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

}  // namespace
}  // namespace eucon::rts
