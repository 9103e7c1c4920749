// Unit tests for src/sim: simulated time, frequencies, the discrete-event
// scheduler's ordering guarantees.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "common/error.h"
#include "sim/scheduler.h"
#include "sim/time.h"

// Every global allocation in this binary bumps the counter, so a test can
// assert that a stretch of code allocates nothing.  Every non-aligned form
// is replaced: a sanitizer runtime ships its own, and a block must never be
// allocated by one side and freed by the other.  The deletes stay out of
// line: inlined into a caller, GCC pairs their free() with the library's
// operator new and warns of a mismatch.
namespace {
std::size_t g_allocations = 0;
void* counted_malloc(std::size_t size) noexcept {
  ++g_allocations;
  return std::malloc(size == 0 ? 1 : size);
}
}  // namespace

void* operator new(std::size_t size) {
  if (void* p = counted_malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p,
                                       const std::nothrow_t&) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p,
                                         const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace aad::sim {
namespace {

TEST(SimTimeTest, UnitConversions) {
  EXPECT_EQ(SimTime::ns(1).picoseconds(), 1000);
  EXPECT_EQ(SimTime::us(1).picoseconds(), 1'000'000);
  EXPECT_EQ(SimTime::ms(1).picoseconds(), 1'000'000'000);
  EXPECT_DOUBLE_EQ(SimTime::us(2.5).microseconds(), 2.5);
}

TEST(SimTimeTest, Arithmetic) {
  const SimTime a = SimTime::ns(10);
  const SimTime b = SimTime::ns(3);
  EXPECT_EQ((a + b).picoseconds(), 13000);
  EXPECT_EQ((a - b).picoseconds(), 7000);
  EXPECT_EQ((b * 4).picoseconds(), 12000);
  EXPECT_LT(b, a);
  EXPECT_EQ(SimTime::zero().picoseconds(), 0);
}

TEST(FrequencyTest, PeriodAndCycles) {
  const Frequency f = Frequency::mhz(100);
  EXPECT_EQ(f.period().picoseconds(), 10'000);  // 10 ns
  EXPECT_EQ(f.cycles(5).picoseconds(), 50'000);
  EXPECT_EQ(Frequency::mhz(33).cycles(33).nanoseconds(),
            33.0 * Frequency::mhz(33).period().nanoseconds());
}

TEST(SchedulerTest, RunsInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(SimTime::ns(30), [&] { order.push_back(3); });
  s.schedule_at(SimTime::ns(10), [&] { order.push_back(1); });
  s.schedule_at(SimTime::ns(20), [&] { order.push_back(2); });
  EXPECT_EQ(s.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), SimTime::ns(30));
}

TEST(SchedulerTest, FifoAmongEqualTimestamps) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i)
    s.schedule_at(SimTime::ns(5), [&order, i] { order.push_back(i); });
  s.run();
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(SchedulerTest, EventsMayScheduleMoreEvents) {
  Scheduler s;
  int fired = 0;
  s.schedule_at(SimTime::ns(1), [&] {
    ++fired;
    s.schedule_after(SimTime::ns(1), [&] { ++fired; });
  });
  s.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(s.now(), SimTime::ns(2));
}

TEST(SchedulerTest, CannotScheduleInThePast) {
  Scheduler s;
  s.schedule_at(SimTime::ns(10), [] {});
  s.run();
  EXPECT_THROW(s.schedule_at(SimTime::ns(5), [] {}), Error);
}

TEST(SchedulerTest, AdvanceRunsDueEventsAndMovesTime) {
  Scheduler s;
  bool ran = false;
  s.schedule_at(SimTime::ns(5), [&] { ran = true; });
  s.advance(SimTime::ns(10));
  EXPECT_TRUE(ran);
  EXPECT_EQ(s.now(), SimTime::ns(10));
  EXPECT_THROW(s.advance(SimTime::ns(-1)), Error);
}

TEST(SchedulerTest, RunUntilStopsAtDeadline) {
  Scheduler s;
  int fired = 0;
  s.schedule_at(SimTime::ns(5), [&] { ++fired; });
  s.schedule_at(SimTime::ns(15), [&] { ++fired; });
  EXPECT_EQ(s.run_until(SimTime::ns(10)), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.now(), SimTime::ns(10));
  EXPECT_EQ(s.pending(), 1u);
}

TEST(SchedulerTest, FifoStableAmongEqualTimestampsFromDifferentPosters) {
  // The staged pipeline posts events for many requests at the same instant
  // (e.g. simultaneous arrivals); service order must be posting order even
  // when the equal-timestamp events are interleaved with other times.
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(SimTime::ns(10), [&] { order.push_back(100); });
  for (int i = 0; i < 4; ++i)
    s.schedule_at(SimTime::ns(20), [&order, i] { order.push_back(i); });
  s.schedule_at(SimTime::ns(15), [&] { order.push_back(101); });
  // Events scheduled *from within* an event at an already-populated
  // timestamp queue behind the earlier posters.
  s.schedule_at(SimTime::ns(10), [&] {
    s.schedule_at(SimTime::ns(20), [&] { order.push_back(4); });
  });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{100, 101, 0, 1, 2, 3, 4}));
}

TEST(SchedulerTest, RunUntilAdvancesTimePastADrainedQueue) {
  // run_until is also the server's "idle until the deadline" primitive: a
  // queue that drains early must still leave now() at the deadline so later
  // submissions anchor correctly.
  Scheduler s;
  s.schedule_at(SimTime::ns(5), [] {});
  EXPECT_EQ(s.run_until(SimTime::ns(50)), 1u);
  EXPECT_TRUE(s.idle());
  EXPECT_EQ(s.now(), SimTime::ns(50));
  // And again with nothing queued at all.
  EXPECT_EQ(s.run_until(SimTime::ns(80)), 0u);
  EXPECT_EQ(s.now(), SimTime::ns(80));
}

TEST(SchedulerTest, ClearDuringARunningEventDropsTheRest) {
  // Device reset fires from inside an event handler; everything already
  // queued (same timestamp included) must vanish, and run() must stop.
  Scheduler s;
  int fired = 0;
  s.schedule_at(SimTime::ns(5), [&] {
    ++fired;
    s.clear();
  });
  s.schedule_at(SimTime::ns(5), [&] { FAIL() << "cleared, must not run"; });
  s.schedule_at(SimTime::ns(9), [&] { FAIL() << "cleared, must not run"; });
  EXPECT_EQ(s.run(), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(s.idle());
  EXPECT_EQ(s.now(), SimTime::ns(5));
  // The scheduler stays usable after an in-flight clear.
  s.schedule_at(SimTime::ns(12), [&] { ++fired; });
  s.run();
  EXPECT_EQ(fired, 2);
}

TEST(SchedulerTest, ClearDropsPending) {
  Scheduler s;
  s.schedule_at(SimTime::ns(5), [] { FAIL() << "should have been cleared"; });
  s.clear();
  EXPECT_TRUE(s.idle());
  EXPECT_EQ(s.run(), 0u);
}

TEST(SchedulerCancelTest, CancelBeforeFireSkipsAndReleasesState) {
  // cancel() must both suppress the callback and destroy it immediately —
  // the fleet cancels watchdog closures holding request payloads, which
  // must not linger until the timestamp drains.
  Scheduler s;
  auto probe = std::make_shared<int>(7);
  std::weak_ptr<int> alive = probe;
  const EventId id = s.schedule_at(
      SimTime::ns(10), [probe] { FAIL() << "cancelled, must not run"; });
  probe.reset();
  EXPECT_FALSE(alive.expired());  // captured by the pending action
  EXPECT_TRUE(s.cancel(id));
  EXPECT_TRUE(alive.expired());  // action destroyed at cancel time
  EXPECT_TRUE(s.idle());
  EXPECT_EQ(s.run(), 0u);
  EXPECT_EQ(s.now(), SimTime::zero());  // stale key must not advance time
}

TEST(SchedulerCancelTest, CancelIsSingleShot) {
  Scheduler s;
  int fired = 0;
  const EventId a = s.schedule_at(SimTime::ns(5), [&] { ++fired; });
  const EventId b = s.schedule_at(SimTime::ns(6), [] {});
  EXPECT_TRUE(s.cancel(b));
  EXPECT_FALSE(s.cancel(b));  // double-cancel is a no-op
  s.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(s.cancel(a));  // already fired
}

TEST(SchedulerCancelTest, CancelledPeerAtSameTimestampIsInvisible) {
  // Events sharing a timestamp with a cancelled one must still run in
  // posting order, and the cancelled slot must not count as executed.
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(SimTime::ns(5), [&] { order.push_back(0); });
  const EventId victim =
      s.schedule_at(SimTime::ns(5), [&] { order.push_back(1); });
  s.schedule_at(SimTime::ns(5), [&] { order.push_back(2); });
  EXPECT_EQ(s.pending(), 3u);
  EXPECT_TRUE(s.cancel(victim));
  EXPECT_EQ(s.pending(), 2u);
  EXPECT_EQ(s.run(), 2u);
  EXPECT_EQ(order, (std::vector<int>{0, 2}));
  EXPECT_EQ(s.now(), SimTime::ns(5));
}

TEST(SchedulerCancelTest, CancelFromInsideAnEarlierEvent) {
  // The watchdog pattern: a completion event at t cancels the timeout
  // queued for t' > t before the loop ever reaches it.
  Scheduler s;
  int fired = 0;
  const EventId timeout = s.schedule_at(
      SimTime::ns(20), [] { FAIL() << "completion should have cancelled"; });
  s.schedule_at(SimTime::ns(10), [&] {
    ++fired;
    EXPECT_TRUE(s.cancel(timeout));
  });
  EXPECT_EQ(s.run(), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.now(), SimTime::ns(10));  // cancelled tail never advances now
  EXPECT_TRUE(s.idle());
}

TEST(SchedulerCancelTest, TombstonesAreCompactedAwayBeforeTheirTimestamp) {
  // The watchdog churn pattern: one timer armed per request, almost every
  // one disarmed by its completion long before the timeout timestamp.
  // Lazy cancellation must not let the dead keys pile up in the heap for
  // the whole window — the heap stays O(live events), not O(cancels).
  Scheduler s;
  constexpr int kRequests = 20000;
  std::vector<EventId> timers;
  timers.reserve(kRequests);
  for (int i = 0; i < kRequests; ++i)
    timers.push_back(s.schedule_at(SimTime::ms(100) + SimTime::ns(i), [] {}));
  int fired = 0;
  const EventId survivor = s.schedule_at(SimTime::ms(200), [&] { ++fired; });
  for (const EventId id : timers) EXPECT_TRUE(s.cancel(id));
  EXPECT_EQ(s.pending(), 1u);
  // Far below the 20001 keys pushed; generous headroom over the
  // pending+floor bound so the exact trigger point can evolve.
  EXPECT_LE(s.heap_size(), 256u);
  EXPECT_EQ(s.run(), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.now(), SimTime::ms(200));
  EXPECT_FALSE(s.cancel(survivor));  // already fired
}

TEST(SchedulerCancelTest, CompactionKeepsPopOrderAndLiveEvents) {
  // Interleave live and cancelled events across shuffled timestamps, force
  // compaction, then verify the drain is byte-for-byte the classic order:
  // time-sorted, FIFO among equal timestamps, no cancelled slot firing.
  Scheduler s;
  std::vector<int> order;
  std::vector<EventId> victims;
  for (int i = 0; i < 300; ++i) {
    const SimTime when = SimTime::ns(10 + (i * 7919) % 97);
    if (i % 3 == 0) {
      s.schedule_at(when, [&order, i] { order.push_back(i); });
    } else {
      victims.push_back(
          s.schedule_at(when, [] { FAIL() << "cancelled, must not run"; }));
    }
  }
  for (const EventId id : victims) EXPECT_TRUE(s.cancel(id));
  EXPECT_LE(s.heap_size(), s.pending() + 64u);
  EXPECT_EQ(s.run(), 100u);
  EXPECT_EQ(order.size(), 100u);
  // Reconstruct the expected order: stable sort of the live posts by time.
  std::vector<int> expected;
  for (int i = 0; i < 300; i += 3) expected.push_back(i);
  std::stable_sort(expected.begin(), expected.end(), [](int a, int b) {
    return (10 + (a * 7919) % 97) < (10 + (b * 7919) % 97);
  });
  EXPECT_EQ(order, expected);
}

TEST(SchedulerHandleTest, StaleHandleCannotCancelTheSlotsNextOccupant) {
  // Handles are (generation << 32) | slot and slots are reused: a fired or
  // cancelled event's handle must read as stale once another event takes
  // its slot, or a late disarm would cancel an unrelated event.
  Scheduler s;
  int fired = 0;
  const EventId done = s.schedule_at(SimTime::ns(5), [&] { ++fired; });
  EXPECT_EQ(s.run(), 1u);
  const EventId next = s.schedule_at(SimTime::ns(8), [&] { ++fired; });
  EXPECT_EQ(static_cast<std::uint32_t>(next),
            static_cast<std::uint32_t>(done));  // same slot, reused
  EXPECT_NE(next, done);
  EXPECT_FALSE(s.cancel(done));
  EXPECT_EQ(s.pending(), 1u);

  const EventId dropped = s.schedule_at(SimTime::ns(9), [] {
    FAIL() << "cancelled, must not run";
  });
  EXPECT_TRUE(s.cancel(dropped));
  const EventId taker = s.schedule_at(SimTime::ns(9), [&] { ++fired; });
  EXPECT_EQ(static_cast<std::uint32_t>(taker),
            static_cast<std::uint32_t>(dropped));
  EXPECT_FALSE(s.cancel(dropped));
  EXPECT_EQ(s.pending(), 2u);
  EXPECT_EQ(s.run(), 2u);
  EXPECT_EQ(fired, 3);
  EXPECT_FALSE(s.cancel(next));
  EXPECT_FALSE(s.cancel(taker));
}

TEST(SchedulerHandleTest, HandlesFromBeforeAClearStayStale) {
  // clear() frees every slot but must keep advancing generations: a handle
  // taken before a device reset must not cancel what is posted after it.
  Scheduler s;
  int fired = 0;
  const EventId old = s.schedule_at(SimTime::ns(5), [] {
    FAIL() << "cleared, must not run";
  });
  s.clear();
  const EventId fresh = s.schedule_at(SimTime::ns(6), [&] { ++fired; });
  EXPECT_EQ(static_cast<std::uint32_t>(fresh),
            static_cast<std::uint32_t>(old));
  EXPECT_FALSE(s.cancel(old));
  EXPECT_EQ(s.pending(), 1u);
  EXPECT_EQ(s.run(), 1u);
  EXPECT_EQ(fired, 1);
}

TEST(SchedulerHandleTest, HandlesFromBeforeAClearInsideAnEventStayStale) {
  // The reset fires from inside an event: the pre-clear handles (the
  // running event's own included) must stay stale for the events that
  // event posts after the clear, which reuse the freed slots.
  Scheduler s;
  std::vector<int> order;
  std::vector<EventId> before;
  EventId self = 0;
  self = s.schedule_at(SimTime::ns(5), [&] {
    order.push_back(0);
    s.clear();
    for (int i = 1; i <= 3; ++i)
      s.schedule_at(SimTime::ns(7), [&order, i] { order.push_back(i); });
    for (const EventId id : before) EXPECT_FALSE(s.cancel(id));
    EXPECT_FALSE(s.cancel(self));
    EXPECT_EQ(s.pending(), 3u);
  });
  for (int i = 0; i < 3; ++i)
    before.push_back(s.schedule_at(SimTime::ns(6 + i), [] {
      FAIL() << "cleared, must not run";
    }));
  EXPECT_EQ(s.run(), 4u);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(SchedulerHandleTest, EqualTimestampsStayFifoAcrossSlotReuse) {
  // Reused slots come off the free list in release order, not posting
  // order; the drain must still follow posting order among equal times.
  Scheduler s;
  std::vector<int> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 8; ++i)
    ids.push_back(
        s.schedule_at(SimTime::ns(10), [&order, i] { order.push_back(i); }));
  for (const int victim : {5, 1, 6, 2}) EXPECT_TRUE(s.cancel(ids[victim]));
  for (int i = 8; i < 12; ++i)
    s.schedule_at(SimTime::ns(10), [&order, i] { order.push_back(i); });
  // Fired slots are reused too: post more at the same timestamp from
  // inside the drain, after earlier peers freed theirs.
  s.schedule_at(SimTime::ns(10), [&] {
    order.push_back(12);
    for (int i = 13; i < 16; ++i)
      s.schedule_at(SimTime::ns(10), [&order, i] { order.push_back(i); });
  });
  EXPECT_EQ(s.run(), 12u);
  EXPECT_EQ(order, (std::vector<int>{0, 3, 4, 7, 8, 9, 10, 11, 12, 13, 14,
                                     15}));
}

TEST(SchedulerTest, WarmSchedulerAllocatesNothingPerEvent) {
  // Once the slot pool and the heap have grown to the live-event count, an
  // event whose action fits std::function's inline buffer costs no
  // allocation to schedule or to fire.
  Scheduler s;
  std::size_t fired = 0;
  struct Hop {  // 16 bytes, trivially copyable: stored inline
    Scheduler* s;
    std::size_t* fired;
    void operator()() const {
      ++*fired;
      if (s->now() >= SimTime::us(5)) return;  // 64 chains until 5 us
      s->schedule_after(SimTime::ns(1 + static_cast<double>(*fired % 7)),
                        *this);
    }
  };
  for (int i = 0; i < 64; ++i)
    s.schedule_at(SimTime::ns(i), Hop{&s, &fired});
  s.run_until(SimTime::ns(100));  // warm-up: pool and heap at full size
  const std::size_t warm = fired;
  const std::size_t before = g_allocations;
  s.run_until(SimTime::us(4));  // every chain still alive
  EXPECT_EQ(g_allocations, before);
  EXPECT_GT(fired - warm, 50000u);
  EXPECT_EQ(s.pending(), 64u);
  s.run();
}

TEST(SchedulerOwnerTest, CancelOwnedReleasesOnlyThatOwnersEvents) {
  // A card's server powering off on a shared scheduler: its events go at
  // once (captured state released now), everyone else's stay pending.
  Scheduler s;
  int card_a = 0;  // owner tags: only the addresses matter
  int card_b = 0;
  auto probe_a = std::make_shared<int>(1);
  auto probe_b = std::make_shared<int>(2);
  const std::weak_ptr<int> alive_a = probe_a;
  const std::weak_ptr<int> alive_b = probe_b;
  std::vector<EventId> owned_a;
  int fired = 0;
  for (int i = 0; i < 3; ++i)
    owned_a.push_back(s.schedule_at(
        SimTime::ns(10 + i),
        [probe_a] { FAIL() << "owner cancelled, must not run"; }, &card_a));
  for (int i = 0; i < 2; ++i)
    s.schedule_after(SimTime::ns(10 + i), [probe_b, &fired] { ++fired; },
                     &card_b);
  s.schedule_at(SimTime::ns(11), [&] { ++fired; });  // unowned
  probe_a.reset();
  probe_b.reset();
  EXPECT_EQ(s.pending(), 6u);
  EXPECT_EQ(s.cancel_owned(&card_a), 3u);
  EXPECT_TRUE(alive_a.expired());
  EXPECT_FALSE(alive_b.expired());
  EXPECT_EQ(s.pending(), 3u);
  EXPECT_EQ(s.cancel_owned(&card_a), 0u);
  for (const EventId id : owned_a) EXPECT_FALSE(s.cancel(id));
  EXPECT_THROW(s.cancel_owned(nullptr), Error);
  EXPECT_EQ(s.run(), 3u);
  EXPECT_EQ(fired, 3);
  EXPECT_TRUE(alive_b.expired());
}

TEST(SimTimeTest, ToStringPicksUnits) {
  EXPECT_NE(to_string(SimTime::ns(5)).find("ns"), std::string::npos);
  EXPECT_NE(to_string(SimTime::us(5)).find("us"), std::string::npos);
  EXPECT_NE(to_string(SimTime::ms(5)).find("ms"), std::string::npos);
}

}  // namespace
}  // namespace aad::sim
