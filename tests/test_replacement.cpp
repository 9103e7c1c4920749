// Tests for the Frame Replacement Policies (paper §2.5): each policy is one
// rule over the MCU's Frame Replacement Table, exercised through real loads
// on a small device with four equal-footprint slots, including the Belady
// oracle's dominance property and the FIFO order across a fabric reset.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "algorithms/kernels.h"
#include "bitstream/synth.h"
#include "core/fleet.h"
#include "fabric/fabric.h"
#include "mcu/mcu.h"
#include "workload/trace.h"

namespace aad::mcu {
namespace {

using algorithms::KernelId;
using memory::FunctionId;

/// A device of 8 frames holding four 2-frame functions, ids 1001 upward.
class SlotCard {
 public:
  explicit SlotCard(PolicyKind policy, unsigned functions = 8)
      : fabric_(small_device()), mcu_(fabric_, scheduler_, registry_,
                                      config_for(policy)) {
    for (unsigned i = 0; i < functions; ++i) {
      bitstream::SynthParams params;
      params.frames = 2;
      params.seed = 1 + i;
      const FunctionId id = kFirst + i;
      mcu_.store_function(id, bitstream::synthesize_behavioral(
                                  "slot" + std::to_string(i), id, 32, 32,
                                  fabric_.geometry(), params));
    }
  }

  static constexpr FunctionId kFirst = 1001;

  Mcu& mcu() { return mcu_; }
  sim::SimTime now() const { return scheduler_.now(); }
  /// Load (or hit) each function in turn.
  void run(const std::vector<FunctionId>& sequence) {
    for (const FunctionId id : sequence) mcu_.ensure_loaded(id);
  }
  /// The config misses `sequence` costs from here on.
  std::uint64_t misses(const std::vector<FunctionId>& sequence) {
    const std::uint64_t before = mcu_.stats().config_misses;
    run(sequence);
    return mcu_.stats().config_misses - before;
  }

 private:
  static fabric::Fabric::Config small_device() {
    fabric::Fabric::Config config;
    config.geometry.frame_count = 8;
    return config;
  }
  static McuConfig config_for(PolicyKind policy) {
    McuConfig config;
    config.policy = policy;
    return config;
  }

  fabric::Fabric fabric_;
  sim::Scheduler scheduler_;
  telemetry::Registry registry_;
  Mcu mcu_;
};

constexpr FunctionId f(unsigned n) { return SlotCard::kFirst + n - 1; }

std::vector<FunctionId> resident(Mcu& mcu) { return mcu.resident_functions(); }

TEST(LruPolicyTest, EvictsOldestAccess) {
  SlotCard card(PolicyKind::kLru);
  card.run({f(1), f(2), f(3), f(4), f(1)});
  card.run({f(5)});  // f(2) has the oldest time stamp
  EXPECT_EQ(resident(card.mcu()),
            (std::vector<FunctionId>{f(1), f(3), f(4), f(5)}));
}

TEST(FifoPolicyTest, EvictsInLoadOrder) {
  SlotCard card(PolicyKind::kFifo);
  card.run({f(1), f(2), f(3), f(4)});
  card.run({f(1)});  // re-accessing does not change FIFO order
  card.run({f(5)});
  EXPECT_FALSE(card.mcu().is_resident(f(1)));
  card.run({f(6)});
  EXPECT_EQ(resident(card.mcu()),
            (std::vector<FunctionId>{f(3), f(4), f(5), f(6)}));
}

TEST(LfuPolicyTest, EvictsFewestAccessesWithLruTieBreak) {
  SlotCard card(PolicyKind::kLfu);
  // Each load advances time and a hit does not, so the time stamps run
  // f4 < f3 < f2 < f1: within a count, higher ids are older.
  card.run({f(4), f(4), f(3), f(2), f(1)});
  // Counts: f4 2, f3 1, f2 1, f1 1. LRU alone would evict f(4); a tie
  // broken by lowest id would evict f(1); LFU with LRU ties evicts f(3).
  card.run({f(5)});
  EXPECT_TRUE(card.mcu().is_resident(f(4)));
  EXPECT_TRUE(card.mcu().is_resident(f(1)));
  EXPECT_FALSE(card.mcu().is_resident(f(3)));
  // Counts: f4 2, f2 1, f1 1, f5 1; f(2) is the oldest of the three ties.
  card.run({f(6)});
  EXPECT_EQ(resident(card.mcu()),
            (std::vector<FunctionId>{f(1), f(4), f(5), f(6)}));
}

TEST(RandomPolicyTest, DeterministicAndActuallyRandom) {
  SlotCard a(PolicyKind::kRandom);
  SlotCard b(PolicyKind::kRandom);
  std::set<FunctionId> evicted;
  for (int i = 0; i < 60; ++i) {
    const FunctionId id = f(1 + static_cast<unsigned>(i % 5));
    const auto before = resident(a.mcu());
    a.run({id});
    b.run({id});
    ASSERT_EQ(resident(a.mcu()), resident(b.mcu())) << "request " << i;
    for (const FunctionId fn : before)
      if (!a.mcu().is_resident(fn)) evicted.insert(fn);
  }
  EXPECT_GT(evicted.size(), 1u);  // not one constant victim
}

TEST(BeladyPolicyTest, EvictsFarthestNextUse) {
  SlotCard card(PolicyKind::kBelady);
  card.mcu().set_future({f(1), f(2), f(3), f(4), f(5), f(1), f(2), f(4),
                         f(3)});
  card.run({f(1), f(2), f(3), f(4)});
  // Next uses: f1 at 5, f2 at 6, f3 at 8, f4 at 7.
  card.run({f(5)});
  EXPECT_FALSE(card.mcu().is_resident(f(3)));
  card.run({f(1), f(2), f(4)});  // hits
  // Nothing is used again; the lowest id goes.
  card.run({f(3)});
  EXPECT_EQ(resident(card.mcu()),
            (std::vector<FunctionId>{f(2), f(3), f(4), f(5)}));
}

TEST(PolicyEdge, EveryResidentKeptThrows) {
  SlotCard card(PolicyKind::kLru);
  card.run({f(1), f(2), f(3), f(4)});
  const std::vector<FunctionId> keep{f(1), f(2), f(3), f(4)};
  EXPECT_FALSE(card.mcu().load_feasible(f(5), keep));
  try {
    sim::SimTime elapsed;
    card.mcu().load_invoke(f(5), card.now(), &elapsed, nullptr, keep);
    FAIL() << "expected CapacityExceeded";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kCapacityExceeded);
  }
}

TEST(PolicyNames, EveryKindHasItsName) {
  EXPECT_STREQ(to_string(PolicyKind::kLru), "lru");
  EXPECT_STREQ(to_string(PolicyKind::kFifo), "fifo");
  EXPECT_STREQ(to_string(PolicyKind::kLfu), "lfu");
  EXPECT_STREQ(to_string(PolicyKind::kRandom), "random");
  EXPECT_STREQ(to_string(PolicyKind::kBelady), "belady");
}

// --- policy quality over whole traces --------------------------------------

std::uint64_t trace_misses(PolicyKind kind, const std::vector<FunctionId>& seq,
                           unsigned functions) {
  SlotCard card(kind, functions);
  card.mcu().set_future(seq);
  return card.misses(seq);
}

std::vector<FunctionId> zipf_sequence(unsigned functions, std::size_t length,
                                      double skew, std::uint64_t seed) {
  workload::TraceConfig config;
  for (unsigned n = 1; n <= functions; ++n) config.functions.push_back(f(n));
  config.length = length;
  config.seed = seed;
  return workload::function_sequence(workload::make_zipf(config, skew));
}

TEST(PolicyDominance, BeladyIsOptimalOnSkewedTraces) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const auto seq = zipf_sequence(8, 2000, 1.0, seed);
    const std::uint64_t belady = trace_misses(PolicyKind::kBelady, seq, 8);
    for (PolicyKind kind : {PolicyKind::kLru, PolicyKind::kFifo,
                            PolicyKind::kLfu, PolicyKind::kRandom}) {
      EXPECT_LE(belady, trace_misses(kind, seq, 8))
          << "policy " << to_string(kind) << " seed " << seed;
    }
  }
}

TEST(PolicyDominance, LruBeatsRandomOnSkewedTraces) {
  std::uint64_t lru_total = 0;
  std::uint64_t random_total = 0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto seq = zipf_sequence(10, 4000, 1.2, seed);
    lru_total += trace_misses(PolicyKind::kLru, seq, 10);
    random_total += trace_misses(PolicyKind::kRandom, seq, 10);
  }
  EXPECT_LT(lru_total, random_total);
}

TEST(PolicyDominance, RoundRobinIsLrusWorstCase) {
  // Cyclic access over capacity+1 functions: LRU misses everything; random
  // sometimes gets lucky.
  std::vector<FunctionId> seq;
  for (unsigned i = 0; i < 500; ++i) seq.push_back(f(1 + i % 5));
  EXPECT_EQ(trace_misses(PolicyKind::kLru, seq, 5), 500u);  // total thrash
  EXPECT_LT(trace_misses(PolicyKind::kRandom, seq, 5), 500u);
}

// --- FIFO order across a fabric reset --------------------------------------
// A reset empties the table, so the load order after it is the only order
// FIFO may follow.  Loads aes128 (A) then des (B), resets, loads B then A,
// fills the 48-frame device, and forces exactly one eviction: B must go.

constexpr FunctionId kA = algorithms::function_id(KernelId::kAes128);
constexpr FunctionId kB = algorithms::function_id(KernelId::kDes);
// 12 + 8 + 18 + 10 frames fill the device; xtea (4) needs one victim.
constexpr FunctionId kFill1 = algorithms::function_id(KernelId::kModExp);
constexpr FunctionId kFill2 = algorithms::function_id(KernelId::kSha256);
constexpr FunctionId kSmall = algorithms::function_id(KernelId::kXtea);

TEST(FifoPolicyTest, ResetForgetsTheOldLoadOrder) {
  fabric::Fabric fabric;
  sim::Scheduler scheduler;
  telemetry::Registry registry;
  McuConfig config;
  config.policy = PolicyKind::kFifo;
  Mcu mcu(fabric, scheduler, registry, config);
  for (const KernelId k : {KernelId::kAes128, KernelId::kDes,
                           KernelId::kModExp, KernelId::kSha256,
                           KernelId::kXtea})
    mcu.store_function(algorithms::function_id(k),
                       algorithms::spec(k).make_bitstream(fabric.geometry()));

  mcu.ensure_loaded(kA);
  mcu.ensure_loaded(kB);
  mcu.reset_fabric();
  for (const FunctionId id : {kB, kA, kFill1, kFill2}) mcu.ensure_loaded(id);
  ASSERT_EQ(mcu.free_frames().free_count(), 0u);

  const LoadResult load = mcu.ensure_loaded(kSmall);
  EXPECT_EQ(load.evictions, 1u);
  EXPECT_FALSE(mcu.is_resident(kB));
  EXPECT_TRUE(mcu.is_resident(kA));
}

TEST(FifoPolicyTest, CardDeathForgetsTheOldLoadOrder) {
  core::FleetConfig fc;
  fc.cards = 1;
  fc.card.mcu.policy = PolicyKind::kFifo;
  core::CoprocessorFleet fleet(fc);
  fleet.download_all();
  core::AgileCoprocessor& card = fleet.card(0);

  card.preload(KernelId::kAes128);
  card.preload(KernelId::kDes);
  fleet.kill_card(0);
  fleet.revive_card(0);
  for (const KernelId k : {KernelId::kDes, KernelId::kAes128,
                           KernelId::kModExp, KernelId::kSha256})
    card.preload(k);
  ASSERT_EQ(card.mcu().free_frames().free_count(), 0u);

  EXPECT_EQ(card.preload(KernelId::kXtea).evictions, 1u);
  EXPECT_FALSE(card.mcu().is_resident(kB));
  EXPECT_TRUE(card.mcu().is_resident(kA));
}

}  // namespace
}  // namespace aad::mcu
