// BatchPolicy: the pluggable policy that decides when a CoprocessorServer
// coalesces queued same-function requests into one batch.
//
// The paper's dominant cost is reconfiguration, and the device stage
// already hides it behind execution (overlap_reconfig) and reorders around
// it (DeviceScheduler).  Batching attacks it from the other side: when the
// device scheduler picks a function for the config engine, every queued
// request for that SAME function can ride the one firmware decode and the
// one on-demand load, then run back-to-back fabric windows — one
// reconfiguration amortized across the whole batch instead of each request
// paying its own decode/load decision (and, under thrash, its own
// reconfiguration after an intervening eviction).
//
// The policy decides two things at pick time: whether to commit now or
// hold the device idle a little longer so more same-function arrivals can
// coalesce, and how many queued requests one batch may drain:
//
//   * none     — every request is its own batch of one; bit-exact with the
//                unbatched server (the regression tests pin this);
//   * greedy   — commit immediately, draining everything queued for the
//                picked function (up to max_batch);
//   * windowed — hold commitment up to `window` after the function first
//                became the pick, betting the added head-of-line latency
//                against a bigger batch; commits early when max_batch
//                same-function requests are already waiting.
//
// Policies are picked per server via ServerConfig::batch and compose with
// the device policy (which still chooses WHICH function is served next)
// and the fleet dispatch policies (residency-affinity prefers a card
// holding an open batch for the function — CoprocessorServer::
// open_batch_for — so bursts converge on the card already coalescing
// them).
#pragma once

#include <cstdint>
#include <memory>

#include "memory/rom.h"
#include "sim/time.h"

namespace aad::core {

/// How a CoprocessorServer coalesces same-function requests.
enum class BatchMode : std::uint8_t {
  kNone,      ///< batches of one — bit-exact with the unbatched server
  kGreedy,    ///< drain every queued same-function request immediately
  kWindowed,  ///< hold up to a horizon so more same-function arrivals join
};

const char* to_string(BatchMode mode);

struct BatchConfig {
  BatchMode mode = BatchMode::kNone;
  /// kWindowed: how long the device may sit on an uncommitted pick waiting
  /// for more same-function arrivals, measured from the instant the
  /// function first became the scheduler's pick.
  sim::SimTime window = sim::SimTime::us(50);
  /// Largest number of requests one batch may drain (>= 1).  Also the
  /// windowed policy's early-commit threshold.
  std::size_t max_batch = 16;
};

/// What the policy sees when the device scheduler has picked a function
/// and the config engine is free.
struct BatchView {
  memory::FunctionId function = 0;
  std::size_t queued = 0;     ///< same-function requests ready right now
  sim::SimTime hold_since;    ///< when `function` first became the pick
  sim::SimTime now;
};

/// The policy's verdict: commit a batch of up to `limit` requests now, or
/// keep the device idle and decide again no later than `reconsider_at`.
struct BatchDecision {
  bool commit = true;
  std::size_t limit = 1;        ///< max requests to drain (commit only)
  sim::SimTime reconsider_at;   ///< next decision time (hold only)
};

class BatchPolicy {
 public:
  virtual ~BatchPolicy() = default;
  virtual BatchMode kind() const noexcept = 0;
  /// Must be deterministic in `view`.
  virtual BatchDecision decide(const BatchView& view) = 0;
};

std::unique_ptr<BatchPolicy> make_batch_policy(const BatchConfig& config);

}  // namespace aad::core
