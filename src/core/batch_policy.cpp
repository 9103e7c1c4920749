#include "core/batch_policy.h"

#include "common/error.h"

namespace aad::core {
namespace {

class NoBatchPolicy final : public BatchPolicy {
 public:
  BatchMode kind() const noexcept override { return BatchMode::kNone; }
  BatchDecision decide(const BatchView&) override {
    return {.commit = true, .limit = 1, .reconsider_at = {}};
  }
};

class GreedyBatchPolicy final : public BatchPolicy {
 public:
  explicit GreedyBatchPolicy(std::size_t max_batch) : max_batch_(max_batch) {}
  BatchMode kind() const noexcept override { return BatchMode::kGreedy; }
  BatchDecision decide(const BatchView&) override {
    return {.commit = true, .limit = max_batch_, .reconsider_at = {}};
  }

 private:
  std::size_t max_batch_;
};

class WindowedBatchPolicy final : public BatchPolicy {
 public:
  WindowedBatchPolicy(sim::SimTime window, std::size_t max_batch)
      : window_(window), max_batch_(max_batch) {}
  BatchMode kind() const noexcept override { return BatchMode::kWindowed; }
  BatchDecision decide(const BatchView& view) override {
    // Commit early once the batch cannot grow (cap reached); otherwise
    // hold until the horizon expires.  A lone request whose window expires
    // commits as a batch of one — windowed degenerates to no-batch when
    // nothing coalesces, it never starves a request forever.
    if (view.queued >= max_batch_ ||
        view.now - view.hold_since >= window_)
      return {.commit = true, .limit = max_batch_, .reconsider_at = {}};
    return {.commit = false,
            .limit = 0,
            .reconsider_at = view.hold_since + window_};
  }

 private:
  sim::SimTime window_;
  std::size_t max_batch_;
};

}  // namespace

const char* to_string(BatchMode mode) {
  switch (mode) {
    case BatchMode::kNone:
      return "none";
    case BatchMode::kGreedy:
      return "greedy";
    case BatchMode::kWindowed:
      return "windowed";
  }
  return "unknown";
}

std::unique_ptr<BatchPolicy> make_batch_policy(const BatchConfig& config) {
  AAD_REQUIRE(config.max_batch >= 1, "max_batch must be at least 1");
  switch (config.mode) {
    case BatchMode::kNone:
      return std::make_unique<NoBatchPolicy>();
    case BatchMode::kGreedy:
      return std::make_unique<GreedyBatchPolicy>(config.max_batch);
    case BatchMode::kWindowed:
      AAD_REQUIRE(config.window >= sim::SimTime::zero(),
                  "batch window cannot be negative");
      return std::make_unique<WindowedBatchPolicy>(config.window,
                                                   config.max_batch);
  }
  AAD_FAIL(ErrorCode::kInvalidArgument, "unknown batch mode");
}

}  // namespace aad::core
