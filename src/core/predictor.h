// FunctionPredictor: per-client first-order Markov table over observed
// function transitions, the learning half of speculative configuration
// prefetch.
//
// The driver records each client's completed-function stream; the table
// counts "after finishing f, the client next asked for g" transitions and
// predicts the most likely next function with a confidence score.  Two
// deliberate modeling choices:
//
//   * Self-transitions (f -> f) are NOT recorded.  A repeated function is
//     already resident, so it carries no prefetch signal — what the pump
//     needs is the next *different* configuration.  This also makes the
//     table burst-granular on bursty traces (it learns the burst-to-burst
//     sequence, not the within-burst repeats) and gives version chains
//     (v -> v+1 with re-invokes in between) full-confidence edges.
//
//   * Counts decay by integer halving once a row's total exceeds
//     `decay_limit`, so a client that shifts to a new working set can
//     overtake stale history in a bounded number of observations.  Halving
//     keeps the predictor deterministic (no wall clock, no randomness) —
//     a requirement for the simulator's reproducibility guarantees.
#pragma once

#include <cstdint>
#include <map>
#include <optional>

#include "memory/rom.h"

namespace aad::core {

struct PredictorConfig {
  /// Minimum share of a row's observations the best successor must hold
  /// before the predictor speaks.  Below it: no prediction, no prefetch.
  double min_confidence = 0.55;
  /// Halve a row's counts once its total exceeds this (0 = never decay).
  unsigned decay_limit = 64;
};

struct Prediction {
  memory::FunctionId function = 0;
  double confidence = 0.0;  ///< best-successor count / row total
};

class FunctionPredictor {
 public:
  explicit FunctionPredictor(const PredictorConfig& config = {})
      : config_(config) {}

  /// Record that `client` just completed `function`.  Updates the
  /// last-function -> function transition count (self-transitions are
  /// dropped; the last-function marker still advances).
  void observe(unsigned client, memory::FunctionId function);

  /// Most likely next function for `client` given its last completion, or
  /// nullopt when the row is unseen, too thin (fewer than two
  /// observations) or too flat (`min_confidence`).  Ties break toward the
  /// lowest function id so the prediction is a pure function of the table.
  std::optional<Prediction> predict(unsigned client) const;

  /// Same, but conditioned on an explicit current function instead of the
  /// client's recorded last completion (the fleet's dispatch-time hook).
  std::optional<Prediction> predict_after(unsigned client,
                                          memory::FunctionId function) const;

  const PredictorConfig& config() const noexcept { return config_; }
  /// Total transitions recorded (post-filter, pre-decay).
  std::uint64_t observations() const noexcept { return observations_; }

 private:
  struct Row {
    std::map<memory::FunctionId, std::uint64_t> counts;
    std::uint64_t total = 0;
  };
  struct ClientState {
    bool has_last = false;
    memory::FunctionId last = 0;
    std::map<memory::FunctionId, Row> rows;
  };

  PredictorConfig config_;
  std::map<unsigned, ClientState> clients_;
  std::uint64_t observations_ = 0;
};

}  // namespace aad::core
