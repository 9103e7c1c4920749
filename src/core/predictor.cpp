#include "core/predictor.h"

namespace aad::core {
namespace {

/// Minimum observations in a row before it is trusted at all.
constexpr std::uint64_t kMinSamples = 2;

}  // namespace

void FunctionPredictor::observe(unsigned client,
                                memory::FunctionId function) {
  ClientState& cs = clients_[client];
  if (cs.has_last && cs.last != function) {
    Row& row = cs.rows[cs.last];
    ++row.counts[function];
    ++row.total;
    ++observations_;
    if (config_.decay_limit > 0 && row.total > config_.decay_limit) {
      row.total = 0;
      for (auto it = row.counts.begin(); it != row.counts.end();) {
        it->second /= 2;
        if (it->second == 0) {
          it = row.counts.erase(it);
        } else {
          row.total += it->second;
          ++it;
        }
      }
    }
  }
  cs.has_last = true;
  cs.last = function;
}

std::optional<Prediction> FunctionPredictor::predict(unsigned client) const {
  const auto it = clients_.find(client);
  if (it == clients_.end() || !it->second.has_last) return std::nullopt;
  return predict_after(client, it->second.last);
}

std::optional<Prediction> FunctionPredictor::predict_after(
    unsigned client, memory::FunctionId function) const {
  const auto cit = clients_.find(client);
  if (cit == clients_.end()) return std::nullopt;
  const auto rit = cit->second.rows.find(function);
  if (rit == cit->second.rows.end()) return std::nullopt;
  const Row& row = rit->second;
  if (row.total < kMinSamples) return std::nullopt;

  // std::map iterates in ascending id order, so `>` alone gives the
  // lowest-id tie-break.
  memory::FunctionId best = 0;
  std::uint64_t best_count = 0;
  for (const auto& [fn, count] : row.counts) {
    if (count > best_count) {
      best = fn;
      best_count = count;
    }
  }
  if (best_count == 0) return std::nullopt;
  const double confidence =
      static_cast<double>(best_count) / static_cast<double>(row.total);
  if (confidence < config_.min_confidence) return std::nullopt;
  return Prediction{best, confidence};
}

}  // namespace aad::core
