#include "mcu/free_frame_list.h"

#include <numeric>

#include "common/error.h"

namespace aad::mcu {

const char* to_string(AllocationStrategy strategy) noexcept {
  switch (strategy) {
    case AllocationStrategy::kFirstFitContiguous: return "first-fit";
    case AllocationStrategy::kBestFitContiguous: return "best-fit";
    case AllocationStrategy::kGatherScattered: return "gather";
  }
  return "?";
}

bool placement_possible(unsigned needed, AllocationStrategy strategy,
                        const std::vector<bool>& blocked) {
  if (strategy == AllocationStrategy::kGatherScattered) {
    // Scattered gathering only needs the total count.
    unsigned available = 0;
    for (const bool b : blocked)
      if (!b && ++available >= needed) return true;
    return false;
  }
  // Both contiguous strategies place iff some unblocked run fits.
  unsigned run = 0;
  for (const bool b : blocked) {
    run = b ? 0 : run + 1;
    if (run >= needed) return true;
  }
  return false;
}

FreeFrameList::FreeFrameList(unsigned frame_count)
    : free_(frame_count, true), free_frames_(frame_count) {
  AAD_REQUIRE(frame_count >= 1, "device must have at least one frame");
}

std::optional<std::vector<fabric::FrameIndex>>
FreeFrameList::select_contiguous(unsigned count, bool best_fit) const {
  unsigned best_start = 0;
  unsigned best_len = 0;
  bool found = false;
  unsigned i = 0;
  const unsigned n = frame_count();
  while (i < n) {
    if (!free_[i]) {
      ++i;
      continue;
    }
    unsigned run_start = i;
    while (i < n && free_[i]) ++i;
    const unsigned run_len = i - run_start;
    if (run_len < count) continue;
    if (!found || (best_fit ? run_len < best_len : false)) {
      found = true;
      best_start = run_start;
      best_len = run_len;
      if (!best_fit) break;  // first fit: take the lowest run immediately
    }
  }
  if (!found) return std::nullopt;
  std::vector<fabric::FrameIndex> frames(count);
  std::iota(frames.begin(), frames.end(), best_start);
  return frames;
}

std::optional<std::vector<fabric::FrameIndex>> FreeFrameList::peek(
    unsigned count, AllocationStrategy strategy) const {
  AAD_REQUIRE(count >= 1, "allocation must request at least one frame");
  if (count > free_frames_) return std::nullopt;
  switch (strategy) {
    case AllocationStrategy::kFirstFitContiguous:
      return select_contiguous(count, /*best_fit=*/false);
    case AllocationStrategy::kBestFitContiguous:
      return select_contiguous(count, /*best_fit=*/true);
    case AllocationStrategy::kGatherScattered: {
      std::vector<fabric::FrameIndex> frames;
      frames.reserve(count);
      for (unsigned f = 0; f < free_.size() && frames.size() < count; ++f)
        if (free_[f]) frames.push_back(f);
      AAD_CHECK(frames.size() == count, "free counter out of sync");
      return frames;
    }
  }
  return std::nullopt;
}

std::optional<std::vector<fabric::FrameIndex>> FreeFrameList::allocate(
    unsigned count, AllocationStrategy strategy) {
  auto frames = peek(count, strategy);
  if (frames) {
    for (fabric::FrameIndex f : *frames) free_[f] = false;
    free_frames_ -= count;
  }
  return frames;
}

void FreeFrameList::release(std::span<const fabric::FrameIndex> frames) {
  for (fabric::FrameIndex f : frames) {
    AAD_REQUIRE(f < free_.size(), "release of out-of-range frame");
    AAD_REQUIRE(!free_[f], "double release of frame " + std::to_string(f));
    free_[f] = true;
  }
  free_frames_ += static_cast<unsigned>(frames.size());
}

void FreeFrameList::claim(std::span<const fabric::FrameIndex> frames) {
  for (fabric::FrameIndex f : frames) {
    AAD_REQUIRE(f < free_.size(), "claim of out-of-range frame");
    AAD_REQUIRE(free_[f], "claim of occupied frame " + std::to_string(f));
  }
  for (fabric::FrameIndex f : frames) free_[f] = false;
  free_frames_ -= static_cast<unsigned>(frames.size());
}

void FreeFrameList::reset() {
  std::fill(free_.begin(), free_.end(), true);
  free_frames_ = frame_count();
}

unsigned FreeFrameList::largest_free_run() const noexcept {
  unsigned best = 0;
  unsigned run = 0;
  for (bool f : free_) {
    run = f ? run + 1 : 0;
    if (run > best) best = run;
  }
  return best;
}

unsigned FreeFrameList::free_run_count() const noexcept {
  unsigned runs = 0;
  bool in_run = false;
  for (bool f : free_) {
    if (f && !in_run) ++runs;
    in_run = f;
  }
  return runs;
}

double FreeFrameList::external_fragmentation() const noexcept {
  if (free_frames_ == 0) return 0.0;
  return 1.0 - static_cast<double>(largest_free_run()) /
                   static_cast<double>(free_frames_);
}

}  // namespace aad::mcu
