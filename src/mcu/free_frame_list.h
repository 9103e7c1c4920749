// The mini-OS Free Frame List (paper §2.5): "the micro-controller's mini OS
// maintains Frames in the FPGA which are currently not used to realize any
// logic and are thus potentially programmable without any intervention to
// the functions currently being executed."
//
// Because our bitstreams are relocatable (slot-relative references), a
// function can be placed into contiguous *or* scattered frames; the
// allocation strategy controls which, and the fragmentation metrics feed
// experiment E5.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "fabric/geometry.h"

namespace aad::mcu {

enum class AllocationStrategy : std::uint8_t {
  kFirstFitContiguous,  ///< lowest contiguous run that fits
  kBestFitContiguous,   ///< smallest contiguous run that fits
  kGatherScattered,     ///< any free frames, lowest-index first
};

const char* to_string(AllocationStrategy strategy) noexcept;

/// Could `needed` frames be placed under `strategy` on a device where only
/// the frames marked true in `blocked` are unavailable?  The one owner of
/// each strategy's placement rule (contiguous run vs total count), shared
/// by FreeFrameList::allocate's semantics and Mcu::load_feasible's
/// limit-state probe so the two can never diverge.
bool placement_possible(unsigned needed, AllocationStrategy strategy,
                        const std::vector<bool>& blocked);

class FreeFrameList {
 public:
  explicit FreeFrameList(unsigned frame_count);

  unsigned frame_count() const noexcept {
    return static_cast<unsigned>(free_.size());
  }
  unsigned free_count() const noexcept { return free_frames_; }

  /// Try to reserve `count` frames.  Returns the chosen frames (ascending)
  /// or nullopt when the strategy cannot satisfy the request — note that
  /// contiguous strategies can fail even when free_count() >= count
  /// (external fragmentation), while kGatherScattered fails only when the
  /// device is genuinely short of frames.
  std::optional<std::vector<fabric::FrameIndex>> allocate(
      unsigned count, AllocationStrategy strategy);

  /// Where WOULD allocate() place `count` frames right now?  Pure selection
  /// without reserving anything — the load-cost estimator's placement
  /// predictor.  allocate() is exactly peek() + claim(), so prediction and
  /// execution can never diverge.
  std::optional<std::vector<fabric::FrameIndex>> peek(
      unsigned count, AllocationStrategy strategy) const;

  /// Return frames to the free list.  Throws if any frame is already free
  /// (double release — a firmware bug the tests probe for).
  void release(std::span<const fabric::FrameIndex> frames);

  /// Reserve a specific frame set (defragmenter relocation target).
  /// Throws if any frame is already occupied.
  void claim(std::span<const fabric::FrameIndex> frames);

  /// All frames free again (device erase).
  void reset();

  // --- fragmentation metrics ---------------------------------------------
  unsigned largest_free_run() const noexcept;
  unsigned free_run_count() const noexcept;
  /// 1 - largest_run/free_count; 0 when unfragmented or empty.
  double external_fragmentation() const noexcept;

 private:
  std::optional<std::vector<fabric::FrameIndex>> select_contiguous(
      unsigned count, bool best_fit) const;

  std::vector<bool> free_;
  unsigned free_frames_;
};

}  // namespace aad::mcu
