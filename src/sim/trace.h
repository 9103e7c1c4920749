// Activity trace: timestamped spans recorded by components (PCI transfer,
// ROM read, decompression, configuration, kernel execution).  Experiments
// aggregate these to attribute end-to-end latency to pipeline stages.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/time.h"

namespace aad::sim {

/// Pipeline stages of Figure 1 of the paper, used as span categories.
enum class Stage : std::uint8_t {
  kHostPci,     ///< host <-> microcontroller PCI transfer
  kRom,         ///< ROM record/bit-stream access
  kRam,         ///< local RAM buffering
  kDecompress,  ///< configuration-module window decompression
  kConfigure,   ///< FPGA configuration-port writes
  kDataIn,      ///< data-input module transfers
  kExecute,     ///< function execution on the fabric
  kDataOut,     ///< output-collection module transfers
  kFirmware,    ///< mini-OS bookkeeping (free-frame list, replacement)
};

const char* to_string(Stage stage) noexcept;

struct Span {
  Stage stage;
  std::string label;
  SimTime begin;
  SimTime end;

  SimTime duration() const noexcept { return end - begin; }
};

class Trace {
 public:
  void record(Stage stage, std::string label, SimTime begin, SimTime end);
  /// Records a span labelled `name` + `suffix`, with `index` appended when
  /// given.  The label is built only when the trace is enabled, so a
  /// disabled trace costs no allocation.
  void record(Stage stage, std::string_view name, std::string_view suffix,
              SimTime begin, SimTime end,
              std::optional<std::uint64_t> index = std::nullopt);

  const std::vector<Span>& spans() const noexcept { return spans_; }
  void clear() noexcept { spans_.clear(); }
  bool enabled() const noexcept { return enabled_; }
  void set_enabled(bool on) noexcept { enabled_ = on; }

  /// Total time attributed to each stage (overlap not deduplicated; the
  /// configuration pipeline is reported per stage on purpose).
  std::map<Stage, SimTime> stage_totals() const;

  /// Multi-line human-readable report.
  std::string summary() const;

 private:
  bool enabled_ = true;
  std::vector<Span> spans_;
};

}  // namespace aad::sim
