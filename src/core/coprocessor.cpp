#include "core/coprocessor.h"

#include "core/server.h"

namespace aad::core {

AgileCoprocessor::AgileCoprocessor(const CoprocessorConfig& config,
                                   std::unique_ptr<sim::Scheduler> owned,
                                   sim::Scheduler* shared)
    : owned_scheduler_(std::move(owned)),
      scheduler_(shared != nullptr ? *shared : *owned_scheduler_),
      fabric_(config.fabric),
      bus_(config.pci),
      mcu_(fabric_, scheduler_, registry_, runtime_, config.mcu) {
  algorithms::register_runtimes(runtime_);
}

AgileCoprocessor::AgileCoprocessor(const CoprocessorConfig& config)
    : AgileCoprocessor(config, std::make_unique<sim::Scheduler>(), nullptr) {}

AgileCoprocessor::AgileCoprocessor(const CoprocessorConfig& config,
                                   sim::Scheduler& scheduler)
    : AgileCoprocessor(config, nullptr, &scheduler) {}

sim::SimTime AgileCoprocessor::pci_command_overhead(unsigned registers) {
  sim::SimTime total = sim::SimTime::zero();
  for (unsigned i = 0; i < registers; ++i) total += bus_.register_write();
  total += bus_.register_read();  // status poll
  return total;
}

memory::RomRecord AgileCoprocessor::download(
    algorithms::KernelId kernel, std::optional<compress::CodecId> codec) {
  const auto& spec = algorithms::spec(kernel);
  const bitstream::Bitstream bs = spec.make_bitstream(fabric_.geometry());
  return download_bitstream(algorithms::function_id(kernel), bs, codec);
}

memory::RomRecord AgileCoprocessor::download_bitstream(
    memory::FunctionId id, const bitstream::Bitstream& bitstream,
    std::optional<compress::CodecId> codec) {
  // The host compresses and ships the stream; the MCU stores it.  The MCU
  // call performs compression + ROM programming (and advances time for the
  // ROM); we then charge the PCI for the compressed payload it carried.
  const memory::RomRecord record = mcu_.store_function(id, bitstream, codec);
  sim::SimTime pci = pci_command_overhead(4);
  pci += bus_.dma_to_device(record.compressed_size);
  scheduler_.advance(pci);
  return record;
}

void AgileCoprocessor::download_all(std::optional<compress::CodecId> codec) {
  for (const auto& spec : algorithms::catalog()) download(spec.id, codec);
}

ServerRequest AgileCoprocessor::invoke_function(memory::FunctionId id,
                                                ByteSpan input) {
  AAD_REQUIRE(scheduler_.idle(),
              "synchronous invoke needs a scheduler with no pending events");
  CoprocessorServer server(*this);
  server.submit_function(/*client=*/0, id, Bytes(input.begin(), input.end()));
  server.run();
  const ServerRequest& record = server.completed().front();
  // A lone request on its own card fails only on a bitstream the re-fetch
  // path could not repair; the blocking API reports that by throwing.
  if (record.failed)
    AAD_FAIL(ErrorCode::kCorruptData, "function " + std::to_string(id) +
                                          " failed its configuration CRC");
  return record;
}

ServerRequest AgileCoprocessor::invoke(algorithms::KernelId kernel,
                                       ByteSpan input) {
  return invoke_function(algorithms::function_id(kernel), input);
}

HostOutcome AgileCoprocessor::run_on_host(algorithms::KernelId kernel,
                                          ByteSpan input) {
  const auto& spec = algorithms::spec(kernel);
  HostOutcome outcome;
  outcome.output = spec.software(input);
  outcome.latency = spec.host_time(input.size());
  scheduler_.advance(outcome.latency);
  return outcome;
}

mcu::LoadResult AgileCoprocessor::preload(algorithms::KernelId kernel) {
  const sim::SimTime pci = pci_command_overhead(2);
  scheduler_.advance(pci);
  return mcu_.ensure_loaded(algorithms::function_id(kernel));
}

void AgileCoprocessor::evict(algorithms::KernelId kernel) {
  const sim::SimTime pci = pci_command_overhead(2);
  scheduler_.advance(pci);
  mcu_.evict(algorithms::function_id(kernel));
}

CoprocessorStats AgileCoprocessor::stats() const {
  return CoprocessorStats{mcu_.stats(), bus_.stats(), scheduler_.now()};
}

}  // namespace aad::core
