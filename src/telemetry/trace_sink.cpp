#include "telemetry/trace_sink.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <tuple>

#include "common/error.h"

namespace aad::telemetry {

void TraceTrack::span(const char* category, const char* name,
                      sim::SimTime begin, sim::SimTime end,
                      std::int64_t request, std::int64_t client,
                      std::int64_t function, std::int64_t card) {
  AAD_REQUIRE(end >= begin, "trace span ends before it begins");
  TraceEvent e;
  e.ts_ps = begin.picoseconds();
  e.dur_ps = (end - begin).picoseconds();
  e.process = process_;
  e.track = track_;
  e.seq = next_seq_++;
  e.category = category;
  e.name = name;
  e.request = request;
  e.client = client;
  e.function = function;
  e.card = card >= 0 ? card : card_;
  events_.push_back(e);
}

void TraceTrack::instant(const char* category, const char* name,
                         sim::SimTime at, std::int64_t request,
                         std::int64_t client, std::int64_t function,
                         std::int64_t card) {
  TraceEvent e;
  e.ts_ps = at.picoseconds();
  e.dur_ps = -1;
  e.process = process_;
  e.track = track_;
  e.seq = next_seq_++;
  e.category = category;
  e.name = name;
  e.request = request;
  e.client = client;
  e.function = function;
  e.card = card >= 0 ? card : card_;
  events_.push_back(e);
}

std::uint32_t TraceSink::add_process(std::string name) {
  const auto pid = static_cast<std::uint32_t>(processes_.size() + 1);
  processes_.push_back({pid, std::move(name), 0});
  return pid;
}

TraceTrack* TraceSink::add_track(std::uint32_t process, std::string name,
                                 std::int64_t card) {
  AAD_REQUIRE(process >= 1 && process <= processes_.size(),
              "trace track added under unregistered process");
  auto& owner = processes_[process - 1];
  const std::uint32_t tid = owner.next_track++;
  tracks_.push_back(
      {std::move(name),
       std::unique_ptr<TraceTrack>(new TraceTrack(process, tid, card))});
  return tracks_.back().track.get();
}

std::vector<TraceEvent> TraceSink::merged() const {
  std::vector<TraceEvent> all;
  all.reserve(event_count());
  for (const auto& t : tracks_)
    all.insert(all.end(), t.track->events_.begin(), t.track->events_.end());
  // (ts, process, track, seq) is a total order: seq is unique per track, so
  // no comparator tie survives — the merge is identical however the
  // per-track buffers were filled.
  std::sort(all.begin(), all.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return std::tie(a.ts_ps, a.process, a.track, a.seq) <
                     std::tie(b.ts_ps, b.process, b.track, b.seq);
            });
  return all;
}

std::size_t TraceSink::event_count() const noexcept {
  std::size_t n = 0;
  for (const auto& t : tracks_) n += t.track->events_.size();
  return n;
}

namespace {

// Minimal JSON string escape — track/process names are ASCII identifiers,
// but keep the writer honest anyway.
void write_escaped(std::FILE* f, const std::string& s) {
  std::fputc('"', f);
  for (const char c : s) {
    switch (c) {
      case '"': std::fputs("\\\"", f); break;
      case '\\': std::fputs("\\\\", f); break;
      case '\n': std::fputs("\\n", f); break;
      case '\t': std::fputs("\\t", f); break;
      default: std::fputc(c, f); break;
    }
  }
  std::fputc('"', f);
}

// Chrome trace timestamps are microseconds; emit fixed six-decimal
// microseconds so every distinct picosecond stays distinct in the file.
void write_us(std::FILE* f, std::int64_t ps) {
  const char* sign = ps < 0 ? "-" : "";
  const std::uint64_t mag = ps < 0 ? static_cast<std::uint64_t>(-ps)
                                   : static_cast<std::uint64_t>(ps);
  std::fprintf(f, "%s%" PRIu64 ".%06" PRIu64, sign, mag / 1000000,
               mag % 1000000);
}

void write_args(std::FILE* f, const TraceEvent& e) {
  std::fputs(",\"args\":{", f);
  bool first = true;
  const auto arg = [&](const char* key, std::int64_t value) {
    if (value < 0) return;
    if (!first) std::fputc(',', f);
    first = false;
    std::fprintf(f, "\"%s\":%" PRId64, key, value);
  };
  arg("request", e.request);
  arg("client", e.client);
  arg("function", e.function);
  arg("card", e.card);
  std::fputc('}', f);
}

}  // namespace

bool TraceSink::write_chrome_trace(const char* path) const {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) return false;

  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[", f);
  bool first = true;
  const auto sep = [&] {
    if (!first) std::fputc(',', f);
    first = false;
    std::fputs("\n", f);
  };

  // Metadata first: process and thread names, so Perfetto labels the lanes.
  for (const auto& p : processes_) {
    sep();
    std::fprintf(f, "{\"ph\":\"M\",\"pid\":%u,\"name\":\"process_name\","
                    "\"args\":{\"name\":",
                 p.pid);
    write_escaped(f, p.name);
    std::fputs("}}", f);
  }
  for (const auto& t : tracks_) {
    sep();
    std::fprintf(f, "{\"ph\":\"M\",\"pid\":%u,\"tid\":%u,"
                    "\"name\":\"thread_name\",\"args\":{\"name\":",
                 t.track->process_, t.track->track_);
    write_escaped(f, t.name);
    std::fputs("}}", f);
  }

  for (const TraceEvent& e : merged()) {
    sep();
    std::fprintf(f, "{\"name\":\"%s\",\"cat\":\"%s\",", e.name, e.category);
    if (e.is_span()) {
      std::fputs("\"ph\":\"X\",\"ts\":", f);
      write_us(f, e.ts_ps);
      std::fputs(",\"dur\":", f);
      write_us(f, e.dur_ps);
    } else {
      std::fputs("\"ph\":\"i\",\"s\":\"t\",\"ts\":", f);
      write_us(f, e.ts_ps);
    }
    std::fprintf(f, ",\"pid\":%u,\"tid\":%u", e.process, e.track);
    write_args(f, e);
    std::fputc('}', f);
  }

  std::fputs("\n]}\n", f);
  const bool ok = std::fclose(f) == 0;
  return ok;
}

}  // namespace aad::telemetry
