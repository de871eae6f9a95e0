// Shared pieces of the dnswild benchmark program: the run options, the
// benchmark's own span recorder, the per-workload rep record, and small
// statistics / process helpers.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Heap allocations made by the calling thread so far (counted by the
// replacement operator new in alloc_count.cpp).
std::uint64_t thread_allocations() noexcept;

// Heap bytes allocated and not yet freed, over all malloc arenas.
std::uint64_t heap_bytes_in_use();

// Peak resident set of this process so far, in bytes.
std::uint64_t peak_rss_bytes();

double median(std::vector<double> values);

// 64-bit FNV-1a over byte strings; the output digests are built from it.
class Digest {
 public:
  Digest& bytes(const void* data, std::size_t size);
  Digest& text(std::string_view text) {
    return bytes(text.data(), text.size());
  }
  Digest& word(std::uint64_t value) { return bytes(&value, sizeof value); }
  Digest& real(double value);  // by bit pattern
  std::uint64_t value() const noexcept { return state_; }

 private:
  std::uint64_t state_ = 0xcbf29ce484222325ULL;
};

// The benchmark's own tracing: spans around calls into the library's
// public functions, opened and closed on the coordinating thread, kept in
// memory and written out once at the end. A disabled tracer records
// nothing, so untraced runs pay one branch per span.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  class Span {
   public:
    Span(Tracer& tracer, std::string_view name);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer& tracer_;
    std::size_t index_ = 0;
    bool open_ = false;
  };

  bool enabled() const noexcept { return enabled_; }
  void set_enabled(bool on) noexcept { enabled_ = on; }

  // A span whose bounds were taken elsewhere (e.g. epoch boundaries from
  // the campaign's mid-epoch hook), parented to the innermost open span.
  void record(std::string_view name, Clock::time_point start,
              Clock::time_point end);

  bool write_json(const std::string& path) const;

 private:
  struct Record {
    std::string name;
    std::size_t parent = 0;  // 1-based index of the parent record; 0 = root
    Clock::time_point start;
    Clock::time_point end;
  };
  bool enabled_ = false;
  std::vector<Record> records_;
  std::vector<std::size_t> open_;  // 1-based indices of open spans
  Clock::time_point origin_ = Clock::now();
};

// Everything one repetition of a workload produces.
struct Rep {
  std::vector<double> setup_s;   // each generate_world call of the rep
  double wall_s = 0.0;           // first probe to final result
  double scan_wall_s = 0.0;      // the part of wall_s spent probing
  std::uint64_t probes = 0;      // targets probed in scan_wall_s
  std::vector<double> epoch_s;   // per epoch (one-shot workloads: one)
  double resume_s = 0.0;
  double virtual_scan_s = 0.0;   // event-core makespan, deterministic
  std::uint64_t failed = 0;      // fail_ratio numerator ...
  std::uint64_t fail_base = 0;   // ... and its base
  std::uint64_t digest = 0;      // deterministic output digest
  bool self_check_ok = true;     // checks inside the rep (resume identity)
  std::string self_check_error;

  // Heap growth across the rep's first generate_world call.
  std::uint64_t world_heap_bytes = 0;
  std::uint64_t world_hosts = 0;

  // The sweep inside the workload at this rep's worker count (speedup).
  double sweep_wall_s = 0.0;
  std::uint64_t sweep_probes = 0;
  std::uint64_t sweep_responses = 0;

  // Per-layer values gathered by a traced rep.
  std::map<std::string, double> layer;
};

}  // namespace perfbench
