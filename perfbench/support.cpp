// Helpers declared in bench.h, plus the replacement global operator new
// that counts heap allocations per thread (dns.allocs_per_probe).

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>

#include "bench.h"

namespace {
thread_local std::uint64_t t_allocations = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++t_allocations;
  if (size == 0) size = 1;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace perfbench {

std::uint64_t thread_allocations() noexcept { return t_allocations; }

std::uint64_t heap_bytes_in_use() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<std::uint64_t>(info.uordblks + info.hblkhd);
}

std::uint64_t peak_rss_bytes() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof usage);
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;  // KiB on Linux
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

Digest& Digest::bytes(const void* data, std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    state_ ^= p[i];
    state_ *= 0x100000001b3ULL;
  }
  return *this;
}

Digest& Digest::real(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  return word(bits);
}

Tracer::Span::Span(Tracer& tracer, std::string_view name) : tracer_(tracer) {
  if (!tracer_.enabled_) return;
  const std::size_t parent = tracer_.open_.empty() ? 0 : tracer_.open_.back();
  tracer_.records_.push_back(
      Record{std::string(name), parent, Clock::now(), Clock::time_point{}});
  index_ = tracer_.records_.size();
  tracer_.open_.push_back(index_);
  open_ = true;
}

Tracer::Span::~Span() {
  if (!open_) return;
  tracer_.records_[index_ - 1].end = Clock::now();
  tracer_.open_.pop_back();
}

void Tracer::record(std::string_view name, Clock::time_point start,
                    Clock::time_point end) {
  if (!enabled_) return;
  const std::size_t parent = open_.empty() ? 0 : open_.back();
  records_.push_back(Record{std::string(name), parent, start, end});
}

bool Tracer::write_json(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  const auto us = [this](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  };
  std::fprintf(file, "{\"schema\": \"perfbench.spans.v1\", \"spans\": [\n");
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    std::fprintf(file,
                 "  {\"id\": %zu, \"parent\": %zu, \"name\": \"%s\", "
                 "\"start_us\": %.1f, \"dur_us\": %.1f}%s\n",
                 i + 1, r.parent, r.name.c_str(), us(r.start),
                 us(r.end) - us(r.start), i + 1 < records_.size() ? "," : "");
  }
  std::fprintf(file, "]}\n");
  return std::fclose(file) == 0;
}

}  // namespace perfbench
