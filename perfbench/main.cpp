// dnswild benchmark program: one process runs one workload for one seed.
//
//   perfbench --workload sweep|study|campaign --seed N --seconds S
//             --trace 0|1 [--scratch DIR] [--spans-out FILE]
//
// Every run first makes a 1-worker reference run of the workload and then
// repeats it with one worker per hardware thread for about S seconds. Each
// repetition's deterministic output digest must equal the reference's. With
// --trace 0 the last stdout line is a JSON object with every end-to-end
// metric; with --trace 1 it carries the per-layer metrics, measured with the
// benchmark's own spans on. README.md defines every metric.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench.h"
#include "layers.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  unsigned workers = 0;
  std::string scratch = ".perfbench-scratch";
  std::string spans_out;
};

struct MetricValue {
  std::string name;
  double value = 0.0;
  std::string unit;
};

constexpr std::size_t kMinReps = 3;

bool parse_args(int argc, char** argv, Options& options) {
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  if (argc % 2 != 1) return false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = known_workload(options.workload);
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
      have_seed = *value != '\0' && *end == '\0';
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, &end);
      have_seconds = *end == '\0' && options.seconds > 0;
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "1") == 0;
      have_trace = options.trace || std::strcmp(value, "0") == 0;
    } else if (flag == "--scratch") {
      options.scratch = value;
    } else if (flag == "--spans-out") {
      options.spans_out = value;
    } else {
      return false;
    }
  }
  options.workers = std::max(1u, std::thread::hardware_concurrency());
  return have_workload && have_seed && have_seconds && have_trace;
}

// Runs measured reps until the next one would end past `seconds`, with at
// least kMinReps of them.
template <typename RunOne>
void repeat_for(double seconds, RunOne run_one) {
  const auto start = Clock::now();
  for (std::size_t done = 0;;) {
    run_one(done);
    ++done;
    const double elapsed = seconds_since(start);
    const double per_rep = elapsed / static_cast<double>(done);
    if (done >= kMinReps && elapsed + per_rep > seconds) break;
  }
}

struct Ledger {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  // Checks one rep against the reference digest; returns whether it held.
  bool check(const Rep& rep, std::uint64_t reference, const char* what) {
    ++attempted;
    std::string error;
    if (!rep.self_check_ok) {
      error = rep.self_check_error;
    } else if (rep.digest != reference) {
      error = "output digest differs from the 1-worker reference";
    }
    if (error.empty()) return true;
    ++failed;
    std::printf("CHECK FAILED (%s): %s\n", what, error.c_str());
    return false;
  }
};

void print_result(const Ledger& ledger,
                  const std::vector<MetricValue>& metrics) {
  bool finite = true;
  for (const MetricValue& m : metrics) {
    finite = finite && std::isfinite(m.value);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              ledger.failed == 0 && finite ? "true" : "false",
              static_cast<unsigned long long>(ledger.attempted),
              static_cast<unsigned long long>(ledger.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const MetricValue& m = metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(),
                std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
  }
  std::printf("}}\n");
}

void end_to_end(const Options& options, const Inputs& inputs) {
  Tracer tracer(false);
  Ledger ledger;
  const Rep reference = run_rep(inputs, 1, tracer, false);
  ledger.check(reference, reference.digest, "reference");
  std::printf("reference: 1 worker, wall %.3f s, peak rss %.1f MB, "
              "digest %016llx\n",
              reference.wall_s, static_cast<double>(peak_rss_bytes()) / 1e6,
              static_cast<unsigned long long>(reference.digest));

  std::vector<double> setup, wall, rate, epoch, resume, virtual_s;
  std::uint64_t failed = 0, base = 0;
  repeat_for(options.seconds, [&](std::size_t index) {
    const Rep rep = run_rep(inputs, options.workers, tracer, false);
    const bool ok = ledger.check(rep, reference.digest, "rep");
    std::printf("rep %zu: %u workers, wall %.3f s, setup %.4f s, resume "
                "%.4f s%s\n",
                index, options.workers, rep.wall_s, median(rep.setup_s),
                rep.resume_s, ok ? "" : ", FAILED");
    setup.insert(setup.end(), rep.setup_s.begin(), rep.setup_s.end());
    wall.push_back(rep.wall_s);
    rate.push_back(static_cast<double>(rep.probes) / rep.scan_wall_s);
    epoch.insert(epoch.end(), rep.epoch_s.begin(), rep.epoch_s.end());
    resume.push_back(rep.resume_s);
    virtual_s.push_back(rep.virtual_scan_s);
    base += rep.fail_base;
    failed += ok ? rep.failed : rep.fail_base;  // a failed check fails all
  });

  const char* fail_base =
      inputs.workload == "sweep"
          ? "planned NOERROR resolvers"
          : inputs.workload == "study"
                ? "domain-scan tuples aimed at fault-profiled networks"
                : "planned NOERROR resolvers x epochs";
  std::printf("fail_ratio base: %llu failed of %llu %s (all reps)\n",
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(base), fail_base);
  std::printf("probes_per_s base: %llu probed targets per rep\n",
              static_cast<unsigned long long>(reference.probes));
  const std::vector<MetricValue> metrics = {
      {"setup_s", median(setup), "s"},
      {"wall_s", median(wall), "s"},
      {"probes_per_s", median(rate), "probes/s"},
      {"epoch_s", median(epoch), "s"},
      {"resume_s", median(resume), "s"},
      {"peak_rss_mb", static_cast<double>(peak_rss_bytes()) / 1e6, "MB"},
      {"virtual_scan_s", median(virtual_s), "virtual-s"},
      {"fail_ratio",
       base == 0 ? 1.0
                 : static_cast<double>(failed) / static_cast<double>(base),
       "ratio"},
  };
  for (const MetricValue& m : metrics) {
    std::printf("%-16s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  print_result(ledger, metrics);
}

// Per-layer rows, in BENCHMARK.json order, with their units.
const std::vector<std::pair<const char*, const char*>>& layer_units() {
  static const std::vector<std::pair<const char*, const char*>> units = {
      {"worldgen.bytes_per_host", "B/host"},
      {"dns.query_encode_ns", "ns"},
      {"dns.reply_decode_ns", "ns"},
      {"dns.allocs_per_probe", "count"},
      {"resolver.answer_ns", "ns"},
      {"net.send_udp_ns", "ns"},
      {"net.udp.delivered_ratio", "ratio"},
      {"net.clock_advance_s", "s"},
      {"scan.ipv4.ns_per_probe_1w", "ns"},
      {"scan.ipv4.speedup", "x"},
      {"scan.event_core.replay_ns", "ns"},
      {"scan.domain.scan_s", "s"},
      {"scan.domain.tuples_per_s", "1/s"},
      {"scan.domain.virtual_s", "virtual-s"},
      {"scan.retry.retransmissions_per_probe", "ratio"},
      {"scan.retry.recovered_ratio", "ratio"},
      {"obs.telemetry_overhead", "ratio"},
      {"core.pipeline_s", "s"},
      {"core.prefilter_s", "s"},
      {"core.acquisition_s", "s"},
      {"core.verification_s", "s"},
      {"core.reports_s", "s"},
      {"cluster.clustering_s", "s"},
      {"cluster.labeling_s", "s"},
      {"cluster.pair_distances", "count"},
      {"campaign.store_save_ms", "ms"},
      {"campaign.load_all_ms", "ms"},
      {"campaign.delta_probe_fraction", "ratio"},
      {"bench.tracing_overhead", "ratio"},
  };
  return units;
}

void per_layer(const Options& options, const Inputs& inputs) {
  Tracer tracer(true);
  Ledger ledger;
  LayerValues values;

  const Rep reference = run_rep(inputs, 1, tracer, false);
  ledger.check(reference, reference.digest, "reference");
  values["worldgen.bytes_per_host"] =
      static_cast<double>(reference.world_heap_bytes) /
      static_cast<double>(reference.world_hosts);
  values["scan.ipv4.ns_per_probe_1w"] =
      1e9 * reference.sweep_wall_s /
      static_cast<double>(reference.sweep_probes);

  // Untraced and traced reps alternate; the traced ones also collect the
  // rows that need a rep's world or outputs (outside its timed parts).
  std::vector<double> untraced_wall, traced_wall, sweep_wall;
  std::map<std::string, std::vector<double>> rows;
  repeat_for(options.seconds, [&](std::size_t index) {
    const bool traced = index % 2 == 1;
    tracer.set_enabled(traced);
    const Rep rep = run_rep(inputs, options.workers, tracer, traced);
    tracer.set_enabled(true);
    ledger.check(rep, reference.digest, traced ? "traced rep" : "rep");
    (traced ? traced_wall : untraced_wall).push_back(rep.wall_s);
    sweep_wall.push_back(rep.sweep_wall_s);
    for (const auto& [name, value] : rep.layer) rows[name].push_back(value);
  });
  for (const auto& [name, samples] : rows) values[name] = median(samples);
  values["bench.tracing_overhead"] =
      median(traced_wall) / median(untraced_wall);
  values["scan.ipv4.speedup"] = reference.sweep_wall_s / median(sweep_wall);
  std::printf("scan.ipv4.speedup base: %.3f s at 1 worker / %.3f s at %u "
              "workers, %llu probes\n",
              reference.sweep_wall_s, median(sweep_wall), options.workers,
              static_cast<unsigned long long>(reference.sweep_probes));

  // Telemetry on vs off, interleaved in alternating order.
  std::vector<double> on_rate, off_rate;
  for (int pair = 0; pair < 2; ++pair) {
    for (int half = 0; half < 2; ++half) {
      const bool on = (half == 0) == (pair == 0);
      Tracer::Span span(tracer, on ? "obs.sweep(telemetry on)"
                                   : "obs.sweep(telemetry off)");
      (on ? on_rate : off_rate)
          .push_back(sweep_probes_per_s(inputs, options.workers, on));
    }
  }
  values["obs.telemetry_overhead"] = median(on_rate) / median(off_rate);

  measure_wire_path(inputs, values, tracer);
  measure_event_core(inputs, reference.sweep_probes,
                     static_cast<double>(reference.sweep_responses) /
                         static_cast<double>(reference.sweep_probes),
                     values, tracer);
  measure_clock_advance(inputs, values, tracer);

  std::vector<MetricValue> metrics;
  for (const auto& [name, unit] : layer_units()) {
    const auto it = values.find(name);
    if (it == values.end()) {
      std::printf("per-layer row %s was not measured\n", name);
      ++ledger.failed;
      continue;
    }
    metrics.push_back({name, it->second, unit});
    std::printf("%-40s %.6g %s\n", name, it->second, unit);
  }
  if (!options.spans_out.empty() && !tracer.write_json(options.spans_out)) {
    std::fprintf(stderr, "cannot write %s\n", options.spans_out.c_str());
  }
  print_result(ledger, metrics);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  if (!parse_args(argc, argv, options)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload sweep|study|campaign --seed N "
                 "--seconds S --trace 0|1 [--scratch DIR] "
                 "[--spans-out FILE]\n");
    return 2;
  }
  try {
    std::filesystem::create_directories(options.scratch);
    const Inputs inputs =
        make_inputs(options.workload, options.seed, options.scratch);
    std::printf("perfbench: workload %s, seed %llu, %u workers, %.0f s\n",
                options.workload.c_str(),
                static_cast<unsigned long long>(options.seed),
                options.workers, options.seconds);
    if (options.trace) {
      per_layer(options, inputs);
    } else {
      end_to_end(options, inputs);
    }
    std::filesystem::remove_all(options.scratch);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 1;
  }
  return 0;
}
