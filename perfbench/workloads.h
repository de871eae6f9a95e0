// The three benchmark workloads (see README.md for why each exists):
//
//   sweep     one clean IPv4 enumeration (Ipv4Scanner::scan)
//   study     the Fig. 3 chain under the chaos profile: sweep + Pipeline::run
//   campaign  five weekly epochs (CampaignEngine::run), then a resume pass
//
// Every input the library sees is derived from the benchmark seed here.
#pragma once

#include <cstdint>
#include <string>

#include "bench.h"
#include "worldgen/worldgen.h"

namespace perfbench {

struct Inputs {
  std::string workload;
  std::uint64_t seed = 0;
  dnswild::worldgen::WorldGenConfig world;
  // Retry ladder of the sweep, the domain scan and acquisition.
  int retry_attempts = 0;
  int retry_timeout_ms = 0;
  // campaign only
  std::uint32_t epochs = 0;
  bool delta = false;
  std::uint32_t full_every = 0;
  std::string scratch_dir;  // epoch stores live below this directory
};

bool known_workload(const std::string& name);
Inputs make_inputs(const std::string& workload, std::uint64_t seed,
                   const std::string& scratch_dir);

// One repetition at `workers` threads. With `layers`, the rep also fills
// Rep::layer with the per-layer values that need its world or its outputs;
// that extra work runs outside every timed interval of the rep.
Rep run_rep(const Inputs& inputs, unsigned workers, Tracer& tracer,
            bool layers);

// Sweep throughput at `workers` threads on a fresh world with prefix
// telemetry and the flight recorder on or off (obs.telemetry_overhead).
double sweep_probes_per_s(const Inputs& inputs, unsigned workers,
                          bool telemetry);

}  // namespace perfbench
