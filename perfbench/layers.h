// Per-layer probes: time calls into one module's public functions from
// outside, on a fresh world of the workload's configuration.
//
// measure_wire_path calls the APIs the allocation-free wire-path item will
// reshape (dns::Name via scan::make_probe_name, dns::Message::make_query /
// encode / decode, net::World::send_udp, and the resolver's
// net::UdpService::handle); that is the one function a change of those
// signatures has to follow.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "bench.h"
#include "workloads.h"

namespace perfbench {

using LayerValues = std::map<std::string, double>;

// dns.query_encode_ns, dns.reply_decode_ns, dns.allocs_per_probe,
// resolver.answer_ns and net.send_udp_ns.
void measure_wire_path(const Inputs& inputs, LayerValues& out, Tracer& tracer);

// scan.event_core.replay_ns: EventScanCore::run over `probes` timings
// shaped like the workload's sweep (its response rate and retry ladder).
void measure_event_core(const Inputs& inputs, std::uint64_t probes,
                        double response_rate, LayerValues& out,
                        Tracer& tracer);

// net.clock_advance_s: World::set_time_minutes by one week.
void measure_clock_advance(const Inputs& inputs, LayerValues& out,
                           Tracer& tracer);

}  // namespace perfbench
