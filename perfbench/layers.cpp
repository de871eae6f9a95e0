#include "layers.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <stdexcept>
#include <vector>

#include "dns/message.h"
#include "net/world.h"
#include "resolver/resolver.h"
#include "scan/encoding.h"
#include "scan/event_core.h"
#include "util/hash.h"
#include "util/strings.h"

namespace perfbench {
namespace {

using namespace dnswild;

constexpr std::size_t kWireSample = 60000;     // universe addresses probed
constexpr std::size_t kResolverSample = 2048;  // resolver services driven
constexpr int kPasses = 3;                     // repeated passes, median

// A deterministic uniform sample of sweepable universe addresses.
std::vector<net::Ipv4> sample_targets(const worldgen::GeneratedWorld& gen,
                                      std::uint64_t seed) {
  std::vector<std::uint64_t> ends;
  std::uint64_t total = 0;
  for (const net::Cidr& cidr : gen.universe) {
    total += cidr.size();
    ends.push_back(total);
  }
  std::vector<net::Ipv4> targets;
  for (std::uint64_t i = 0; targets.size() < kWireSample && i < 4 * kWireSample;
       ++i) {
    const std::uint64_t pick = util::hash_words({seed, 0x5a3b1eULL, i}) % total;
    const std::size_t block = static_cast<std::size_t>(
        std::upper_bound(ends.begin(), ends.end(), pick) - ends.begin());
    const std::uint64_t offset = pick - (block == 0 ? 0 : ends[block - 1]);
    const net::Ipv4 target = gen.universe[block].at(offset);
    if (net::is_reserved(target) || gen.blacklist.contains(target)) continue;
    targets.push_back(target);
  }
  return targets;
}

// The scanner's probe construction: hashed label prefix, hex-IP probe name,
// recursive A query, wire encoding.
std::vector<std::uint8_t> encode_probe(std::uint64_t key, net::Ipv4 target,
                                       const dns::Name& zone,
                                       std::string& prefix) {
  prefix.clear();
  prefix.push_back('p');
  util::append_hex32(prefix, static_cast<std::uint32_t>(key));
  const dns::Name name = scan::make_probe_name(prefix, target, zone);
  return dns::Message::make_query(static_cast<std::uint16_t>(key >> 32), name,
                                  dns::RType::kA)
      .encode();
}

double per_item_ns(double seconds, std::size_t items) {
  return items == 0 ? 0.0 : 1e9 * seconds / static_cast<double>(items);
}

}  // namespace

void measure_wire_path(const Inputs& inputs, LayerValues& out,
                       Tracer& tracer) {
  worldgen::GeneratedWorld gen = worldgen::generate_world(inputs.world);
  const std::vector<net::Ipv4> targets = sample_targets(gen, inputs.seed);
  const std::size_t n = targets.size();
  std::string prefix;

  // Query build + encode, per probe.
  std::vector<std::vector<std::uint8_t>> payloads(n);
  std::vector<double> encode_ns;
  std::uint64_t encode_allocs = 0;
  for (int pass = 0; pass < kPasses; ++pass) {
    Tracer::Span span(tracer, "dns.encode_probe");
    const std::uint64_t allocs = thread_allocations();
    const auto start = Clock::now();
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t key =
          util::hash_words({inputs.seed, 0x9e7ULL, targets[i].value()});
      payloads[i] = encode_probe(key, targets[i], gen.scan_zone, prefix);
    }
    encode_ns.push_back(per_item_ns(seconds_since(start), n));
    encode_allocs = thread_allocations() - allocs;
  }

  // World delivery, per datagram. One pass: a second one would meet warm
  // resolver caches, which the sweep never does.
  std::vector<net::UdpPacket> packets(n);
  for (std::size_t i = 0; i < n; ++i) {
    packets[i].src = gen.scanner_ip;
    packets[i].src_port = 41000;
    packets[i].dst = targets[i];
    packets[i].dst_port = 53;
    packets[i].payload = payloads[i];
  }
  std::vector<std::vector<std::uint8_t>> replies;
  replies.reserve(n);
  {
    Tracer::Span span(tracer, "net.World::send_udp");
    net::World::TrafficSection traffic(*gen.world);
    const auto start = Clock::now();
    for (const net::UdpPacket& packet : packets) {
      std::vector<net::UdpReply> answer = gen.world->send_udp(packet);
      if (!answer.empty()) {
        replies.push_back(std::move(answer.front().packet.payload));
      }
    }
    out["net.send_udp_ns"] = per_item_ns(seconds_since(start), n);
  }
  if (replies.empty()) throw std::runtime_error("wire probe got no replies");

  // Reply decode, per reply.
  std::vector<double> decode_ns;
  std::uint64_t decode_allocs = 0;
  std::size_t decoded = 0;
  for (int pass = 0; pass < kPasses; ++pass) {
    Tracer::Span span(tracer, "dns.Message::decode");
    decoded = 0;
    const std::uint64_t allocs = thread_allocations();
    const auto start = Clock::now();
    for (const std::vector<std::uint8_t>& wire : replies) {
      if (dns::Message::decode(wire)) ++decoded;
    }
    decode_ns.push_back(per_item_ns(seconds_since(start), replies.size()));
    decode_allocs = thread_allocations() - allocs;
  }
  if (decoded == 0) throw std::runtime_error("wire probe decoded no reply");

  out["dns.query_encode_ns"] = median(encode_ns);
  out["dns.reply_decode_ns"] = median(decode_ns);
  // The codec work of one answered probe: its encode plus its reply's
  // decode. Exact counts, so the same seed always gives the same value.
  out["dns.allocs_per_probe"] =
      static_cast<double>(encode_allocs) / static_cast<double>(n) +
      static_cast<double>(decode_allocs) / static_cast<double>(replies.size());

  // Resolver answer: the world's own derived resolver services, each asked
  // fresh (cache-missing) probe names as the sweep does.
  struct Driven {
    net::HostServices services;
    net::UdpService* resolver = nullptr;
    net::Ipv4 address;
  };
  std::vector<Driven> driven;
  const std::uint64_t stride =
      std::max<std::uint64_t>(1, gen.resolver_host_count / kResolverSample);
  for (std::uint64_t index = 0; index < gen.resolver_host_count &&
                                driven.size() < kResolverSample;
       index += stride) {
    const std::optional<net::Ipv4> address = gen.world->address_of(
        gen.resolver_first_host + static_cast<net::HostId>(index));
    if (!address) continue;
    Driven entry;
    entry.services = gen.resolver_source->materialize(index);
    for (auto& [port, service] : entry.services.udp) {
      if (port == 53 && dynamic_cast<resolver::OpenResolverService*>(
                            service.get()) != nullptr) {
        entry.resolver = service.get();
      }
    }
    if (entry.resolver == nullptr) continue;
    entry.address = *address;
    driven.push_back(std::move(entry));
  }
  if (driven.empty()) throw std::runtime_error("no resolver service to drive");
  std::vector<double> answer_ns;
  std::vector<net::UdpReply> answer;
  for (int pass = 0; pass < kPasses; ++pass) {
    std::vector<net::UdpPacket> queries(driven.size());
    for (std::size_t i = 0; i < driven.size(); ++i) {
      const std::uint64_t key = util::hash_words(
          {inputs.seed, 0x7e5ULL, static_cast<std::uint64_t>(pass),
           driven[i].address.value()});
      queries[i].src = gen.scanner_ip;
      queries[i].src_port = 41000;
      queries[i].dst = driven[i].address;
      queries[i].dst_port = 53;
      queries[i].payload =
          encode_probe(key, driven[i].address, gen.scan_zone, prefix);
    }
    Tracer::Span span(tracer, "resolver.OpenResolverService::handle");
    const auto start = Clock::now();
    for (std::size_t i = 0; i < driven.size(); ++i) {
      answer.clear();
      driven[i].resolver->handle(queries[i], answer);
    }
    answer_ns.push_back(per_item_ns(seconds_since(start), driven.size()));
  }
  out["resolver.answer_ns"] = median(answer_ns);
}

void measure_event_core(const Inputs& inputs, std::uint64_t probes,
                        double response_rate, LayerValues& out,
                        Tracer& tracer) {
  scan::RetryPolicy policy;
  policy.attempts = inputs.retry_attempts;
  policy = policy.seeded(inputs.seed);
  std::vector<scan::ProbeTiming> timings(probes);
  for (std::uint64_t i = 0; i < probes; ++i) {
    const std::uint64_t key = util::hash_words({inputs.seed, 0xe7e7ULL, i});
    scan::ProbeTiming& timing = timings[i];
    timing.probe_key = key;
    timing.responded = util::hash_unit(key) < response_rate;
    timing.transmissions = static_cast<std::uint16_t>(
        timing.responded ? 1 : 1 + policy.attempts);
    timing.reply_latency_ms =
        timing.responded ? static_cast<std::uint32_t>(5 + (key >> 40) % 400)
                         : 0;
  }
  scan::EventScanCore core(
      nullptr, scan::EventCoreConfig{65536, 25000.0, 128.0, policy,
                                     "perfbench.event"});
  std::vector<double> replay_ns;
  for (int pass = 0; pass < kPasses; ++pass) {
    Tracer::Span span(tracer, "scan.EventScanCore::run");
    const auto start = Clock::now();
    const scan::EventStats stats = core.run(timings, probes, 1);
    replay_ns.push_back(per_item_ns(seconds_since(start), probes));
    if (stats.completed_streams != probes) {
      throw std::runtime_error("event core left streams incomplete");
    }
  }
  out["scan.event_core.replay_ns"] = median(replay_ns);
}

void measure_clock_advance(const Inputs& inputs, LayerValues& out,
                           Tracer& tracer) {
  constexpr std::int64_t kWeekMinutes = 7 * 1440;
  worldgen::GeneratedWorld gen = worldgen::generate_world(inputs.world);
  const std::int64_t base = gen.world->clock().minutes();
  std::vector<double> advance_s;
  for (int week = 1; week <= kPasses; ++week) {
    Tracer::Span span(tracer, "net.World::set_time_minutes");
    const auto start = Clock::now();
    gen.world->set_time_minutes(base + week * kWeekMinutes);
    advance_s.push_back(seconds_since(start));
  }
  out["net.clock_advance_s"] = median(advance_s);
}

}  // namespace perfbench
