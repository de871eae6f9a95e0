#include "workloads.h"

#include <algorithm>
#include <filesystem>
#include <stdexcept>
#include <utility>
#include <vector>

#include "campaign/campaign.h"
#include "core/pipeline.h"
#include "scan/ipv4scan.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using namespace dnswild;

// World sizes (initial NOERROR resolver populations).
constexpr std::uint32_t kSweepResolvers = 120000;
constexpr std::uint32_t kStudyResolvers = 4000;
constexpr std::uint32_t kCampaignResolvers = 60000;
// Open resolvers handed to the small Pipeline::run that gives the core.*
// and cluster.* rows on workloads whose own run has no pipeline.
constexpr std::size_t kMiniPipelineResolvers = 256;
// CampaignEngine::run(resume=true) passes per rep; resume_s is their median.
// A one-shot workload's passes share one world and take well under a
// millisecond each; each campaign pass needs a fresh world.
constexpr int kOneShotResumePasses = 9;
constexpr int kCampaignResumePasses = 3;

worldgen::GeneratedWorld make_world(const Inputs& inputs, Rep& rep,
                                    Tracer& tracer) {
  const std::uint64_t heap_before = heap_bytes_in_use();
  const auto start = Clock::now();
  worldgen::GeneratedWorld gen;
  {
    Tracer::Span span(tracer, "worldgen.generate_world");
    gen = worldgen::generate_world(inputs.world);
  }
  rep.setup_s.push_back(seconds_since(start));
  if (rep.world_hosts == 0) {
    const std::uint64_t heap_after = heap_bytes_in_use();
    rep.world_heap_bytes =
        heap_after > heap_before ? heap_after - heap_before : 0;
    rep.world_hosts = gen.world->host_count();
  }
  return gen;
}

scan::Ipv4ScanConfig sweep_config(const worldgen::GeneratedWorld& gen,
                                  const Inputs& inputs, unsigned workers) {
  scan::Ipv4ScanConfig config;
  config.scanner_ip = gen.scanner_ip;
  config.zone = gen.scan_zone;
  config.blacklist = &gen.blacklist;
  config.seed = inputs.seed;
  config.threads = workers;
  config.retry.attempts = inputs.retry_attempts;
  config.retry.timeout_ms = inputs.retry_timeout_ms;
  return config;
}

core::PipelineConfig pipeline_config(const worldgen::GeneratedWorld& gen,
                                     const Inputs& inputs, unsigned workers) {
  core::PipelineConfig config;
  config.scanner_ip = gen.scanner_ip;
  config.vantage_ip = gen.vantage_ip;
  config.seed = inputs.seed;
  config.scan_threads = workers;
  config.classifier.threads = workers;
  config.domain_scan_retry.attempts = inputs.retry_attempts;
  config.domain_scan_retry.timeout_ms = inputs.retry_timeout_ms;
  config.acquisition_retry.attempts = inputs.retry_attempts;
  config.acquisition_retry.timeout_ms = inputs.retry_timeout_ms;
  return config;
}

campaign::CampaignTargets targets_of(const worldgen::GeneratedWorld& gen) {
  campaign::CampaignTargets targets;
  targets.scanner_ip = gen.scanner_ip;
  targets.zone = gen.scan_zone;
  targets.blacklist = &gen.blacklist;
  targets.universe = gen.universe;
  return targets;
}

campaign::CampaignConfig campaign_config(const Inputs& inputs,
                                         const std::string& dir,
                                         unsigned workers,
                                         std::uint32_t epochs) {
  campaign::CampaignConfig config;
  config.store_dir = dir;
  config.epochs = epochs;
  config.seed = inputs.seed;
  config.delta = inputs.delta;
  config.full_every = inputs.full_every;
  config.threads = workers;
  return config;
}

std::string fresh_dir(const Inputs& inputs, const char* name) {
  const std::string dir = inputs.scratch_dir + "/" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

void digest_summary(Digest& digest, const scan::Ipv4ScanSummary& s) {
  for (const std::uint64_t value :
       {s.probed, s.skipped_reserved, s.skipped_blacklist, s.responses,
        s.noerror, s.refused, s.servfail, s.nxdomain, s.other_rcode,
        s.multihomed, s.retry_retransmissions, s.retry_recovered,
        s.retry_exhausted, s.retry_wait_ms, s.event_count,
        std::uint64_t{s.peak_in_flight}}) {
    digest.word(value);
  }
  digest.real(s.virtual_scan_seconds);
  for (const net::Ipv4 ip : s.noerror_targets) digest.word(ip.value());
  for (const auto& [ip, rcode] : s.responders) {
    digest.word(ip.value()).word(static_cast<std::uint64_t>(rcode));
  }
}

// The sweep as the one epoch of a campaign store.
campaign::EpochRecord sweep_record(const scan::Ipv4ScanSummary& s,
                                   std::uint64_t start_minute,
                                   obs::PrefixTable prefixes) {
  campaign::EpochRecord record;
  record.start_minute = start_minute;
  record.probed = s.probed;
  record.skipped_reserved = s.skipped_reserved;
  record.skipped_blacklist = s.skipped_blacklist;
  record.responses = s.responses;
  record.noerror = s.noerror;
  record.refused = s.refused;
  record.servfail = s.servfail;
  record.nxdomain = s.nxdomain;
  record.other_rcode = s.other_rcode;
  record.retry_retransmissions = s.retry_retransmissions;
  record.retry_exhausted = s.retry_exhausted;
  record.virtual_scan_seconds = s.virtual_scan_seconds;
  for (const net::Ipv4 ip : s.noerror_targets) {
    record.population.push_back(ip.value());
  }
  std::sort(record.population.begin(), record.population.end());
  record.prefixes = std::move(prefixes);
  return record;
}

void fail_self_check(Rep& rep, std::string what) {
  if (!rep.self_check_ok) return;
  rep.self_check_ok = false;
  rep.self_check_error = std::move(what);
}

// resume_s of the one-shot workloads: their sweep is stored as the single
// epoch of a campaign store, and CampaignEngine::run(resume=true) on a
// fresh world loads, validates and rebuilds it without scanning. A
// one-epoch resume never moves the world clock, so the passes share one
// world.
void resume_one_shot(const Inputs& inputs, const campaign::EpochRecord& record,
                     unsigned workers, Rep& rep, Tracer& tracer, bool layers,
                     Digest& digest) {
  const std::string dir = fresh_dir(inputs, "resume");
  worldgen::GeneratedWorld gen = make_world(inputs, rep, tracer);
  const campaign::CampaignConfig config =
      campaign_config(inputs, dir, workers, 1);
  const campaign::EpochStore store(
      dir, campaign::CampaignEngine(*gen.world, targets_of(gen), config)
               .config_hash());
  {
    std::string error;
    const auto start = Clock::now();
    bool saved = false;
    {
      Tracer::Span span(tracer, "campaign.EpochStore::save");
      saved = store.save(record, &error);
    }
    if (layers) {
      rep.layer["campaign.store_save_ms"] = 1e3 * seconds_since(start);
    }
    if (!saved) throw std::runtime_error("epoch store: " + error);
  }
  std::vector<double> passes;
  for (int pass = 0; pass < kOneShotResumePasses; ++pass) {
    campaign::CampaignEngine engine(*gen.world, targets_of(gen), config);
    campaign::CampaignResult resumed;
    const auto start = Clock::now();
    {
      Tracer::Span span(tracer, "campaign.CampaignEngine::run(resume)");
      resumed = engine.run(/*resume=*/true);
    }
    passes.push_back(seconds_since(start));
    if (resumed.resumed_from != 1 || resumed.epochs.size() != 1 ||
        !resumed.store_issues.empty() ||
        resumed.epochs.front().population != record.population) {
      fail_self_check(rep, "resume did not rebuild the stored sweep");
    }
    if (pass == 0) digest.text(resumed.to_json(/*mask=*/true));
  }
  rep.resume_s = median(passes);
  if (layers) {
    const auto load_start = Clock::now();
    campaign::EpochStore::ScanResult loaded;
    {
      Tracer::Span span(tracer, "campaign.EpochStore::load_all");
      loaded = store.load_all();
    }
    rep.layer["campaign.load_all_ms"] = 1e3 * seconds_since(load_start);
    if (loaded.epochs.size() != 1) {
      fail_self_check(rep, "load_all lost the epoch");
    }
  }
}

// Retry-ladder and traffic-plane rows from the world's registry.
void traffic_layers(const net::World& world, Rep& rep) {
  const obs::Snapshot m = world.metrics().snapshot();
  const auto count = [&m](const char* name) {
    return static_cast<double>(m.counter_value(name));
  };
  const double attempts = count("retry.attempts");
  const double retx = count("retry.retransmissions");
  const double recovered = count("retry.recovered");
  const double exhausted = count("retry.exhausted");
  const double first_sends = attempts - retx;
  rep.layer["scan.retry.retransmissions_per_probe"] =
      first_sends > 0 ? retx / first_sends : 0.0;
  rep.layer["scan.retry.recovered_ratio"] =
      recovered + exhausted > 0 ? recovered / (recovered + exhausted) : 0.0;
  const double sent = count("net.udp.sent");
  rep.layer["net.udp.delivered_ratio"] =
      sent > 0 ? count("net.udp.delivered") / sent : 0.0;
}

// Stage rows of one Pipeline::run, from the spans the pipeline records
// itself. core.reports_s is the part of pipeline.run no stage span covers,
// so the stage rows plus core.reports_s sum to core.pipeline_s.
void pipeline_layers(const core::StudyReport& report, Rep& rep) {
  const obs::Snapshot& m = report.metrics;
  const obs::SpanRecord* run = m.find_span("pipeline.run");
  if (run == nullptr) {
    fail_self_check(rep, "pipeline.run span missing");
    return;
  }
  double stage_ms = 0.0;
  for (const obs::SpanRecord& span : m.spans) {
    if (span.parent == run->seq && span.name.rfind("stage.", 0) == 0) {
      stage_ms += span.wall_ms;
    }
  }
  const auto stage_s = [&m](const char* name) {
    const obs::SpanRecord* span = m.find_span(name);
    return span == nullptr ? 0.0 : span->wall_ms / 1e3;
  };
  const double domain_s = stage_s("stage.domain_scan");
  rep.layer["core.pipeline_s"] = run->wall_ms / 1e3;
  rep.layer["scan.domain.scan_s"] = domain_s;
  rep.layer["scan.domain.tuples_per_s"] =
      domain_s > 0 ? static_cast<double>(report.records.size()) / domain_s
                   : 0.0;
  rep.layer["scan.domain.virtual_s"] =
      static_cast<double>(m.counter_value("scan.domain.event.virtual_us")) /
      1e6;
  rep.layer["core.prefilter_s"] = stage_s("stage.prefilter");
  rep.layer["core.acquisition_s"] = stage_s("stage.acquisition");
  rep.layer["core.verification_s"] = stage_s("stage.verification");
  rep.layer["cluster.clustering_s"] = stage_s("stage.clustering");
  rep.layer["cluster.labeling_s"] = stage_s("stage.labeling");
  rep.layer["core.reports_s"] = (run->wall_ms - stage_ms) / 1e3;
  rep.layer["cluster.pair_distances"] =
      static_cast<double>(m.counter_value("cluster.hac.pair_distances"));
}

// The small pipeline that gives workloads without one their stage rows.
void mini_pipeline(worldgen::GeneratedWorld& gen, const Inputs& inputs,
                   std::vector<net::Ipv4> resolvers, unsigned workers,
                   Rep& rep, Tracer& tracer) {
  if (resolvers.size() > kMiniPipelineResolvers) {
    resolvers.resize(kMiniPipelineResolvers);
  }
  core::Pipeline pipeline(*gen.world, *gen.registry,
                          pipeline_config(gen, inputs, workers));
  Tracer::Span span(tracer, "core.Pipeline::run(mini)");
  pipeline_layers(pipeline.run(resolvers, gen.domains), rep);
}

Rep run_sweep(const Inputs& inputs, unsigned workers, Tracer& tracer,
              bool layers) {
  Rep rep;
  Digest digest;
  campaign::EpochRecord record;
  {
    worldgen::GeneratedWorld gen = make_world(inputs, rep, tracer);
    const std::uint64_t start_minute =
        static_cast<std::uint64_t>(gen.world->clock().minutes());
    scan::Ipv4Scanner scanner(*gen.world, sweep_config(gen, inputs, workers));
    const auto start = Clock::now();
    scan::Ipv4ScanSummary summary;
    {
      Tracer::Span span(tracer, "scan.Ipv4Scanner::scan");
      summary = scanner.scan(gen.universe);
    }
    rep.wall_s = seconds_since(start);
    rep.scan_wall_s = rep.sweep_wall_s = rep.wall_s;
    rep.probes = rep.sweep_probes = summary.probed;
    rep.sweep_responses = summary.responses;
    rep.epoch_s = {rep.wall_s};
    rep.virtual_scan_s = summary.virtual_scan_seconds;
    rep.fail_base = gen.planned_noerror;
    rep.failed = gen.planned_noerror > summary.noerror
                     ? gen.planned_noerror - summary.noerror
                     : 0;
    digest_summary(digest, summary);
    record = sweep_record(summary, start_minute,
                          gen.world->prefix_telemetry().snapshot());
    if (layers) {
      traffic_layers(*gen.world, rep);
      rep.layer["campaign.delta_probe_fraction"] = 0.0;  // no delta epochs
      mini_pipeline(gen, inputs, summary.noerror_targets, workers, rep, tracer);
    }
  }
  resume_one_shot(inputs, record, workers, rep, tracer, layers, digest);
  rep.digest = digest.value();
  return rep;
}

Rep run_study(const Inputs& inputs, unsigned workers, Tracer& tracer,
              bool layers) {
  Rep rep;
  Digest digest;
  campaign::EpochRecord record;
  {
    worldgen::GeneratedWorld gen = make_world(inputs, rep, tracer);
    const std::uint64_t start_minute =
        static_cast<std::uint64_t>(gen.world->clock().minutes());
    scan::Ipv4Scanner scanner(*gen.world, sweep_config(gen, inputs, workers));
    core::Pipeline pipeline(*gen.world, *gen.registry,
                            pipeline_config(gen, inputs, workers));
    const auto start = Clock::now();
    scan::Ipv4ScanSummary summary;
    {
      Tracer::Span span(tracer, "scan.Ipv4Scanner::scan");
      summary = scanner.scan(gen.universe);
    }
    rep.sweep_wall_s = seconds_since(start);
    core::StudyReport report;
    {
      Tracer::Span span(tracer, "core.Pipeline::run");
      report = pipeline.run(summary.noerror_targets, gen.domains);
    }
    rep.wall_s = seconds_since(start);
    rep.epoch_s = {rep.wall_s};
    rep.sweep_probes = summary.probed;
    rep.sweep_responses = summary.responses;

    // Probing = the sweep plus the domain scan (its own stage span).
    const obs::SpanRecord* domain =
        report.metrics.find_span("stage.domain_scan");
    rep.scan_wall_s =
        rep.sweep_wall_s + (domain == nullptr ? 0.0 : domain->wall_ms / 1e3);
    rep.probes = summary.probed + report.records.size();
    rep.virtual_scan_s = summary.virtual_scan_seconds;

    // Only tuples aimed at fault-profiled networks can be lost: the rest
    // of the world is clean. Every unresponsive tuple counts as failed.
    const net::FaultPlan& faults = gen.world->fault_plan();
    for (const scan::TupleRecord& tuple : report.records) {
      if (!tuple.responded) ++rep.failed;
      if (faults.match(report.resolvers.at(tuple.resolver_id), nullptr) !=
          nullptr) {
        ++rep.fail_base;
      }
    }

    digest_summary(digest, summary);
    digest.text(report.metrics.to_json(/*mask_nondeterministic=*/true));
    for (const auto& column : report.table5.columns) {
      for (const core::Table5Cell& cell : column) {
        digest.real(cell.avg_pct).real(cell.max_pct);
      }
    }
    for (const core::ClassifiedTuple& tuple : report.classification.tuples) {
      digest.word(tuple.record_index)
          .word(static_cast<std::uint64_t>(tuple.label))
          .word(static_cast<std::uint64_t>(
              static_cast<std::int64_t>(tuple.cluster)));
    }
    record = sweep_record(summary, start_minute,
                          gen.world->prefix_telemetry().snapshot());
    if (layers) {
      traffic_layers(*gen.world, rep);
      rep.layer["campaign.delta_probe_fraction"] = 0.0;  // no delta epochs
      pipeline_layers(report, rep);
    }
  }
  resume_one_shot(inputs, record, workers, rep, tracer, layers, digest);
  rep.digest = digest.value();
  return rep;
}

Rep run_campaign(const Inputs& inputs, unsigned workers, Tracer& tracer,
                 bool layers) {
  Rep rep;
  const std::string dir = fresh_dir(inputs, "campaign");
  campaign::CampaignResult result;
  std::string expected;
  {
    worldgen::GeneratedWorld gen = make_world(inputs, rep, tracer);
    campaign::CampaignEngine engine(
        *gen.world, targets_of(gen),
        campaign_config(inputs, dir, workers, inputs.epochs));
    std::vector<Clock::time_point> marks;
    engine.set_mid_epoch_hook(
        [&marks](std::uint32_t) { marks.push_back(Clock::now()); });
    const auto start = Clock::now();
    {
      Tracer::Span span(tracer, "campaign.CampaignEngine::run");
      result = engine.run(/*resume=*/false);
      Clock::time_point from = start;
      for (std::size_t i = 0; i < marks.size(); ++i) {
        tracer.record("campaign.epoch", from, marks[i]);
        from = marks[i];
      }
    }
    rep.wall_s = seconds_since(start);
    if (marks.size() != inputs.epochs ||
        result.epochs.size() != inputs.epochs) {
      throw std::runtime_error("campaign ran a different number of epochs");
    }
    Clock::time_point from = start;
    for (const Clock::time_point mark : marks) {
      rep.epoch_s.push_back(std::chrono::duration<double>(mark - from).count());
      from = mark;
    }
    rep.scan_wall_s = rep.wall_s;
    rep.sweep_wall_s = rep.epoch_s.front();  // epoch 0 is a full sweep
    rep.sweep_probes = result.epochs.front().probed;
    rep.sweep_responses = result.epochs.front().responses;
    for (const campaign::EpochRecord& epoch : result.epochs) {
      rep.probes += epoch.probed;
      rep.virtual_scan_s += epoch.virtual_scan_seconds;
      rep.fail_base += gen.planned_noerror;
      const std::uint64_t found = epoch.population.size();
      if (!epoch.degradations.empty()) {
        rep.failed += gen.planned_noerror;
      } else if (gen.planned_noerror > found) {
        rep.failed += gen.planned_noerror - found;
      }
    }
    expected = result.to_json(/*mask=*/true);
    if (layers) {
      traffic_layers(*gen.world, rep);
      rep.layer["campaign.delta_probe_fraction"] =
          result.summary.delta_probe_fraction;
      const std::string copy_dir = fresh_dir(inputs, "store_copy");
      const campaign::EpochStore copy(copy_dir, engine.config_hash());
      std::vector<double> save_ms;
      for (const campaign::EpochRecord& epoch : result.epochs) {
        const auto save_start = Clock::now();
        bool saved = false;
        {
          Tracer::Span span(tracer, "campaign.EpochStore::save");
          saved = copy.save(epoch);
        }
        save_ms.push_back(1e3 * seconds_since(save_start));
        if (!saved) throw std::runtime_error("epoch store copy failed");
      }
      rep.layer["campaign.store_save_ms"] = median(save_ms);
      const auto load_start = Clock::now();
      campaign::EpochStore::ScanResult loaded;
      {
        Tracer::Span span(tracer, "campaign.EpochStore::load_all");
        loaded = copy.load_all();
      }
      rep.layer["campaign.load_all_ms"] = 1e3 * seconds_since(load_start);
      if (loaded.epochs.size() != inputs.epochs) {
        fail_self_check(rep, "load_all lost epochs");
      }
      std::vector<net::Ipv4> resolvers;
      for (const std::uint32_t address : result.epochs.back().population) {
        resolvers.emplace_back(address);
      }
      mini_pipeline(gen, inputs, std::move(resolvers), workers, rep, tracer);
    }
  }
  // Resume over the complete store on a fresh world each pass: load,
  // validate and rebuild; no epoch is scanned again.
  std::vector<double> passes;
  for (int pass = 0; pass < kCampaignResumePasses; ++pass) {
    worldgen::GeneratedWorld gen = make_world(inputs, rep, tracer);
    campaign::CampaignEngine engine(
        *gen.world, targets_of(gen),
        campaign_config(inputs, dir, workers, inputs.epochs));
    campaign::CampaignResult resumed;
    const auto start = Clock::now();
    {
      Tracer::Span span(tracer, "campaign.CampaignEngine::run(resume)");
      resumed = engine.run(/*resume=*/true);
    }
    passes.push_back(seconds_since(start));
    if (resumed.resumed_from != inputs.epochs ||
        !resumed.store_issues.empty() ||
        resumed.to_json(/*mask=*/true) != expected) {
      fail_self_check(rep, "resumed campaign report differs from the run's");
    }
  }
  rep.resume_s = median(passes);
  Digest digest;
  digest.text(expected);
  rep.digest = digest.value();
  return rep;
}

}  // namespace

bool known_workload(const std::string& name) {
  return name == "sweep" || name == "study" || name == "campaign";
}

Inputs make_inputs(const std::string& workload, std::uint64_t seed,
                   const std::string& scratch_dir) {
  Inputs inputs;
  inputs.workload = workload;
  inputs.seed = seed;
  inputs.scratch_dir = scratch_dir;
  inputs.world.seed = seed;
  if (workload == "sweep") {
    inputs.world.resolver_count = kSweepResolvers;
    inputs.world.with_devices = false;
  } else if (workload == "study") {
    // The chaos profile of EXPERIMENTS.md, with two retransmissions and a
    // 2 s reply timeout on every ladder (sweep, domain scan, acquisition).
    inputs.world.resolver_count = kStudyResolvers;
    worldgen::ChaosProfileConfig& chaos = inputs.world.chaos;
    chaos.enabled = true;
    chaos.network_fraction = 0.25;
    chaos.episode_rate = 0.3;
    chaos.episode_mean_buckets = 4.0;
    chaos.bucket_minutes = 30;
    chaos.burst_loss = 0.2;
    chaos.base_loss = 0.02;
    chaos.rate_limit_per_minute = 60;
    chaos.rate_limit_burst = 24;
    chaos.rate_limit_refused = true;
    chaos.truncate_rate = 0.04;
    chaos.corrupt_rate = 0.04;
    chaos.slow_episode_rate = 0.1;
    chaos.unreachable_episode_rate = 0.05;
    inputs.retry_attempts = 2;
    inputs.retry_timeout_ms = 2000;
  } else {
    inputs.world.resolver_count = kCampaignResolvers;
    inputs.world.with_devices = false;
    inputs.epochs = 5;  // full, delta x3, full
    inputs.delta = true;
    inputs.full_every = 4;
  }
  return inputs;
}

Rep run_rep(const Inputs& inputs, unsigned workers, Tracer& tracer,
            bool layers) {
  if (inputs.workload == "sweep") {
    return run_sweep(inputs, workers, tracer, layers);
  }
  if (inputs.workload == "study") {
    return run_study(inputs, workers, tracer, layers);
  }
  return run_campaign(inputs, workers, tracer, layers);
}

double sweep_probes_per_s(const Inputs& inputs, unsigned workers,
                          bool telemetry) {
  worldgen::GeneratedWorld gen = worldgen::generate_world(inputs.world);
  gen.world->prefix_telemetry().set_enabled(telemetry);
  gen.world->trace().set_enabled(telemetry);
  scan::Ipv4Scanner scanner(*gen.world, sweep_config(gen, inputs, workers));
  const auto start = Clock::now();
  const scan::Ipv4ScanSummary summary = scanner.scan(gen.universe);
  const double wall = seconds_since(start);
  return wall > 0 ? static_cast<double>(summary.probed) / wall : 0.0;
}

}  // namespace perfbench
