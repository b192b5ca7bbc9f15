// Workload `drill` (closed loop, one thread): adversity::run_drill over a
// fixed range of consecutive seeds starting at --seed, in repeated passes.
// This is the virtual-time verification path CI sweeps 200 seeds at a
// time; it exercises the generator, the protocol model, the cluster
// simulator (with its ready queue) and every drill invariant.
//
// Checks: every seed passes every invariant, and every pass reproduces the
// first pass's work counts seed by seed (determinism).
#include <cstdio>
#include <string>
#include <vector>

#include "adversity/arch_gen.hpp"
#include "adversity/chaos.hpp"
#include "adversity/drill.hpp"
#include "adversity/proto_sim.hpp"
#include "bench.hpp"
#include "trace.hpp"

namespace e2e {
namespace {

using namespace rtcf;

constexpr std::uint64_t kSeedsPerPass = 256;
constexpr std::uint64_t kSetupSeeds = 64;
constexpr int kSetups = 5;  // set-ups per run; setup_s is the fastest
constexpr int kProbesPerPass = 2;

/// What one seed must reproduce on every pass.
struct Work {
  bool passed = false;
  std::size_t ops_committed = 0;
  std::uint64_t route_messages = 0;
  std::uint64_t route_batches = 0;
  bool operator==(const Work& o) const {
    return passed == o.passed && ops_committed == o.ops_committed &&
           route_messages == o.route_messages &&
           route_batches == o.route_batches;
  }
};

Work work_of(const adversity::DrillResult& d) {
  return {d.passed, d.ops_committed, d.route_messages, d.route_batches};
}

}  // namespace

Report run_drill(const Args& args) {
  Report r;
  adversity::DrillOptions options;

  // --- Set-up, repeated: a warm pass over the first seeds of the range.
  // The set-ups are scaled by the probe timed between them, the passes
  // by the probe timed between the passes: each against the host speed of
  // its own period.
  HostProbe setup_probe;
  double setup_raw_s = 0.0;
  for (int i = 0; i < kSetups; ++i) {
    const std::int64_t start = now_ns();
    for (std::uint64_t k = 0; k < kSetupSeeds; ++k) {
      options.seed = args.seed + k;
      (void)adversity::run_drill(options);
    }
    const double s = seconds_since(start);
    setup_raw_s = i == 0 ? s : std::min(setup_raw_s, s);
    setup_probe.run(2);
  }

  // --- Timed passes over the range.
  std::vector<Work> reference;
  HostProbe probe;
  std::vector<double> lat_us;
  Passes passes(kSeedsPerPass);
  std::uint64_t seeds = 0;
  std::uint64_t red = 0;
  std::uint64_t drifted = 0;
  std::size_t ops_committed = 0;
  std::uint64_t route_messages = 0;
  SpanLog spans(args.trace ? 400000 : 0);
  std::vector<double> gen_us, timeline_us, protocol_us, replay_us;
  const std::int64_t t0 = now_ns();
  const double cpu0 = process_cpu_seconds();
  const std::int64_t stop = t0 + static_cast<std::int64_t>(args.seconds * 1e9);
  while (now_ns() < stop) {
    const bool first_pass = reference.empty();
    // Whole passes only: a partial pass would skew the seed mix the
    // latency distribution is taken over.
    for (std::uint64_t k = 0; k < kSeedsPerPass; ++k) {
      options.seed = args.seed + k;
      const std::int64_t begin = now_ns();
      const adversity::DrillResult result = adversity::run_drill(options);
      const std::int64_t end = now_ns();
      lat_us.push_back(static_cast<double>(end - begin) / 1e3);
      passes.record(k, lat_us.back());
      ++seeds;
      const Work w = work_of(result);
      if (!result.passed) {
        ++red;
        r.violate(result.summary());
      }
      if (first_pass) {
        reference.push_back(w);
        ops_committed += result.ops_committed;
        route_messages += result.route_messages;
      } else if (!(reference[k] == w)) {
        ++drifted;
        r.violate("seed " + std::to_string(options.seed) +
                  ": work counts differ from the first pass");
      }
      if (!args.trace) continue;

      // The drill's stages, timed on the same seed. The replay (cluster
      // simulation plus invariant checks) is what remains of the total.
      const std::uint64_t parent =
          spans.add("adversity.drill", begin, end, 0, options.seed);
      const auto timed = [&](const char* name, std::vector<double>& into,
                             auto&& fn) {
        const std::int64_t a = now_ns();
        fn();
        const std::int64_t b = now_ns();
        into.push_back(static_cast<double>(b - a) / 1e3);
        spans.add(name, a, b, parent, options.seed);
        return b - a;
      };
      adversity::Scenario scenario;
      adversity::FaultTimeline timeline;
      std::int64_t staged = 0;
      staged += timed("adversity.generate", gen_us, [&] {
        scenario = adversity::generate_scenario(options.seed, options.gen);
      });
      staged += timed("adversity.timeline", timeline_us, [&] {
        timeline = adversity::generate_timeline(scenario, options.mix);
      });
      staged += timed("adversity.protocol", protocol_us, [&] {
        (void)adversity::run_protocol(scenario, timeline, options.proto);
      });
      replay_us.push_back(static_cast<double>(end - begin - staged) / 1e3);
    }
    passes.end_pass();
    probe.run(kProbesPerPass);
  }
  const double wall = seconds_since(t0);
  const double cpu = process_cpu_seconds() - cpu0;

  const Dist lat = summarize(lat_us);
  std::vector<double> best = passes.best_us();
  const Dist best_lat = summarize(best);
  std::vector<double> pass_rates = passes.pass_rates();
  const Dist pass_rate = summarize(pass_rates);
  const double slowdown = probe.slowdown();
  r.attempted = seeds;
  r.failed = red;
  r.note("seed range [" + std::to_string(args.seed) + ", " +
         std::to_string(args.seed + kSeedsPerPass) + "), " +
         std::to_string(seeds) + " drills, " + std::to_string(red) +
         " red, " + std::to_string(drifted) + " nondeterministic");
  r.note("run_drill(), every sample: " + describe(lat, "us"));
  r.note("run_drill(), each seed's best of " +
         std::to_string(passes.passes()) + " passes: " +
         describe(best_lat, "us"));
  r.note("seeds/s over the whole run: " + std::to_string(seeds / wall));
  r.note("host probe: slowdown " + std::to_string(setup_probe.slowdown()) +
         " during set-up, " + std::to_string(slowdown) +
         " during the passes, against the reference host; setup_s, "
         "lat_p50_us and ops_per_s are scaled by it, the *_raw figures are "
         "not");
  r.name("setup_s", setup_raw_s / setup_probe.slowdown(), "s", "lower");
  r.name("lat_p50_us", best_lat.p50 / slowdown, "us", "lower");
  r.name("ops_per_s", passes.best_rate() * slowdown, "1/s", "higher");
  r.name("setup_raw_s", setup_raw_s, "s", "info");
  r.name("lat_p50_raw_us", best_lat.p50, "us", "info");
  r.name("ops_raw_per_s", passes.best_rate(), "1/s", "info");
  r.name("pass_rate_p50_per_s", pass_rate.p50, "1/s", "info");
  r.name("lat_p99_us", lat.p99, "us", "lower");
  r.name("fail_ratio", seeds ? static_cast<double>(red) / seeds : 0.0,
         "ratio", "lower");
  r.name("peak_rss_mb", peak_rss_mb(), "MB", "lower");

  r.set_layer("proc.cpu_util", wall > 0 ? cpu / wall : 0.0, "ratio");
  r.set_layer("host.slowdown", slowdown, "ratio");
  r.set_layer("drill.ops_committed", static_cast<double>(ops_committed),
              "count");
  r.set_layer("drill.route_messages", static_cast<double>(route_messages),
              "count");
  r.set_layer("drill.seeds_per_pass", static_cast<double>(reference.size()),
              "count");
  if (args.trace) {
    r.set_layer_dist("adversity.generate_us", summarize(gen_us), "us");
    r.set_layer_dist("adversity.timeline_us", summarize(timeline_us), "us");
    r.set_layer_dist("adversity.protocol_us", summarize(protocol_us), "us");
    r.set_layer_dist("drill.replay_us", summarize(replay_us), "us");
    r.note(write_trace(spans, args));
  }
  return r;
}

}  // namespace e2e
