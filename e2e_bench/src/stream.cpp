// Workload `stream` (open loop): node A's periodic producer feeds a bridged
// asynchronous binding over TCP loopback to a sink on node B. One run holds
// four measured phases, separated by idle gaps that let queues drain:
//
//   lo      1k msg/s: deadline flushes and poll waits set the latency
//           (lat_lo_*; lat_p50_us is its median);
//   hi      50k msg/s: size flushes and per-message cost dominate
//           (lat_hi_*). The rate stays well below the ceiling so that a
//           multi-millisecond host stall does not overflow the default
//           route queue;
//   ladder  rising fixed rates; sustained_msgs_per_s is the highest rung
//           with zero drops, a backlog that does not grow and p99 <= 2 ms;
//   sat     closed loop, the producer keeps 1024 messages in flight (the
//           route queue cap, so nothing overflows): the delivered rate,
//           as the median over 50 ms windows, is ops_per_s.
//
// Four threads run (two executives, two serve loops); the main thread only
// samples backlog every 2 ms.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "bench.hpp"
#include "comm/channel.hpp"
#include "dist/node_runtime.hpp"
#include "traffic.hpp"

namespace e2e {
namespace {

using namespace rtcf;

constexpr double kLoRate = 1000.0;
constexpr double kHiRate = 50000.0;
constexpr double kLadderFirst = 40000.0;
constexpr double kLadderStep = 1.25;
constexpr int kLadderRungs = 10;
constexpr std::uint64_t kWarmReleases = 300;
constexpr std::uint64_t kGapReleases = 20;
constexpr double kP99LimitUs = 2000.0;
// Saturation phase: messages kept in flight (the default route queue cap,
// so the exit queue can never overflow), and the throughput window.
constexpr std::uint64_t kSaturationWindow = 1024;
constexpr std::int64_t kRateWindowNs = 50'000'000;
constexpr std::int64_t kSettleNs = 100'000'000;
// Set-ups per run, before and after the timed phase; setup_s is the
// fastest. Spread over the run, one slow period of the shared host cannot
// decide the figure.
constexpr int kSetupsBefore = 8;
constexpr int kSetupsAfter = 7;

model::Architecture stream_arch() {
  using namespace model;
  Architecture arch;
  auto& producer = arch.add_active("Producer", ActivationKind::Periodic,
                                   rtsj::RelativeTime::nanoseconds(
                                       kReleasePeriodNs));
  producer.set_content_class("E2eProducer");
  producer.set_cost(rtsj::RelativeTime::microseconds(50));
  producer.add_interface({"out", InterfaceRole::Client, "IStream"});
  auto& sink = arch.add_active("Sink", ActivationKind::Sporadic);
  sink.set_content_class("E2eSink");
  sink.add_interface({"in", InterfaceRole::Server, "IStream"});
  Binding binding;
  binding.client = {"Producer", "out"};
  binding.server = {"Sink", "in"};
  binding.desc.protocol = Protocol::Asynchronous;
  // Holds a whole burst at the top ladder rung: the executive drains the
  // buffer after every release, so it never overflows below that.
  binding.desc.buffer_size = 4096;
  arch.add_binding(binding);
  auto& rt = arch.add_thread_domain("RT1", DomainType::Realtime, 20);
  arch.add_child(rt, producer);
  auto& reg = arch.add_thread_domain("reg1", DomainType::Regular, 5);
  arch.add_child(reg, sink);
  ModeDecl mode;
  mode.name = "Run";
  mode.components.push_back({"Producer", {}, {}});
  arch.add_mode(std::move(mode));
  return arch;
}

validate::NodeMap stream_map() {
  validate::NodeMap map;
  map.nodes = {"a", "b"};
  map.assignment = {{"Producer", "a"}, {"Sink", "b"}};
  return map;
}

struct Cluster {
  std::unique_ptr<dist::NodeRuntime> a;
  std::unique_ptr<dist::NodeRuntime> b;
  void stop() {
    if (a) a->stop();
    if (b) b->stop();
  }
};

/// Builds both nodes, connects them over TCP loopback, starts them and
/// waits for the first delivered message. Returns the seconds until both
/// nodes run: the wait for the first message is mostly the release period
/// plus poll and flush waits, and it differs from one process to the next
/// (1.5 to 3.6 ms, constant within a process).
double set_up(const model::Architecture& arch, const validate::NodeMap& map,
              std::int64_t run_ns, LinkObserver* link, Cluster& out) {
  const std::int64_t start = now_ns();
  dist::NodeRuntime::Options options;
  options.run_duration = rtsj::RelativeTime::nanoseconds(run_ns);
  out.a = std::make_unique<dist::NodeRuntime>(arch, map, "a", options);
  out.b = std::make_unique<dist::NodeRuntime>(arch, map, "b", options);
  std::shared_ptr<comm::TcpChannel> server = comm::TcpChannel::listen(0);
  if (server == nullptr) throw std::runtime_error("tcp listen failed");
  std::shared_ptr<comm::TcpChannel> client =
      comm::TcpChannel::connect("127.0.0.1", server->bound_port());
  if (client == nullptr || !server->accept_one()) {
    throw std::runtime_error("tcp connect failed");
  }
  std::shared_ptr<comm::Channel> to_b = client;
  std::shared_ptr<comm::Channel> to_a = server;
  if (link != nullptr) {
    std::tie(to_b, to_a) = TracedChannel::wrap(to_b, to_a, link);
  }
  out.a->connect_peer("b", to_b);
  out.b->connect_peer("a", to_a);
  out.b->start();
  out.a->start();
  const double elapsed = seconds_since(start);
  const std::int64_t give_up = now_ns() + 5'000'000'000;
  while (g_traffic->received.load(std::memory_order_relaxed) == 0) {
    if (now_ns() > give_up) throw std::runtime_error("no first delivery");
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  return elapsed;
}

struct Sample {
  std::int64_t t = 0;
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  std::size_t inbox = 0;
};

struct RungResult {
  double rate = 0.0;
  double delivered_per_s = 0.0;
  std::uint64_t drops = 0;
  double p99_us = 0.0;
  bool backlog_grows = false;
  std::size_t inbox_max = 0;
  bool pass = false;
};

}  // namespace

Report run_stream(const Args& args) {
  Report r;
  const double secs = args.seconds;
  const auto releases_for = [](double s) {
    return static_cast<std::uint64_t>(std::llround(s * 1e9 / kReleasePeriodNs));
  };

  // --- Inputs: one burst schedule from the seed.
  Traffic traffic;
  traffic.trace = args.trace;
  SplitMix rng(args.seed * 0x2545F4914F6CDD1Dull + 11);
  traffic.add_phase("warm", kLoRate, kWarmReleases, rng);
  traffic.add_phase("gap", 0.0, kGapReleases, rng);
  // lo keeps every sample: its median is the bounded lat_p50_us.
  traffic.add_phase("lo", kLoRate, releases_for(0.3 * secs), rng, true);
  traffic.add_phase("gap", 0.0, kGapReleases, rng);
  traffic.add_phase("hi", kHiRate, releases_for(0.2 * secs), rng);
  const std::uint64_t rung_releases =
      releases_for(0.35 * secs / kLadderRungs) - kGapReleases;
  for (int i = 0; i < kLadderRungs; ++i) {
    traffic.add_phase("gap", 0.0, kGapReleases, rng);
    traffic.add_phase("rung", kLadderFirst * std::pow(kLadderStep, i),
                      rung_releases, rng);
  }
  traffic.add_phase("gap", 0.0, kGapReleases, rng);
  // Last: the closed-loop saturation phase (its sequences are not known
  // in advance, so nothing may follow it).
  const std::uint64_t sat_first = traffic.bursts.size();
  traffic.closed_releases = releases_for(0.15 * secs);
  traffic.closed_window = kSaturationWindow;
  traffic.reset();
  g_traffic = &traffic;

  const model::Architecture arch = stream_arch();
  const validate::NodeMap map = stream_map();
  TrafficLink link(traffic);
  LinkObserver* observer = args.trace ? &link : nullptr;
  const std::int64_t schedule_ns =
      static_cast<std::int64_t>(traffic.scheduled_releases()) *
      kReleasePeriodNs;

  // --- Set-up, repeated: the last one is the measured cluster. Scaled by
  // the host probe timed between the set-ups, as in admit and drill.
  Cluster cluster;
  HostProbe setup_probe;
  double setup_s = 0.0;
  for (int i = 0; i < kSetupsBefore; ++i) {
    const bool last = i + 1 == kSetupsBefore;
    if (cluster.a) {
      cluster.stop();
      cluster = Cluster();
      traffic.reset();
      setup_probe.run(1);
    }
    const double s = set_up(arch, map,
                            last ? schedule_ns + 100'000'000 : 100'000'000,
                            observer, cluster);
    setup_s = i == 0 ? s : std::min(setup_s, s);
  }
  dist::NodeRuntime& a = *cluster.a;
  dist::NodeRuntime& b = *cluster.b;

  // --- Timed phase: the executives run the schedule; sample backlog.
  const std::int64_t t0 = now_ns();
  const double cpu0 = process_cpu_seconds();
  const AllocCounters alloc0 = alloc_counters();
  const std::uint64_t sent0 = traffic.sent.load();
  const dist::DataPlaneStats plane_a0 = a.data_plane().stats();
  const dist::DataPlaneStats plane_b0 = b.data_plane().stats();
  std::vector<Sample> samples;
  samples.reserve(static_cast<std::size_t>(schedule_ns / 2'000'000) + 100);
  const std::int64_t stop_sampling = t0 + schedule_ns + 20'000'000;
  while (now_ns() < stop_sampling) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    samples.push_back({now_ns(), traffic.sent.load(std::memory_order_relaxed),
                       traffic.received.load(std::memory_order_relaxed),
                       b.inbox_depth()});
  }
  a.join_executive();
  b.join_executive();
  const double wall = seconds_since(t0);
  const double cpu = process_cpu_seconds() - cpu0;
  const AllocCounters alloc1 = alloc_counters();
  const std::uint64_t window_msgs = traffic.sent.load() - sent0;
  const dist::DataPlaneStats plane_a = a.data_plane().stats();
  const dist::DataPlaneStats plane_b = b.data_plane().stats();
  cluster.stop();  // final drain: everything in flight is delivered
  const std::vector<double> lateness = release_lateness_us(a);
  const std::int64_t shift = anchor_correction_ns(a);
  const dist::NodeRuntime::GatewayStats gw_a = a.gateway_stats();
  const dist::NodeRuntime::GatewayStats gw_b = b.gateway_stats();

  // --- Output checks.
  const std::uint64_t sent = traffic.seq;
  const std::uint64_t received = traffic.received.load();
  const std::uint64_t counted_drops = gw_a.exit_dropped + gw_b.entry_dropped;
  if (traffic.releases < traffic.scheduled_releases()) {
    r.violate("producer released " + std::to_string(traffic.releases) +
              " of " + std::to_string(traffic.scheduled_releases()) +
              " bursts");
  }
  if (sent != received + counted_drops) {
    r.violate("conservation: offered " + std::to_string(sent) +
              " != received " + std::to_string(received) +
              " + counted drops " + std::to_string(counted_drops));
  }
  if (traffic.duplicates != 0) {
    r.violate(std::to_string(traffic.duplicates) + " duplicate deliveries");
  }
  if (traffic.reordered != 0) {
    r.violate(std::to_string(traffic.reordered) +
              " deliveries out of sequence order");
  }
  if (traffic.out_of_range != 0) {
    r.violate(std::to_string(traffic.out_of_range) + " unknown sequences");
  }

  // --- Per phase: latency from the scheduled due instant.
  const std::int64_t anchor = traffic.anchor_ns - shift;
  const auto due_of = [&](std::uint64_t release) {
    return anchor + static_cast<std::int64_t>(release) * kReleasePeriodNs;
  };
  Dist lo_dist;
  Dist hi_dist;
  std::uint64_t failed = 0;
  std::vector<RungResult> rungs;
  for (const Phase& p : traffic.phases) {
    if (p.name == "warm" || p.name == "gap") continue;
    const std::uint64_t missing = p.messages() - p.delivered();
    const Dist d = p.summary_us(shift);
    if (p.name == "lo" || p.name == "hi") {
      (p.name == "lo" ? lo_dist : hi_dist) = d;
      failed += missing;
      r.note(p.name + " (" + std::to_string(static_cast<int>(p.rate)) +
             " msg/s): " + describe(d, "us") + ", drops " +
             std::to_string(missing));
      continue;
    }
    RungResult rung;
    rung.rate = p.rate;
    rung.drops = missing;
    rung.p99_us = d.p99;
    rung.delivered_per_s = static_cast<double>(d.count) /
                           (static_cast<double>(p.releases) *
                            kReleasePeriodNs / 1e9);
    // Backlog: sent - received sampled over the rung; it grows when the
    // last third averages more than the first third plus two bursts.
    const std::int64_t begin = due_of(p.first_release);
    const std::int64_t end = due_of(p.first_release + p.releases);
    std::vector<double> backlog;
    for (const Sample& s : samples) {
      if (s.t < begin || s.t >= end) continue;
      backlog.push_back(static_cast<double>(s.sent - s.received));
      rung.inbox_max = std::max(rung.inbox_max, s.inbox);
    }
    if (backlog.size() >= 6) {
      const std::size_t third = backlog.size() / 3;
      double first = 0.0;
      double last = 0.0;
      for (std::size_t i = 0; i < third; ++i) {
        first += backlog[i];
        last += backlog[backlog.size() - 1 - i];
      }
      first /= static_cast<double>(third);
      last /= static_cast<double>(third);
      const double burst = p.rate * kReleasePeriodNs / 1e9;
      rung.backlog_grows = last > 1.5 * first + 2.0 * burst;
    }
    rung.pass = rung.drops == 0 && rung.p99_us <= kP99LimitUs &&
                !rung.backlog_grows;
    rungs.push_back(rung);
  }
  // Saturation: the median of the delivered rate over 50 ms windows —
  // the windows a host stall hits are outvoted by the ones it does not.
  std::vector<double> window_rates;
  {
    const std::int64_t begin = due_of(sat_first) + kSettleNs;
    const std::int64_t end = due_of(traffic.scheduled_releases());
    const Sample* open = nullptr;
    for (const Sample& s : samples) {
      if (s.t < begin || s.t > end) continue;
      if (open == nullptr) {
        open = &s;
      } else if (s.t - open->t >= kRateWindowNs) {
        window_rates.push_back(static_cast<double>(s.received -
                                                   open->received) *
                               1e9 / static_cast<double>(s.t - open->t));
        open = &s;
      }
    }
  }
  const Dist sat_dist = summarize(window_rates);
  const double capacity = sat_dist.p50;
  r.note("saturation (closed loop, " + std::to_string(kSaturationWindow) +
         " in flight): delivered msg/s per 50 ms window " +
         describe(sat_dist, ""));
  double sustained = 0.0;
  std::string ladder = "ladder:";
  std::size_t inbox_max = 0;
  for (const RungResult& rung : rungs) {
    char buf[160];
    std::snprintf(buf, sizeof buf, " %.0fk%s", rung.rate / 1e3,
                  rung.pass ? "+" : (rung.drops ? "d" : (rung.backlog_grows
                                                             ? "g"
                                                             : "t")));
    ladder += buf;
    if (rung.pass) sustained = std::max(sustained, rung.delivered_per_s);
    inbox_max = std::max(inbox_max, rung.inbox_max);
  }
  r.note(ladder + "  (+ pass, d drops, g backlog grows, t p99 > 2 ms)");
  for (const RungResult& rung : rungs) {
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "  rung %.0f msg/s: delivered %.0f/s, drops %llu, p99 "
                  "%.0fus, inbox max %zu%s",
                  rung.rate, rung.delivered_per_s,
                  static_cast<unsigned long long>(rung.drops), rung.p99_us,
                  rung.inbox_max, rung.backlog_grows ? ", backlog grows" : "");
    r.note(buf);
  }
  if (sustained == 0.0) {
    r.note("no ladder rung sustained; sustained rate below the first rung");
  }

  std::vector<double> late = lateness;
  const Dist late_dist = summarize(late);
  r.note("producer release lateness: " + describe(late_dist, "us"));
  if (late_dist.p99 > static_cast<double>(kReleasePeriodNs) / 1e3) {
    r.note("FLAG: the generator fell behind (release lateness p99 above one "
           "period)");
  }

  r.attempted = sent;
  r.failed = failed + traffic.duplicates +
             (sent > received + counted_drops ? sent - received - counted_drops
                                              : 0);
  r.name("lat_lo_p50_us", lo_dist.p50, "us", "lower", "lat_p50_us");
  r.name("lat_lo_p99_us", lo_dist.p99, "us", "lower");
  r.name("lat_hi_p50_us", hi_dist.p50, "us", "lower");
  r.name("lat_hi_p99_us", hi_dist.p99, "us", "lower");
  r.name("sustained_msgs_per_s", sustained, "1/s", "higher");
  r.name("saturated_msgs_per_s", capacity, "1/s", "higher", "ops_per_s");
  r.name("fail_ratio",
         sent == 0 ? 0.0 : static_cast<double>(r.failed) / sent, "ratio",
         "lower");
  r.name("peak_rss_mb", peak_rss_mb(), "MB", "lower");
  r.name("runtime.release_lateness_us", late_dist.p50, "us", "info");

  // --- Per layer.
  r.set_layer_dist("runtime.release_lateness_us", late_dist, "us");
  r.set_layer("proc.cpu_util", wall > 0 ? cpu / wall : 0.0, "ratio");
  const double msgs = static_cast<double>(std::max<std::uint64_t>(window_msgs, 1));
  r.set_layer("alloc.per_msg",
              static_cast<double>(alloc1.count - alloc0.count) / msgs,
              "count");
  r.set_layer("alloc.bytes_per_msg",
              static_cast<double>(alloc1.bytes - alloc0.bytes) / msgs, "B");
  const double batches = static_cast<double>(plane_a.batches - plane_a0.batches);
  const double flushed = static_cast<double>(
      (plane_a.size_flushes - plane_a0.size_flushes) +
      (plane_a.deadline_flushes - plane_a0.deadline_flushes));
  const double plane_sent = static_cast<double>(plane_a.sent - plane_a0.sent);
  r.set_layer("dist.msgs_per_batch", batches > 0 ? plane_sent / batches : 0.0,
              "count");
  r.set_layer("dist.size_flush_share",
              flushed > 0 ? static_cast<double>(plane_a.size_flushes -
                                                plane_a0.size_flushes) /
                                flushed
                          : 0.0,
              "ratio");
  r.set_layer("dist.overflow_drops",
              static_cast<double>(plane_a.overflow_drops), "count");
  r.set_layer("dist.peak_queue_depth",
              static_cast<double>(plane_a.peak_queue_depth), "count");
  r.set_layer("dist.credits_per_msg",
              plane_sent > 0 ? static_cast<double>(plane_b.credits_granted -
                                                   plane_b0.credits_granted) /
                                   plane_sent
                             : 0.0,
              "ratio");
  r.set_layer("dist.pool_misses_per_msg",
              static_cast<double>((plane_a.pool_misses - plane_a0.pool_misses) +
                                  (plane_b.pool_misses - plane_b0.pool_misses)) /
                  msgs,
              "count");
  r.set_layer("node.inbox_depth_max", static_cast<double>(inbox_max), "count");

  if (args.trace) {
    // Hops of every measured message must partition its end-to-end span:
    // due <= handed to transport <= receive returned <= on_message.
    std::uint64_t checked = 0;
    std::uint64_t broken = 0;
    // Every 64th message's spans are kept for the trace file; the request
    // id is (route << 48 | sequence), and this workload has one route.
    SpanLog spans(4 * (traffic.open_total() / 64 + 2));
    std::vector<double> exit_wait;
    std::vector<double> wire;
    std::vector<double> deliver;
    std::vector<double> hi_exit;
    std::vector<double> hi_wire;
    std::vector<double> hi_deliver;
    for (const Phase& p : traffic.phases) {
      if (p.name == "warm" || p.name == "gap") continue;
      const bool lo = p.name == "lo";
      const bool hi = p.name == "hi";
      for (std::uint64_t s = p.first_seq; s <= p.last_seq; ++s) {
        if (traffic.deliver_at[s] == 0) continue;  // not delivered
        const std::int64_t due = due_of(traffic.release_of(s));
        const std::int64_t t_send = traffic.send_at[s];
        const std::int64_t t_recv = traffic.recv_at[s];
        const std::int64_t t_deliver = traffic.deliver_at[s];
        ++checked;
        if (t_send == 0 || t_recv == 0 || due > t_send || t_send > t_recv ||
            t_recv > t_deliver) {
          ++broken;
          continue;
        }
        if (s % 64 == 0) {
          const std::uint64_t parent =
              spans.add("stream.message", due, t_deliver, 0, s);
          spans.add("dist.exit_wait", due, t_send, parent, s);
          spans.add("comm.wire_wait", t_send, t_recv, parent, s);
          spans.add("node.deliver", t_recv, t_deliver, parent, s);
        }
        if (lo || hi) {
          (lo ? exit_wait : hi_exit).push_back((t_send - due) / 1e3);
          (lo ? wire : hi_wire).push_back((t_recv - t_send) / 1e3);
          (lo ? deliver : hi_deliver).push_back((t_deliver - t_recv) / 1e3);
        }
      }
    }
    if (broken != 0) {
      r.violate(std::to_string(broken) + " of " + std::to_string(checked) +
                " traced messages whose hop spans do not partition the "
                "end-to-end span");
    }
    r.set_layer("trace.hops_checked", static_cast<double>(checked), "count");
    r.set_layer_dist("dist.exit_wait_us", summarize(exit_wait), "us");
    r.set_layer_dist("comm.wire_wait_us", summarize(wire), "us");
    r.set_layer_dist("node.deliver_us", summarize(deliver), "us");
    r.note("lo hops: exit_wait " + describe(summarize(exit_wait), "us"));
    r.note("lo hops: wire_wait " + describe(summarize(wire), "us"));
    r.note("lo hops: deliver   " + describe(summarize(deliver), "us"));
    r.note("hi hops: exit_wait " + describe(summarize(hi_exit), "us"));
    r.note("hi hops: wire_wait " + describe(summarize(hi_wire), "us"));
    r.note("hi hops: deliver   " + describe(summarize(hi_deliver), "us"));
    std::vector<double> port_send(traffic.send_ns.begin(),
                                  traffic.send_ns.end());
    r.set_layer_dist("membrane.send_ns", summarize(port_send), "ns");
    std::vector<double> comm_send(traffic.comm_send_ns.begin(),
                                  traffic.comm_send_ns.end());
    r.set_layer_dist("comm.send_ns", summarize(comm_send), "ns");
    r.note(write_trace(spans, args));
  }

  // --- The set-ups after the timed phase.
  for (int i = 0; i < kSetupsAfter; ++i) {
    traffic.reset();
    Cluster c;
    setup_s = std::min(setup_s,
                       set_up(arch, map, 100'000'000, observer, c));
    c.stop();
    setup_probe.run(1);
  }
  r.name("setup_s", setup_s / setup_probe.slowdown(), "s", "lower");
  r.name("setup_raw_s", setup_s, "s", "info");
  g_traffic = nullptr;
  return r;
}

}  // namespace e2e
