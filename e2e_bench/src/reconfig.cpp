// Workload `reconfig` (closed loop, one coordinator): back-to-back
// ReconfigCoordinator::coordinate_reload calls toggle node B's sink
// between SinkA and SinkB — each commit removes one sink, adds the other
// and re-targets the bridged binding — while node A's producer streams
// open-loop background traffic at a fixed moderate rate over the shm ring
// the two nodes negotiate at HELLO time. This is the control path (slice,
// validate, plan delta, plan codec, two-phase commit) running beside the
// data path, and the only place the shm transport is measured end to end.
//
// Threads: two executives and two serve loops; the main thread is the
// coordinator.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>
#include <unistd.h>

#include "bench.hpp"
#include "comm/channel.hpp"
#include "dist/coordinator.hpp"
#include "dist/node_runtime.hpp"
#include "dist/plan_codec.hpp"
#include "dist/slice.hpp"
#include "reconfig/plan_delta.hpp"
#include "soleil/plan.hpp"
#include "traffic.hpp"
#include "validate/distribution.hpp"
#include "validate/validator.hpp"

namespace e2e {
namespace {

using namespace rtcf;

constexpr double kTrafficRate = 2000.0;
// Think time between commits. Every live reload keeps its retired
// components (and their buffers) resident, so memory grows with the
// number of commits; the pause keeps a long run's growth moderate.
constexpr std::int64_t kThinkNs = 2'000'000;
// peak_rss_mb is read when this many commits have returned, so it measures
// memory per commit and not how many commits fit in the run.
constexpr std::uint64_t kRssCommits = 1000;
constexpr std::uint64_t kWarmReleases = 200;
// Set-ups per run, before and after the timed phase (as in stream).
constexpr int kSetupsBefore = 8;
constexpr int kSetupsAfter = 7;

/// Producer@a --bridged async--> <sink>@b.
model::Architecture make_arch(const char* sink_name) {
  using namespace model;
  Architecture arch;
  auto& producer = arch.add_active(
      "Producer", ActivationKind::Periodic,
      rtsj::RelativeTime::nanoseconds(kReleasePeriodNs));
  producer.set_content_class("E2eProducer");
  producer.set_cost(rtsj::RelativeTime::microseconds(50));
  producer.set_swappable(true);
  producer.add_interface({"out", InterfaceRole::Client, "IStream"});
  auto& sink = arch.add_active(sink_name, ActivationKind::Sporadic);
  sink.set_content_class("E2eSink");
  sink.set_criticality(Criticality::Low);
  sink.set_swappable(true);
  sink.add_interface({"in", InterfaceRole::Server, "IStream"});
  Binding binding;
  binding.client = {"Producer", "out"};
  binding.server = {sink_name, "in"};
  binding.desc.protocol = Protocol::Asynchronous;
  // Holds the largest inbox a commit drains through the old entry: the
  // un-granted credit window plus what the prepare-time flush forces out.
  binding.desc.buffer_size = 512;
  arch.add_binding(binding);
  auto& rt = arch.add_thread_domain("RT1", DomainType::Realtime, 20);
  arch.add_child(rt, producer);
  auto& reg = arch.add_thread_domain("reg1", DomainType::Regular, 5);
  arch.add_child(reg, *arch.find(sink_name));
  ModeDecl mode;
  mode.name = "Run";
  mode.components.push_back({"Producer", {}, {}});
  arch.add_mode(std::move(mode));
  return arch;
}

validate::NodeMap make_map() {
  validate::NodeMap map;
  map.nodes = {"a", "b"};
  map.assignment = {{"Producer", "a"}, {"SinkA", "b"}, {"SinkB", "b"}};
  return map;
}

/// Control-plane observer: wire time, frames and bytes of every control
/// frame crossing a decorated coordinator <-> node channel.
class ControlLink final : public LinkObserver {
 public:
  explicit ControlLink(SpanLog& spans) : spans_(spans) {}
  /// The commit the coming frames belong to (span request id).
  void set_commit(std::uint64_t id) {
    commit_.store(id, std::memory_order_relaxed);
  }
  void on_sent(std::uint16_t, const std::uint8_t*, std::size_t size,
               std::int64_t, std::int64_t) override {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++frames_;
    bytes_ += size;
  }
  void on_received(const comm::Frame&, std::int64_t sent_at,
                   std::int64_t returned) override {
    spans_.add("comm.control_wire", sent_at, returned, 0,
               commit_.load(std::memory_order_relaxed));
    const std::lock_guard<std::mutex> lock(mutex_);
    wire_us_.push_back(static_cast<double>(returned - sent_at) / 1e3);
  }
  /// Counters so far (the caller subtracts a baseline).
  void snapshot(std::uint64_t& frames, std::uint64_t& bytes,
                std::vector<double>& wire) {
    const std::lock_guard<std::mutex> lock(mutex_);
    frames = frames_;
    bytes = bytes_;
    wire = wire_us_;
  }

 private:
  SpanLog& spans_;
  std::atomic<std::uint64_t> commit_{0};
  std::mutex mutex_;
  std::uint64_t frames_ = 0;  // guarded by mutex_
  std::uint64_t bytes_ = 0;
  std::vector<double> wire_us_;
};

struct Cluster {
  std::unique_ptr<dist::NodeRuntime> a;
  std::unique_ptr<dist::NodeRuntime> b;
  std::unique_ptr<dist::ReconfigCoordinator> coordinator;
  void stop() {
    if (a) a->stop();
    if (b) b->stop();
  }
};

double set_up(const model::Architecture& global, const validate::NodeMap& map,
              std::int64_t run_ns, const std::string& shm_namespace,
              LinkObserver* control, Cluster& out) {
  const std::int64_t start = now_ns();
  dist::NodeRuntime::Options options;
  options.run_duration = rtsj::RelativeTime::nanoseconds(run_ns);
  options.shm_namespace = shm_namespace;
  out.a = std::make_unique<dist::NodeRuntime>(global, map, "a", options);
  out.b = std::make_unique<dist::NodeRuntime>(global, map, "b", options);
  out.coordinator = std::make_unique<dist::ReconfigCoordinator>(map);
  for (dist::NodeRuntime* node : {out.a.get(), out.b.get()}) {
    auto [node_end, coord_end] = comm::LoopbackChannel::make_pair();
    std::shared_ptr<comm::Channel> n = node_end;
    std::shared_ptr<comm::Channel> c = coord_end;
    if (control != nullptr) {
      std::tie(n, c) = TracedChannel::wrap(n, c, control);
    }
    node->attach_control(n);
    out.coordinator->attach(node->name(), c, global);
  }
  // The peer channel carries HELLO; the data path then moves to the shm
  // ring both nodes derive from the namespace.
  std::shared_ptr<comm::TcpChannel> server = comm::TcpChannel::listen(0);
  if (server == nullptr) throw std::runtime_error("tcp listen failed");
  std::shared_ptr<comm::TcpChannel> client =
      comm::TcpChannel::connect("127.0.0.1", server->bound_port());
  if (client == nullptr || !server->accept_one()) {
    throw std::runtime_error("tcp connect failed");
  }
  out.a->connect_peer("b", client);
  out.b->connect_peer("a", server);
  out.b->start();
  out.a->start();
  // Set-up time stops here, as in stream: the waits below (shm ring,
  // first message) are not timed.
  const double elapsed = seconds_since(start);
  const std::int64_t give_up = now_ns() + 5'000'000'000;
  while (!out.a->shm_linked("b") || !out.b->shm_linked("a") ||
         g_traffic->received.load(std::memory_order_relaxed) == 0) {
    if (now_ns() > give_up) {
      throw std::runtime_error("shm ring not negotiated or no delivery");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  return elapsed;
}

/// The public stages one coordinate_reload runs, on one target: the
/// coordinator's phase 0 and phase 1 before any frame is sent.
struct PlanStages {
  const validate::NodeMap* map = nullptr;
  /// Running snapshot per node for each of the two targets.
  std::map<std::string, model::AssemblyPlan> running[2];

  void time(const model::Architecture& target, int target_index,
            std::vector<double>& slice_us, std::vector<double>& validate_us,
            std::vector<double>& delta_us, std::vector<double>& codec_us) {
    const auto us = [](std::int64_t a, std::int64_t b) {
      return static_cast<double>(b - a) / 1e3;
    };
    std::int64_t t = now_ns();
    (void)validate::validate(target);
    (void)validate::validate_distribution(soleil::snapshot_assembly(target, 1),
                                          *map);
    std::int64_t u = now_ns();
    validate_us.push_back(us(t, u));

    t = now_ns();
    std::map<std::string, model::Architecture> slices;
    for (const std::string& node : map->nodes) {
      slices.emplace(node, dist::slice_architecture(target, *map, node));
    }
    (void)dist::compute_routes(target, *map);
    u = now_ns();
    slice_us.push_back(us(t, u));

    t = now_ns();
    std::map<std::string, model::AssemblyPlan> snaps;
    std::map<std::string, reconfig::PlanDelta> deltas;
    for (const std::string& node : map->nodes) {
      snaps.emplace(node, soleil::snapshot_assembly(slices.at(node), 1));
      deltas.emplace(node,
                     reconfig::diff_plans(running[1 - target_index].at(node),
                                          snaps.at(node)));
    }
    u = now_ns();
    delta_us.push_back(us(t, u));

    t = now_ns();
    for (const std::string& node : map->nodes) {
      (void)dist::encode_plan(snaps.at(node));
      (void)dist::encode_delta(deltas.at(node));
    }
    u = now_ns();
    codec_us.push_back(us(t, u));
  }
};

}  // namespace

Report run_reconfig(const Args& args) {
  Report r;
  const model::Architecture global = make_arch("SinkA");
  const model::Architecture targets[2] = {make_arch("SinkA"),
                                          make_arch("SinkB")};
  const validate::NodeMap map = make_map();

  Traffic traffic;
  traffic.trace = args.trace;
  SplitMix rng(args.seed * 0xD1B54A32D192ED03ull + 5);
  const std::uint64_t timed_releases =
      static_cast<std::uint64_t>(args.seconds * 1e9 / kReleasePeriodNs);
  traffic.add_phase("warm", kTrafficRate, kWarmReleases, rng);
  traffic.add_phase("timed", kTrafficRate, timed_releases, rng);
  traffic.add_phase("tail", kTrafficRate, 200, rng);
  traffic.reset();
  g_traffic = &traffic;
  const std::int64_t schedule_ns =
      static_cast<std::int64_t>(traffic.scheduled_releases()) *
      kReleasePeriodNs;

  SpanLog spans(args.trace ? 400000 : 0);
  ControlLink control(spans);
  LinkObserver* observer = args.trace ? &control : nullptr;
  // Set-up, repeated: the last one is the measured cluster; setup_s is
  // the fastest of these and of the set-ups after the timed phase.
  Cluster cluster;
  HostProbe setup_probe;
  double setup_s = 0.0;
  const auto shm_namespace = [](int i) {
    return "rtcfe2e" + std::to_string(::getpid()) + "x" + std::to_string(i);
  };
  for (int i = 0; i < kSetupsBefore; ++i) {
    const bool last = i + 1 == kSetupsBefore;
    if (cluster.a) {
      cluster.stop();
      cluster = Cluster();
      traffic.reset();
      setup_probe.run(1);
    }
    const double s = set_up(global, map,
                            last ? schedule_ns + 100'000'000 : 100'000'000,
                            shm_namespace(i), observer, cluster);
    setup_s = i == 0 ? s : std::min(setup_s, s);
  }
  dist::NodeRuntime& a = *cluster.a;
  dist::NodeRuntime& b = *cluster.b;
  dist::ReconfigCoordinator& coordinator = *cluster.coordinator;

  PlanStages stages;
  stages.map = &map;
  for (int t = 0; t < 2; ++t) {
    for (const std::string& node : map.nodes) {
      stages.running[t].emplace(
          node, soleil::snapshot_assembly(
                    dist::slice_architecture(targets[t], map, node), 1));
    }
  }

  // Let the warm-up releases pass so commits run beside steady traffic.
  while (traffic.sent.load() < traffic.first_seq[kWarmReleases]) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::uint64_t frames0 = 0;
  std::uint64_t bytes0 = 0;
  std::vector<double> wire0;
  control.snapshot(frames0, bytes0, wire0);

  // --- Timed phase: back-to-back coordinated reloads.
  std::vector<double> round_trip_us;
  std::vector<double> node_commit_us;
  std::vector<double> overhead_us;
  std::vector<double> slice_us, validate_us, delta_us, codec_us;
  std::uint64_t attempts = 0;
  std::uint64_t commits = 0;
  std::uint64_t aborts = 0;
  std::uint64_t drained = 0;
  double rss_mb = 0.0;
  int current = 0;  // index of the running target
  const std::int64_t t0 = now_ns();
  const double cpu0 = process_cpu_seconds();
  const std::int64_t stop = t0 + static_cast<std::int64_t>(args.seconds * 1e9);
  while (now_ns() < stop) {
    const int next = 1 - current;
    control.set_commit(attempts + 1);
    const std::int64_t begin = now_ns();
    const auto outcome = coordinator.coordinate_reload(targets[next]);
    const std::int64_t elapsed = now_ns() - begin;
    ++attempts;
    if (args.trace) {
      spans.add("dist.coordinate_reload", begin, begin + elapsed, 0,
                attempts);
    }
    if (!outcome.committed) {
      // A clean global abort is the protocol working (e.g. a straggler
      // under a host stall): a failure, not a correctness violation.
      if (++aborts <= 5) r.note("commit aborted: " + outcome.reason);
      continue;
    }
    ++commits;
    round_trip_us.push_back(static_cast<double>(elapsed) / 1e3);
    std::int64_t slowest = 0;
    for (const auto& node : outcome.nodes) {
      node_commit_us.push_back(static_cast<double>(node.latency_ns) / 1e3);
      slowest = std::max(slowest, node.latency_ns);
      drained += node.drained;
    }
    overhead_us.push_back(static_cast<double>(elapsed - slowest) / 1e3);
    if (commits == kRssCommits) rss_mb = peak_rss_mb();
    current = next;
    std::this_thread::sleep_for(std::chrono::nanoseconds(kThinkNs));
    if (args.trace) {
      stages.time(targets[current], current, slice_us, validate_us, delta_us,
                  codec_us);
    }
  }
  const double wall = seconds_since(t0);
  const double cpu = process_cpu_seconds() - cpu0;
  const dist::DataPlaneStats plane_a = a.data_plane().stats();
  a.join_executive();
  b.join_executive();
  cluster.stop();
  const std::int64_t shift = anchor_correction_ns(a);
  const dist::NodeRuntime::GatewayStats gw_a = a.gateway_stats();
  const dist::NodeRuntime::GatewayStats gw_b = b.gateway_stats();

  // --- Output checks: zero loss across commits, summed over both sinks.
  const std::uint64_t sent = traffic.seq;
  const std::uint64_t received = traffic.received.load();
  const std::uint64_t counted_drops = gw_a.exit_dropped + gw_b.entry_dropped;
  if (sent != received + counted_drops) {
    r.violate("conservation: offered " + std::to_string(sent) +
              " != received " + std::to_string(received) +
              " + counted drops " + std::to_string(counted_drops));
  }
  if (received != sent) {
    r.violate(std::to_string(sent - received) +
              " messages lost across commits");
  }
  if (traffic.duplicates != 0) {
    r.violate(std::to_string(traffic.duplicates) + " duplicate deliveries");
  }
  if (traffic.reordered != 0) {
    r.violate(std::to_string(traffic.reordered) +
              " deliveries out of sequence order");
  }
  if (plane_a.ring_frames == 0) {
    r.violate("background traffic never rode the shm ring");
  }

  const Dist rt = summarize(round_trip_us);
  const Dist tl = traffic.find("timed")->summary_us(shift);
  std::vector<double> late = release_lateness_us(a);
  const Dist late_dist = summarize(late);
  r.note("commit round trip: " + describe(rt, "us"));
  r.note("background traffic (" + std::to_string(static_cast<int>(kTrafficRate)) +
         " msg/s over shm): " + describe(tl, "us"));
  r.note("producer release lateness: " + describe(late_dist, "us"));

  if (commits < kRssCommits) {
    rss_mb = peak_rss_mb();
    r.note("FLAG: only " + std::to_string(commits) + " commits; peak_rss_mb "
           "is the end-of-run peak, not the peak at commit " +
           std::to_string(kRssCommits));
  }
  r.note("peak RSS at commit " + std::to_string(kRssCommits) + ": " +
         std::to_string(rss_mb) + " MB; at the end of the run (" +
         std::to_string(commits) + " commits): " +
         std::to_string(peak_rss_mb()) + " MB");
  r.attempted = attempts + sent;
  r.failed = aborts + (sent > received ? sent - received : 0) +
             traffic.duplicates;
  r.name("lat_p50_us", rt.p50, "us", "lower");
  r.name("lat_p99_us", rt.p99, "us", "lower");
  r.name("traffic_p99_us", tl.p99, "us", "lower");
  r.name("ops_per_s", commits / wall, "1/s", "higher");
  r.name("fail_ratio",
         r.attempted ? static_cast<double>(r.failed) / r.attempted : 0.0,
         "ratio", "lower");
  r.name("peak_rss_mb", rss_mb, "MB", "lower");
  r.name("runtime.release_lateness_us", late_dist.p50, "us", "info");

  r.set_layer_dist("runtime.release_lateness_us", late_dist, "us");
  r.set_layer("proc.cpu_util", wall > 0 ? cpu / wall : 0.0, "ratio");
  r.set_layer("dist.drained_per_commit",
              commits ? static_cast<double>(drained) / commits : 0.0, "count");
  if (args.trace) {
    r.set_layer_dist("dist.node_commit_us", summarize(node_commit_us), "us");
    r.set_layer_dist("dist.coord_overhead_us", summarize(overhead_us), "us");
    std::uint64_t frames = 0;
    std::uint64_t bytes = 0;
    std::vector<double> wire;
    control.snapshot(frames, bytes, wire);
    std::vector<double> timed_wire(wire.begin() + wire0.size(), wire.end());
    r.set_layer_dist("comm.control_wire_us", summarize(timed_wire), "us");
    const double n = static_cast<double>(std::max<std::uint64_t>(commits, 1));
    r.set_layer("comm.control_frames_per_commit", (frames - frames0) / n,
                "count");
    r.set_layer("comm.control_bytes_per_commit", (bytes - bytes0) / n, "B");
    r.set_layer_dist("plan.slice_us", summarize(slice_us), "us");
    r.set_layer_dist("plan.validate_us", summarize(validate_us), "us");
    r.set_layer_dist("plan.delta_us", summarize(delta_us), "us");
    r.set_layer_dist("plan.codec_us", summarize(codec_us), "us");
    r.note(write_trace(spans, args));
  }

  for (int i = 0; i < kSetupsAfter; ++i) {
    traffic.reset();
    Cluster c;
    setup_s = std::min(setup_s, set_up(global, map, 100'000'000,
                                       shm_namespace(kSetupsBefore + i),
                                       observer, c));
    c.stop();
    setup_probe.run(1);
  }
  r.name("setup_s", setup_s / setup_probe.slowdown(), "s", "lower");
  r.name("setup_raw_s", setup_s, "s", "info");
  g_traffic = nullptr;
  return r;
}

}  // namespace e2e
