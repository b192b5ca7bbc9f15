#include "traffic.hpp"

#include <algorithm>
#include <cmath>

#include "bench.hpp"
#include "dist/batch_view.hpp"
#include "dist/protocol.hpp"
#include "runtime/content_registry.hpp"

namespace e2e {

Traffic* g_traffic = nullptr;

Dist Phase::summary_us(std::int64_t shift_ns) const {
  if (!exact) return latency.summary_us(shift_ns);
  std::vector<double> us;
  us.reserve(samples.size());
  for (const std::int64_t ns : samples) {
    us.push_back(static_cast<double>(ns + shift_ns) / 1e3);
  }
  return summarize(us);
}

void Traffic::add_phase(const std::string& name, double rate,
                        std::uint64_t count, SplitMix& rng, bool exact) {
  Phase p;
  p.name = name;
  p.rate = rate;
  p.first_release = bursts.size();
  p.releases = count;
  p.exact = exact;
  phases.push_back(std::move(p));
  const double mean = rate * static_cast<double>(kReleasePeriodNs) / 1e9;
  for (std::uint64_t k = 0; k < count; ++k) {
    bursts.push_back(static_cast<std::uint32_t>(
        std::floor(rng.unit() * (2.0 * mean + 1.0))));
  }
}

void Traffic::reset() {
  first_seq.assign(bursts.size() + 1, 0);
  for (std::size_t k = 0; k < bursts.size(); ++k) {
    first_seq[k + 1] = first_seq[k] + bursts[k];
  }
  for (Phase& p : phases) {
    p.first_seq = first_seq[p.first_release] + 1;
    p.last_seq = first_seq[p.first_release + p.releases];
    p.latency = Histogram();
    p.samples.clear();
    if (p.exact) p.samples.reserve(p.messages());
  }
  releases = 0;
  anchor_ns = 0;
  seq = 0;
  closed_base = 0;
  sent.store(0);
  send_ns.clear();
  seen.assign(max_seq() / 64 + 1, 0);
  last_seq = 0;
  received.store(0);
  duplicates = reordered = out_of_range = 0;
  comm_send_ns.clear();
  const std::size_t traced = trace ? open_total() + 1 : 0;
  if (trace) send_ns.reserve(traced);
  deliver_at.assign(traced, 0);
  send_at.assign(traced, 0);
  recv_at.assign(traced, 0);
}

std::uint64_t Traffic::release_of(std::uint64_t s) const {
  // first_seq[k] < s <= first_seq[k + 1]
  const auto it = std::lower_bound(first_seq.begin(), first_seq.end(), s);
  return static_cast<std::uint64_t>(it - first_seq.begin()) - 1;
}

Phase& Traffic::phase_of(std::uint64_t s) {
  const auto it = std::partition_point(
      phases.begin(), phases.end(),
      [s](const Phase& p) { return p.last_seq < s; });
  return *it;
}

const Phase* Traffic::find(const std::string& name) const {
  for (const Phase& p : phases) {
    if (p.name == name) return &p;
  }
  return nullptr;
}

namespace {

/// Periodic producer: one pre-generated burst per release, every message
/// stamped with the release's due instant.
class E2eProducer final : public rtcf::comm::Content {
 public:
  void on_release() override {
    Traffic& t = *g_traffic;
    const std::int64_t now = now_ns();
    if (t.releases == 0) t.anchor_ns = now;
    const std::uint64_t k = t.releases++;
    std::uint64_t burst = 0;
    if (k < t.bursts.size()) {
      burst = t.bursts[k];
    } else if (k < t.scheduled_releases()) {
      const std::uint64_t outstanding =
          t.seq - t.received.load(std::memory_order_relaxed);
      if (k == t.bursts.size()) t.closed_base = outstanding;
      const std::uint64_t in_flight =
          outstanding > t.closed_base ? outstanding - t.closed_base : 0;
      if (in_flight < t.closed_window) burst = t.closed_window - in_flight;
    }
    rtcf::comm::Message m;
    m.type_id = 1;
    m.timestamp_ns =
        t.anchor_ns + static_cast<std::int64_t>(k) * kReleasePeriodNs;
    rtcf::comm::OutPort& out = port(0);
    for (std::uint64_t i = 0; i < burst; ++i) {
      m.sequence = ++t.seq;
      if (t.trace) {
        const std::int64_t start = now_ns();
        out.send(m);
        t.send_ns.push_back(static_cast<std::uint32_t>(now_ns() - start));
      } else {
        out.send(m);
      }
    }
    t.sent.store(t.seq, std::memory_order_relaxed);
  }
};

/// Sink: records each open-loop message's stamp-relative latency in its
/// phase and checks uniqueness and per-route order.
class E2eSink final : public rtcf::comm::Content {
 public:
  void on_message(const rtcf::comm::Message& m) override {
    const std::int64_t now = now_ns();
    Traffic& t = *g_traffic;
    const std::uint64_t s = m.sequence;
    if (s == 0 || s > t.max_seq()) {
      ++t.out_of_range;
      return;
    }
    std::uint64_t& word = t.seen[s / 64];
    const std::uint64_t bit = 1ull << (s % 64);
    if ((word & bit) != 0) {
      ++t.duplicates;
      return;
    }
    word |= bit;
    if (s <= t.last_seq) ++t.reordered;
    t.last_seq = s;
    if (s <= t.open_total()) {
      Phase& p = t.phase_of(s);
      p.latency.record(now - m.timestamp_ns);
      if (p.exact) p.samples.push_back(now - m.timestamp_ns);
      if (t.trace) t.deliver_at[s] = now;
    }
    t.received.store(t.received.load(std::memory_order_relaxed) + 1,
                     std::memory_order_relaxed);
  }
};

}  // namespace

RTCF_REGISTER_CONTENT(E2eProducer)
RTCF_REGISTER_CONTENT(E2eSink)

template <typename Fn>
void TrafficLink::for_each_seq(const std::uint8_t* payload, std::size_t size,
                               Fn&& fn) {
  rtcf::dist::BatchView view(payload, size);
  rtcf::dist::BatchView::Route route;
  rtcf::comm::Message m;
  while (view.next_route(route)) {
    for (std::uint32_t i = 0; i < route.messages; ++i) {
      view.next_message(m);
      if (m.sequence != 0 && m.sequence < traffic_.send_at.size()) {
        fn(m.sequence);
      }
    }
  }
}

void TrafficLink::on_sent(std::uint16_t type, const std::uint8_t* payload,
                          std::size_t size, std::int64_t start,
                          std::int64_t end) {
  if (type != static_cast<std::uint16_t>(rtcf::dist::FrameType::Batch) ||
      !traffic_.trace) {
    return;
  }
  traffic_.comm_send_ns.push_back(static_cast<std::uint32_t>(end - start));
  for_each_seq(payload, size,
               [&](std::uint64_t s) { traffic_.send_at[s] = start; });
}

void TrafficLink::on_received(const rtcf::comm::Frame& frame,
                              std::int64_t /*sent_at*/,
                              std::int64_t returned) {
  if (frame.type != static_cast<std::uint16_t>(rtcf::dist::FrameType::Batch) ||
      !traffic_.trace) {
    return;
  }
  for_each_seq(frame.payload.data(), frame.payload.size(),
               [&](std::uint64_t s) { traffic_.recv_at[s] = returned; });
}

std::vector<double> release_lateness_us(rtcf::dist::NodeRuntime& node) {
  const auto& stats = node.launcher().all_stats();
  const auto it = stats.find("Producer");
  if (it == stats.end()) return {};
  return it->second.start_lateness_us.samples();
}

std::int64_t anchor_correction_ns(rtcf::dist::NodeRuntime& producer_node) {
  const std::vector<double> lateness = release_lateness_us(producer_node);
  if (lateness.empty()) return 0;
  return static_cast<std::int64_t>(std::llround(lateness.front() * 1000.0));
}

}  // namespace e2e
