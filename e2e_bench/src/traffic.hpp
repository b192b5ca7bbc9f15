// The open-loop load shared by the `stream` and `reconfig` workloads: a
// periodic producer component on node A releasing pre-generated bursts,
// and sink components on node B recording what arrived.
//
// The producer stamps every message with its *due* instant — its first
// release plus k periods — never with now(): a stalled executive (parked
// at a reconfiguration rendezvous, or simply behind) then counts against
// latency instead of silently delaying the measurement (coordinated
// omission). The stamp is taken from the producer's first observed
// release start; anchor_correction_ns() gives that release's start
// lateness, which the launcher reports, and adding it to every latency
// makes latencies run from the scheduled instants exactly.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"
#include "comm/channel.hpp"
#include "dist/node_runtime.hpp"
#include "trace.hpp"

namespace e2e {

/// Producer release period.
inline constexpr std::int64_t kReleasePeriodNs = 1'000'000;

/// One phase of the open-loop schedule: consecutive releases at one mean
/// rate, with their own latency record. The record has a fixed size
/// (a histogram), plus every sample for phases flagged `exact`, so the
/// benchmark's bookkeeping stays small next to the program's memory.
struct Phase {
  std::string name;
  double rate = 0.0;                ///< Mean messages per second.
  std::uint64_t first_release = 0;
  std::uint64_t releases = 0;
  bool exact = false;
  // Set by Traffic::reset(): the phase's sequences, first..last.
  std::uint64_t first_seq = 1;
  std::uint64_t last_seq = 0;
  // Sink side: stamp-relative latencies of the delivered messages.
  Histogram latency;
  std::vector<std::int64_t> samples;  ///< Exact phases only.

  std::uint64_t messages() const { return last_seq + 1 - first_seq; }
  std::uint64_t delivered() const { return latency.count(); }
  /// Latency summary in us, `shift_ns` added to every sample.
  Dist summary_us(std::int64_t shift_ns) const;
};

/// Everything the producer and sinks share. One instance is live at a
/// time (g_traffic); content objects created by the framework find it
/// there. Producer fields are written by node A's executive thread; sink
/// fields by whichever thread runs node B's activations — its executive,
/// or the serve thread applying a commit while the executive is parked,
/// never both at once; link fields by the traced channel's callers.
struct Traffic {
  // Inputs.
  std::vector<std::uint32_t> bursts;  ///< Messages per open-loop release.
  std::vector<std::uint64_t> first_seq;  ///< Sequences before release k.
  std::vector<Phase> phases;  ///< Cover the open-loop releases in order.
  /// Closed-loop releases after the open-loop ones: each tops the
  /// messages in flight (sent - received) up to `closed_window`, so the
  /// path stays saturated without ever overflowing a queue.
  std::uint64_t closed_releases = 0;
  std::uint64_t closed_window = 0;
  /// sent - received when the closed loop began: messages an earlier
  /// overloaded phase dropped never arrive, so they are not in flight.
  std::uint64_t closed_base = 0;
  bool trace = false;

  // Producer.
  std::uint64_t releases = 0;
  std::int64_t anchor_ns = 0;  ///< Start of the first observed release.
  std::uint64_t seq = 0;       ///< Last sequence sent.
  std::atomic<std::uint64_t> sent{0};
  std::vector<std::uint32_t> send_ns;  ///< Traced: OutPort::send per call.

  // Sinks.
  std::vector<std::uint64_t> seen;  ///< One bit per possible sequence.
  std::uint64_t last_seq = 0;
  std::atomic<std::uint64_t> received{0};
  std::uint64_t duplicates = 0;
  std::uint64_t reordered = 0;
  std::uint64_t out_of_range = 0;

  // Traced, per open-loop sequence.
  std::vector<std::int64_t> deliver_at;  ///< Sink on_message.
  std::vector<std::int64_t> send_at;     ///< BATCH handed to the transport.
  std::vector<std::int64_t> recv_at;     ///< BATCH receive returned.
  std::vector<std::uint32_t> comm_send_ns;  ///< Per BATCH send call.

  /// Appends a phase of `releases` bursts averaging `rate` messages per
  /// second: each burst is uniform on [0, 2m] for m = rate x period.
  void add_phase(const std::string& name, double rate, std::uint64_t count,
                 SplitMix& rng, bool exact = false);
  /// Sizes the per-sequence state for the schedule and clears all state.
  void reset();
  /// Messages of the open-loop releases.
  std::uint64_t open_total() const { return first_seq.back(); }
  /// Highest sequence the schedule can send.
  std::uint64_t max_seq() const {
    return open_total() + closed_releases * closed_window;
  }
  /// Releases the producer is scheduled for.
  std::uint64_t scheduled_releases() const {
    return bursts.size() + closed_releases;
  }
  /// Release index of open-loop sequence `seq` (1-based sequences).
  std::uint64_t release_of(std::uint64_t seq) const;
  /// The phase holding open-loop sequence `seq`.
  Phase& phase_of(std::uint64_t seq);
  const Phase* find(const std::string& name) const;
};

extern Traffic* g_traffic;

/// Link observer attributing BATCH frames to their messages: decodes the
/// payload in place (dist::BatchView) and stamps each sequence's send and
/// receive instants.
class TrafficLink final : public LinkObserver {
 public:
  explicit TrafficLink(Traffic& traffic) : traffic_(traffic) {}
  void on_sent(std::uint16_t type, const std::uint8_t* payload,
               std::size_t size, std::int64_t start,
               std::int64_t end) override;
  void on_received(const rtcf::comm::Frame& frame, std::int64_t sent_at,
                   std::int64_t returned) override;

 private:
  template <typename Fn>
  void for_each_seq(const std::uint8_t* payload, std::size_t size, Fn&& fn);
  Traffic& traffic_;
};

/// The producer's start lateness samples (us) from node A's launcher.
std::vector<double> release_lateness_us(rtcf::dist::NodeRuntime& node);

/// The first release's start lateness in ns: add it to a stamp-relative
/// latency to measure from the scheduled instant (see the header comment).
std::int64_t anchor_correction_ns(rtcf::dist::NodeRuntime& producer_node);

}  // namespace e2e
