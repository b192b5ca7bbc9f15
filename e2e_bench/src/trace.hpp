// Bench-side tracing: an in-memory span log and a rtcf::comm::Channel decorator
// that timestamps every frame crossing a channel the benchmark hands to a
// node. Nothing here reaches into the library; spans are taken around
// calls into its public entry points and at the channel boundary.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "comm/channel.hpp"

namespace e2e {

/// One span: a named interval, the span that caused it (1-based handle in
/// the same log, 0 for a root) and the request it belongs to.
struct Span {
  const char* name = nullptr;  ///< Static string.
  std::int64_t start = 0;      ///< Steady-clock ns.
  std::int64_t end = 0;        ///< Steady-clock ns.
  std::uint64_t parent = 0;
  std::uint64_t id = 0;
};

/// Fixed-capacity span store. Any thread may append (a slot is claimed
/// with one atomic increment); reads happen after the writers are joined.
/// Spans beyond the capacity are counted, not stored.
class SpanLog {
 public:
  explicit SpanLog(std::size_t capacity) : spans_(capacity) {}
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  /// Appends a span; returns its handle (index + 1), or 0 when full.
  std::uint64_t add(const char* name, std::int64_t start, std::int64_t end,
                    std::uint64_t parent = 0, std::uint64_t id = 0);
  /// Sets the end of an already added span (a parent whose children were
  /// recorded after it); ignores a 0 handle.
  void close(std::uint64_t handle, std::int64_t end) {
    if (handle != 0) spans_[handle - 1].end = end;
  }
  std::size_t size() const;
  std::uint64_t overflow() const {
    return overflow_.load(std::memory_order_relaxed);
  }
  /// Writes one JSON object per span; false on an I/O failure.
  bool write_jsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::atomic<std::size_t> next_{0};
  std::atomic<std::uint64_t> overflow_{0};
};

struct Args;

/// Writes `log` to .bench_build/traces/<workload>-<seed>.jsonl under the
/// working directory (the checkout root); returns a line saying where, or
/// why it could not.
std::string write_trace(const SpanLog& log, const Args& args);

/// Called by TracedChannel on the sending or receiving thread, after the
/// wrapped call returned.
class LinkObserver {
 public:
  virtual ~LinkObserver() = default;
  /// A frame went out: `payload` is contiguous for the call's duration.
  virtual void on_sent(std::uint16_t type, const std::uint8_t* payload,
                       std::size_t size, std::int64_t start,
                       std::int64_t end) = 0;
  /// A frame came in: `sent_at` is when the peer handed it to its send.
  virtual void on_received(const rtcf::comm::Frame& frame, std::int64_t sent_at,
                           std::int64_t returned) = 0;
};

/// rtcf::comm::Channel decorator. Every send pushes its start time onto the
/// direction's FIFO; every receive pops it, so the observer learns each
/// frame's send -> receive interval (channels are reliable and ordered).
/// Reservations are not forwarded (Channel's default refuses them), so a
/// decorated channel always takes the send_spans path.
class TracedChannel final : public rtcf::comm::Channel {
 public:
  /// Decorates both endpoints of one link.
  static std::pair<std::shared_ptr<TracedChannel>,
                   std::shared_ptr<TracedChannel>>
  wrap(std::shared_ptr<rtcf::comm::Channel> a, std::shared_ptr<rtcf::comm::Channel> b,
       LinkObserver* observer);

  using rtcf::comm::Channel::send;
  bool send(const rtcf::comm::Frame& frame) override;
  bool send(rtcf::comm::Frame&& frame) override;
  bool send_spans(std::uint16_t type, const rtcf::comm::ByteSpan* spans,
                  std::size_t count) override;
  bool receive(rtcf::comm::Frame& frame, rtcf::rtsj::RelativeTime timeout) override;
  void close() override { inner_->close(); }
  bool open() const override { return inner_->open(); }

 private:
  struct Direction {
    std::mutex mutex;
    std::deque<std::int64_t> sent_at;  // guarded by mutex
  };
  TracedChannel(std::shared_ptr<rtcf::comm::Channel> inner,
                std::shared_ptr<Direction> out, std::shared_ptr<Direction> in,
                LinkObserver* observer)
      : inner_(std::move(inner)),
        out_(std::move(out)),
        in_(std::move(in)),
        observer_(observer) {}

  /// Stamps and performs one send under the sender-side lock, so the FIFO
  /// order matches the order frames enter the wrapped channel.
  template <typename Send>
  bool stamped_send(std::uint16_t type, const std::uint8_t* payload,
                    std::size_t size, Send&& send);

  std::shared_ptr<rtcf::comm::Channel> inner_;
  std::shared_ptr<Direction> out_;
  std::shared_ptr<Direction> in_;
  LinkObserver* observer_;
  std::mutex send_mutex_;              // serializes stamp + send
  std::vector<std::uint8_t> scratch_;  // multi-span payloads (send_mutex_)
};

}  // namespace e2e
