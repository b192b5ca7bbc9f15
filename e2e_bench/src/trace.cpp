#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <system_error>

#include "bench.hpp"

namespace e2e {

std::uint64_t SpanLog::add(const char* name, std::int64_t start,
                           std::int64_t end, std::uint64_t parent,
                           std::uint64_t id) {
  const std::size_t slot = next_.fetch_add(1, std::memory_order_relaxed);
  if (slot >= spans_.size()) {
    overflow_.fetch_add(1, std::memory_order_relaxed);
    return 0;
  }
  spans_[slot] = Span{name, start, end, parent, id};
  return slot + 1;
}

std::size_t SpanLog::size() const {
  return std::min(next_.load(std::memory_order_relaxed), spans_.size());
}

bool SpanLog::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::size_t n = size();
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"span\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                 "\"end_ns\": %lld, \"parent\": %llu, \"id\": %llu}\n",
                 i + 1, s.name, static_cast<long long>(s.start),
                 static_cast<long long>(s.end),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.id));
  }
  return std::fclose(f) == 0;
}

std::string write_trace(const SpanLog& log, const Args& args) {
  const std::filesystem::path dir = ".bench_build/traces";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const std::filesystem::path path =
      dir / (args.workload + "-" + std::to_string(args.seed) + ".jsonl");
  if (ec || !log.write_jsonl(path.string())) {
    return "trace: could not write " + path.string();
  }
  return "trace: " + std::to_string(log.size()) + " spans written to " +
         path.string() + " (" + std::to_string(log.overflow()) +
         " over capacity)";
}

std::pair<std::shared_ptr<TracedChannel>, std::shared_ptr<TracedChannel>>
TracedChannel::wrap(std::shared_ptr<rtcf::comm::Channel> a,
                    std::shared_ptr<rtcf::comm::Channel> b,
                    LinkObserver* observer) {
  auto a_to_b = std::make_shared<Direction>();
  auto b_to_a = std::make_shared<Direction>();
  std::shared_ptr<TracedChannel> ta(
      new TracedChannel(std::move(a), a_to_b, b_to_a, observer));
  std::shared_ptr<TracedChannel> tb(
      new TracedChannel(std::move(b), b_to_a, a_to_b, observer));
  return {ta, tb};
}

template <typename Send>
bool TracedChannel::stamped_send(std::uint16_t type,
                                 const std::uint8_t* payload,
                                 std::size_t size, Send&& send) {
  const std::int64_t start = now_ns();
  {
    const std::lock_guard<std::mutex> lock(out_->mutex);
    out_->sent_at.push_back(start);
  }
  const bool ok = send();
  const std::int64_t end = now_ns();
  if (ok && observer_ != nullptr) {
    observer_->on_sent(type, payload, size, start, end);
  }
  return ok;
}

bool TracedChannel::send(const rtcf::comm::Frame& frame) {
  const std::lock_guard<std::mutex> lock(send_mutex_);
  return stamped_send(frame.type, frame.payload.data(), frame.payload.size(),
                      [&] { return inner_->send(frame); });
}

bool TracedChannel::send(rtcf::comm::Frame&& frame) {
  // The wrapped send may steal the payload; the observer reads a copy.
  const std::lock_guard<std::mutex> lock(send_mutex_);
  scratch_.assign(frame.payload.begin(), frame.payload.end());
  return stamped_send(frame.type, scratch_.data(), scratch_.size(),
                      [&] { return inner_->send(std::move(frame)); });
}

bool TracedChannel::send_spans(std::uint16_t type, const rtcf::comm::ByteSpan* spans,
                               std::size_t count) {
  const std::lock_guard<std::mutex> lock(send_mutex_);
  const std::uint8_t* payload = count == 1 ? spans[0].data : nullptr;
  std::size_t size = count == 1 ? spans[0].size : 0;
  if (count > 1) {
    scratch_.clear();
    for (std::size_t i = 0; i < count; ++i) {
      scratch_.insert(scratch_.end(), spans[i].data,
                      spans[i].data + spans[i].size);
    }
    payload = scratch_.data();
    size = scratch_.size();
  }
  return stamped_send(type, payload, size,
                      [&] { return inner_->send_spans(type, spans, count); });
}

bool TracedChannel::receive(rtcf::comm::Frame& frame, rtcf::rtsj::RelativeTime timeout) {
  if (!inner_->receive(frame, timeout)) return false;
  const std::int64_t returned = now_ns();
  std::int64_t sent_at = returned;
  {
    const std::lock_guard<std::mutex> lock(in_->mutex);
    if (!in_->sent_at.empty()) {
      sent_at = in_->sent_at.front();
      in_->sent_at.pop_front();
    }
  }
  if (observer_ != nullptr) observer_->on_received(frame, sent_at, returned);
  return true;
}

}  // namespace e2e
