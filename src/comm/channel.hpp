// Length-prefixed control channels: the byte-stream transport under the
// distributed reconfiguration protocol (src/dist).
//
// A channel moves *frames* — small typed byte payloads — between exactly
// two endpoints, in order, reliably. Two transports implement the same
// interface:
//
//   * LoopbackChannel  — an in-process pair of bounded-latency queues, for
//                        tests and single-process multi-node examples;
//   * TcpChannel       — a real socket with the wire framing documented in
//                        docs/PROTOCOL.md (u32 little-endian length prefix,
//                        u16 protocol version, u16 frame type, payload).
//
// Channels are deliberately dumb: no topics, no fan-out, no retransmission
// policy. Everything protocol-shaped (transactions, prepare/commit,
// serialized plans) lives above, in src/dist, so a second implementation
// only has to reproduce the framing here and the payload encodings in
// docs/PROTOCOL.md.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "rtsj/time/time.hpp"

namespace rtcf::comm {

/// The one wire version, stamped into every frame header. It covers the
/// framing and every payload layout in docs/PROTOCOL.md; a receiver that
/// reads any other value closes the channel (TCP and the shm ring alike).
inline constexpr std::uint16_t kWireVersion = 2;

/// One typed message on a control channel. The payload encoding depends on
/// the type and is specified in docs/PROTOCOL.md; the channel layer treats
/// it as opaque bytes.
struct Frame {
  /// Frame type discriminator (see dist::FrameType for the reconfiguration
  /// protocol's assignments).
  std::uint16_t type = 0;
  /// Opaque payload bytes (encoding per type).
  std::vector<std::uint8_t> payload;
};

/// A non-owning view of contiguous payload bytes: one piece of a
/// scatter-gather send. The bytes must stay valid until the send returns.
struct ByteSpan {
  const std::uint8_t* data = nullptr;  ///< First byte.
  std::size_t size = 0;                ///< Byte count.
};

/// A frame payload view: type plus payload span, the zero-copy analogue of
/// Frame for callers that already hold the encoded bytes.
struct FrameView {
  std::uint16_t type = 0;  ///< Frame type discriminator.
  ByteSpan payload;        ///< Encoded payload bytes (not owned).
};

/// Transport memory handed out by Channel::reserve_frame: the caller
/// encodes a frame payload directly at `data` and then commits. When
/// `in_place` is true, `data` points into the transport's own memory (a
/// shm ring) and committing publishes with zero further copies; when
/// false, the transport lent a bounce buffer and commit performs the one
/// unavoidable copy (a wrapped ring reservation).
struct FrameReservation {
  std::uint8_t* data = nullptr;  ///< Where the payload must be encoded.
  std::size_t size = 0;          ///< Reserved payload capacity.
  bool in_place = false;         ///< True: data is transport memory.
};

/// A reliable, ordered, bidirectional frame channel between two endpoints.
class Channel {
 public:
  /// Closes nothing by itself; concrete transports close in their own
  /// destructors.
  virtual ~Channel() = default;

  /// Sends one frame. Returns false when the channel is closed or the
  /// peer is unreachable; blocking behaviour is transport-specific (the
  /// loopback never blocks, TCP may block on a full socket buffer).
  virtual bool send(const Frame& frame) = 0;

  /// Move-enabled send: transports that queue frames (the loopback) steal
  /// the payload instead of deep-copying it. The default forwards to the
  /// copying overload, so transports that serialize to a wire lose
  /// nothing by not overriding.
  virtual bool send(Frame&& frame) {
    return send(static_cast<const Frame&>(frame));
  }

  /// Scatter-gather send: one frame whose payload is the concatenation of
  /// `count` spans, byte-identical on the wire to send() with the
  /// assembled payload. The default assembles a Frame; TcpChannel
  /// overrides with writev so the payload bytes go from the caller's
  /// buffer to the socket with no intermediate copy.
  virtual bool send_spans(std::uint16_t type, const ByteSpan* spans,
                          std::size_t count);

  /// Reserves transport memory for one frame of `payload_size` bytes so
  /// the caller can encode directly into it (shm ring: the frame is built
  /// in the ring). Returns false when the transport does not support
  /// reservations or is closed — the caller falls back to send_spans with
  /// its own buffer. A successful reservation MUST be resolved with
  /// commit_frame or abort_frame before any other send on this channel;
  /// channels have a single writer (docs/DATAPLANE.md §7) so no further
  /// locking is implied.
  virtual bool reserve_frame(std::uint16_t type, std::size_t payload_size,
                             FrameReservation& out);

  /// Publishes the reserved frame with its first `used` payload bytes
  /// (used <= reserved size). Returns false when the channel closed
  /// between reserve and commit.
  virtual bool commit_frame(std::size_t used);

  /// Releases the current reservation without publishing anything.
  virtual void abort_frame();

  /// Receives the next frame, waiting up to `timeout` (zero = poll without
  /// waiting). Returns false on timeout or when the channel is closed and
  /// drained.
  virtual bool receive(Frame& frame, rtsj::RelativeTime timeout) = 0;

  /// Closes the channel; pending receives on either side unblock.
  virtual void close() = 0;

  /// True until close() is called on either endpoint.
  virtual bool open() const = 0;
};

/// In-process transport: a pair of endpoints sharing two frame queues.
class LoopbackChannel final : public Channel {
 public:
  /// Creates a connected pair; frames sent on one endpoint are received on
  /// the other, in order.
  static std::pair<std::shared_ptr<LoopbackChannel>,
                   std::shared_ptr<LoopbackChannel>>
  make_pair();

  using Channel::send;
  bool send(const Frame& frame) override;
  /// Moves the payload into the queue — no deep copy for callers done
  /// with the frame (the control plane's make_*() temporaries).
  bool send(Frame&& frame) override;
  bool receive(Frame& frame, rtsj::RelativeTime timeout) override;
  void close() override;
  bool open() const override;

 private:
  struct Shared;
  explicit LoopbackChannel(std::shared_ptr<Shared> shared, bool side);

  std::shared_ptr<Shared> shared_;
  /// Which of the two directional queues this endpoint sends into.
  bool side_ = false;
};

/// TCP transport with the docs/PROTOCOL.md framing. Connection setup is
/// synchronous and out of band (the distributed protocol assumes the
/// operator wires the cluster before coordinating transitions).
class TcpChannel final : public Channel {
 public:
  /// Listens on `port` (0 picks an ephemeral port, readable via
  /// bound_port()) and accepts exactly one peer on the first receive/
  /// accept_one() call.
  static std::unique_ptr<TcpChannel> listen(std::uint16_t port);
  /// Connects to a listening endpoint. Returns nullptr on failure.
  static std::unique_ptr<TcpChannel> connect(const std::string& host,
                                             std::uint16_t port);

  /// Closes the socket (and the listening socket, if any).
  ~TcpChannel() override;

  /// The locally bound port (listening endpoints; 0 otherwise).
  std::uint16_t bound_port() const noexcept { return bound_port_; }
  /// Blocks until a peer connects (listening endpoints). Returns false on
  /// failure or when already connected.
  bool accept_one();

  using Channel::send;
  bool send(const Frame& frame) override;
  /// Gathers the 8-byte frame header and the payload spans into one
  /// writev so nothing is re-staged in user space before the socket.
  bool send_spans(std::uint16_t type, const ByteSpan* spans,
                  std::size_t count) override;
  bool receive(Frame& frame, rtsj::RelativeTime timeout) override;
  /// Thread-safe shutdown: marks the channel closed and shuts the socket
  /// down so a blocked receiver unblocks, but defers the actual ::close
  /// to the destructor — the fd number must not be recycled while
  /// another thread may still be inside poll()/recv() on it.
  void close() override;
  bool open() const override;

 private:
  TcpChannel() = default;

  bool ensure_peer();
  bool read_exact(std::uint8_t* data, std::size_t size,
                  rtsj::RelativeTime timeout);

  int listen_fd_ = -1;
  int fd_ = -1;
  std::uint16_t bound_port_ = 0;
  /// Set by close() (possibly from another thread); polled by the
  /// receive loops.
  std::atomic<bool> closed_{false};
  std::mutex send_mutex_;
};

}  // namespace rtcf::comm
