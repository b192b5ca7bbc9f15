// Control channels: loopback pair semantics and the TCP transport's
// length-prefixed framing (`ctest -L dist`).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <thread>
#include <vector>

#include "comm/channel.hpp"

namespace rtcf::comm {
namespace {

Frame make_frame(std::uint16_t type, std::initializer_list<std::uint8_t> b) {
  Frame frame;
  frame.type = type;
  frame.payload.assign(b);
  return frame;
}

TEST(LoopbackChannelTest, FramesCrossInOrderBothDirections) {
  auto [a, b] = LoopbackChannel::make_pair();
  ASSERT_TRUE(a->send(make_frame(1, {0x11})));
  ASSERT_TRUE(a->send(make_frame(2, {0x22, 0x23})));
  ASSERT_TRUE(b->send(make_frame(3, {})));

  Frame frame;
  ASSERT_TRUE(b->receive(frame, rtsj::RelativeTime::zero()));
  EXPECT_EQ(frame.type, 1);
  ASSERT_TRUE(b->receive(frame, rtsj::RelativeTime::zero()));
  EXPECT_EQ(frame.type, 2);
  EXPECT_EQ(frame.payload.size(), 2u);
  EXPECT_FALSE(b->receive(frame, rtsj::RelativeTime::zero()));

  ASSERT_TRUE(a->receive(frame, rtsj::RelativeTime::zero()));
  EXPECT_EQ(frame.type, 3);
}

TEST(LoopbackChannelTest, ReceiveTimesOutAndCloseUnblocks) {
  auto [a, b] = LoopbackChannel::make_pair();
  Frame frame;
  EXPECT_FALSE(b->receive(frame, rtsj::RelativeTime::milliseconds(5)));

  std::thread closer([&a] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    a->close();
  });
  // A blocked receive wakes on close and reports failure.
  EXPECT_FALSE(b->receive(frame, rtsj::RelativeTime::milliseconds(500)));
  closer.join();
  EXPECT_FALSE(b->open());
  EXPECT_FALSE(a->send(make_frame(1, {})));
}

TEST(LoopbackChannelTest, QueuedFramesSurviveClose) {
  auto [a, b] = LoopbackChannel::make_pair();
  ASSERT_TRUE(a->send(make_frame(7, {0x01})));
  a->close();
  Frame frame;
  // In-flight frames are still delivered after close (drain semantics).
  EXPECT_TRUE(b->receive(frame, rtsj::RelativeTime::zero()));
  EXPECT_EQ(frame.type, 7);
  EXPECT_FALSE(b->receive(frame, rtsj::RelativeTime::zero()));
}

TEST(TcpChannelTest, ListeningReceiveHonorsItsTimeoutWithNoPeer) {
  auto server = TcpChannel::listen(0);
  ASSERT_NE(server, nullptr);
  Frame frame;
  const auto start = std::chrono::steady_clock::now();
  // No peer ever connects: the receive must time out, not block in
  // accept() (a serve loop polls with tiny timeouts and must stay
  // responsive to shutdown).
  EXPECT_FALSE(server->receive(frame, rtsj::RelativeTime::milliseconds(20)));
  EXPECT_FALSE(server->receive(frame, rtsj::RelativeTime::zero()));
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            2000);
}

TEST(TcpChannelTest, FramesCrossTheSocketWithLengthPrefixes) {
  auto server = TcpChannel::listen(0);
  ASSERT_NE(server, nullptr);
  ASSERT_NE(server->bound_port(), 0);

  auto client = TcpChannel::connect("127.0.0.1", server->bound_port());
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(server->accept_one());

  Frame big;
  big.type = 42;
  big.payload.resize(100000);
  for (std::size_t i = 0; i < big.payload.size(); ++i) {
    big.payload[i] = static_cast<std::uint8_t>(i * 31);
  }
  ASSERT_TRUE(client->send(big));
  ASSERT_TRUE(client->send(make_frame(43, {0xAA})));

  Frame frame;
  ASSERT_TRUE(server->receive(frame, rtsj::RelativeTime::milliseconds(2000)));
  EXPECT_EQ(frame.type, 42);
  EXPECT_EQ(frame.payload, big.payload);
  ASSERT_TRUE(server->receive(frame, rtsj::RelativeTime::milliseconds(2000)));
  EXPECT_EQ(frame.type, 43);

  // And the reverse direction.
  ASSERT_TRUE(server->send(make_frame(44, {0x01, 0x02})));
  ASSERT_TRUE(client->receive(frame, rtsj::RelativeTime::milliseconds(2000)));
  EXPECT_EQ(frame.type, 44);

  // A receive with no traffic times out cleanly.
  EXPECT_FALSE(client->receive(frame, rtsj::RelativeTime::milliseconds(10)));

  server->close();
  EXPECT_FALSE(client->receive(frame, rtsj::RelativeTime::milliseconds(200)));
}

TEST(TcpChannelTest, ForeignWireVersionClosesTheChannel) {
  auto server = TcpChannel::listen(0);
  ASSERT_NE(server, nullptr);
  // A raw socket plays a peer built with another wire version: the frame
  // header is well formed, only its version field differs.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server->bound_port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  ASSERT_TRUE(server->accept_one());

  // u32 length (version + type + one payload byte), u16 version, u16
  // type, payload — all little-endian.
  std::vector<std::uint8_t> bytes = {5, 0, 0, 0, 0, 0, 1, 0, 0x42};
  const std::uint16_t foreign = kWireVersion + 1;
  bytes[4] = static_cast<std::uint8_t>(foreign & 0xFF);
  bytes[5] = static_cast<std::uint8_t>(foreign >> 8);
  ASSERT_EQ(::send(fd, bytes.data(), bytes.size(), 0),
            static_cast<ssize_t>(bytes.size()));

  Frame frame;
  EXPECT_FALSE(server->receive(frame, rtsj::RelativeTime::milliseconds(2000)));
  EXPECT_FALSE(server->open()) << "a foreign version is unrecoverable";
  ::close(fd);
}

}  // namespace
}  // namespace rtcf::comm
