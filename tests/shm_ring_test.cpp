// Shared-memory ring transport tests (`ctest -L dataplane`): creation and
// attach validation, bidirectional framing, ring wrap-around, the
// torn-record and foreign-wire-version close rules, and the bounded send
// stall on a full ring
// (docs/DATAPLANE.md §5 is the normative region layout under test).
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <string>

#include "comm/channel.hpp"
#include "comm/shm_ring.hpp"

namespace rtcf::comm {
namespace {

/// A per-test region name: concurrent ctest runs must not collide.
std::string region_name(const char* tag) {
  return std::string("/rtcf-shm-test-") + tag + "." +
         std::to_string(::getpid());
}

Frame make_frame(std::uint16_t type, std::size_t payload_bytes) {
  Frame frame;
  frame.type = type;
  frame.payload.resize(payload_bytes);
  for (std::size_t i = 0; i < payload_bytes; ++i) {
    frame.payload[i] = static_cast<std::uint8_t>((type + i) & 0xFF);
  }
  return frame;
}

/// Maps the raw region the way a second implementation would, so tests
/// can corrupt specific offsets of the normative layout.
struct RawRegion {
  explicit RawRegion(const std::string& name) {
    fd = ::shm_open(name.c_str(), O_RDWR, 0);
    if (fd < 0) return;
    const ::off_t end = ::lseek(fd, 0, SEEK_END);
    if (end > 0) {
      bytes = static_cast<std::size_t>(end);
      base = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED, fd,
                    0);
      if (base == MAP_FAILED) base = nullptr;
    }
  }
  ~RawRegion() {
    if (base != nullptr) ::munmap(base, bytes);
    if (fd >= 0) ::close(fd);
  }
  bool ok() const { return base != nullptr; }
  void store_u32(std::size_t offset, std::uint32_t value) {
    std::memcpy(static_cast<std::uint8_t*>(base) + offset, &value,
                sizeof(value));
  }
  void store_u16(std::size_t offset, std::uint16_t value) {
    std::memcpy(static_cast<std::uint8_t*>(base) + offset, &value,
                sizeof(value));
  }

  int fd = -1;
  void* base = nullptr;
  std::size_t bytes = 0;
};

TEST(ShmRingTest, CreateAttachRoundTripsBothDirections) {
  const std::string name = region_name("roundtrip");
  auto creator = ShmRingChannel::create(name, 4096);
  ASSERT_NE(creator, nullptr);
  EXPECT_EQ(creator->capacity(), 4096u);
  EXPECT_EQ(creator->name(), name);
  auto attacher = ShmRingChannel::attach(name);
  ASSERT_NE(attacher, nullptr);
  EXPECT_EQ(attacher->capacity(), 4096u);

  // creator -> attacher, then the reverse ring: the two directions are
  // independent SPSC rings in the same region.
  Frame received;
  ASSERT_TRUE(creator->send(make_frame(7, 48)));
  ASSERT_TRUE(attacher->receive(received, rtsj::RelativeTime::zero()));
  EXPECT_EQ(received.type, 7u);
  EXPECT_EQ(received.payload, make_frame(7, 48).payload);

  ASSERT_TRUE(attacher->send(make_frame(9, 0)));
  ASSERT_TRUE(creator->receive(received, rtsj::RelativeTime::zero()));
  EXPECT_EQ(received.type, 9u);
  EXPECT_TRUE(received.payload.empty());

  // An empty ring is a clean timeout, not an error.
  EXPECT_FALSE(creator->receive(received, rtsj::RelativeTime::zero()));
  EXPECT_TRUE(creator->open());

  // close() is observed by both endpoints through the region header.
  attacher->close();
  EXPECT_FALSE(attacher->open());
  EXPECT_FALSE(creator->open());
  EXPECT_FALSE(creator->send(make_frame(1, 8)));
}

TEST(ShmRingTest, AttachFailsWithoutARegion) {
  EXPECT_EQ(ShmRingChannel::attach(region_name("absent")), nullptr);
}

TEST(ShmRingTest, CreateFailsWhenTheNameExists) {
  const std::string name = region_name("exclusive");
  auto first = ShmRingChannel::create(name, 4096);
  ASSERT_NE(first, nullptr);
  // O_EXCL: the second creator must lose the race, never truncate a live
  // region under its peer.
  EXPECT_EQ(ShmRingChannel::create(name, 4096), nullptr);
}

TEST(ShmRingTest, WrapAroundPreservesFraming) {
  // A small ring forces the byte stream to wrap many times; every record
  // must still come out intact and in order (records split across the
  // wrap point are the case under test).
  const std::string name = region_name("wrap");
  auto creator = ShmRingChannel::create(name, 256);
  ASSERT_NE(creator, nullptr);
  auto attacher = ShmRingChannel::attach(name);
  ASSERT_NE(attacher, nullptr);

  Frame received;
  for (std::uint16_t i = 0; i < 200; ++i) {
    const std::size_t payload_bytes = (i * 7) % 49;
    ASSERT_TRUE(creator->send(make_frame(i, payload_bytes))) << "frame " << i;
    ASSERT_TRUE(
        attacher->receive(received, rtsj::RelativeTime::milliseconds(100)))
        << "frame " << i;
    EXPECT_EQ(received.type, i);
    ASSERT_EQ(received.payload.size(), payload_bytes) << "frame " << i;
    EXPECT_EQ(received.payload, make_frame(i, payload_bytes).payload)
        << "frame " << i;
  }
}

TEST(ShmRingTest, TornRecordSizeClosesTheChannel) {
  const std::string name = region_name("torn");
  auto creator = ShmRingChannel::create(name, 4096);
  ASSERT_NE(creator, nullptr);
  auto attacher = ShmRingChannel::attach(name);
  ASSERT_NE(attacher, nullptr);
  ASSERT_TRUE(creator->send(make_frame(7, 32)));

  // Stomp the pending record's u32 length (ring 0's data starts at the
  // fixed header offset) with an implausible value: the reader must treat
  // the stream as unrecoverable and close, exactly like the TCP
  // transport's framing-violation rule.
  {
    RawRegion raw(name);
    ASSERT_TRUE(raw.ok());
    raw.store_u32(ShmRingChannel::kHeaderBytes, 0xFFFFFFF0u);
  }
  Frame received;
  EXPECT_FALSE(attacher->receive(received, rtsj::RelativeTime::zero()));
  EXPECT_FALSE(attacher->open());
  EXPECT_FALSE(creator->open()) << "the close is region-wide";
}

TEST(ShmRingTest, ForeignWireVersionClosesTheChannel) {
  const std::string name = region_name("wire");
  auto creator = ShmRingChannel::create(name, 4096);
  ASSERT_NE(creator, nullptr);
  auto attacher = ShmRingChannel::attach(name);
  ASSERT_NE(attacher, nullptr);
  ASSERT_TRUE(creator->send(make_frame(7, 32)));

  // Rewrite the pending record's u16 wire version (right after its u32
  // length) as a peer built with another version would have written it.
  {
    RawRegion raw(name);
    ASSERT_TRUE(raw.ok());
    raw.store_u16(ShmRingChannel::kHeaderBytes + 4, kWireVersion + 1);
  }
  Frame received;
  EXPECT_FALSE(attacher->receive(received, rtsj::RelativeTime::zero()));
  EXPECT_FALSE(attacher->open());
  EXPECT_FALSE(creator->open()) << "the close is region-wide";
}

TEST(ShmRingTest, WrongLayoutVersionIsRejectedAtAttach) {
  const std::string name = region_name("layout");
  auto creator = ShmRingChannel::create(name, 4096);
  ASSERT_NE(creator, nullptr);
  {
    RawRegion raw(name);
    ASSERT_TRUE(raw.ok());
    raw.store_u32(8, ShmRingChannel::kLayoutVersion + 1);
  }
  EXPECT_EQ(ShmRingChannel::attach(name), nullptr);
}

TEST(ShmRingTest, FullRingSendFailsAfterTheStallBound) {
  // No reader ever drains: the ring fills, the sender spins out its
  // bounded stall, then fails and closes — a wedged co-located peer can
  // stall the executive for at most send_stall, never forever.
  const std::string name = region_name("stall");
  auto creator =
      ShmRingChannel::create(name, 128, rtsj::RelativeTime::milliseconds(20));
  ASSERT_NE(creator, nullptr);
  auto attacher = ShmRingChannel::attach(name);
  ASSERT_NE(attacher, nullptr);

  bool failed = false;
  for (int i = 0; i < 8 && !failed; ++i) {
    failed = !creator->send(make_frame(1, 24));
  }
  EXPECT_TRUE(failed) << "a 128-byte ring cannot absorb 8x32-byte records";
  EXPECT_FALSE(creator->open());
}

TEST(ShmRingTest, OversizeFrameIsRefused) {
  const std::string name = region_name("oversize");
  auto creator =
      ShmRingChannel::create(name, 128, rtsj::RelativeTime::milliseconds(20));
  ASSERT_NE(creator, nullptr);
  // A record larger than the whole ring can never fit; send must refuse
  // it without waiting for room that cannot appear.
  EXPECT_FALSE(creator->send(make_frame(1, 200)));
}

}  // namespace
}  // namespace rtcf::comm
