#include "sim/bus.h"

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "sim/platform.h"

namespace nfp::sim {
namespace {

TEST(Bus, BigEndianWordAccess) {
  Bus bus;
  bus.store32(kRamBase, 0x11223344u);
  EXPECT_EQ(bus.load8(kRamBase), 0x11);
  EXPECT_EQ(bus.load8(kRamBase + 3), 0x44);
  EXPECT_EQ(bus.load16(kRamBase), 0x1122);
  EXPECT_EQ(bus.load16(kRamBase + 2), 0x3344);
  EXPECT_EQ(bus.load32(kRamBase), 0x11223344u);
}

TEST(Bus, DoubleRoundTrip) {
  Bus bus;
  bus.write_f64(kRamBase + 64, -3.25);
  EXPECT_EQ(bus.read_f64(kRamBase + 64), -3.25);
  // High word first (big-endian doubles).
  EXPECT_EQ(bus.load32(kRamBase + 64) >> 31, 1u);  // sign bit in first word
}

TEST(Bus, BlockTransfer) {
  Bus bus;
  const std::vector<std::uint8_t> data = {1, 2, 3, 4, 5};
  bus.write_block(kInputBase, data.data(), data.size());
  EXPECT_EQ(bus.read_block(kInputBase, 5), data);
}

TEST(Bus, UartCollectsOutput) {
  Bus bus;
  bus.store32(kUartTx, 'o');
  bus.store32(kUartTx, 'k');
  EXPECT_EQ(bus.uart_output(), "ok");
  bus.clear_uart();
  EXPECT_TRUE(bus.uart_output().empty());
}

TEST(Bus, TimerUsesTimeSource) {
  Bus bus;
  std::uint64_t now = 0x1'2345'6789ull;
  bus.set_time_source([&now] { return now; });
  EXPECT_EQ(bus.load32(kTimerLo), 0x23456789u);
  EXPECT_EQ(bus.load32(kTimerHi), 1u);
}

TEST(Bus, OutOfRangeAccessThrows) {
  Bus bus;
  EXPECT_THROW(bus.load32(0x10000000u), SimError);
  EXPECT_THROW(bus.store32(0x90000000u, 1), SimError);
  EXPECT_THROW(bus.write_block(kRamEnd - 2, nullptr, 4), SimError);
}

#if defined(__linux__)
// Resident set size of this process in KiB, from /proc/self/status.
long vm_rss_kib() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmRSS:") {
      long kib = 0;
      status >> kib;
      return kib;
    }
    status.ignore(1 << 16, '\n');
  }
  return -1;
}

TEST(Bus, GuestRamIsNotResidentUntilTouched) {
  // Eager zero-fill made each platform's 16 MiB resident at construction
  // (128 MiB for these eight); lazily zeroed pages cost nothing until used.
  const long before = vm_rss_kib();
  ASSERT_GT(before, 0);
  std::vector<std::unique_ptr<Platform>> platforms;
  for (int i = 0; i < 8; ++i) platforms.push_back(std::make_unique<Platform>());
  const long rise = vm_rss_kib() - before;
  EXPECT_LT(rise, 16 * 1024) << "VmRSS rose by " << rise << " KiB";
  for (auto& p : platforms) {
    p->bus().store32(kInputBase, 1);
    EXPECT_EQ(p->bus().load32(kInputBase + 4096), 0u);
  }
}
#endif

}  // namespace
}  // namespace nfp::sim
