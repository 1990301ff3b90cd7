// Unit tests for sop/stream: window arithmetic, the sliding buffer, and
// sources.

#include <cstdint>
#include <vector>

#include "gtest/gtest.h"
#include "sop/stream/source.h"
#include "sop/stream/stream_buffer.h"
#include "sop/stream/window.h"
#include "test_util.h"

namespace sop {
namespace {

TEST(WindowTest, PointKeySelectsByType) {
  const Point p(7, 1234, {1.0});
  EXPECT_EQ(PointKey(p, WindowType::kCount), 7);
  EXPECT_EQ(PointKey(p, WindowType::kTime), 1234);
}

TEST(WindowTest, EmitsAt) {
  EXPECT_TRUE(EmitsAt(500, 500));
  EXPECT_TRUE(EmitsAt(1000, 500));
  EXPECT_FALSE(EmitsAt(750, 500));
  EXPECT_TRUE(EmitsAt(0, 500));
}

TEST(WindowTest, FirstBoundaryAtOrAfter) {
  EXPECT_EQ(FirstBoundaryAtOrAfter(0, 10), 0);
  EXPECT_EQ(FirstBoundaryAtOrAfter(1, 10), 10);
  EXPECT_EQ(FirstBoundaryAtOrAfter(10, 10), 10);
  EXPECT_EQ(FirstBoundaryAtOrAfter(11, 10), 20);
  EXPECT_EQ(FirstBoundaryAtOrAfter(-5, 10), 0);
  EXPECT_EQ(FirstBoundaryAtOrAfter(-10, 10), -10);
  EXPECT_EQ(FirstBoundaryAtOrAfter(-11, 10), -10);
}

TEST(StreamBufferTest, AppendAndAccess) {
  // Load hands back exactly the appended point: past the ring's initial
  // 64 slots, after expiry, across a growth that re-scatters a live range
  // straddling the ring seam, and after ResetTo — under both window types.
  for (const WindowType type : {WindowType::kCount, WindowType::kTime}) {
    SCOPED_TRACE(type == WindowType::kCount ? "count" : "time");
    StreamBuffer buffer(type);
    EXPECT_TRUE(buffer.empty());
    EXPECT_EQ(buffer.next_seq(), 0);
    std::vector<Point> appended;
    const auto append = [&](Seq first, Seq end) {
      for (Seq s = first; s < end; ++s) {
        const double x = static_cast<double>(s);
        appended.emplace_back(s, 100 + s / 3,
                              std::vector<double>{x, -0.5 * x, 1.0 / (x + 1)});
        buffer.Append(appended.back());
      }
    };
    Point got;  // one reused target: Load must overwrite every field
    const auto expect_loads = [&] {
      for (const Point& want : appended) {
        if (!buffer.Contains(want.seq)) continue;
        buffer.Load(want.seq, &got);
        EXPECT_EQ(got.seq, want.seq);
        EXPECT_EQ(got.time, want.time);
        EXPECT_EQ(got.values, want.values);
        EXPECT_EQ(buffer.KeyOf(want.seq), PointKey(want, type));
      }
    };

    append(0, 2);
    EXPECT_EQ(buffer.size(), 2u);
    EXPECT_TRUE(buffer.Contains(0));
    EXPECT_FALSE(buffer.Contains(2));
    expect_loads();
    const double* values = got.values.data();

    append(2, 150);  // the ring grows 64 -> 128 -> 256
    expect_loads();
    // Expire seqs [0, 90): key 90 by count, time 130 = 100 + 90 / 3.
    EXPECT_EQ(buffer.ExpireBefore(type == WindowType::kCount ? 90 : 130),
              90u);
    EXPECT_EQ(buffer.first_seq(), 90);
    append(150, 350);  // 260 alive: grows to 512 from a wrapped front
    EXPECT_EQ(buffer.size(), 260u);
    expect_loads();
    EXPECT_EQ(got.values.data(), values) << "Load reallocated its target";

    EXPECT_EQ(buffer.ExpireBefore(INT64_MAX), 260u);
    buffer.ResetTo(1000);
    EXPECT_EQ(buffer.next_seq(), 1000);
    appended.clear();
    append(1000, 1100);
    EXPECT_EQ(buffer.first_seq(), 1000);
    expect_loads();
  }
}

TEST(StreamBufferTest, ExpireBeforeCountKeys) {
  StreamBuffer buffer(WindowType::kCount);
  for (Seq s = 0; s < 10; ++s) buffer.Append(Point(s, s, {0.0}));
  EXPECT_EQ(buffer.ExpireBefore(4), 4u);
  EXPECT_EQ(buffer.first_seq(), 4);
  EXPECT_EQ(buffer.size(), 6u);
  EXPECT_FALSE(buffer.Contains(3));
  EXPECT_TRUE(buffer.Contains(4));
  // Expiry is monotone; asking again drops nothing.
  EXPECT_EQ(buffer.ExpireBefore(4), 0u);
}

TEST(StreamBufferTest, ExpireBeforeTimeKeys) {
  StreamBuffer buffer(WindowType::kTime);
  // Several points can share a timestamp.
  const Timestamp times[] = {10, 10, 12, 15, 15, 20};
  for (Seq s = 0; s < 6; ++s) buffer.Append(Point(s, times[s], {0.0}));
  EXPECT_EQ(buffer.ExpireBefore(12), 2u);
  EXPECT_EQ(buffer.first_seq(), 2);
  EXPECT_EQ(buffer.ExpireBefore(16), 3u);
  EXPECT_EQ(buffer.first_seq(), 5);
}

TEST(StreamBufferTest, LowerBoundKey) {
  StreamBuffer buffer(WindowType::kTime);
  const Timestamp times[] = {10, 10, 12, 15, 15, 20};
  for (Seq s = 0; s < 6; ++s) buffer.Append(Point(s, times[s], {0.0}));
  EXPECT_EQ(buffer.LowerBoundKey(5), 0);
  EXPECT_EQ(buffer.LowerBoundKey(10), 0);
  EXPECT_EQ(buffer.LowerBoundKey(11), 2);
  EXPECT_EQ(buffer.LowerBoundKey(15), 3);
  EXPECT_EQ(buffer.LowerBoundKey(21), 6);  // next_seq when none qualify
}

TEST(StreamBufferTest, MemoryBytesGrowsWithContent) {
  StreamBuffer buffer(WindowType::kCount);
  const size_t empty = buffer.MemoryBytes();
  for (Seq s = 0; s < 100; ++s)
    buffer.Append(Point(s, s, {1.0, 2.0, 3.0, 4.0}));
  EXPECT_GT(buffer.MemoryBytes(), empty);
}

TEST(VectorSourceTest, YieldsAllPointsThenStops) {
  VectorSource source(testing::Points1D({1.0, 2.0, 3.0}));
  Point p;
  int count = 0;
  while (source.Next(&p)) ++count;
  EXPECT_EQ(count, 3);
  EXPECT_FALSE(source.Next(&p));
}

}  // namespace
}  // namespace sop
