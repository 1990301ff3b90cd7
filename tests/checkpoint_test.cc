// Tests for SopDetector checkpoint save/restore.

#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "sop/common/frame.h"
#include "sop/common/random.h"
#include "sop/common/serialize.h"
#include "sop/core/sop_detector.h"
#include "test_util.h"

namespace sop {
namespace {

using testing::ResultToString;

Workload TestWorkload(WindowType type = WindowType::kCount) {
  Workload w(type);
  w.AddQuery(OutlierQuery(1.0, 2, 16, 4));
  w.AddQuery(OutlierQuery(2.5, 4, 24, 8));
  w.AddQuery(OutlierQuery(1.5, 3, 8, 4));
  return w;
}

std::vector<Point> TestStream(int64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Point> points;
  for (Seq s = 0; s < n; ++s) {
    const double v = rng.Bernoulli(0.2) ? rng.UniformDouble(0, 30)
                                        : rng.Normal(10, 0.8);
    points.emplace_back(s, s, std::vector<double>{v});
  }
  return points;
}

// Advances `detector` over batches [from_batch, to_batch) of `points`
// (batch span = slide gcd), appending emissions to `out`.
void Drive(SopDetector* detector, const std::vector<Point>& points,
           int64_t batch_span, int64_t from_batch, int64_t to_batch,
           std::vector<QueryResult>* out) {
  for (int64_t b = from_batch; b < to_batch; ++b) {
    std::vector<Point> batch(
        points.begin() + static_cast<size_t>(b * batch_span),
        points.begin() + static_cast<size_t>((b + 1) * batch_span));
    std::vector<QueryResult> results =
        detector->Advance(std::move(batch), (b + 1) * batch_span);
    if (out != nullptr) {
      out->insert(out->end(), results.begin(), results.end());
    }
  }
}

TEST(CheckpointTest, RestoredDetectorContinuesIdentically) {
  const Workload w = TestWorkload();
  const int64_t span = w.SlideGcd();
  const std::vector<Point> points = TestStream(96, 11);
  const int64_t total_batches = static_cast<int64_t>(points.size()) / span;
  const int64_t half = total_batches / 2;

  // Reference: one detector over the whole stream.
  SopDetector reference(w);
  std::vector<QueryResult> expected;
  Drive(&reference, points, span, 0, total_batches, &expected);

  // Checkpointed: run half, save, restore into a new detector, finish.
  SopDetector first_half(w);
  std::vector<QueryResult> actual;
  Drive(&first_half, points, span, 0, half, &actual);
  const std::string blob = first_half.SaveState();

  SopDetector second_half(w);
  ASSERT_TRUE(second_half.LoadState(blob));
  Drive(&second_half, points, span, half, total_batches, &actual);

  ASSERT_EQ(expected.size(), actual.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].query_index, actual[i].query_index);
    EXPECT_EQ(expected[i].boundary, actual[i].boundary);
    EXPECT_EQ(expected[i].outliers, actual[i].outliers)
        << ResultToString(expected[i]) << " vs " << ResultToString(actual[i]);
  }
  // Internal state carried over: safety flags and counters.
  EXPECT_EQ(second_half.stats().ksky_scans, reference.stats().ksky_scans);
  EXPECT_EQ(second_half.stats().safe_points_discovered,
            reference.stats().safe_points_discovered);
}

TEST(CheckpointTest, RoundTripPreservesEvidence) {
  const Workload w = TestWorkload();
  const int64_t span = w.SlideGcd();
  const std::vector<Point> points = TestStream(48, 3);
  SopDetector original(w);
  Drive(&original, points, span, 0,
        static_cast<int64_t>(points.size()) / span, nullptr);

  SopDetector restored(w);
  ASSERT_TRUE(restored.LoadState(original.SaveState()));
  for (Seq s = 0; s < static_cast<Seq>(points.size()); ++s) {
    ASSERT_EQ(original.IsAliveForTesting(s), restored.IsAliveForTesting(s));
    if (!original.IsAliveForTesting(s)) continue;
    EXPECT_EQ(original.IsSafeForTesting(s), restored.IsSafeForTesting(s));
    EXPECT_EQ(original.SkybandForTesting(s).entries(),
              restored.SkybandForTesting(s).entries());
  }
  // A restored detector's own checkpoint is byte-identical.
  EXPECT_EQ(original.SaveState(), restored.SaveState());
}

TEST(CheckpointTest, RoundTripIsByteIdenticalAcrossWindowsAndIndex) {
  // Save mid-stream, restore, and the restored detector's checkpoint is
  // the same bytes — both right away and after both detectors finish the
  // stream with identical emissions (the grid is rebuilt from the
  // restored window's columns).
  for (const WindowType type : {WindowType::kCount, WindowType::kTime}) {
    for (const bool grid : {false, true}) {
      SCOPED_TRACE(std::string(type == WindowType::kCount ? "count" : "time") +
                   (grid ? " grid" : " scan"));
      const Workload w = TestWorkload(type);
      SopDetector::Options options;
      options.use_grid_index = grid;
      const int64_t span = w.SlideGcd();
      const std::vector<Point> points = TestStream(96, 17);
      const int64_t batches = static_cast<int64_t>(points.size()) / span;
      SopDetector original(w, options);
      Drive(&original, points, span, 0, batches / 2, nullptr);
      const std::string blob = original.SaveState();

      SopDetector restored(w, options);
      ASSERT_TRUE(restored.LoadState(blob));
      EXPECT_EQ(restored.SaveState(), blob);
      std::vector<QueryResult> want;
      std::vector<QueryResult> got;
      Drive(&original, points, span, batches / 2, batches, &want);
      Drive(&restored, points, span, batches / 2, batches, &got);
      ASSERT_EQ(want.size(), got.size());
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(want[i].outliers, got[i].outliers) << ResultToString(want[i]);
      }
      EXPECT_EQ(restored.SaveState(), original.SaveState());
    }
  }
}

// The checkpoint encoding of one 1-d window point: time, dims, value.
std::string PointBytes(const Point& p) {
  BinaryWriter w;
  w.WriteI64(p.time);
  w.WriteU32(1);
  w.WriteDouble(p.values[0]);
  return w.TakeBytes();
}

// A copy of `blob` whose encoding of window point `p` is replaced by
// `replacement`, re-framed so only the payload's meaning changes.
std::string PatchPoint(const std::string& blob, const Point& p,
                       const std::string& replacement) {
  std::string_view view;
  EXPECT_TRUE(UnwrapFrame(blob, &view));
  std::string payload(view);
  const std::string old = PointBytes(p);
  const size_t at = payload.find(old);
  EXPECT_NE(at, std::string::npos);
  EXPECT_EQ(payload.find(old, at + 1), std::string::npos);
  payload.replace(at, old.size(), replacement);
  return WrapFrame(payload);
}

TEST(CheckpointTest, RefusesMisshapenWindowPoints) {
  const std::vector<Point> points = TestStream(48, 5);
  for (const WindowType type : {WindowType::kCount, WindowType::kTime}) {
    const Workload w = TestWorkload(type);
    SopDetector original(w);
    Drive(&original, points, w.SlideGcd(), 0, 12, nullptr);
    const std::string blob = original.SaveState();
    Seq first = 0;
    while (!original.IsAliveForTesting(first)) ++first;
    const Point& second = points[static_cast<size_t>(first + 1)];

    // A second attribute on the second window point.
    BinaryWriter wider;
    wider.WriteI64(second.time);
    wider.WriteU32(2);
    wider.WriteDouble(second.values[0]);
    wider.WriteDouble(0.0);
    std::string error;
    {
      SopDetector d(w);
      EXPECT_FALSE(d.LoadState(PatchPoint(blob, second, wider.bytes()),
                               &error));
      EXPECT_NE(error.find("2 attributes, the stream has 1"), std::string::npos)
          << error;
    }

    // The second window point's time before the first's: corrupt under a
    // time window, whose keys are times; meaningless under a count window.
    Point earlier = second;
    earlier.time = points[static_cast<size_t>(first)].time - 1;
    SopDetector d(w);
    const bool loaded =
        d.LoadState(PatchPoint(blob, second, PointBytes(earlier)), &error);
    if (type == WindowType::kTime) {
      EXPECT_FALSE(loaded);
      EXPECT_NE(error.find("precedes"), std::string::npos) << error;
    } else {
      EXPECT_TRUE(loaded) << error;
    }
  }
}

TEST(CheckpointTest, RejectsCorruptedBlobs) {
  const Workload w = TestWorkload();
  SopDetector original(w);
  Drive(&original, TestStream(48, 5), w.SlideGcd(), 0, 12, nullptr);
  const std::string blob = original.SaveState();

  {
    SopDetector d(w);
    EXPECT_FALSE(d.LoadState(""));
  }
  {
    SopDetector d(w);
    EXPECT_FALSE(d.LoadState(std::string_view(blob).substr(0, 16)));
  }
  {
    std::string truncated = blob.substr(0, blob.size() - 3);
    SopDetector d(w);
    EXPECT_FALSE(d.LoadState(truncated));
  }
  {
    std::string extra = blob + "x";
    SopDetector d(w);
    EXPECT_FALSE(d.LoadState(extra));
  }
  {
    std::string bad_magic = blob;
    bad_magic[0] = static_cast<char>(~bad_magic[0]);
    SopDetector d(w);
    EXPECT_FALSE(d.LoadState(bad_magic));
  }
}

TEST(CheckpointTest, RejectsDifferentWorkload) {
  const Workload w = TestWorkload();
  SopDetector original(w);
  Drive(&original, TestStream(48, 7), w.SlideGcd(), 0, 12, nullptr);
  const std::string blob = original.SaveState();

  Workload other = TestWorkload();
  other.AddQuery(OutlierQuery(3.0, 5, 16, 4));
  SopDetector d(other);
  EXPECT_FALSE(d.LoadState(blob));
}

TEST(CheckpointTest, FingerprintDistinguishesWorkloads) {
  const Workload a = TestWorkload();
  Workload b = TestWorkload();
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
  b.AddQuery(OutlierQuery(9.0, 2, 8, 4));
  EXPECT_NE(a.Fingerprint(), b.Fingerprint());
  Workload c(WindowType::kTime);
  c.AddQuery(a.query(0));
  c.AddQuery(a.query(1));
  c.AddQuery(a.query(2));
  EXPECT_NE(a.Fingerprint(), c.Fingerprint());
}

}  // namespace
}  // namespace sop
