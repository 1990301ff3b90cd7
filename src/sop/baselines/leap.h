// LEAP baseline: reimplementation of the state-of-the-art *single-query*
// streaming distance-based outlier detector (Cao et al., "Scalable
// distance-based outlier detection over high-volume data streams",
// ICDE 2014 — reference [7] of the SOP paper), applied independently per
// query, exactly as the SOP paper's multi-query LEAP baseline does.
//
// Per query and per alive point, LEAP keeps *minimal probing* evidence:
// the count of succeeding neighbors found so far (they never expire before
// the point), the unexpired preceding neighbors found so far, and the
// contiguous probed region. Probing is *lifespan-aware*: new arrivals
// (succeeding, immortal evidence) are probed before older points, and the
// scan stops as soon as k pieces of evidence exist. A point with k
// succeeding neighbors is a safe inlier and is never probed again.
//
// Because evidence is per query, CPU and memory grow linearly with the
// workload size — the scaling wall the SOP paper demonstrates.

#ifndef SOP_BASELINES_LEAP_H_
#define SOP_BASELINES_LEAP_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "sop/common/dist_kernel.h"
#include "sop/common/distance.h"
#include "sop/detector/detector.h"
#include "sop/stream/stream_buffer.h"

namespace sop {

class LeapDetector : public OutlierDetector {
 public:
  /// Cumulative probing counters (exposed for tests and benches).
  struct Stats {
    int64_t distances_computed = 0;
    int64_t points_evaluated = 0;
    int64_t safe_points_discovered = 0;
  };

  explicit LeapDetector(const Workload& workload);

  const char* name() const override { return "leap"; }
  const Stats& stats() const { return stats_; }
  std::vector<QueryResult> Advance(std::vector<Point> batch,
                                   int64_t boundary) override;
  size_t MemoryBytes() const override;

 private:
  // Probing evidence of one point for one query.
  struct Evidence {
    int64_t succ_count = 0;
    // Probed region is [left_cursor, right_cursor); initialized to the
    // point's own singleton {seq}.
    Seq left_cursor = 0;
    Seq right_cursor = 0;
    bool safe = false;
    // Keys of found preceding neighbors, descending (newest first);
    // expired entries pop from the back.
    std::vector<int64_t> pred_keys;
  };

  // One independent LEAP instance.
  struct QueryState {
    OutlierQuery query;
    DistanceFn dist;
    DistanceKernel kernel;           // batch form of dist (own subspace)
    Seq first_seq = 0;               // seq of evidence.front()
    std::deque<Evidence> evidence;   // per point inside the query's window
  };

  // Classifies point `s` for `qs`'s window [start, boundary), probing as
  // needed. Returns true iff outlier.
  bool EvaluatePoint(QueryState& qs, Seq s, Seq window_begin, int64_t start);

  Workload workload_;
  StreamBuffer buffer_;
  int64_t win_max_ = 0;
  std::vector<QueryState> states_;
  Stats stats_;
  Stats obs_reported_;  // stats_ values already published to obs counters
  // Cumulative kernel telemetry, diffed into the kernel/* counters once
  // per Advance like stats_ (EvaluatePoint is too hot to instrument per
  // probe block).
  uint64_t kernel_batches_ = 0;
  uint64_t kernel_candidates_ = 0;
  uint64_t kernel_hits_ = 0;
  uint64_t reported_kernel_batches_ = 0;
  uint64_t reported_kernel_candidates_ = 0;
  uint64_t reported_kernel_hits_ = 0;
  std::vector<double> probe_dists_;  // per-block kernel output
  Point probe_point_;  // buffer_.Load target, reused across points
  size_t last_results_bytes_ = 0;
};

}  // namespace sop

#endif  // SOP_BASELINES_LEAP_H_
