#include "sop/baselines/naive.h"

#include <utility>

#include "sop/common/check.h"
#include "sop/common/memory.h"
#include "sop/stream/window.h"

namespace sop {

NaiveDetector::NaiveDetector(const Workload& workload)
    : workload_(workload), buffer_(workload.window_type()) {
  const std::string problem = workload_.Validate();
  SOP_CHECK_MSG(problem.empty(), problem.c_str());
  query_dist_.reserve(workload_.num_queries());
  for (size_t i = 0; i < workload_.num_queries(); ++i) {
    query_dist_.push_back(workload_.MakeDistanceFn(i));
  }
  win_max_ = workload_.MaxWindow();
}

std::vector<QueryResult> NaiveDetector::Advance(std::vector<Point> batch,
                                                int64_t boundary) {
  for (Point& p : batch) buffer_.Append(std::move(p));
  buffer_.ExpireBefore(WindowStart(boundary, win_max_));

  std::vector<QueryResult> results;
  last_results_bytes_ = 0;
  Point point_s;  // scratch rows, reused across every pair
  Point point_t;
  for (size_t qi = 0; qi < workload_.num_queries(); ++qi) {
    const OutlierQuery& q = workload_.query(qi);
    if (!EmitsAt(boundary, q.slide)) continue;
    const DistanceFn& dist = query_dist_[qi];
    const int64_t start = WindowStart(boundary, q.win);
    const Seq window_begin = buffer_.LowerBoundKey(start);
    QueryResult result;
    result.query_index = qi;
    result.boundary = boundary;
    for (Seq s = window_begin; s < buffer_.next_seq(); ++s) {
      buffer_.Load(s, &point_s);
      int64_t neighbors = 0;
      for (Seq t = window_begin; t < buffer_.next_seq(); ++t) {
        if (t == s) continue;
        buffer_.Load(t, &point_t);
        if (dist(point_s, point_t) <= q.r && ++neighbors >= q.k) break;
      }
      if (neighbors < q.k) result.outliers.push_back(s);
    }
    last_results_bytes_ += VectorHeapBytes(result.outliers);
    results.push_back(std::move(result));
  }
  return results;
}

size_t NaiveDetector::MemoryBytes() const {
  // Naive keeps no per-point evidence; only the emitted outlier sets.
  return last_results_bytes_;
}

}  // namespace sop
