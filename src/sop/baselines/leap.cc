#include "sop/baselines/leap.h"

#include <algorithm>
#include <utility>

#include "sop/common/check.h"
#include "sop/common/memory.h"
#include "sop/obs/trace.h"
#include "sop/stream/window.h"

namespace sop {

namespace {
// Cursor probes run through the batch kernel in blocks of this many
// points. Smaller than K-SKY's confirmation block: a LEAP probe often
// stops after ~k successes, so a large block would mostly compute
// distances the minimal-probing cursor never consumes.
constexpr size_t kProbeBlock = 32;
}  // namespace

LeapDetector::LeapDetector(const Workload& workload)
    : workload_(workload), buffer_(workload.window_type()) {
  const std::string problem = workload_.Validate();
  SOP_CHECK_MSG(problem.empty(), problem.c_str());
  win_max_ = workload_.MaxWindow();
  states_.reserve(workload_.num_queries());
  for (size_t i = 0; i < workload_.num_queries(); ++i) {
    DistanceFn dist = workload_.MakeDistanceFn(i);
    DistanceKernel kernel = dist.MakeKernel();
    states_.push_back(QueryState{workload_.query(i),
                                 std::move(dist),
                                 std::move(kernel),
                                 /*first_seq=*/0,
                                 {}});
  }
  probe_dists_.resize(kProbeBlock);
}

std::vector<QueryResult> LeapDetector::Advance(std::vector<Point> batch,
                                               int64_t boundary) {
  // The buffer re-bases on a mid-stream first batch (a resumed run).
  for (Point& p : batch) buffer_.Append(std::move(p));
  const Seq first_new_seq = buffer_.next_seq() - static_cast<Seq>(batch.size());
  buffer_.ExpireBefore(WindowStart(boundary, win_max_));

  std::vector<QueryResult> results;
  last_results_bytes_ = 0;
  for (size_t qi = 0; qi < states_.size(); ++qi) {
    QueryState& qs = states_[qi];
    // Grow evidence for the new arrivals.
    if (qs.evidence.empty()) qs.first_seq = first_new_seq;
    for (Seq s = std::max(first_new_seq,
                          qs.first_seq + static_cast<Seq>(qs.evidence.size()));
         s < buffer_.next_seq(); ++s) {
      Evidence e;
      e.left_cursor = s;
      e.right_cursor = s + 1;
      qs.evidence.push_back(std::move(e));
    }
    // Shrink evidence to this query's own window: points below
    // boundary - win can never re-enter it.
    const int64_t q_start = WindowStart(boundary, qs.query.win);
    while (!qs.evidence.empty() &&
           (qs.first_seq < buffer_.first_seq() ||
            buffer_.KeyOf(qs.first_seq) < q_start)) {
      qs.evidence.pop_front();
      ++qs.first_seq;
    }

    if (!EmitsAt(boundary, qs.query.slide)) continue;
    QueryResult result;
    result.query_index = qi;
    result.boundary = boundary;
    const Seq window_begin = buffer_.LowerBoundKey(q_start);
    for (Seq s = window_begin; s < buffer_.next_seq(); ++s) {
      if (EvaluatePoint(qs, s, window_begin, q_start)) {
        result.outliers.push_back(s);
      }
    }
    last_results_bytes_ += VectorHeapBytes(result.outliers);
    results.push_back(std::move(result));
  }
  // Publish this batch's probing-cost deltas. EvaluatePoint is far too hot
  // to instrument per probe; the cumulative Stats are diffed here instead.
  if (SOP_OBS_ENABLED()) {
    SOP_COUNTER_ADD("leap/distances_computed",
                    stats_.distances_computed - obs_reported_.distances_computed);
    SOP_COUNTER_ADD("leap/points_evaluated",
                    stats_.points_evaluated - obs_reported_.points_evaluated);
    SOP_COUNTER_ADD(
        "leap/safe_points_discovered",
        stats_.safe_points_discovered - obs_reported_.safe_points_discovered);
    SOP_GAUGE_SET("leap/alive_points",
                  buffer_.next_seq() - buffer_.first_seq());
    SOP_COUNTER_ADD("kernel/batches", kernel_batches_ - reported_kernel_batches_);
    SOP_COUNTER_ADD("kernel/candidates",
                    kernel_candidates_ - reported_kernel_candidates_);
    SOP_COUNTER_ADD("kernel/hits", kernel_hits_ - reported_kernel_hits_);
    obs_reported_ = stats_;
    reported_kernel_batches_ = kernel_batches_;
    reported_kernel_candidates_ = kernel_candidates_;
    reported_kernel_hits_ = kernel_hits_;
  }
  return results;
}

bool LeapDetector::EvaluatePoint(QueryState& qs, Seq s, Seq window_begin,
                                 int64_t start) {
  Evidence& e = qs.evidence[static_cast<size_t>(s - qs.first_seq)];
  const int64_t k = qs.query.k;
  ++stats_.points_evaluated;
  if (e.safe) return false;
  if (e.succ_count >= k) {
    // Safe inlier: k neighbors that outlive the point. Evidence beyond the
    // flag is no longer needed.
    e.safe = true;
    e.pred_keys.clear();
    e.pred_keys.shrink_to_fit();
    return false;
  }
  // Drop expired preceding evidence (descending keys: expired at the back).
  while (!e.pred_keys.empty() && e.pred_keys.back() < start) {
    e.pred_keys.pop_back();
  }
  int64_t total = e.succ_count + static_cast<int64_t>(e.pred_keys.size());
  buffer_.Load(s, &probe_point_);
  const Point& p = probe_point_;
  const double r = qs.query.r;
  // Probe the new (succeeding) side first — lifespan-aware prioritization:
  // succeeding evidence never expires while p is alive. Distances come
  // from the batch kernel, kProbeBlock contiguous points per call; the
  // cursor consumes them in the same order — and stops at the same point —
  // as the old per-pair probe, so evidence and stats are unchanged.
  const ColumnStore& cols = buffer_.columns();
  Seq t = e.right_cursor;
  while (total < k && t < buffer_.next_seq()) {
    const size_t nb = std::min(
        kProbeBlock, static_cast<size_t>(buffer_.next_seq() - t));
    qs.kernel.BatchDistRange(cols, p, t, nb, probe_dists_.data());
    ++kernel_batches_;
    kernel_candidates_ += nb;
    size_t j = 0;
    for (; j < nb && total < k; ++j) {
      ++stats_.distances_computed;
      if (probe_dists_[j] <= r) {
        ++e.succ_count;
        ++total;
        ++kernel_hits_;
      }
    }
    t += static_cast<Seq>(j);
  }
  e.right_cursor = t;
  // Then resume the backward scan over older in-window points.
  Seq u = e.left_cursor - 1;
  while (total < k && u >= window_begin) {
    const Seq block_lo =
        std::max(window_begin, u - static_cast<Seq>(kProbeBlock) + 1);
    const size_t nb = static_cast<size_t>(u - block_lo + 1);
    qs.kernel.BatchDistRange(cols, p, block_lo, nb, probe_dists_.data());
    ++kernel_batches_;
    kernel_candidates_ += nb;
    while (u >= block_lo && total < k) {
      ++stats_.distances_computed;
      if (probe_dists_[static_cast<size_t>(u - block_lo)] <= r) {
        e.pred_keys.push_back(buffer_.KeyOf(u));
        ++total;
        ++kernel_hits_;
      }
      --u;
    }
  }
  e.left_cursor = u + 1;
  if (e.succ_count >= k) {
    e.safe = true;
    e.pred_keys.clear();
    e.pred_keys.shrink_to_fit();
    ++stats_.safe_points_discovered;
  }
  return total < k;
}

size_t LeapDetector::MemoryBytes() const {
  size_t bytes = last_results_bytes_;
  for (const QueryState& qs : states_) {
    bytes += DequeHeapBytes(qs.evidence);
    for (const Evidence& e : qs.evidence) bytes += VectorHeapBytes(e.pred_keys);
  }
  return bytes;
}

}  // namespace sop
