#include "sop/core/sop_detector.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "sop/common/check.h"
#include "sop/common/memory.h"
#include "sop/obs/trace.h"
#include "sop/stream/window.h"

namespace sop {

SopDetector::SopDetector(const Workload& workload, Options options)
    : plan_(workload, options.headroom),
      options_(options),
      ksky_(&plan_, workload.MakeDistanceFn(0), options.ksky),
      buffer_(workload.window_type()) {
  emit_counts_.Reset(plan_.num_layers());
  if (options_.use_grid_index) {
    grid_ = std::make_unique<GridIndex>(
        workload.MakeDistanceFn(0),
        plan_.r_min() * options_.grid_cell_factor);
  }
}

bool SopDetector::ApplyWorkload(Workload next) {
  // ApplyOverlay refuses anything but an overlay-only change, so the
  // skybands, safety flags and buffer stay valid evidence for `next`.
  if (!plan_.ApplyOverlay(std::move(next))) return false;
  ++stats_.overlay_swaps;
  SOP_COUNTER_ADD("sop/overlay_swaps", 1);
  return true;
}

std::vector<QueryResult> SopDetector::Advance(std::vector<Point> batch,
                                              int64_t boundary) {
  // Boundaries come from the driver at the workload-wide slide gcd. When
  // this detector is a multi-attribute child, that gcd may be finer than
  // this plan's own slide gcd; processing extra boundaries is correct
  // (EmitsAt gates emissions per query), just extra work.
  SOP_CHECK_MSG(boundary > last_boundary_, "boundaries must increase");
  last_boundary_ = boundary;

  // The first batch may start mid-stream (history replay after trimming,
  // see SopSession); the buffer re-bases on it.
  for (Point& p : batch) {
    if (grid_ != nullptr) grid_->Insert(p.seq, p);
    buffer_.Append(std::move(p));
    states_.emplace_back();
  }
  const Seq first_new_seq = buffer_.next_seq() - static_cast<Seq>(batch.size());

  // Slide the swift window.
  const int64_t swift_start = WindowStart(boundary, plan_.win_max());
  if (grid_ != nullptr) {
    // The arrivals are indexed; un-index everything expiring — including
    // arrivals that never make it into the window — while the coordinates
    // are still alive in the buffer.
    const Seq expire_end = buffer_.LowerBoundKey(swift_start);
    for (Seq s = buffer_.first_seq(); s < expire_end; ++s) {
      buffer_.Load(s, &scratch_point_);
      grid_->Remove(s, scratch_point_);
    }
  }
  const size_t dropped = buffer_.ExpireBefore(swift_start);
  for (size_t i = 0; i < dropped; ++i) states_.pop_front();

  // One K-SKY scan per alive, non-safe point (Alg. 3). Safe points are
  // inliers for every query forever, so only the others can ever be
  // reported — collect them for the emission sweep.
  nonsafe_seqs_.clear();
  for (Seq s = buffer_.first_seq(); s < buffer_.next_seq(); ++s) {
    PointState& st = StateOf(s);
    if (options_.safe_inlier_pruning && st.safe) continue;
    buffer_.Load(s, &scratch_point_);
    const std::vector<Seq>* candidates = nullptr;
    if (grid_ != nullptr) {
      // Index-assisted candidate enumeration: everything within r_max is
      // in the superset, so K-SKY's scan — restricted to newest-first
      // order — builds the identical skyband (see ksky.h).
      grid_->CollectCandidates(scratch_point_, plan_.r_max(),
                               &grid_candidates_);
      std::sort(grid_candidates_.begin(), grid_candidates_.end(),
                std::greater<Seq>());
      // p indexes itself; drop it from its own candidate list.
      const auto self = std::lower_bound(grid_candidates_.begin(),
                                         grid_candidates_.end(), s,
                                         std::greater<Seq>());
      if (self != grid_candidates_.end() && *self == s) {
        grid_candidates_.erase(self);
      }
      candidates = &grid_candidates_;
    }
    const bool safe =
        ksky_.EvaluatePoint(scratch_point_, buffer_, first_new_seq,
                            swift_start, /*from_scratch=*/!st.evaluated,
                            &st.skyband, candidates);
    st.evaluated = true;
    ++stats_.ksky_scans;
    stats_.distances_computed += ksky_.last_stats().distances_computed;
    stats_.candidates_examined += ksky_.last_stats().candidates_examined;
    stats_.early_terminations += ksky_.last_stats().terminated_early ? 1 : 0;
    if (safe && options_.safe_inlier_pruning) {
      st.safe = true;
      st.skyband.Release();
      ++stats_.safe_points_discovered;
      SOP_COUNTER_ADD("sop/safe_points_discovered", 1);
      continue;
    }
    nonsafe_seqs_.push_back(s);
  }
  if (SOP_OBS_ENABLED()) {
    SOP_COUNTER_ADD("sop/batches", 1);
    SOP_GAUGE_SET("sop/alive_points",
                  buffer_.next_seq() - buffer_.first_seq());
    SOP_GAUGE_SET("sop/nonsafe_points", nonsafe_seqs_.size());
  }

  // Emissions. Every due query classifies each non-safe point in its
  // window with a thresholded skyband count (the generalized Lemma-3
  // test, see ksky.h). Queries are swept in ascending window size so one
  // newest-first pass over a point's skyband serves all of them: each
  // query's window adds a batch of older entries into the layer table and
  // reads one prefix sum.
  std::vector<QueryResult> results;
  last_results_bytes_ = 0;
  const auto& queries = plan_.workload().queries();
  emitting_.clear();
  for (size_t qi : plan_.queries_by_window()) {
    if (!EmitsAt(boundary, queries[qi].slide)) continue;
    EmittingQuery eq;
    eq.query_index = qi;
    eq.start = WindowStart(boundary, queries[qi].win);
    eq.layer = plan_.layer_of_query(qi);
    eq.k = queries[qi].k;
    eq.result_slot = results.size();
    QueryResult result;
    result.query_index = qi;
    result.boundary = boundary;
    results.push_back(std::move(result));
    emitting_.push_back(eq);
  }
  if (emitting_.empty()) return results;

  for (const Seq s : nonsafe_seqs_) {
    const PointState& st = StateOf(s);
    const int64_t key = buffer_.KeyOf(s);
    const auto& entries = st.skyband.entries();
    size_t added = 0;
    for (const EmittingQuery& eq : emitting_) {
      if (eq.start > key) continue;  // point not in this query's window
      while (added < entries.size() && entries[added].key >= eq.start) {
        emit_counts_.Add(entries[added].layer, 1);
        ++added;
      }
      if (emit_counts_.PrefixSum(eq.layer) < eq.k) {
        results[eq.result_slot].outliers.push_back(s);
      }
    }
    // Zero the table for the next point by undoing this point's inserts.
    for (size_t i = 0; i < added; ++i) {
      emit_counts_.Add(entries[i].layer, -1);
    }
  }

  std::sort(results.begin(), results.end(),
            [](const QueryResult& a, const QueryResult& b) {
              return a.query_index < b.query_index;
            });
  for (const QueryResult& r : results) {
    last_results_bytes_ += VectorHeapBytes(r.outliers);
  }
  return results;
}

size_t SopDetector::MemoryBytes() const {
  size_t bytes = DequeHeapBytes(states_) + last_results_bytes_;
  if (grid_ != nullptr) bytes += grid_->MemoryBytes();
  for (const PointState& st : states_) bytes += st.skyband.MemoryBytes();
  return bytes;
}

}  // namespace sop
