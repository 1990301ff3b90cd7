#include "sop/baselines/mcod.h"

#include <algorithm>
#include <utility>

#include "sop/common/check.h"
#include "sop/common/memory.h"
#include "sop/obs/trace.h"
#include "sop/stream/window.h"

namespace sop {

void McodDetector::NeighborList::ExpireBefore(int64_t min_key) {
  while (head < items.size() && items[head].key < min_key) ++head;
  // Compact once the dead prefix dominates, to bound memory.
  if (head > 64 && head * 2 > items.size()) {
    items.erase(items.begin(), items.begin() + static_cast<long>(head));
    head = 0;
  }
}

int64_t McodDetector::NeighborList::CountWithin(double r, int64_t min_key,
                                                int64_t stop_at) const {
  // Keys ascend, so in-window entries form a suffix: scan newest-first
  // with early exit.
  int64_t count = 0;
  for (size_t i = items.size(); i > head; --i) {
    const Neighbor& n = items[i - 1];
    if (n.key < min_key) break;
    if (n.dist <= r) {
      if (++count >= stop_at) break;
    }
  }
  return count;
}

size_t McodDetector::NeighborList::MemoryBytes() const {
  return VectorHeapBytes(items);
}

McodDetector::McodDetector(const Workload& workload, Options options)
    : workload_(workload),
      options_(options),
      dist_(workload.MakeDistanceFn(0)),
      kernel_(dist_.MakeKernel()),
      buffer_(workload.window_type()) {
  const std::string problem = workload_.Validate();
  SOP_CHECK_MSG(problem.empty(), problem.c_str());
  for (size_t i = 0; i < workload_.num_queries(); ++i) {
    SOP_CHECK_MSG(workload_.query(i).attribute_set ==
                      workload_.query(0).attribute_set,
                  "McodDetector requires a single attribute set; use "
                  "MultiAttributeDetector for mixed workloads");
  }
  r_min_ = workload_.query(0).r;
  r_max_ = workload_.query(0).r;
  for (const OutlierQuery& q : workload_.queries()) {
    r_min_ = std::min(r_min_, q.r);
    r_max_ = std::max(r_max_, q.r);
  }
  k_max_ = workload_.MaxK();
  win_max_ = workload_.MaxWindow();
  if (options_.use_grid_index) {
    grid_ = std::make_unique<GridIndex>(dist_,
                                        r_min_ * options_.grid_cell_factor);
  }
}

void McodDetector::InsertPoint(Seq s) {
  buffer_.Load(s, &scratch_point_);
  const Point& p = scratch_point_;
  const int64_t p_key = buffer_.KeyOf(s);
  PointState& ps = StateOf(s);

  // The full range scan over older alive points: retain every neighbor any
  // query could use, symmetrically; collect micro-cluster candidates.
  const double cluster_radius = r_min_ / 2.0;
  scratch_close_.clear();
  auto consider = [&](Seq t, double d) {
    PointState& ts = StateOf(t);
    ps.list.Append({buffer_.KeyOf(t), d});
    ts.list.Append({p_key, d});
    if (d <= cluster_radius && ts.cluster < 0) scratch_close_.push_back(t);
  };
  const ColumnStore& cols = buffer_.columns();
  size_t candidates_examined = 0;
  uint64_t kernel_hits = 0;
  if (grid_ != nullptr) {
    // Grid-assisted range query: batch the candidate superset into the
    // reused scratch buffer, confirm every distance with one kernel call,
    // and sort so p's own list stays ascending by key.
    grid_->CollectCandidates(p, r_max_, &scratch_seqs_);
    candidates_examined = scratch_seqs_.size();
    // Only preceding points: p is not yet indexed, and succeeding points
    // handle the pair when they arrive.
    size_t m = 0;
    for (const Seq t : scratch_seqs_) {
      if (t < s) scratch_seqs_[m++] = t;
    }
    scratch_dists_.resize(m);
    const size_t hits = kernel_.PartitionWithinR(
        cols, p, scratch_seqs_.data(), m, r_max_, scratch_dists_.data());
    SOP_COUNTER_ADD("kernel/batches", 1);
    SOP_COUNTER_ADD("kernel/candidates", m);
    kernel_hits = hits;
    scratch_candidates_.clear();
    for (size_t i = 0; i < hits; ++i) {
      scratch_candidates_.push_back({scratch_seqs_[i], scratch_dists_[i]});
    }
    std::sort(scratch_candidates_.begin(), scratch_candidates_.end());
    for (const auto& [t, d] : scratch_candidates_) consider(t, d);
  } else {
    // Linear range scan, batched: one kernel call over the whole window
    // prefix (MCOD has no early exit — every preceding point is checked).
    const size_t m = static_cast<size_t>(s - buffer_.first_seq());
    candidates_examined = m;
    if (m > 0) {
      const Seq lo = buffer_.first_seq();
      scratch_dists_.resize(m);
      kernel_.BatchDistRange(cols, p, lo, m, scratch_dists_.data());
      SOP_COUNTER_ADD("kernel/batches", 1);
      SOP_COUNTER_ADD("kernel/candidates", m);
      for (size_t i = 0; i < m; ++i) {
        const double d = scratch_dists_[i];
        if (d > r_max_) continue;
        ++kernel_hits;
        consider(lo + static_cast<Seq>(i), d);
      }
    }
  }
  if (grid_ != nullptr) grid_->Insert(s, p);
  if (SOP_OBS_ENABLED()) {
    SOP_COUNTER_ADD("mcod/range_scans", 1);
    SOP_COUNTER_ADD("mcod/candidates_examined", candidates_examined);
    SOP_COUNTER_ADD("mcod/neighbors_retained", ps.list.size());
    SOP_COUNTER_ADD("kernel/hits", kernel_hits);
  }

  // Micro-cluster maintenance for the simulated (k_max, r_min) query:
  // join the first center within r_min/2, else try to seed a new cluster
  // from the unclustered close points.
  for (size_t c = 0; c < clusters_.size(); ++c) {
    MicroCluster& mc = clusters_[c];
    if (mc.dissolved) continue;
    if (dist_(p, mc.center) <= cluster_radius) {
      mc.members.emplace_back(s, p_key);
      ps.cluster = static_cast<int32_t>(c);
      SOP_COUNTER_ADD("mcod/cluster_joins", 1);
      return;
    }
  }
  if (static_cast<int64_t>(scratch_close_.size()) >= k_max_) {
    SOP_COUNTER_ADD("mcod/clusters_seeded", 1);
    MicroCluster mc;
    mc.center = p;
    for (Seq t : scratch_close_) {
      mc.members.emplace_back(t, buffer_.KeyOf(t));
      StateOf(t).cluster = static_cast<int32_t>(clusters_.size());
    }
    mc.members.emplace_back(s, p_key);
    ps.cluster = static_cast<int32_t>(clusters_.size());
    clusters_.push_back(std::move(mc));
  }
}

std::vector<QueryResult> McodDetector::Advance(std::vector<Point> batch,
                                               int64_t boundary) {
  for (Point& p : batch) {
    buffer_.Append(std::move(p));  // re-bases on a mid-stream first batch
    states_.emplace_back();
  }
  const Seq first_new_seq = buffer_.next_seq() - static_cast<Seq>(batch.size());
  const int64_t swift_start = WindowStart(boundary, win_max_);
  if (grid_ != nullptr) {
    // Un-index expiring points while their coordinates are still alive.
    // Points of the current batch are not yet indexed (InsertPoint runs
    // below), so skip them if they expire immediately.
    const Seq expire_end =
        std::min(buffer_.LowerBoundKey(swift_start), first_new_seq);
    for (Seq s = buffer_.first_seq(); s < expire_end; ++s) {
      buffer_.Load(s, &scratch_point_);
      grid_->Remove(s, scratch_point_);
    }
  }
  const size_t dropped = buffer_.ExpireBefore(swift_start);
  for (size_t i = 0; i < dropped; ++i) states_.pop_front();

  // Expire cluster members; dissolve clusters that fell below k_max + 1
  // members (their members revert to dispersed status — their neighbor
  // lists are intact, so no rescan is needed).
  for (MicroCluster& mc : clusters_) {
    if (mc.dissolved) continue;
    while (!mc.members.empty() && mc.members.front().second < swift_start) {
      mc.members.pop_front();
    }
    if (static_cast<int64_t>(mc.members.size()) < k_max_ + 1) {
      for (const auto& [seq, key] : mc.members) {
        if (buffer_.Contains(seq)) StateOf(seq).cluster = -1;
      }
      mc.members.clear();
      mc.dissolved = true;
    }
  }
  // Compact dissolved clusters occasionally.
  if (clusters_.size() > 16 &&
      static_cast<size_t>(std::count_if(
          clusters_.begin(), clusters_.end(),
          [](const MicroCluster& mc) { return mc.dissolved; })) >
          clusters_.size() / 2) {
    std::vector<MicroCluster> live;
    for (MicroCluster& mc : clusters_) {
      if (mc.dissolved) continue;
      const int32_t new_id = static_cast<int32_t>(live.size());
      for (const auto& [seq, key] : mc.members) {
        if (buffer_.Contains(seq)) StateOf(seq).cluster = new_id;
      }
      live.push_back(std::move(mc));
    }
    clusters_.swap(live);
  }

  // Expire retained neighbors.
  for (PointState& st : states_) st.list.ExpireBefore(swift_start);

  // Insert the new arrivals (they survived expiry iff still alive).
  for (Seq s = std::max(first_new_seq, buffer_.first_seq());
       s < buffer_.next_seq(); ++s) {
    InsertPoint(s);
  }

  // Emission: micro-cluster fast path, then the neighbor-list post-filter.
  std::vector<QueryResult> results;
  last_results_bytes_ = 0;
  [[maybe_unused]] uint64_t obs_cluster_inliers = 0;
  for (size_t qi = 0; qi < workload_.num_queries(); ++qi) {
    const OutlierQuery& q = workload_.query(qi);
    if (!EmitsAt(boundary, q.slide)) continue;
    QueryResult result;
    result.query_index = qi;
    result.boundary = boundary;
    const int64_t start = WindowStart(boundary, q.win);
    for (Seq s = buffer_.LowerBoundKey(start); s < buffer_.next_seq(); ++s) {
      const PointState& st = StateOf(s);
      if (st.cluster >= 0) {
        // Co-members are pairwise within r_min <= q.r; count those inside
        // q's window (keys ascend within the deque).
        const MicroCluster& mc = clusters_[static_cast<size_t>(st.cluster)];
        const auto it = std::lower_bound(
            mc.members.begin(), mc.members.end(), start,
            [](const std::pair<Seq, int64_t>& m, int64_t key) {
              return m.second < key;
            });
        const int64_t co_members =
            static_cast<int64_t>(mc.members.end() - it) - 1;
        if (co_members >= q.k) {
          ++obs_cluster_inliers;
          continue;  // inlier via the cluster
        }
      }
      if (st.list.CountWithin(q.r, start, q.k) < q.k) {
        result.outliers.push_back(s);
      }
    }
    last_results_bytes_ += VectorHeapBytes(result.outliers);
    results.push_back(std::move(result));
  }
  if (SOP_OBS_ENABLED()) {
    SOP_COUNTER_ADD("mcod/cluster_inlier_fastpath", obs_cluster_inliers);
    SOP_GAUGE_SET("mcod/alive_points", buffer_.next_seq() - buffer_.first_seq());
    SOP_GAUGE_SET("mcod/live_clusters", num_clusters());
  }
  return results;
}

size_t McodDetector::MemoryBytes() const {
  size_t bytes = DequeHeapBytes(states_) + last_results_bytes_;
  if (grid_ != nullptr) bytes += grid_->MemoryBytes();
  for (const PointState& st : states_) bytes += st.list.MemoryBytes();
  for (const MicroCluster& mc : clusters_) {
    bytes += DequeHeapBytes(mc.members) + VectorHeapBytes(mc.center.values);
  }
  return bytes;
}

size_t McodDetector::num_clusters() const {
  return static_cast<size_t>(std::count_if(
      clusters_.begin(), clusters_.end(),
      [](const MicroCluster& mc) { return !mc.dissolved; }));
}

}  // namespace sop
