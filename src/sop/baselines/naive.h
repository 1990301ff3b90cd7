// NaiveDetector: the exact brute-force multi-query detector.
//
// Per emission, every in-window point's neighbor count is recomputed with a
// full range scan. Quadratic per window and query — useful as the
// correctness oracle in tests and as the floor baseline in ablations, not
// as a production algorithm. Handles mixed attribute sets natively (each
// query uses its own distance function).

#ifndef SOP_BASELINES_NAIVE_H_
#define SOP_BASELINES_NAIVE_H_

#include <cstdint>
#include <vector>

#include "sop/common/distance.h"
#include "sop/detector/detector.h"
#include "sop/stream/stream_buffer.h"

namespace sop {

class NaiveDetector : public OutlierDetector {
 public:
  explicit NaiveDetector(const Workload& workload);

  const char* name() const override { return "naive"; }
  std::vector<QueryResult> Advance(std::vector<Point> batch,
                                   int64_t boundary) override;
  size_t MemoryBytes() const override;

 private:
  Workload workload_;
  std::vector<DistanceFn> query_dist_;  // per query
  StreamBuffer buffer_;
  int64_t win_max_ = 0;
  size_t last_results_bytes_ = 0;
};

}  // namespace sop

#endif  // SOP_BASELINES_NAIVE_H_
