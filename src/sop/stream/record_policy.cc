#include "sop/stream/record_policy.h"

#include <cmath>

namespace sop {

std::string StreamShape::Check(const std::vector<Point>& batch,
                               WindowType type) const {
  size_t want = dims;
  int64_t prev_time = last_time;
  for (size_t i = 0; i < batch.size(); ++i) {
    const Point& p = batch[i];
    const auto refuse = [i](const std::string& what) {
      return "ingest point " + std::to_string(i) + ": " + what;
    };
    if (p.values.empty()) return refuse("empty value vector");
    if (want == 0) want = p.values.size();
    if (p.values.size() != want) {
      return refuse(std::to_string(p.values.size()) +
                    " attributes, the stream has " + std::to_string(want));
    }
    for (const double v : p.values) {
      if (!std::isfinite(v)) return refuse("non-finite coordinate");
    }
    if (type == WindowType::kTime) {
      if (p.time < prev_time) {
        return refuse("time " + std::to_string(p.time) + " precedes " +
                      std::to_string(prev_time));
      }
      prev_time = p.time;
    }
  }
  return "";
}

void StreamShape::Extend(const std::vector<Point>& batch) {
  if (batch.empty()) return;
  if (dims == 0) dims = batch.front().values.size();
  last_time = batch.back().time;
}

}  // namespace sop
