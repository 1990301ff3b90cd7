#include "sop/stream/stream_buffer.h"

#include <algorithm>
#include <ranges>

#include "sop/common/check.h"

namespace sop {

void StreamBuffer::Append(Point p) {
  if (!based_) ResetTo(p.seq);
  SOP_CHECK_MSG(p.seq == next_seq(), "points must arrive in seq order");
  if (!empty()) {
    SOP_CHECK_MSG(PointKey(p, type_) >= KeyOf(next_seq() - 1),
                  "point keys must be non-decreasing");
  }
  ColumnStore::Append(p);
}

size_t StreamBuffer::ExpireBefore(int64_t min_key) {
  const size_t dropped =
      static_cast<size_t>(LowerBoundKey(min_key) - first_seq());
  PopFront(dropped);
  return dropped;
}

Seq StreamBuffer::LowerBoundKey(int64_t min_key) const {
  const auto seqs = std::views::iota(first_seq(), next_seq());
  const auto it = std::ranges::partition_point(
      seqs, [&](Seq s) { return KeyOf(s) < min_key; });
  return it == seqs.end() ? next_seq() : *it;
}

}  // namespace sop
