#include "sop/common/column_store.h"

#include "sop/common/memory.h"

namespace sop {

namespace {
constexpr size_t kInitialCapacity = 64;  // power of two
}  // namespace

void ColumnStore::Append(const Point& p) {
  SOP_DCHECK(p.seq == next_seq());
  if (capacity() == 0) {  // the first point pins the dimensionality
    dims_ = p.values.size();
    cols_.assign(dims_, {});
  }
  SOP_CHECK_MSG(p.values.size() == dims_,
                "ColumnStore requires uniform point dimensionality");
  if (size_ == capacity()) Grow();
  const size_t slot =
      static_cast<size_t>(static_cast<uint64_t>(p.seq)) & mask_;
  times_[slot] = p.time;
  for (size_t d = 0; d < dims_; ++d) cols_[d][slot] = p.values[d];
  ++size_;
}

void ColumnStore::PopFront(size_t n) {
  SOP_DCHECK(n <= size_);
  first_seq_ += static_cast<Seq>(n);
  size_ -= n;
}

void ColumnStore::ResetTo(Seq first_seq) {
  SOP_CHECK_MSG(size_ == 0, "ResetTo requires an empty store");
  first_seq_ = first_seq;
}

void ColumnStore::Grow() {
  const size_t old_cap = capacity();
  const size_t new_cap = old_cap == 0 ? kInitialCapacity : old_cap * 2;
  const size_t new_mask = new_cap - 1;
  std::vector<Timestamp> times(new_cap);
  std::vector<std::vector<double>> cols(dims_, std::vector<double>(new_cap));
  // Re-scatter the alive range into its new slots.
  for (Seq s = first_seq_; s < next_seq(); ++s) {
    const size_t from = static_cast<size_t>(static_cast<uint64_t>(s)) & mask_;
    const size_t to = static_cast<size_t>(static_cast<uint64_t>(s)) & new_mask;
    times[to] = times_[from];
    for (size_t d = 0; d < dims_; ++d) cols[d][to] = cols_[d][from];
  }
  times_.swap(times);
  cols_.swap(cols);
  mask_ = new_mask;
}

size_t ColumnStore::MemoryBytes() const {
  size_t bytes = VectorHeapBytes(times_);
  for (const auto& c : cols_) bytes += VectorHeapBytes(c);
  return bytes;
}

}  // namespace sop
