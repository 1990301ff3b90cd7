// Columnar (structure-of-arrays) store of a contiguous run of points.
//
// The only copy of point data: StreamBuffer (a detector's sliding window)
// and SopSession's retained history are each a ColumnStore plus
// bookkeeping. One contiguous array per attribute, plus a time column,
// lets the batch kernel (dist_kernel.h) stream through candidates with
// dense loads; code that needs a whole point copies it out with Load.
//
// Layout. A power-of-two ring: the slot of an alive point is
// `seq & (capacity - 1)`. Alive sequence numbers always form one
// contiguous range [first_seq, next_seq) of length <= capacity, so slots
// never collide, expiry (PopFront) frees slots implicitly, and a slot
// stays put for a point's whole lifetime — until a capacity growth, which
// doubles the ring and re-scatters (append-amortized, and no caller holds
// slots across mutations). The kernel resolves seqs to slots per batch.
//
// The store fixes its dimensionality at the first Append; every subsequent
// point must have the same number of attributes (detectors already require
// this — DistanceFn checks pairwise width equality).

#ifndef SOP_COMMON_COLUMN_STORE_H_
#define SOP_COMMON_COLUMN_STORE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sop/common/check.h"
#include "sop/common/point.h"

namespace sop {

/// SoA store of the alive points, addressed by sequence number. Not
/// thread-safe.
class ColumnStore {
 public:
  ColumnStore() = default;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Attribute count (0 until the first point is appended).
  size_t num_dims() const { return dims_; }
  Seq first_seq() const { return first_seq_; }
  Seq next_seq() const { return first_seq_ + static_cast<Seq>(size_); }
  bool Contains(Seq seq) const {
    return seq >= first_seq_ && seq < next_seq();
  }
  /// Current ring capacity (a power of two, or 0 before the first append).
  size_t capacity() const { return mask_ == 0 ? 0 : mask_ + 1; }

  /// Ring slot of alive point `seq`. Stable until the next capacity
  /// growth; do not hold slots across Append.
  size_t SlotOf(Seq seq) const {
    SOP_DCHECK(Contains(seq));
    return static_cast<size_t>(static_cast<uint64_t>(seq)) & mask_;
  }

  /// Base pointer of attribute column `d` (indexed by slot).
  const double* Column(size_t d) const {
    SOP_DCHECK(d < dims_);
    return cols_[d].data();
  }

  /// Time of alive point `seq`.
  Timestamp TimeOf(Seq seq) const { return times_[SlotOf(seq)]; }

  /// Copies alive point `seq` into `*out`, reusing the capacity of
  /// `out->values` (no allocation once it has held `num_dims()` values).
  void Load(Seq seq, Point* out) const {
    const size_t slot = SlotOf(seq);
    out->seq = seq;
    out->time = times_[slot];
    out->values.resize(dims_);
    for (size_t d = 0; d < dims_; ++d) out->values[d] = cols_[d][slot];
  }

  /// Appends `p`; its seq must equal next_seq().
  void Append(const Point& p);

  /// Expires the `n` oldest points.
  void PopFront(size_t n);

  /// Re-bases an empty store at `first_seq` (checkpoint restore).
  void ResetTo(Seq first_seq);

  /// Approximate heap bytes held by the columns.
  size_t MemoryBytes() const;

 private:
  void Grow();

  size_t dims_ = 0;
  Seq first_seq_ = 0;
  size_t size_ = 0;
  size_t mask_ = 0;  // capacity - 1; 0 also means "not yet allocated"
  std::vector<std::vector<double>> cols_;  // [dim][slot]
  std::vector<Timestamp> times_;           // [slot]
};

}  // namespace sop

#endif  // SOP_COMMON_COLUMN_STORE_H_
