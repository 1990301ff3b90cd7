// What to do with a malformed input record.
//
// Every ingest surface — the CSV loader (io/csv.h), the sanitizing source
// wrapper (stream/sanitize.h), and the CLI's --on-bad-record flag — shares
// this three-way policy. "Malformed" covers non-finite attribute values
// (NaN/Inf), attribute-count mismatches against the stream's established
// dimensionality, out-of-order timestamps, and (for textual sources)
// unparseable records.
//
// The policies trade answer completeness against availability:
//   * kFailFast       reject the whole load/stream at the first bad record
//                     (a batch-job default: garbage in, no answer out).
//   * kSkipQuarantine drop bad records, count them, and optionally spool
//                     the raw lines to a sidecar for offline triage.
//   * kClampRepair    repair what has an unambiguous fix (non-finite
//                     values, timestamp regressions); quarantine the rest
//                     (unparseable or wrong-arity records have no credible
//                     repair).
// Quarantines and repairs are counted in the obs registry under
// resilience/quarantined and resilience/repaired.
//
// StreamShape is the same notion of "malformed" for wire ingest, where the
// only policy is refusal: the serving plane checks every batch against it
// before the batch reaches a detector, whose column store and stream buffer
// would abort the process on a violation.

#ifndef SOP_STREAM_RECORD_POLICY_H_
#define SOP_STREAM_RECORD_POLICY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "sop/common/point.h"
#include "sop/stream/window.h"

namespace sop {

/// Disposition of malformed input records. See file comment.
enum class RecordPolicy {
  kFailFast,
  kSkipQuarantine,
  kClampRepair,
};

/// Canonical flag spelling of `policy` ("fail" / "skip" / "clamp").
inline const char* RecordPolicyName(RecordPolicy policy) {
  switch (policy) {
    case RecordPolicy::kFailFast:
      return "fail";
    case RecordPolicy::kSkipQuarantine:
      return "skip";
    case RecordPolicy::kClampRepair:
      return "clamp";
  }
  return "unknown";
}

/// Parses a policy name ("fail" or "fail-fast", "skip", "clamp").
inline bool ParseRecordPolicy(const std::string& name, RecordPolicy* out) {
  if (name == "fail" || name == "fail-fast") {
    *out = RecordPolicy::kFailFast;
  } else if (name == "skip") {
    *out = RecordPolicy::kSkipQuarantine;
  } else if (name == "clamp") {
    *out = RecordPolicy::kClampRepair;
  } else {
    return false;
  }
  return true;
}

/// What every later point of a stream must agree with: the dimensionality
/// its first point pinned and, for time windows, the newest point's time.
struct StreamShape {
  size_t dims = 0;                // 0 until the first point pins it
  int64_t last_time = INT64_MIN;  // time of the newest point

  /// "" when `batch` may extend the stream; otherwise a diagnostic naming
  /// the first bad point: an empty value vector, a dimensionality other
  /// than the stream's, a non-finite coordinate, or (time windows only) a
  /// time earlier than its predecessor's, within or across batches.
  std::string Check(const std::vector<Point>& batch, WindowType type) const;

  /// Records an accepted batch.
  void Extend(const std::vector<Point>& batch);
};

}  // namespace sop

#endif  // SOP_STREAM_RECORD_POLICY_H_
