// libsop umbrella header — the supported public API surface.
//
//   #include "sop/sop.h"
//
// Everything an application needs is reachable from here:
//
//   * Describing work      Workload, OutlierQuery (query/workload.h)
//   * Building detectors   CreateDetector("sop" | "leap" | ...),
//                          KnownDetectorNames (detector/factory.h)
//   * Running streams      ExecutionEngine::Run — the one batching/emission
//                          loop — plus the RunStream convenience wrappers
//                          and the ResultSink callback (detector/engine.h,
//                          detector/driver.h)
//   * Dynamic workloads    SopSession: add/remove queries on a live stream
//                          (core/session.h)
//   * Serving              SopServer / SopClient: the shared session over
//                          TCP — subscribe queries, push batches, receive
//                          per-subscription emissions (net/server.h,
//                          net/client.h)
//   * Scaling out          SopRouter: spatial sharding over N workers with
//                          halo replication and merge-exact emissions
//                          (cluster/partition.h, cluster/router.h)
//   * Measuring            RunMetrics (detector/metrics.h) and the
//                          observability registry, instrumentation macros
//                          and exporters (obs/)
//   * Distance kernels     DistanceFn::MakeKernel + the columnar window
//                          store and backend selection
//                          (--kernel=scalar|avx2; common/dist_kernel.h,
//                          common/column_store.h)
//   * Data in/out          CSV points, workload spec files (io/), the
//                          paper's synthetic/STT generators (gen/), and
//                          per-point result aggregation (report/)
//
// Headers under src/sop/ that this file does not include (core/ksky.h,
// index/grid.h, detector/partitioned.h, ...) are internal: they may change
// or disappear between versions without notice. Include sop/sop.h and link
// the `sop` CMake target; see examples/ for complete programs.

#ifndef SOP_SOP_H_
#define SOP_SOP_H_

#include "sop/cluster/partition.h"
#include "sop/cluster/router.h"
#include "sop/common/column_store.h"
#include "sop/common/dist_kernel.h"
#include "sop/common/distance.h"
#include "sop/common/point.h"
#include "sop/common/random.h"
#include "sop/core/session.h"
#include "sop/detector/detector.h"
#include "sop/detector/driver.h"
#include "sop/detector/engine.h"
#include "sop/detector/factory.h"
#include "sop/detector/metrics.h"
#include "sop/gen/stt.h"
#include "sop/gen/synthetic.h"
#include "sop/gen/workload_gen.h"
#include "sop/io/csv.h"
#include "sop/io/workload_parser.h"
#include "sop/net/client.h"
#include "sop/net/server.h"
#include "sop/obs/export.h"
#include "sop/obs/metrics.h"
#include "sop/obs/trace.h"
#include "sop/query/query.h"
#include "sop/query/workload.h"
#include "sop/report/aggregate.h"
#include "sop/stream/source.h"

#endif  // SOP_SOP_H_
