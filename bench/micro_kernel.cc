// micro_kernel: per-pair vs batched distance confirmation on the grid
// candidate hot path.
//
// Reproduces the neighbor-search inner loop every grid-backed detector
// runs (fig-7 style setup: the paper's synthetic stream, a full window of
// alive points, range confirmation at several radii): for each probe the
// grid yields a candidate superset, and each configuration confirms the
// true r-neighborhood over the identical candidates:
//
//   perpair  the pre-kernel code shape: a row lookup + one
//            DistanceFn::operator() call per candidate;
//   scalar   DistanceKernel::PartitionWithinR over the column store,
//            portable tight-loop backend;
//   avx2     the same kernel with the AVX2 backend (skipped when the CPU
//            or build lacks it).
//
// Hit sets are asserted identical across configurations (the kernel's
// bit-identity contract), so the timing columns compare equal answers.
// Output: a table, RESULT lines, and BENCH_kernel.json with speedups
// relative to perpair.
//
//   RESULT bench=micro_kernel config=... r=... probes=... candidates=...
//          ms=... speedup=...

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "figure.h"
#include "sop/common/column_store.h"
#include "sop/common/dist_kernel.h"
#include "sop/common/distance.h"
#include "sop/gen/synthetic.h"
#include "sop/index/grid.h"

namespace sop {
namespace {

struct Outcome {
  double ms = 0.0;          // best-of-reps sweep time
  uint64_t hits = 0;        // total confirmed neighbors (checksum)
  double dist_sum = 0.0;    // sum of confirmed distances (checksum)
};

// One timed sweep: confirm `candidates[i]` against probe i at radius r.
// `config` selects the code shape; candidate lists are shared scratch and
// restored by the caller between configs.
template <typename Confirm>
Outcome TimeSweep(int reps, size_t num_probes, Confirm&& confirm) {
  using Clock = std::chrono::steady_clock;
  Outcome best;
  best.ms = -1.0;
  for (int rep = 0; rep < reps; ++rep) {
    Outcome out;
    const auto t0 = Clock::now();
    for (size_t i = 0; i < num_probes; ++i) confirm(i, &out);
    out.ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    if (best.ms < 0.0 || out.ms < best.ms) {
      best.ms = out.ms;
      best.hits = out.hits;
      best.dist_sum = out.dist_sum;
    }
  }
  return best;
}

}  // namespace
}  // namespace sop

int main() {
  using namespace sop;

  const bool fast = bench::FastMode();
  const int64_t window = fast ? 2000 : 10000;
  const size_t num_probes = fast ? 200 : 1000;
  const int reps = fast ? 3 : 5;
  // Paper-scale radii (fig 7 varies r over the synthetic stream; the
  // stream's coordinate scale puts interesting neighborhoods in the
  // hundreds).
  const std::vector<double> radii = {300.0, 600.0, 900.0};
  const double cell_size = 300.0;  // ~ the smallest radius

  gen::SyntheticOptions options;
  options.seed = 20160626;  // same stream bytes as the figure benches
  const std::vector<Point> points =
      gen::GenerateSynthetic(window + static_cast<int64_t>(num_probes),
                             options);

  const DistanceFn dist(Metric::kEuclidean);
  DistanceKernel kernel = dist.MakeKernel();
  GridIndex grid(dist, cell_size);
  ColumnStore cols;
  for (int64_t s = 0; s < window; ++s) {
    Point p = points[static_cast<size_t>(s)];
    p.seq = s;  // the generator leaves seq assignment to the driver
    cols.Append(p);
    grid.Insert(s, p);
  }
  const Point* probes = points.data() + window;

  std::printf("micro_kernel: grid candidate confirmation, per-pair vs "
              "batched kernel (%lld-point window, %zu probes, best of %d)\n",
              static_cast<long long>(window), num_probes, reps);
  std::printf("%-8s %8s %10s %12s %10s %9s\n", "config", "r", "candidates",
              "hits", "ms", "speedup");

  const bool avx2 = KernelBackendSupported(KernelBackend::kAvx2);
  if (!avx2) {
    std::fprintf(stderr, "note: avx2 backend unavailable here, skipping\n");
  }

  std::string json = "{\n  \"bench\": \"micro_kernel\",\n  \"window\": " +
                     std::to_string(window) +
                     ",\n  \"probes\": " + std::to_string(num_probes) +
                     ",\n  \"rows\": [\n";
  bool first_row = true;
  bool mismatch = false;
  double min_scalar_speedup = -1.0;

  std::vector<std::vector<Seq>> candidates(num_probes);
  std::vector<Seq> seq_scratch;
  std::vector<double> dist_scratch;
  for (const double r : radii) {
    uint64_t total_candidates = 0;
    for (size_t i = 0; i < num_probes; ++i) {
      grid.CollectCandidates(probes[i], r, &candidates[i]);
      total_candidates += candidates[i].size();
    }

    struct Config {
      const char* name;
      Outcome out;
    };
    std::vector<Config> configs;

    // perpair: the exact pre-kernel shape — row lookup + one call per pair.
    configs.push_back({"perpair", TimeSweep(
        reps, num_probes, [&](size_t i, Outcome* out) {
          const Point& p = probes[i];
          for (const Seq s : candidates[i]) {
            const double d = dist(p, points[static_cast<size_t>(s)]);
            if (d <= r) {
              ++out->hits;
              out->dist_sum += d;
            }
          }
        })});

    // Kernel backends: one PartitionWithinR per probe over the same
    // candidate list (copied into scratch — the call compacts in place).
    const auto kernel_sweep = [&](size_t i, Outcome* out) {
      const std::vector<Seq>& cand = candidates[i];
      seq_scratch.assign(cand.begin(), cand.end());
      dist_scratch.resize(cand.size());
      const size_t h = kernel.PartitionWithinR(
          cols, probes[i], seq_scratch.data(), seq_scratch.size(), r,
          dist_scratch.data());
      out->hits += h;
      for (size_t j = 0; j < h; ++j) out->dist_sum += dist_scratch[j];
    };
    SetKernelBackend(KernelBackend::kScalar);
    configs.push_back({"scalar", TimeSweep(reps, num_probes, kernel_sweep)});
    if (avx2) {
      SetKernelBackend(KernelBackend::kAvx2);
      configs.push_back({"avx2", TimeSweep(reps, num_probes, kernel_sweep)});
      SetKernelBackend(KernelBackend::kScalar);
    }

    for (const Config& c : configs) {
      const double speedup =
          c.out.ms > 0.0 ? configs[0].out.ms / c.out.ms : 0.0;
      if (std::string(c.name) == "scalar" &&
          (min_scalar_speedup < 0.0 || speedup < min_scalar_speedup)) {
        min_scalar_speedup = speedup;
      }
      if (c.out.hits != configs[0].out.hits ||
          c.out.dist_sum != configs[0].out.dist_sum) {
        std::fprintf(stderr,
                     "FAIL: config %s at r=%g disagrees with perpair "
                     "(hits %llu vs %llu) — backends must be bit-identical\n",
                     c.name, r, static_cast<unsigned long long>(c.out.hits),
                     static_cast<unsigned long long>(configs[0].out.hits));
        mismatch = true;
      }
      std::printf("%-8s %8g %10llu %12llu %10.3f %8.2fx\n", c.name, r,
                  static_cast<unsigned long long>(total_candidates),
                  static_cast<unsigned long long>(c.out.hits), c.out.ms,
                  speedup);
      std::printf("RESULT bench=micro_kernel config=%s r=%g probes=%zu "
                  "candidates=%llu hits=%llu ms=%.3f speedup=%.2f\n",
                  c.name, r, num_probes,
                  static_cast<unsigned long long>(total_candidates),
                  static_cast<unsigned long long>(c.out.hits), c.out.ms,
                  speedup);
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "    %s{\"config\": \"%s\", \"r\": %g, "
                    "\"candidates\": %llu, \"hits\": %llu, \"ms\": %.3f, "
                    "\"speedup\": %.2f}",
                    first_row ? "" : ",\n    ", c.name, r,
                    static_cast<unsigned long long>(total_candidates),
                    static_cast<unsigned long long>(c.out.hits), c.out.ms,
                    speedup);
      json += buf;
      first_row = false;
    }
  }
  json += "\n  ]\n}\n";

  if (mismatch) return 1;

  std::ofstream out("BENCH_kernel.json", std::ios::binary);
  if (!out || !(out << json) || !out.flush()) {
    std::fprintf(stderr, "cannot write BENCH_kernel.json\n");
    return 1;
  }
  std::fprintf(stderr, "wrote BENCH_kernel.json (min scalar speedup %.2fx)\n",
               min_scalar_speedup);
  return 0;
}
