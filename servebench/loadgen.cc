// servebench_loadgen: the load generator, answer checker and in-process
// layer timer of the serving benchmark (see README.md in this directory).
//
//   servebench_loadgen --workload NAME --seed S --seconds T --trace 0|1
//                     --bin-dir DIR --run-dir DIR [--plant-wrong-outlier]
//                     [--single-server]
//
// It spawns the real sop_server / sop_router binaries as child processes,
// drives them over loopback with one net::SopClient connection in a closed
// loop of pipeline depth 1, checks every emission, and writes the raw
// measurements to DIR/result.json; run.py turns those into the reported
// metrics. The generator is this one single-threaded process, so the
// serving processes' CPU and memory are read from /proc apart from it.
//
// Exit codes: 0 when the run completed and every check passed, 1 when a
// check failed (the result file says which), 2 on a usage or
// infrastructure error (no result file).

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "sop/cluster/partition.h"
#include "sop/common/column_store.h"
#include "sop/common/dist_kernel.h"
#include "sop/core/session.h"
#include "sop/gen/synthetic.h"
#include "sop/gen/workload_gen.h"
#include "sop/net/client.h"
#include "sop/net/protocol.h"
#include "sop/obs/metrics.h"
#include "sop/query/plan.h"
#include "sop/stream/stream_buffer.h"

namespace servebench {
namespace {

using sop::OutlierQuery;
using sop::Point;
using sop::Seq;
using Clock = std::chrono::steady_clock;

double Ms(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// --------------------------------------------------------------------------
// Workloads

// The synthetic stream's value domain (gen::SyntheticOptions defaults); the
// routed deployment cuts its first attribute uniformly over it.
constexpr double kDomainLo = 0.0;
constexpr double kDomainHi = 10000.0;
constexpr int kRoutedWorkers = 4;
// Serving setups per untraced run; set-up time is their median.
constexpr int kSetups = 7;
// Oracle sample sizes: any emission, and first emissions of re-added
// queries.
constexpr size_t kOracleSample = 12;
constexpr size_t kOracleReaddSample = 12;
// Sample floors of the reported percentiles.
constexpr int64_t kMinChanges = 40;
constexpr int64_t kMinSteadyBatches = 200;
// Steady batches between consecutive workload changes.
constexpr int kSteadyPerChange = 4;
// The server's default --history-window, mirrored by the in-process session.
constexpr int64_t kHistoryWindow = 4096;

enum class ChangeKind {
  kResubscribe,  // retire one query and subscribe it again unchanged
  kExtend,       // swap the extra query between two unused radii
};

struct WorkloadDef {
  std::string name;
  bool routed = false;
  std::vector<OutlierQuery> queries;  // subscribed at set-up
  ChangeKind change = ChangeKind::kResubscribe;
  // kExtend: the extra query's template and its two alternating radii.
  OutlierQuery extra;
  double extra_r[2] = {0.0, 0.0};
  // Points per ingest batch: the slide gcd of the workload.
  int64_t batch = 0;
};

// Fixed workload seed for the case-G query set: the query set is part of
// the workload's definition, the stream varies with --seed.
constexpr uint64_t kSharedManyQuerySeed = 2016;

// Small k, windows inside the server's default 4096-point history.
std::vector<OutlierQuery> LightQueries(int64_t batch) {
  return {OutlierQuery(250.0, 4, 3000, batch), OutlierQuery(400.0, 6, 4000, batch),
          OutlierQuery(600.0, 8, 4000, 2 * batch)};
}

bool MakeWorkload(const std::string& name, WorkloadDef* def) {
  def->name = name;
  if (name == "shared_many") {
    sop::gen::WorkloadGenOptions o;
    // k in the tens; wider k ranges make each batch too slow for a p95
    // to gather its 200 samples in one run.
    o.k_lo = 10;
    o.k_hi = 30;
    o.win_lo = 1000;
    o.win_hi = 10001;
    o.slide_lo = 500;
    o.slide_hi = 5000;
    o.slide_quantum = 500;
    o.seed = kSharedManyQuerySeed;
    const sop::Workload w = sop::gen::GenerateWorkload(
        sop::gen::WorkloadCase::kG, 100, sop::WindowType::kCount, o);
    def->queries = w.queries();
    // Keep the batch at the slide quantum whatever the draw.
    def->batch = 500;
    def->queries.front().slide = def->batch;
    return true;
  }
  if (name == "routed4_light" || name == "single_extend") {
    // Large batches keep each batch's wall time well above the host's
    // scheduling hiccups, which otherwise decide the p95.
    def->batch = 2000;
    def->queries = LightQueries(def->batch);
    if (name == "routed4_light") {
      def->routed = true;
    } else {
      def->change = ChangeKind::kExtend;
      def->extra = OutlierQuery(0.0, 5, 4000, def->batch);
      def->extra_r[0] = 325.0;
      def->extra_r[1] = 500.0;
    }
    return true;
  }
  return false;
}

// --------------------------------------------------------------------------
// Stream: the seeded synthetic stream, generated lazily batch by batch and
// kept whole (2 doubles per point) for the oracle.

class Stream {
 public:
  explicit Stream(uint64_t seed) : source_(INT64_MAX, Options(seed)) {}

  // Points [n, n + size) as wire points, generating them on first use.
  std::vector<Point> Batch(int64_t n, int64_t size) {
    while (static_cast<int64_t>(xy_.size() / 2) < n + size) {
      Point p;
      source_.Next(&p);
      xy_.push_back(p.values[0]);
      xy_.push_back(p.values[1]);
    }
    std::vector<Point> out;
    out.reserve(static_cast<size_t>(size));
    for (int64_t i = n; i < n + size; ++i) {
      out.emplace_back(i, i, std::vector<double>{x(i), y(i)});
    }
    return out;
  }

  double x(int64_t seq) const { return xy_[static_cast<size_t>(2 * seq)]; }
  double y(int64_t seq) const { return xy_[static_cast<size_t>(2 * seq + 1)]; }
  int64_t generated() const { return static_cast<int64_t>(xy_.size() / 2); }

 private:
  static sop::gen::SyntheticOptions Options(uint64_t seed) {
    sop::gen::SyntheticOptions o;
    o.seed = seed;
    o.domain_lo = kDomainLo;
    o.domain_hi = kDomainHi;
    return o;
  }

  sop::gen::SyntheticSource source_;
  std::vector<double> xy_;
};

// --------------------------------------------------------------------------
// Child processes

struct ProcSample {
  double cpu_s = 0.0;    // utime + stime, all threads
  double hwm_kb = 0.0;   // VmHWM
};

bool ReadProcSample(pid_t pid, ProcSample* out) {
  char path[64];
  std::snprintf(path, sizeof(path), "/proc/%d/stat", static_cast<int>(pid));
  std::ifstream stat(path);
  std::string line;
  if (!std::getline(stat, line)) return false;
  // Fields after the parenthesised command name; utime/stime are fields
  // 14 and 15 of the whole line.
  const size_t close = line.rfind(')');
  if (close == std::string::npos) return false;
  std::istringstream rest(line.substr(close + 2));
  std::string field;
  std::vector<std::string> fields;
  while (rest >> field) fields.push_back(field);
  if (fields.size() < 13) return false;
  const double ticks = static_cast<double>(sysconf(_SC_CLK_TCK));
  out->cpu_s = (std::strtod(fields[11].c_str(), nullptr) +
                std::strtod(fields[12].c_str(), nullptr)) /
               ticks;
  std::snprintf(path, sizeof(path), "/proc/%d/status", static_cast<int>(pid));
  std::ifstream status(path);
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      out->hwm_kb = std::strtod(line.c_str() + 6, nullptr);
      return true;
    }
  }
  return false;
}

// Host-wide CPU ticks from /proc/stat, for the steal diagnostic.
struct HostTicks {
  double steal = 0.0;
  double total = 0.0;
};

HostTicks ReadHostTicks() {
  HostTicks t;
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  if (cpu != "cpu") return t;
  for (int i = 0; i < 8; ++i) {
    double v = 0.0;
    if (!(stat >> v)) break;
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

// One serving process: spawned with its stdout on a pipe (it prints its
// bound port there) and its stderr in a log file. The destructor stops it.
class Child {
 public:
  Child() = default;
  ~Child() { Stop(); }
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  bool Spawn(const std::vector<std::string>& argv, const std::string& log,
             std::string* error) {
    int fds[2];
    if (pipe(fds) != 0) {
      *error = "pipe: " + std::string(std::strerror(errno));
      return false;
    }
    std::vector<char*> cargv;
    for (const std::string& a : argv) cargv.push_back(const_cast<char*>(a.c_str()));
    cargv.push_back(nullptr);
    const pid_t pid = fork();
    if (pid < 0) {
      *error = "fork: " + std::string(std::strerror(errno));
      close(fds[0]);
      close(fds[1]);
      return false;
    }
    if (pid == 0) {
      // Die with the load generator, whatever ends it.
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      dup2(fds[1], STDOUT_FILENO);
      const int logfd = open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (logfd >= 0) dup2(logfd, STDERR_FILENO);
      close(fds[0]);
      close(fds[1]);
      execv(cargv[0], cargv.data());
      _exit(127);
    }
    close(fds[1]);
    pid_ = pid;
    out_fd_ = fds[0];
    log_ = log;
    return true;
  }

  // Reads the "... on HOST:PORT" line the tools print once bound.
  bool ReadPort(int* port, std::string* error) {
    std::string line;
    const auto deadline = Clock::now() + std::chrono::seconds(60);
    while (line.find('\n') == std::string::npos) {
      const int left = static_cast<int>(
          std::chrono::duration_cast<std::chrono::milliseconds>(
              deadline - Clock::now())
              .count());
      pollfd pfd{out_fd_, POLLIN, 0};
      if (left <= 0 || poll(&pfd, 1, left) <= 0) {
        *error = "no port line from " + log_;
        return false;
      }
      char buf[256];
      const ssize_t n = read(out_fd_, buf, sizeof(buf));
      if (n <= 0) {
        *error = "serving process exited early; see " + log_;
        return false;
      }
      line.append(buf, static_cast<size_t>(n));
    }
    line.resize(line.find('\n'));
    const size_t colon = line.rfind(':');
    *port = colon == std::string::npos ? 0 : std::atoi(line.c_str() + colon + 1);
    if (*port <= 0) {
      *error = "bad port line '" + line + "'";
      return false;
    }
    return true;
  }

  bool Sample(ProcSample* out) const { return ReadProcSample(pid_, out); }

  // SIGTERM (the tools drain and write --metrics-out), then SIGKILL if the
  // process is still there after 20 s. Returns true on a clean exit 0.
  bool Stop() {
    if (pid_ <= 0) return clean_;
    kill(pid_, SIGTERM);
    int status = 0;
    const auto deadline = Clock::now() + std::chrono::seconds(20);
    pid_t got = 0;
    while ((got = waitpid(pid_, &status, WNOHANG)) == 0 &&
           Clock::now() < deadline) {
      const timespec ts{0, 5 * 1000 * 1000};
      nanosleep(&ts, nullptr);
    }
    if (got == 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, &status, 0);
    }
    clean_ = got == pid_ && WIFEXITED(status) && WEXITSTATUS(status) == 0;
    pid_ = -1;
    close(out_fd_);
    out_fd_ = -1;
    return clean_;
  }

  const std::string& log() const { return log_; }

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::string log_;
  bool clean_ = false;
};

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// The number printed just before `marker` in `text`, or -1.
long long NumberBefore(const std::string& text, const std::string& marker) {
  const size_t at = text.find(marker);
  if (at == std::string::npos) return -1;
  size_t start = at;
  while (start > 0 && std::isdigit(static_cast<unsigned char>(text[start - 1]))) {
    --start;
  }
  if (start == at) return -1;
  return std::atoll(text.substr(start, at - start).c_str());
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string bin_dir;
  std::string run_dir;
  bool plant_wrong_outlier = false;
  // Serve a routed workload from one sop_server instead (the single-server
  // reference figure on the routed workload's exact inputs).
  bool single_server = false;
};

// The serving processes of one deployment: the workers (or the one server)
// first, then the router.
class Deployment {
 public:
  bool Start(const WorkloadDef& def, const Args& args, const std::string& tag,
             bool traced, std::string* error) {
    const std::string server = args.bin_dir + "/sop_server";
    auto spawn = [&](std::vector<std::string> argv, const std::string& name,
                     int* port) {
      if (traced) {
        const std::string snap = args.run_dir + "/" + tag + "_" + name + ".json";
        argv.push_back("--metrics-out");
        argv.push_back(snap);
        snapshots_.push_back(snap);
      }
      procs_.push_back(std::make_unique<Child>());
      return procs_.back()->Spawn(argv, args.run_dir + "/" + tag + "_" + name + ".log",
                                  error) &&
             procs_.back()->ReadPort(port, error);
    };
    if (!def.routed) {
      return spawn({server, "--port", "0"}, "server", &port_);
    }
    std::string workers;
    for (int i = 0; i < kRoutedWorkers; ++i) {
      int port = 0;
      if (!spawn({server, "--port", "0", "--window-type", "time"},
                 "worker" + std::to_string(i), &port)) {
        return false;
      }
      workers += (i > 0 ? "," : "") + std::string("127.0.0.1:") + std::to_string(port);
    }
    char domain[64];
    std::snprintf(domain, sizeof(domain), "%g:%g", kDomainLo, kDomainHi);
    return spawn({args.bin_dir + "/sop_router", "--port", "0", "--workers",
                  workers, "--domain", domain},
                 "router", &port_);
  }

  int port() const { return port_; }
  const std::vector<std::string>& snapshots() const { return snapshots_; }

  // CPU seconds summed over the serving processes, and their summed VmHWM.
  bool Sample(ProcSample* total) const {
    *total = ProcSample();
    for (const auto& p : procs_) {
      ProcSample s;
      if (!p->Sample(&s)) return false;
      total->cpu_s += s.cpu_s;
      total->hwm_kb += s.hwm_kb;
    }
    return true;
  }

  // Stops every process (router first) and checks their shutdown
  // reports: no shed emissions or protocol errors on any server, no worker
  // failure or degradation on the router.
  void Stop(std::vector<std::string>* problems) {
    for (auto it = procs_.rbegin(); it != procs_.rend(); ++it) {
      const bool clean = (*it)->Stop();
      const std::string log = ReadFile((*it)->log());
      if (!clean) problems->push_back("unclean exit: " + (*it)->log());
      if (log.find("routed ") != std::string::npos) {
        if (NumberBefore(log, " worker failures") != 0 ||
            log.find("(stream degraded)") != std::string::npos) {
          problems->push_back("router reported failures: " + (*it)->log());
        }
      } else if (NumberBefore(log, " shed)") != 0 ||
                 NumberBefore(log, " protocol errors") != 0) {
        problems->push_back("server reported shed emissions or protocol "
                            "errors: " + (*it)->log());
      }
    }
    procs_.clear();
  }

  ~Deployment() {
    for (auto it = procs_.rbegin(); it != procs_.rend(); ++it) (*it)->Stop();
  }

 private:
  std::vector<std::unique_ptr<Child>> procs_;
  std::vector<std::string> snapshots_;
  int port_ = 0;
};

// --------------------------------------------------------------------------
// Checked emissions

struct Sampled {
  OutlierQuery query;
  int64_t boundary = 0;
  std::vector<Seq> outliers;
};

// Seeded reservoir sample.
class Reservoir {
 public:
  Reservoir(size_t cap, uint64_t seed) : cap_(cap), rng_(seed) {}
  void Offer(const OutlierQuery& q, int64_t boundary,
             const std::vector<Seq>& outliers) {
    ++seen_;
    if (items_.size() < cap_) {
      items_.push_back({q, boundary, outliers});
      return;
    }
    const uint64_t j = rng_() % seen_;
    if (j < cap_) items_[j] = {q, boundary, outliers};
  }
  std::vector<Sampled>& items() { return items_; }

 private:
  size_t cap_;
  std::mt19937_64 rng_;
  uint64_t seen_ = 0;
  std::vector<Sampled> items_;
};

// A live subscription as the generator tracks it.
struct Live {
  OutlierQuery query;
  bool readded = false;   // subscribed by a change, not at set-up
  bool emitted = false;   // has delivered an emission since subscribing
};

// The brute-force answer for one emission: every point of the window
// [max(0, b - win), b) with fewer than k others within distance r.
std::vector<Seq> BruteForceOutliers(const Stream& s, const OutlierQuery& q,
                                    int64_t boundary) {
  const int64_t lo = std::max<int64_t>(0, boundary - q.win);
  std::vector<Seq> out;
  for (int64_t i = lo; i < boundary; ++i) {
    int64_t count = 0;
    for (int64_t j = lo; j < boundary && count < q.k; ++j) {
      if (j == i) continue;
      const double dx = s.x(i) - s.x(j);
      const double dy = s.y(i) - s.y(j);
      if (std::sqrt(dx * dx + dy * dy) <= q.r) ++count;
    }
    if (count < q.k) out.push_back(i);
  }
  return out;
}

// --------------------------------------------------------------------------
// One serving phase: set-ups, then a timed closed loop.

struct Phase {
  std::vector<double> setup_s;
  std::vector<double> batch_ms;   // steady batches, send -> ack
  std::vector<double> change_ms;  // first change message -> realizing ack
  int64_t timed_points = 0;
  int64_t total_points = 0;       // ingested by the measured deployment
  int64_t timed_batches = 0;
  int64_t changes = 0;
  int64_t emissions = 0;
  double wall_s = 0.0;
  double serving_cpu_s = 0.0;
  double peak_rss_kb = 0.0;
  uint64_t wire_bytes = 0;
  int64_t attempted = 0;
  int64_t failed = 0;
  double steal_share = 0.0;
  std::vector<std::string> snapshots;
  std::vector<std::string> problems;
  // Emissions kept for the codec timing (bounded).
  std::vector<sop::net::EmissionMsg> codec_emissions;
};

class Runner {
 public:
  Runner(const WorkloadDef& def, const Args& args)
      : def_(def),
        args_(args),
        any_(kOracleSample, args.seed * 0x9E3779B97F4A7C15ull + 1),
        readd_(kOracleReaddSample, args.seed * 0x9E3779B97F4A7C15ull + 2) {}

  // Runs `setups` set-ups, the last one measured through a timed phase of
  // `seconds`. Returns false on an infrastructure failure.
  bool RunPhase(const std::string& tag, int setups, bool traced, double seconds,
                Phase* out, std::string* error) {
    for (int s = 0; s < setups; ++s) {
      const bool measured = s + 1 == setups;
      Deployment dep;
      sop::net::SopClient client;
      const auto t0 = Clock::now();
      if (!dep.Start(def_, args_, tag + std::to_string(s), traced && measured,
                     error) ||
          !client.Connect("127.0.0.1", dep.port(), error)) {
        return false;
      }
      Stream stream(args_.seed);
      std::map<int64_t, Live> live;
      for (const OutlierQuery& q : InitialQueries()) {
        const int64_t id = client.Subscribe(q, error);
        if (id <= 0) return false;
        live[id] = Live{q, false, false};
      }
      int64_t n = 0;
      while (n < MaxWindow()) {
        if (!Ingest(&client, &stream, &live, &n, nullptr, out, error)) return false;
      }
      out->setup_s.push_back(Ms(t0, Clock::now()) / 1000.0);
      if (!measured) {
        dep.Stop(&out->problems);
        continue;
      }
      if (!Timed(&dep, &client, &stream, &live, &n, seconds, out, error)) {
        return false;
      }
      out->total_points = n;
      client.Close();
      dep.Stop(&out->problems);
      out->snapshots = dep.snapshots();
      // The oracle reads the longest stream any phase generated (every
      // set-up replays the same seeded stream from its start).
      if (!stream_ || stream.generated() > stream_->generated()) {
        stream_ = std::make_unique<Stream>(std::move(stream));
      }
    }
    return true;
  }

  // Brute-force check of the sampled emissions. Returns mismatches.
  int CheckOracle(int* checked, int64_t* outliers, std::vector<std::string>* msgs) {
    std::vector<Sampled> all = any_.items();
    for (const Sampled& s : readd_.items()) all.push_back(s);
    if (args_.plant_wrong_outlier && !all.empty()) {
      Sampled& s = all.front();
      if (s.outliers.empty()) s.outliers.push_back(s.boundary - 1);
      else s.outliers.erase(s.outliers.begin());
    }
    int bad = 0;
    for (const Sampled& s : all) {
      ++*checked;
      const std::vector<Seq> truth = BruteForceOutliers(*stream_, s.query, s.boundary);
      *outliers += static_cast<int64_t>(truth.size());
      if (truth != s.outliers) {
        ++bad;
        msgs->push_back("oracle mismatch: " + s.query.ToString() + " @ " +
                        std::to_string(s.boundary) + ": served " +
                        std::to_string(s.outliers.size()) + " outliers, brute force " +
                        std::to_string(truth.size()));
      }
    }
    return bad;
  }

  size_t readd_samples() { return readd_.items().size(); }
  const std::vector<std::string>& violations() const { return violations_; }
  int64_t violation_count() const { return violation_count_; }
  const Stream* stream() const { return stream_.get(); }

  std::vector<OutlierQuery> InitialQueries() const {
    std::vector<OutlierQuery> qs = def_.queries;
    if (def_.change == ChangeKind::kExtend) qs.push_back(Extra(0));
    return qs;
  }

  OutlierQuery Extra(int64_t change_index) const {
    OutlierQuery q = def_.extra;
    q.r = def_.extra_r[change_index % 2];
    return q;
  }

  // The largest window any of the workload's queries uses.
  int64_t MaxWindow() const {
    int64_t win = def_.extra.win;
    for (const OutlierQuery& q : def_.queries) win = std::max(win, q.win);
    return win;
  }

 private:
  void Violation(const std::string& what) {
    ++violation_count_;
    if (violations_.size() < 20) violations_.push_back(what);
  }

  // Sends the next batch, checks its ack and emissions. `ms` (if non-null)
  // receives the send -> ack time.
  bool Ingest(sop::net::SopClient* client, Stream* stream,
              std::map<int64_t, Live>* live, int64_t* n, double* ms,
              Phase* phase, std::string* error) {
    std::vector<Point> batch = stream->Batch(*n, def_.batch);
    const int64_t boundary = *n + def_.batch;
    sop::net::IngestAckMsg ack;
    const auto t0 = Clock::now();
    if (!client->Ingest(boundary, batch, &ack, error)) return false;
    const auto t1 = Clock::now();
    if (ms != nullptr) *ms = Ms(t0, t1);
    *n = boundary;
    if (ack.accepted != batch.size() || ack.boundary != boundary) {
      ++phase->failed;
      Violation("batch @" + std::to_string(boundary) + " acked " +
                std::to_string(ack.accepted) + " of " + std::to_string(batch.size()));
    }
    std::set<int64_t> seen;
    for (sop::net::EmissionMsg& e : client->TakeEmissions()) {
      ++phase->emissions;
      const auto it = live->find(e.query_id);
      if (it == live->end()) {
        Violation("emission for retired or unknown query " + std::to_string(e.query_id));
        continue;
      }
      const OutlierQuery& q = it->second.query;
      const std::string where = q.ToString() + " @" + std::to_string(e.boundary);
      if (e.boundary != boundary) Violation("emission off its batch: " + where);
      if (e.boundary % q.slide != 0) Violation("boundary not on the slide: " + where);
      if (e.degraded) Violation("degraded emission: " + where);
      if (!seen.insert(e.query_id).second) Violation("duplicate emission: " + where);
      const int64_t lo = std::max<int64_t>(0, e.boundary - q.win);
      for (size_t i = 0; i < e.outliers.size(); ++i) {
        if (e.outliers[i] < lo || e.outliers[i] >= e.boundary ||
            (i > 0 && e.outliers[i] <= e.outliers[i - 1])) {
          Violation("outlier seqs not ascending inside the window: " + where);
          break;
        }
      }
      any_.Offer(q, e.boundary, e.outliers);
      if (it->second.readded && !it->second.emitted) {
        readd_.Offer(q, e.boundary, e.outliers);
      }
      it->second.emitted = true;
      if (phase->codec_emissions.size() < 256) phase->codec_emissions.push_back(e);
    }
    for (const auto& [id, l] : *live) {
      if (boundary % l.query.slide == 0 && seen.count(id) == 0) {
        Violation("missing emission: " + l.query.ToString() + " @" +
                  std::to_string(boundary));
      }
    }
    return true;
  }

  // One workload change: retire a query and subscribe its replacement.
  bool Change(sop::net::SopClient* client, std::map<int64_t, Live>* live,
              int64_t index, Phase* phase, std::string* error) {
    int64_t victim = 0;
    OutlierQuery next;
    if (def_.change == ChangeKind::kExtend) {
      // The extra query is the one not among the base queries.
      for (const auto& [id, l] : *live) {
        if (std::find(def_.queries.begin(), def_.queries.end(), l.query) ==
            def_.queries.end()) {
          victim = id;
        }
      }
      next = Extra(index + 1);
    } else {
      // Round-robin: retire the longest-lived subscription.
      victim = live->begin()->first;
      next = live->begin()->second.query;
    }
    if (!client->Unsubscribe(victim, error)) return false;
    live->erase(victim);
    const int64_t id = client->Subscribe(next, error);
    if (id <= 0) {
      ++phase->failed;
      Violation("subscribe refused: " + next.ToString() + ": " + *error);
      return true;
    }
    (*live)[id] = Live{next, true, false};
    return true;
  }

  bool Timed(Deployment* dep, sop::net::SopClient* client, Stream* stream,
             std::map<int64_t, Live>* live, int64_t* n, double seconds,
             Phase* out, std::string* error) {
    ProcSample cpu0, cpu1;
    if (!dep->Sample(&cpu0)) {
      *error = "cannot read serving processes under /proc";
      return false;
    }
    const HostTicks host0 = ReadHostTicks();
    const uint64_t bytes0 = client->bytes_sent() + client->bytes_received();
    const int64_t n0 = *n;
    const auto t0 = Clock::now();
    const auto end = t0 + std::chrono::duration<double>(seconds);
    // A slow host runs on past --seconds until every percentile has its
    // sample floor (p50: 40 changes, p95: 200 steady batches), up to 3x.
    const auto hard_end = t0 + std::chrono::duration<double>(3 * seconds);
    while ((Clock::now() < end || out->changes < kMinChanges ||
            static_cast<int64_t>(out->batch_ms.size()) < kMinSteadyBatches) &&
           Clock::now() < hard_end) {
      for (int b = 0; b < kSteadyPerChange; ++b) {
        double ms = 0.0;
        ++out->attempted;
        if (!Ingest(client, stream, live, n, &ms, out, error)) return false;
        out->batch_ms.push_back(ms);
        ++out->timed_batches;
      }
      const auto c0 = Clock::now();
      out->attempted += 2;  // the change and the batch that realizes it
      if (!Change(client, live, out->changes, out, error)) return false;
      if (!Ingest(client, stream, live, n, nullptr, out, error)) return false;
      out->change_ms.push_back(Ms(c0, Clock::now()));
      ++out->timed_batches;
      ++out->changes;
    }
    out->wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
    const HostTicks host1 = ReadHostTicks();
    if (!dep->Sample(&cpu1)) {
      *error = "cannot read serving processes under /proc";
      return false;
    }
    out->timed_points = *n - n0;
    out->serving_cpu_s = cpu1.cpu_s - cpu0.cpu_s;
    out->peak_rss_kb = cpu1.hwm_kb;
    out->wire_bytes = client->bytes_sent() + client->bytes_received() - bytes0;
    const double total = host1.total - host0.total;
    out->steal_share = total > 0 ? (host1.steal - host0.steal) / total : 0.0;
    return true;
  }

  const WorkloadDef& def_;
  const Args& args_;
  Reservoir any_;
  Reservoir readd_;
  std::vector<std::string> violations_;
  int64_t violation_count_ = 0;
  std::unique_ptr<Stream> stream_;
};

// --------------------------------------------------------------------------
// In-process layer timings (traced run only): the benchmark's own calls
// into public functions, on the same inputs as the serving run.

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

struct Layers {
  std::map<std::string, double> values;
  std::map<std::string, int64_t> samples;
};

sop::Workload MakeWorkloadOf(const std::vector<OutlierQuery>& qs) {
  sop::Workload w(sop::WindowType::kCount);
  for (const OutlierQuery& q : qs) w.AddQuery(q);
  return w;
}

// SopSession::Advance over the same batches and change schedule as the
// serving run, bounded by `seconds` of replay.
void MeasureSession(const WorkloadDef& def, const Runner& runner,
                    const Stream& stream, int64_t timed_batches,
                    double seconds, Layers* out) {
  sop::obs::SetEnabled(true);
  sop::obs::MetricsRegistry::Global().Reset();
  sop::SopSession session(sop::WindowType::kCount, sop::Metric::kEuclidean,
                          kHistoryWindow);
  session.UseSopDetector(sop::SopDetector::Options());
  std::vector<std::pair<sop::QueryId, OutlierQuery>> live;
  for (const OutlierQuery& q : runner.InitialQueries()) {
    live.emplace_back(session.AddQuery(q), q);
  }
  auto batch_at = [&](int64_t n) {
    std::vector<Point> b;
    b.reserve(def.batch);
    for (int64_t i = n; i < n + def.batch; ++i) {
      b.emplace_back(0, i, std::vector<double>{stream.x(i), stream.y(i)});
    }
    return b;
  };
  int64_t n = 0;
  for (; n < runner.MaxWindow(); n += def.batch) {
    session.Advance(batch_at(n), n + def.batch);
  }
  std::vector<double> steady, change;
  const auto deadline = Clock::now() + std::chrono::duration<double>(seconds);
  int64_t done = 0, changes = 0;
  while (done < timed_batches && Clock::now() < deadline &&
         n + (kSteadyPerChange + 1) * def.batch <= stream.generated()) {
    for (int b = 0; b < kSteadyPerChange; ++b, ++done, n += def.batch) {
      std::vector<Point> pts = batch_at(n);
      const auto t0 = Clock::now();
      session.Advance(std::move(pts), n + def.batch);
      steady.push_back(Ms(t0, Clock::now()));
    }
    size_t victim = 0;
    OutlierQuery next;
    if (def.change == ChangeKind::kExtend) {
      victim = live.size() - 1;
      next = runner.Extra(changes + 1);
    } else {
      victim = 0;  // the longest-lived subscription, as in the serving run
      next = live[victim].second;
    }
    session.RemoveQuery(live[victim].first);
    live.erase(live.begin() + static_cast<long>(victim));
    live.emplace_back(session.AddQuery(next), next);
    std::vector<Point> pts = batch_at(n);
    const auto t0 = Clock::now();
    session.Advance(std::move(pts), n + def.batch);
    change.push_back(Ms(t0, Clock::now()));
    n += def.batch;
    ++done;
    ++changes;
  }
  const sop::obs::Snapshot snap = sop::obs::MetricsRegistry::Global().TakeSnapshot();
  sop::obs::SetEnabled(false);
  out->values["core.session.advance_ms_p50"] = Median(steady);
  out->samples["core.session.advance_ms_p50"] = static_cast<int64_t>(steady.size());
  out->values["core.session.change_ms_p50"] = Median(change);
  out->samples["core.session.change_ms_p50"] = static_cast<int64_t>(change.size());
  const auto h = snap.histograms.find("session/rebuild_ms");
  out->values["core.session.rebuild_ms_p50"] =
      h == snap.histograms.end() ? 0.0 : h->second.p50;
  out->samples["core.session.rebuild_ms_p50"] =
      h == snap.histograms.end() ? 0 : static_cast<int64_t>(h->second.count);
  const auto rp = snap.counters.find("session/replayed_points");
  out->values["core.session.replayed_points_per_change"] =
      changes == 0 || rp == snap.counters.end()
          ? 0.0
          : static_cast<double>(rp->second) / static_cast<double>(changes);
}

// WorkloadPlan compilation with elastic headroom, and Classify per change.
void MeasurePlan(const WorkloadDef& def, const Runner& runner, Layers* out) {
  const std::vector<OutlierQuery> initial = runner.InitialQueries();
  std::vector<double> compile;
  for (int i = 0; i < 31; ++i) {
    sop::Workload w = MakeWorkloadOf(initial);
    const auto t0 = Clock::now();
    sop::WorkloadPlan plan(std::move(w), sop::PlanHeadroom::Elastic());
    compile.push_back(Ms(t0, Clock::now()));
    if (plan.num_layers() == 0) return;
  }
  out->values["query.plan.compile_ms"] = Median(compile);
  out->samples["query.plan.compile_ms"] = static_cast<int64_t>(compile.size());
  sop::WorkloadPlan plan(MakeWorkloadOf(initial), sop::PlanHeadroom::Elastic());
  std::vector<double> classify;
  std::vector<OutlierQuery> current = initial;
  for (int64_t c = 0; c < 101; ++c) {
    std::vector<OutlierQuery> next = current;
    if (def.change == ChangeKind::kExtend) {
      next.back() = runner.Extra(c + 1);
    } else {
      const OutlierQuery q = next.front();
      next.erase(next.begin());
      next.push_back(q);
    }
    const sop::Workload w = MakeWorkloadOf(next);
    const auto t0 = Clock::now();
    const sop::PlanDelta delta = plan.Classify(w);
    classify.push_back(Ms(t0, Clock::now()) * 1000.0);
    if (delta == sop::PlanDelta::kRebuild) return;
    current = next;
  }
  out->values["query.plan.classify_us"] = Median(classify);
  out->samples["query.plan.classify_us"] = static_cast<int64_t>(classify.size());
}

// DistanceKernel::BatchDist over a ColumnStore holding the largest window,
// with the process-default backend (the server's default too).
void MeasureKernel(const Stream& stream, int64_t win, Layers* out) {
  sop::ColumnStore cols;
  std::vector<Seq> seqs;
  for (int64_t i = 0; i < win; ++i) {
    cols.Append(Point(i, i, {stream.x(i), stream.y(i)}));
    seqs.push_back(i);
  }
  sop::DistanceKernel kernel(sop::Metric::kEuclidean, {});
  std::vector<double> dist(seqs.size());
  std::vector<double> per_probe;
  for (int64_t p = 0; p < std::min<int64_t>(win, 400); ++p) {
    const Point probe(p, p, {stream.x(p), stream.y(p)});
    const auto t0 = Clock::now();
    kernel.BatchDist(cols, probe, seqs.data(), seqs.size(), dist.data());
    per_probe.push_back(Ms(t0, Clock::now()) * 1e6 / static_cast<double>(seqs.size()));
  }
  out->values["kernel.batchdist_ns_per_candidate"] = Median(per_probe);
  out->samples["kernel.batchdist_ns_per_candidate"] =
      static_cast<int64_t>(per_probe.size());
}

// StreamBuffer::Append / ExpireBefore / MemoryBytes at the largest window.
void MeasureStream(const Stream& stream, int64_t win, int64_t batch,
                   Layers* out) {
  sop::StreamBuffer buf(sop::WindowType::kCount);
  std::vector<double> append, expire;
  const int64_t total = std::min<int64_t>(stream.generated() / batch * batch,
                                          win + 200 * batch);
  for (int64_t n = 0; n + batch <= total; n += batch) {
    std::vector<Point> pts;
    for (int64_t i = n; i < n + batch; ++i) {
      pts.emplace_back(i, i, std::vector<double>{stream.x(i), stream.y(i)});
    }
    auto t0 = Clock::now();
    for (Point& p : pts) buf.Append(std::move(p));
    append.push_back(Ms(t0, Clock::now()) * 1e6 / batch);
    t0 = Clock::now();
    buf.ExpireBefore(n + batch - win);
    expire.push_back(Ms(t0, Clock::now()) * 1000.0);
  }
  out->values["stream.append_ns_per_point"] = Median(append);
  out->samples["stream.append_ns_per_point"] = static_cast<int64_t>(append.size());
  out->values["stream.expire_us_per_batch"] = Median(expire);
  out->samples["stream.expire_us_per_batch"] = static_cast<int64_t>(expire.size());
  out->values["stream.bytes_per_window_point"] =
      buf.empty() ? 0.0
                  : static_cast<double>(buf.MemoryBytes()) /
                        static_cast<double>(buf.size());
}

bool DecodeFrame(const std::string& frame, std::string* payload) {
  sop::net::FrameDecoder dec;
  dec.Append(frame.data(), frame.size());
  return dec.Next(payload) == sop::net::FrameDecoder::Status::kFrame;
}

// Wire codec: EncodeIngest/DecodeIngest per batch and
// EncodeEmission/DecodeEmission per emission.
bool MeasureCodec(const Stream& stream, int64_t batch,
                  const std::vector<sop::net::EmissionMsg>& emissions,
                  Layers* out) {
  std::vector<double> ingest;
  std::string payload, error;
  const int64_t batches = std::min<int64_t>(stream.generated() / batch, 200);
  for (int64_t b = 0; b < batches; ++b) {
    sop::net::IngestMsg msg;
    msg.boundary = (b + 1) * batch;
    for (int64_t i = b * batch; i < (b + 1) * batch; ++i) {
      msg.points.emplace_back(i, i, std::vector<double>{stream.x(i), stream.y(i)});
    }
    sop::net::IngestMsg back;
    const auto t0 = Clock::now();
    const std::string frame = sop::net::EncodeIngest(msg);
    if (!DecodeFrame(frame, &payload) ||
        !sop::net::DecodeIngest(payload, &back, &error)) {
      return false;
    }
    ingest.push_back(Ms(t0, Clock::now()) * 1e6 / batch);
    if (back.points.size() != msg.points.size()) return false;
  }
  double emit_ns = 0.0;
  int64_t outliers = 0;
  for (int rep = 0; rep < 5; ++rep) {
    for (const sop::net::EmissionMsg& e : emissions) {
      sop::net::EmissionMsg back;
      const auto t0 = Clock::now();
      const std::string frame = sop::net::EncodeEmission(e);
      if (!DecodeFrame(frame, &payload) ||
          !sop::net::DecodeEmission(payload, &back, &error)) {
        return false;
      }
      emit_ns += Ms(t0, Clock::now()) * 1e6;
      outliers += static_cast<int64_t>(std::max<size_t>(1, e.outliers.size()));
    }
  }
  out->values["net.codec.ingest_ns_per_point"] = Median(ingest);
  out->samples["net.codec.ingest_ns_per_point"] = static_cast<int64_t>(ingest.size());
  out->values["net.codec.emission_ns_per_outlier"] =
      outliers == 0 ? 0.0 : emit_ns / static_cast<double>(outliers);
  out->samples["net.codec.emission_ns_per_outlier"] = outliers;
  return true;
}

// Partitioner::AssignmentsOf with the router's cuts and auto halo.
void MeasureSplit(const Stream& stream, const Runner& runner, int64_t batch,
                  Layers* out) {
  const double halo = sop::cluster::HaloFromBasis(
      MakeWorkloadOf(runner.InitialQueries()), sop::PlanHeadroom::Elastic());
  const sop::cluster::Partitioner part(
      sop::cluster::PartitionSpec::Uniform(kDomainLo, kDomainHi, kRoutedWorkers),
      halo);
  std::vector<sop::cluster::ShardAssignment> scratch;
  std::vector<double> per_point;
  int64_t copies = 0, points = 0;
  const int64_t total = stream.generated() / batch * batch;
  for (int64_t n = 0; n < total; n += batch) {
    const auto t0 = Clock::now();
    for (int64_t i = n; i < n + batch; ++i) {
      part.AssignmentsOf(stream.x(i), &scratch);
      copies += static_cast<int64_t>(scratch.size());
    }
    per_point.push_back(Ms(t0, Clock::now()) * 1e6 / batch);
    points += batch;
  }
  out->values["cluster.split_ns_per_point"] = Median(per_point);
  out->samples["cluster.split_ns_per_point"] = static_cast<int64_t>(per_point.size());
  out->values["cluster.copies_per_point"] =
      points == 0 ? 0.0 : static_cast<double>(copies) / static_cast<double>(points);
}

// --------------------------------------------------------------------------
// Result file

class Json {
 public:
  void Key(const std::string& k) {
    Sep();
    s_ += "\"" + k + "\":";
    fresh_ = true;
  }
  void Num(double v) {
    Sep();
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    s_ += buf;
  }
  void Int(int64_t v) {
    Sep();
    s_ += std::to_string(v);
  }
  void Str(const std::string& v) {
    Sep();
    s_ += "\"";
    for (char c : v) {
      if (c == '"' || c == '\\') s_ += '\\';
      if (static_cast<unsigned char>(c) < 0x20) c = ' ';
      s_ += c;
    }
    s_ += "\"";
  }
  void Open(char c) {
    Sep();
    s_ += c;
    fresh_ = true;
  }
  void Close(char c) {
    s_ += c;
    fresh_ = false;
  }
  const std::string& str() const { return s_; }

 private:
  void Sep() {
    if (!fresh_) s_ += ',';
    fresh_ = false;
  }
  std::string s_;
  bool fresh_ = true;
};

void WriteNums(Json* j, const std::string& key, const std::vector<double>& v) {
  j->Key(key);
  j->Open('[');
  for (double x : v) j->Num(x);
  j->Close(']');
}

void WriteStrs(Json* j, const std::string& key, const std::vector<std::string>& v) {
  j->Key(key);
  j->Open('[');
  for (const std::string& x : v) j->Str(x);
  j->Close(']');
}

void WritePhase(Json* j, const std::string& key, const Phase& p) {
  j->Key(key);
  j->Open('{');
  WriteNums(j, "setup_s", p.setup_s);
  WriteNums(j, "batch_ms", p.batch_ms);
  WriteNums(j, "change_ms", p.change_ms);
  j->Key("timed_points"); j->Int(p.timed_points);
  j->Key("total_points"); j->Int(p.total_points);
  j->Key("timed_batches"); j->Int(p.timed_batches);
  j->Key("changes"); j->Int(p.changes);
  j->Key("emissions"); j->Int(p.emissions);
  j->Key("wall_s"); j->Num(p.wall_s);
  j->Key("serving_cpu_s"); j->Num(p.serving_cpu_s);
  j->Key("peak_rss_kb"); j->Num(p.peak_rss_kb);
  j->Key("wire_bytes"); j->Int(static_cast<int64_t>(p.wire_bytes));
  j->Key("attempted"); j->Int(p.attempted);
  j->Key("failed"); j->Int(p.failed);
  j->Key("steal_share"); j->Num(p.steal_share);
  WriteStrs(j, "snapshots", p.snapshots);
  WriteStrs(j, "problems", p.problems);
  j->Close('}');
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--plant-wrong-outlier") {
      a->plant_wrong_outlier = true;
      continue;
    }
    if (k == "--single-server") {
      a->single_server = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (k == "--workload") a->workload = v;
    else if (k == "--seed") a->seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a->seconds = std::strtod(v.c_str(), nullptr);
    else if (k == "--trace") a->trace = v == "1";
    else if (k == "--bin-dir") a->bin_dir = v;
    else if (k == "--run-dir") a->run_dir = v;
    else return false;
  }
  return !a->workload.empty() && !a->bin_dir.empty() && !a->run_dir.empty() &&
         a->seconds > 0;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: servebench_loadgen --workload NAME --seed S --seconds T "
                 "--trace 0|1 --bin-dir DIR --run-dir DIR [--plant-wrong-outlier] "
                 "[--single-server]\n");
    return 2;
  }
  WorkloadDef def;
  if (!MakeWorkload(args.workload, &def)) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  if (args.single_server) def.routed = false;
  // A peer that goes away must surface as an error, not kill the load generator.
  signal(SIGPIPE, SIG_IGN);

  Runner runner(def, args);
  std::string error;
  Phase untraced, traced;
  // A traced invocation splits --seconds between an untraced and a traced
  // phase (their difference is the tracing overhead) and bounds the
  // in-process session replay by the same half, so it takes about as long
  // as an untraced one plus the in-process timings.
  const double phase_s = args.trace ? args.seconds / 2 : args.seconds;
  if (!runner.RunPhase("untraced", kSetups, false, phase_s, &untraced, &error)) {
    std::fprintf(stderr, "untraced phase: %s\n", error.c_str());
    return 2;
  }
  Layers layers;
  if (args.trace) {
    if (!runner.RunPhase("traced", 1, true, phase_s, &traced, &error)) {
      std::fprintf(stderr, "traced phase: %s\n", error.c_str());
      return 2;
    }
    const Stream& stream = *runner.stream();
    const int64_t max_win = runner.MaxWindow();
    MeasureSession(def, runner, stream, traced.timed_batches, phase_s, &layers);
    MeasurePlan(def, runner, &layers);
    MeasureKernel(stream, max_win, &layers);
    MeasureStream(stream, max_win, def.batch, &layers);
    if (!MeasureCodec(stream, def.batch, traced.codec_emissions, &layers)) {
      std::fprintf(stderr, "codec round trip failed\n");
      return 2;
    }
    MeasureSplit(stream, runner, def.batch, &layers);
  }

  int checked = 0;
  int64_t oracle_outliers = 0;
  std::vector<std::string> oracle_msgs;
  const int mismatches = runner.CheckOracle(&checked, &oracle_outliers, &oracle_msgs);

  Json j;
  j.Open('{');
  j.Key("workload"); j.Str(def.name);
  j.Key("seed"); j.Int(static_cast<int64_t>(args.seed));
  j.Key("kernel_backend"); j.Str(sop::KernelBackendName(sop::ActiveKernelBackend()));
  WritePhase(&j, "untraced", untraced);
  if (args.trace) WritePhase(&j, "traced", traced);
  j.Key("checks");
  j.Open('{');
  j.Key("violations"); j.Int(runner.violation_count());
  WriteStrs(&j, "violation_examples", runner.violations());
  j.Key("oracle_checked"); j.Int(checked);
  j.Key("oracle_readd_checked"); j.Int(static_cast<int64_t>(runner.readd_samples()));
  j.Key("oracle_mismatches"); j.Int(mismatches);
  j.Key("oracle_outliers"); j.Int(oracle_outliers);
  WriteStrs(&j, "oracle_messages", oracle_msgs);
  j.Close('}');
  j.Key("layers");
  j.Open('{');
  for (const auto& [k, v] : layers.values) {
    j.Key(k);
    j.Num(v);
  }
  j.Close('}');
  j.Key("layer_samples");
  j.Open('{');
  for (const auto& [k, v] : layers.samples) {
    j.Key(k);
    j.Int(v);
  }
  j.Close('}');
  j.Close('}');
  const std::string path = args.run_dir + "/result.json";
  std::ofstream out(path);
  out << j.str() << "\n";
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 2;
  }
  const bool ok = runner.violation_count() == 0 && mismatches == 0 &&
                  untraced.problems.empty() && traced.problems.empty() &&
                  checked > 0;
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) { return servebench::Main(argc, argv); }
