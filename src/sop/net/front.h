// Front: the one connection front of the serving plane (DESIGN.md Sec. 13).
//
// SopServer (net/server.h) and SopRouter (cluster/router.h) both serve
// their clients through this class. It owns the connection lifecycle: the
// listener and accept thread; one reader thread per connection (frame
// decoding, framing-loss and undecodable-type refusals, the mid-frame idle
// timeout, the version-checked Hello and Ping/Pong); one writer thread per
// connection draining a bounded send queue — droppable frames (emissions)
// block the producer under kBlock or shed the oldest queued droppable frame
// under kDropOldest, while control frames (acks, errors) bypass the bound
// and are never shed; the connection counters; and the stop paths.
//
// The rest is the handler's (FrontHandler). Dispatch runs inline on the
// reader thread: no thread hop, no copy of the payload.

#ifndef SOP_NET_FRONT_H_
#define SOP_NET_FRONT_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "sop/detector/engine.h"
#include "sop/net/protocol.h"
#include "sop/net/socket.h"
#include "sop/obs/metrics.h"

namespace sop {
namespace net {

/// One client connection. Handlers hold it as a reply target and as the
/// owner of subscriptions; the fields are the Front's.
class FrontConn {
 public:
  explicit FrontConn(Socket sock) : sock_(std::move(sock)) {}

  /// True once the connection is going away; frames sent to it are
  /// dropped.
  bool closing() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closing_;
  }
  /// A loss on this connection (a shed frame, a resume gap): the next
  /// emission to it should say degraded. Take returns and clears the flag.
  void MarkDegraded() {
    std::lock_guard<std::mutex> lock(mu_);
    degraded_ = true;
  }
  bool TakeDegraded() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::exchange(degraded_, false);
  }

 private:
  friend class Front;
  struct Outgoing {
    std::string frame;
    bool droppable;
  };

  Socket sock_;
  std::thread reader_, writer_;
  std::atomic<bool> reader_done_{false}, writer_done_{false};
  mutable std::mutex mu_;
  std::condition_variable cv_push_;  // writer waits: frames or closing
  std::condition_variable cv_pop_;   // kBlock senders wait: room
  std::condition_variable cv_done_;  // DrainWriters waits: writer_done_
  std::deque<Outgoing> sendq_;       // guarded by mu_
  bool closing_ = false;             // guarded by mu_
  bool degraded_ = false;            // guarded by mu_
};

/// What a Front serves beyond the connection lifecycle.
class FrontHandler {
 public:
  virtual ~FrontHandler() = default;
  /// Fills the hello ack but its protocol version: configuration, role,
  /// last boundary, next_seq.
  virtual void FillHelloAck(HelloAckMsg* ack) = 0;
  /// Fills the pong's role, last boundary and ingest queue depth.
  virtual void FillPong(PongMsg* pong) = 0;
  /// One CRC-verified frame of any type but kHello/kPing, on the reader
  /// thread. False drops the connection.
  virtual bool OnFrame(const std::shared_ptr<FrontConn>& conn, MsgType type,
                       const std::string& payload) = 0;
  /// `conn` closed: peer gone, refusal, send failure, idle timeout or
  /// Abort. Once per connection; never during a graceful stop.
  virtual void OnClose(const std::shared_ptr<FrontConn>& conn) = 0;
};

struct FrontOptions {
  std::string host = "127.0.0.1";
  int port = 0;  // 0 binds an ephemeral port
  int backlog = 64;
  size_t max_send_queue = 256;  // droppable frames per connection
  OverloadPolicy send_policy = OverloadPolicy::kBlock;
  int idle_timeout_ms = -1;  // mid-frame stall limit; -1 disables
  NetRetryOptions retry;
  std::string metric_prefix = "net/server";  // obs names: <prefix>/bytes_in
};

/// Connection counters since Start().
struct FrontStats {
  uint64_t connections = 0;  // accepted, lifetime
  uint64_t active_clients = 0;
  uint64_t frames_in = 0;
  uint64_t frames_out = 0;
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
  uint64_t protocol_errors = 0;   // refusals of frames, messages, requests
  uint64_t idle_disconnects = 0;  // mid-frame stalls timed out
  uint64_t shed_emissions = 0;    // droppable frames shed (kDropOldest)
};

class Front {
 public:
  /// `handler` must outlive the Front. Once Start() succeeded, stop with
  /// StopReading + DrainWriters, or Abort, before destruction.
  Front(FrontOptions options, FrontHandler* handler)
      : options_(std::move(options)), handler_(handler) {}

  /// Binds and starts accepting; false with `*error` set on failure.
  bool Start(std::string* error);
  int port() const { return port_; }

  /// Queues a frame for `conn`'s writer; false if it was dropped because
  /// the connection is closing.
  bool Send(const std::shared_ptr<FrontConn>& conn, std::string frame,
            bool droppable = false);
  /// Counts a protocol error and sends `message` as an ErrorMsg.
  void Refuse(const std::shared_ptr<FrontConn>& conn, std::string message);
  /// Refuses a message type the handler does not serve; returns true
  /// (keep the connection) for use as a handler's default case.
  bool RefuseUnexpected(const std::shared_ptr<FrontConn>& conn, MsgType type);
  /// Counts protocol errors seen elsewhere (a router's worker refusals).
  void CountProtocolErrors(uint64_t n) { protocol_errors_.Add(n); }

  /// Graceful stop, first half: stops accepting, runs `release` (the
  /// handler marks itself stopping and wakes readers blocked in it), shuts
  /// every read side and joins the readers. Connections stay open, so the
  /// handler can drain its own loop and still Send.
  void StopReading(const std::function<void()>& release);
  /// Graceful stop, second half: writers drain their queues; a peer that
  /// has not taken its frames within 2 s is cut off.
  void DrainWriters();
  /// Crash-style stop: closes every connection at once (queued frames are
  /// dropped, OnClose runs), runs `release`, joins every thread.
  void Abort(const std::function<void()>& release);

  FrontStats stats() const;

 private:
  // A counter with its obs mirror (resolved at Start when obs is on).
  struct Tally {
    std::atomic<uint64_t> value{0};
    obs::Counter* mirror = nullptr;
    void Add(uint64_t n) {
      value.fetch_add(n, std::memory_order_relaxed);
      if (mirror != nullptr && obs::Enabled()) mirror->Add(n);
    }
    uint64_t get() const { return value.load(std::memory_order_relaxed); }
  };

  void AcceptLoop();
  void ReaderLoop(const std::shared_ptr<FrontConn>& conn);
  void WriterLoop(const std::shared_ptr<FrontConn>& conn);
  // Handles one frame; false drops the connection.
  bool Dispatch(const std::shared_ptr<FrontConn>& conn,
                const std::string& payload);
  // Marks `conn` closing and tells the handler. With `flush` the writer
  // still sends what is queued before closing. Idempotent.
  void Close(const std::shared_ptr<FrontConn>& conn, bool flush);
  void SetActive(int64_t delta);
  void StopAccepting();
  std::vector<std::shared_ptr<FrontConn>> Snapshot() const;

  const FrontOptions options_;
  FrontHandler* const handler_;
  int port_ = 0;
  std::unique_ptr<TransportListener> listener_;
  std::thread accept_thread_;
  std::atomic<bool> stopping_{false};

  mutable std::mutex conns_mu_;
  // Open connections, plus closed ones whose threads are not joined yet.
  std::vector<std::shared_ptr<FrontConn>> conns_;  // guarded by conns_mu_

  Tally connections_, disconnects_, frames_in_, frames_out_, bytes_in_,
      bytes_out_, protocol_errors_, idle_disconnects_, shed_emissions_;
  std::atomic<int64_t> active_clients_{0};
  obs::Gauge* active_gauge_ = nullptr;
  obs::Gauge* depth_gauge_ = nullptr;
};

}  // namespace net
}  // namespace sop

#endif  // SOP_NET_FRONT_H_
