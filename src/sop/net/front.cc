#include "sop/net/front.h"

#include <chrono>
#include <utility>

namespace sop {
namespace net {

bool Front::Start(std::string* error) {
  if (obs::Enabled()) {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    const std::string& p = options_.metric_prefix;
    const std::pair<Tally*, const char*> tallies[] = {
        {&connections_, "/connections"},
        {&disconnects_, "/disconnects"},
        {&frames_in_, "/frames_in"},
        {&frames_out_, "/frames_out"},
        {&bytes_in_, "/bytes_in"},
        {&bytes_out_, "/bytes_out"},
        {&protocol_errors_, "/protocol_errors"},
        {&idle_disconnects_, "/idle_disconnects"},
        {&shed_emissions_, "/shed_emissions"}};
    for (const auto& [tally, name] : tallies) {
      tally->mirror = &registry.GetCounter(p + name);
    }
    active_gauge_ = &registry.GetGauge(p + "/active_clients");
    depth_gauge_ = &registry.GetGauge(p + "/send_queue_depth");
  }
  listener_ = Transport::Active()->Listen(options_.host, options_.port,
                                          options_.backlog, error);
  if (listener_ == nullptr) return false;
  port_ = listener_->port();
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return true;
}

bool Front::Send(const std::shared_ptr<FrontConn>& conn, std::string frame,
                 bool droppable) {
  std::unique_lock<std::mutex> lock(conn->mu_);
  if (conn->closing_) return false;
  if (droppable && conn->sendq_.size() >= options_.max_send_queue) {
    if (options_.send_policy == OverloadPolicy::kDropOldest) {
      // Shed the oldest queued droppable frame; never a control reply.
      for (auto it = conn->sendq_.begin(); it != conn->sendq_.end(); ++it) {
        if (it->droppable) {
          conn->sendq_.erase(it);
          conn->degraded_ = true;
          shed_emissions_.Add(1);
          break;
        }
      }
    } else {
      // kBlock: lossless backpressure into the producer.
      conn->cv_pop_.wait(lock, [&] {
        return conn->closing_ ||
               conn->sendq_.size() < options_.max_send_queue;
      });
      if (conn->closing_) return false;
    }
  }
  conn->sendq_.push_back(FrontConn::Outgoing{std::move(frame), droppable});
  if (depth_gauge_ != nullptr && obs::Enabled()) {
    depth_gauge_->SetMax(static_cast<int64_t>(conn->sendq_.size()));
  }
  conn->cv_push_.notify_one();
  return true;
}

void Front::Refuse(const std::shared_ptr<FrontConn>& conn,
                   std::string message) {
  protocol_errors_.Add(1);
  Send(conn, EncodeError(ErrorMsg{std::move(message)}));
}

bool Front::RefuseUnexpected(const std::shared_ptr<FrontConn>& conn,
                             MsgType type) {
  // Server-bound streams never carry server-push types; a client sending
  // one is confused but not fatal.
  Refuse(conn,
         std::string("unexpected client message: ") + MsgTypeName(type));
  return true;
}

void Front::SetActive(int64_t delta) {
  const int64_t active = active_clients_.fetch_add(delta) + delta;
  if (active_gauge_ != nullptr && obs::Enabled()) active_gauge_->Set(active);
}

void Front::Close(const std::shared_ptr<FrontConn>& conn, bool flush) {
  {
    std::lock_guard<std::mutex> lock(conn->mu_);
    if (conn->closing_) return;
    conn->closing_ = true;
    conn->cv_push_.notify_all();
    conn->cv_pop_.notify_all();
  }
  if (flush) {
    conn->sock_.ShutdownRead();  // the writer closes once its queue is out
  } else {
    conn->sock_.ShutdownBoth();  // unblocks recv/send in reader/writer
  }
  SetActive(-1);
  disconnects_.Add(1);
  handler_->OnClose(conn);
}

bool Front::Dispatch(const std::shared_ptr<FrontConn>& conn,
                     const std::string& payload) {
  MsgType type;
  std::string error;
  if (!PeekType(payload, &type, &error)) {
    Refuse(conn, error);
    return false;
  }
  if (type == MsgType::kHello) {
    HelloMsg hello;
    if (!DecodeHello(payload, &hello, &error)) {
      Refuse(conn, error);
      return false;
    }
    if (hello.protocol_version != kProtocolVersion) {
      Refuse(conn, "protocol version mismatch: server speaks v" +
                       std::to_string(kProtocolVersion));
      return false;
    }
    HelloAckMsg ack;
    handler_->FillHelloAck(&ack);
    ack.protocol_version = kProtocolVersion;
    Send(conn, EncodeHelloAck(ack));
    return true;
  }
  if (type != MsgType::kPing) return handler_->OnFrame(conn, type, payload);
  PingMsg ping;
  if (!DecodePing(payload, &ping, &error)) {
    Refuse(conn, error);
    return false;
  }
  PongMsg pong;
  handler_->FillPong(&pong);
  pong.token = ping.token;
  for (const std::shared_ptr<FrontConn>& c : Snapshot()) {
    std::lock_guard<std::mutex> lock(c->mu_);
    pong.send_queue_depth += c->sendq_.size();
  }
  pong.active_connections = static_cast<uint64_t>(active_clients_.load());
  Send(conn, EncodePong(pong));
  return true;
}

void Front::ReaderLoop(const std::shared_ptr<FrontConn>& conn) {
  FrameDecoder decoder;
  char buf[64 << 10];
  std::string payload;
  bool timed_out = false;
  for (bool drop = false; !drop;) {
    std::string error;
    const int64_t n =
        RecvSomeTimeout(conn->sock_, buf, sizeof(buf),
                        options_.idle_timeout_ms, options_.retry, &error);
    if (n == kRecvTimedOut) {
      // Only a mid-frame stall is hostile (slow-loris); a connection with
      // no partial frame pending is just a quiet subscriber.
      timed_out = drop = decoder.buffered_bytes() > 0;
      if (timed_out) idle_disconnects_.Add(1);
      continue;
    }
    if (n <= 0) break;  // orderly close, hard error, or retry exhaustion
    bytes_in_.Add(static_cast<uint64_t>(n));
    decoder.Append(buf, static_cast<size_t>(n));
    while (!drop) {
      const FrameDecoder::Status status = decoder.Next(&payload, &error);
      if (status == FrameDecoder::Status::kNeedMore) break;
      if (status == FrameDecoder::Status::kError) {
        // Framing lost: this connection cannot resync. Tell the client why
        // and drop it; every other connection stays up.
        Refuse(conn, error);
        drop = true;
      } else {
        frames_in_.Add(1);
        drop = !Dispatch(conn, payload);
      }
    }
  }
  // During a graceful stop the reader exits on EOF (ShutdownRead) but must
  // NOT close the connection: the writer is still draining queued replies.
  // Every other exit closes; queued replies (the refusal that dropped the
  // connection, say) still go out, except to a slow-loris peer.
  if (!stopping_.load(std::memory_order_relaxed) || timed_out) {
    Close(conn, /*flush=*/!timed_out);
  }
  conn->reader_done_.store(true, std::memory_order_release);
}

void Front::WriterLoop(const std::shared_ptr<FrontConn>& conn) {
  for (;;) {
    FrontConn::Outgoing out;
    {
      std::unique_lock<std::mutex> lock(conn->mu_);
      conn->cv_push_.wait(lock, [&] {
        return conn->closing_ || !conn->sendq_.empty();
      });
      // Drain queued frames even when closing; a writer stuck on a dead
      // peer still exits via the SendAll failure.
      if (conn->sendq_.empty()) break;
      out = std::move(conn->sendq_.front());
      conn->sendq_.pop_front();
      conn->cv_pop_.notify_one();
    }
    std::string error;
    if (!SendAll(conn->sock_, out.frame, options_.retry, &error)) {
      Close(conn, /*flush=*/false);
      break;
    }
    frames_out_.Add(1);
    bytes_out_.Add(out.frame.size());
  }
  conn->sock_.ShutdownBoth();  // the peer sees the close once all is sent
  {
    std::lock_guard<std::mutex> lock(conn->mu_);
    conn->writer_done_.store(true, std::memory_order_release);
  }
  conn->cv_done_.notify_all();
}

void Front::AcceptLoop() {
  for (;;) {
    std::string error;
    std::unique_ptr<TransportConn> accepted = listener_->Accept(&error);
    if (stopping_.load(std::memory_order_relaxed)) return;
    if (accepted == nullptr) continue;  // transient failure; keep serving
    auto conn = std::make_shared<FrontConn>(Socket(std::move(accepted)));
    connections_.Add(1);
    SetActive(1);
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      // Reap connections whose threads both exited, so a long-lived
      // process keeps no dead threads or descriptors. Only this thread
      // spawns connection threads, and the stop paths join it first.
      for (size_t i = 0; i < conns_.size();) {
        FrontConn& c = *conns_[i];
        if (c.reader_done_.load(std::memory_order_acquire) &&
            c.writer_done_.load(std::memory_order_acquire)) {
          c.reader_.join();
          c.writer_.join();
          c.sock_.Close();
          conns_[i] = std::move(conns_.back());
          conns_.pop_back();
        } else {
          ++i;
        }
      }
      // Registered before its threads run: the stop paths join every
      // connection this thread spawned.
      conns_.push_back(conn);
    }
    conn->reader_ = std::thread([this, conn] { ReaderLoop(conn); });
    conn->writer_ = std::thread([this, conn] { WriterLoop(conn); });
  }
}

std::vector<std::shared_ptr<FrontConn>> Front::Snapshot() const {
  std::lock_guard<std::mutex> lock(conns_mu_);
  return conns_;
}

void Front::StopAccepting() {
  stopping_.store(true, std::memory_order_relaxed);
  if (listener_ == nullptr) return;
  // Shutdown unblocks the accept thread; the close waits for the join —
  // closing rewrites the fd while Accept may still read it.
  listener_->Shutdown();
  accept_thread_.join();
  listener_->Close();
}

void Front::StopReading(const std::function<void()>& release) {
  // From here on a reader that leaves its loop — EOF, or a handler that
  // refuses because it is stopping — keeps its connection open.
  StopAccepting();
  if (release) release();
  const std::vector<std::shared_ptr<FrontConn>> conns = Snapshot();
  for (const std::shared_ptr<FrontConn>& conn : conns) {
    conn->sock_.ShutdownRead();
  }
  for (const std::shared_ptr<FrontConn>& conn : conns) conn->reader_.join();
}

void Front::DrainWriters() {
  std::vector<std::shared_ptr<FrontConn>> conns;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns.swap(conns_);
  }
  for (const std::shared_ptr<FrontConn>& conn : conns) {
    std::lock_guard<std::mutex> lock(conn->mu_);
    conn->closing_ = true;
    conn->cv_push_.notify_all();
    conn->cv_pop_.notify_all();
  }
  // A peer that refuses to read cannot hold shutdown hostage: past the
  // deadline its connection is aborted.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  for (const std::shared_ptr<FrontConn>& conn : conns) {
    bool done = false;
    {
      std::unique_lock<std::mutex> lock(conn->mu_);
      done = conn->cv_done_.wait_until(lock, deadline, [&] {
        return conn->writer_done_.load(std::memory_order_acquire);
      });
    }
    if (!done) conn->sock_.ShutdownBoth();
    conn->writer_.join();
    // Handlers may still hold the connection; the peer sees the close now.
    conn->sock_.Close();
  }
}

void Front::Abort(const std::function<void()>& release) {
  StopAccepting();
  std::vector<std::shared_ptr<FrontConn>> conns;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns.swap(conns_);
  }
  for (const std::shared_ptr<FrontConn>& conn : conns) {
    Close(conn, /*flush=*/false);
    conn->sock_.ShutdownBoth();  // also cuts a flush already under way
  }
  if (release) release();
  for (const std::shared_ptr<FrontConn>& conn : conns) {
    conn->reader_.join();
    conn->writer_.join();
    conn->sock_.Close();
  }
}

FrontStats Front::stats() const {
  FrontStats s;
  s.connections = connections_.get();
  s.active_clients = static_cast<uint64_t>(active_clients_.load());
  s.frames_in = frames_in_.get();
  s.frames_out = frames_out_.get();
  s.bytes_in = bytes_in_.get();
  s.bytes_out = bytes_out_.get();
  s.protocol_errors = protocol_errors_.get();
  s.idle_disconnects = idle_disconnects_.get();
  s.shed_emissions = shed_emissions_.get();
  return s;
}

}  // namespace net
}  // namespace sop
