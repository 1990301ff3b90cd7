// TCP helpers shared by SopServer and SopClient: RAII connection
// ownership, full-buffer sends, and recv/send wrappers that consult the
// armed FaultInjector (common/fault.h) at the net-read / net-write sites.
//
// Since the sim harness landed (DESIGN.md Sec. 18) these are thin shims
// over the process transport (net/transport.h): by default the POSIX TCP
// stack, under test possibly the deterministic in-memory SimNet. The
// fault-injection retry discipline lives here, above the transport seam,
// so both transports see it identically.
//
// Injected failures model transient socket errors (EINTR, brief EAGAIN):
// the wrappers retry with bounded exponential backoff, mirroring the
// engine's source/sink retry discipline (detector/engine.h). Exhausted
// retries — and every real socket error — surface as an ordinary failure
// return: unlike the engine, the serving layer must never abort the
// process because one connection went bad.

#ifndef SOP_NET_SOCKET_H_
#define SOP_NET_SOCKET_H_

#include <cstdint>
#include <memory>
#include <string>

#include "sop/net/transport.h"

namespace sop {
namespace net {

/// Bounded exponential backoff for injected transient socket failures
/// (field meanings as in RetryOptions, detector/engine.h).
struct NetRetryOptions {
  int max_attempts = 8;
  int backoff_initial_us = 50;
  int backoff_max_us = 5000;
};

/// Owning wrapper over one established transport connection. Move-only;
/// closes on destruction. (Listening is the connection front's,
/// net/front.h.)
class Socket {
 public:
  Socket() = default;
  explicit Socket(std::unique_ptr<TransportConn> conn)
      : conn_(std::move(conn)) {}
  ~Socket() { Close(); }

  Socket(Socket&& other) noexcept = default;
  Socket& operator=(Socket&& other) noexcept = default;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  bool valid() const { return conn_ != nullptr; }

  TransportConn* conn() const { return conn_.get(); }

  /// Both directions — unblocks any thread inside recv/send on this
  /// connection (the close path readers/writers rely on).
  void ShutdownBoth();
  /// The read direction only: the blocked reader wakes with an orderly
  /// EOF while queued outbound bytes still drain — the graceful stop
  /// path, as opposed to ShutdownBoth's discard-everything close.
  void ShutdownRead();
  void Close();

 private:
  std::unique_ptr<TransportConn> conn_;
};

/// Connects to `host:port` on the active transport. Returns an invalid
/// Socket with `*error` set on failure.
Socket ConnectTcp(const std::string& host, int port, std::string* error);

/// Receives up to `cap` bytes into `buf`. Returns the byte count, 0 on
/// orderly peer close, or -1 on error (with `*error` set). Consults the
/// injector at net-read: injected failures are retried with backoff;
/// exhausting the retry budget reports an error.
int64_t RecvSome(const Socket& sock, char* buf, size_t cap,
                 const NetRetryOptions& retry, std::string* error);

/// RecvSome with a deadline: waits for readability up to `timeout_ms`
/// first. Returns -2 when the deadline passes with no data (not an error —
/// the caller decides whether an idle wait is fatal), otherwise exactly
/// RecvSome's contract. timeout_ms < 0 degenerates to a plain RecvSome.
int64_t RecvSomeTimeout(const Socket& sock, char* buf, size_t cap,
                        int timeout_ms, const NetRetryOptions& retry,
                        std::string* error);

/// Result code RecvSomeTimeout returns when the deadline expires.
inline constexpr int64_t kRecvTimedOut = -2;

/// Sends all of `bytes`, looping over short writes. Consults the injector
/// at net-write. Returns false on error or a closed peer.
bool SendAll(const Socket& sock, const std::string& bytes,
             const NetRetryOptions& retry, std::string* error);

}  // namespace net
}  // namespace sop

#endif  // SOP_NET_SOCKET_H_
