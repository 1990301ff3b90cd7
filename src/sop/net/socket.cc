#include "sop/net/socket.h"

#include <algorithm>

#include "sop/common/clock.h"
#include "sop/common/fault.h"
#include "sop/net/transport.h"
#include "sop/obs/trace.h"

namespace sop {
namespace net {

namespace {

// Consults the armed injector at `site`; retries injected transient
// failures with bounded backoff (through the active clock, so a virtual
// clock makes the backoff instantaneous). Returns false when the retry
// budget is exhausted (treated as a hard connection failure by the
// caller).
bool RideOutInjectedFaults(FaultSite site, const NetRetryOptions& retry,
                           std::string* error) {
  FaultInjector* injector = FaultInjector::Armed();
  if (injector == nullptr) return true;
  int attempt = 1;
  int backoff_us = retry.backoff_initial_us;
  while (injector->ShouldFail(site)) {
    SOP_COUNTER_ADD("net/retries", 1);
    ++attempt;
    if (attempt > retry.max_attempts) {
      if (error != nullptr) {
        *error = std::string("injected ") + FaultSiteName(site) +
                 " failure persisted through retries";
      }
      return false;
    }
    SleepMicros(backoff_us);
    backoff_us = std::min(backoff_us * 2, retry.backoff_max_us);
  }
  return true;
}

bool SetError(std::string* error, const std::string& what) {
  if (error != nullptr) *error = what;
  return false;
}

}  // namespace

void Socket::ShutdownBoth() {
  if (conn_ != nullptr) conn_->ShutdownBoth();
}

void Socket::ShutdownRead() {
  if (conn_ != nullptr) conn_->ShutdownRead();
}

void Socket::Close() {
  if (conn_ != nullptr) {
    conn_->Close();
    conn_.reset();
  }
}

Socket ConnectTcp(const std::string& host, int port, std::string* error) {
  std::unique_ptr<TransportConn> conn =
      Transport::Active()->Connect(host, port, error);
  if (conn == nullptr) return Socket();
  return Socket(std::move(conn));
}

int64_t RecvSome(const Socket& sock, char* buf, size_t cap,
                 const NetRetryOptions& retry, std::string* error) {
  return RecvSomeTimeout(sock, buf, cap, /*timeout_ms=*/-1, retry, error);
}

int64_t RecvSomeTimeout(const Socket& sock, char* buf, size_t cap,
                        int timeout_ms, const NetRetryOptions& retry,
                        std::string* error) {
  if (sock.conn() == nullptr) {
    SetError(error, "recv: not a connected socket");
    return -1;
  }
  if (!RideOutInjectedFaults(FaultSite::kNetRead, retry, error)) return -1;
  return sock.conn()->Recv(buf, cap, timeout_ms, error);
}

bool SendAll(const Socket& sock, const std::string& bytes,
             const NetRetryOptions& retry, std::string* error) {
  if (sock.conn() == nullptr) {
    return SetError(error, "send: not a connected socket");
  }
  if (!RideOutInjectedFaults(FaultSite::kNetWrite, retry, error)) {
    return false;
  }
  return sock.conn()->Send(bytes.data(), bytes.size(), error);
}

}  // namespace net
}  // namespace sop
