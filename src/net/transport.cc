#include "src/net/transport.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "src/base/faults.h"
#include "src/base/strings.h"
#include "src/net/chaos.h"

namespace hemlock {

namespace {

Status SendAll(int fd, const uint8_t* data, size_t len) {
  RETURN_IF_ERROR(FaultRegistry::Global().Check("net.send"));
  size_t sent = 0;
  while (sent < len) {
    ssize_t n = ::send(fd, data + sent, len - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return IoError(StrFormat("net: send failed: %s", std::strerror(errno)));
    }
    sent += static_cast<size_t>(n);
  }
  return OkStatus();
}

// |eof_ok| distinguishes "peer hung up between frames" (a clean disconnect)
// from "peer died mid-frame" (a truncated transfer).
Status RecvAll(int fd, uint8_t* out, size_t len, bool eof_ok_at_start) {
  RETURN_IF_ERROR(FaultRegistry::Global().Check("net.recv"));
  size_t got = 0;
  while (got < len) {
    ssize_t n = ::recv(fd, out + got, len - got, 0);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return IoError(StrFormat("net: recv failed: %s", std::strerror(errno)));
    }
    if (n == 0) {
      if (got == 0 && eof_ok_at_start) {
        return IoError("net: peer closed the connection");
      }
      return IoError("net: connection truncated mid-frame");
    }
    got += static_cast<size_t>(n);
  }
  return OkStatus();
}

}  // namespace

Conn& Conn::operator=(Conn&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

Status Conn::Send(const WireMsg& msg) {
  if (fd_ < 0) {
    return IoError("net: send on a closed connection");
  }
  std::vector<uint8_t> frame = EncodeFrame(msg);
  switch (ChaosEngine::Global().NextSendAction()) {
    case ChaosAction::kNone:
      break;
    case ChaosAction::kDrop:
      // Lost on the wire: the sender believes it went out; the peer's recv
      // deadline expires and the retry machinery takes it from there.
      return OkStatus();
    case ChaosAction::kDelay:
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      break;
    case ChaosAction::kDup:
      RETURN_IF_ERROR(SendAll(fd_, frame.data(), frame.size()));
      break;  // and send it again below
    case ChaosAction::kTrunc: {
      // Half a frame, then hang up: the peer sees a transfer truncated
      // mid-frame, this end's next call sees a closed connection.
      size_t half = frame.size() / 2;
      if (half > 0) {
        (void)SendAll(fd_, frame.data(), half);
      }
      Close();
      return IoError("net: chaos truncated the frame mid-send");
    }
    case ChaosAction::kSever:
      Close();
      return IoError("net: chaos severed the connection");
  }
  return SendAll(fd_, frame.data(), frame.size());
}

Status Conn::SendRaw(const std::vector<uint8_t>& payload) {
  if (fd_ < 0) {
    return IoError("net: send on a closed connection");
  }
  std::vector<uint8_t> frame;
  frame.reserve(4 + payload.size());
  uint32_t len = static_cast<uint32_t>(payload.size());
  frame.push_back(static_cast<uint8_t>(len));
  frame.push_back(static_cast<uint8_t>(len >> 8));
  frame.push_back(static_cast<uint8_t>(len >> 16));
  frame.push_back(static_cast<uint8_t>(len >> 24));
  frame.insert(frame.end(), payload.begin(), payload.end());
  return SendAll(fd_, frame.data(), frame.size());
}

Result<WireMsg> Conn::Recv() {
  if (fd_ < 0) {
    return IoError("net: recv on a closed connection");
  }
  uint8_t len_bytes[4];
  RETURN_IF_ERROR(RecvAll(fd_, len_bytes, sizeof(len_bytes), /*eof_ok_at_start=*/true));
  uint32_t len = static_cast<uint32_t>(len_bytes[0]) | (static_cast<uint32_t>(len_bytes[1]) << 8) |
                 (static_cast<uint32_t>(len_bytes[2]) << 16) |
                 (static_cast<uint32_t>(len_bytes[3]) << 24);
  if (len == 0 || len > kMaxWirePayload) {
    // Reject the length before allocating: a hostile 4 GB prefix must not
    // become an allocation bomb.
    return CorruptData(StrFormat("wire: frame length %u outside (0, %u]", len, kMaxWirePayload));
  }
  std::vector<uint8_t> payload(len);
  RETURN_IF_ERROR(RecvAll(fd_, payload.data(), len, /*eof_ok_at_start=*/false));
  return DecodePayload(std::move(payload));
}

Status Conn::SetRecvTimeoutMs(int64_t ms) {
  struct timeval tv;
  tv.tv_sec = static_cast<time_t>(ms / 1000);
  tv.tv_usec = static_cast<suseconds_t>((ms % 1000) * 1000);
  if (::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) != 0) {
    return IoError(StrFormat("net: setsockopt(SO_RCVTIMEO): %s", std::strerror(errno)));
  }
  return OkStatus();
}

void Conn::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<Conn> DialTcp(const std::string& host, int port) {
  RETURN_IF_ERROR(FaultRegistry::Global().Check("net.connect"));
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return InvalidArgument("net: bad IPv4 host address: " + host);
  }
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return IoError(StrFormat("net: socket: %s", std::strerror(errno)));
  }
  int r;
  do {
    r = ::connect(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr));
  } while (r != 0 && errno == EINTR);
  if (r != 0) {
    Status st = IoError(StrFormat("net: connect %s:%d: %s", host.c_str(), port,
                                  std::strerror(errno)));
    ::close(fd);
    return st;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return Conn(fd);
}

Listener& Listener::operator=(Listener&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    port_ = other.port_;
    other.fd_ = -1;
  }
  return *this;
}

Result<Listener> Listener::ListenTcp(const std::string& host, int port) {
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return InvalidArgument("net: bad IPv4 host address: " + host);
  }
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return IoError(StrFormat("net: socket: %s", std::strerror(errno)));
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status st = IoError(StrFormat("net: bind port %d: %s", port, std::strerror(errno)));
    ::close(fd);
    return st;
  }
  if (::listen(fd, 16) != 0) {
    Status st = IoError(StrFormat("net: listen: %s", std::strerror(errno)));
    ::close(fd);
    return st;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&addr), &len) != 0) {
    Status st = IoError(StrFormat("net: getsockname: %s", std::strerror(errno)));
    ::close(fd);
    return st;
  }
  Listener l;
  l.fd_ = fd;
  l.port_ = ntohs(addr.sin_port);
  return l;
}

Result<Conn> Listener::Accept() {
  RETURN_IF_ERROR(FaultRegistry::Global().Check("net.accept"));
  int fd;
  do {
    fd = ::accept(fd_, nullptr, nullptr);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) {
    return IoError(StrFormat("net: accept: %s", std::strerror(errno)));
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return Conn(fd);
}

void Listener::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace hemlock
