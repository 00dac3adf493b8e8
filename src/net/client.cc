#include "src/net/client.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>

#include "src/base/layout.h"
#include "src/base/strings.h"

namespace hemlock {

namespace {

// Parents before children: depth is the number of path separators in the
// normalized absolute path ("/a" = 1, "/a/b" = 2).
size_t PathDepth(const std::string& path) {
  return static_cast<size_t>(std::count(path.begin(), path.end(), '/'));
}

}  // namespace

NetClient::~NetClient() { Disconnect(); }

NetClient::InoCache& NetClient::CacheOf(uint32_t ino) {
  InoCache& c = cache_[ino];
  if (c.resident.empty()) {
    c.resident.assign(kWirePagesPerFile, false);
    c.versions.assign(kWirePagesPerFile, 0);
  }
  return c;
}

void NetClient::Degrade(const Status& why) {
  if (!degraded_) {
    degraded_ = true;
    if (c_degraded_ != nullptr) {
      ++*c_degraded_;
    }
  }
  (void)why;
  conn_.Close();
}

void NetClient::SeverForTest() {
  std::lock_guard<std::mutex> lock(client_mu_);
  conn_.Close();
}

void NetClient::BackoffSleep(int attempt) {
  int64_t base = options_.backoff_ms > 0 ? options_.backoff_ms : 1;
  int64_t ms = base << std::min(attempt - 1, 6);
  // Seeded jitter (up to one base interval) keeps a fleet of clients that
  // failed together from retrying in lockstep — deterministically per seed.
  uint64_t word = (static_cast<uint64_t>(next_seq_) << 8) | static_cast<uint64_t>(attempt);
  uint64_t h = Fnv1a64(&word, sizeof(word), kFnv1a64Seed ^ options_.seed);
  ms += static_cast<int64_t>(h % static_cast<uint64_t>(base));
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

Result<WireMsg> NetClient::TryRoundTripLocked(const WireMsg& req) {
  if (!connected()) {
    return IoError("net: client not connected");
  }
  RETURN_IF_ERROR(conn_.Send(req));
  for (;;) {
    ASSIGN_OR_RETURN(WireMsg reply, conn_.Recv());
    if (req.op == WireOp::kHello || reply.seq == req.seq) {
      if (!carried_invals_.empty()) {
        // Invalidations salvaged from stale replies / the reconnect handshake
        // are older than this reply's own: apply them first.
        reply.invals.insert(reply.invals.begin(), carried_invals_.begin(),
                            carried_invals_.end());
        carried_invals_.clear();
      }
      return reply;
    }
    // A duplicated frame got answered twice: this is the echo of an earlier
    // request. Drop the body — its effects were already applied — but keep
    // the invalidations, which carry server progress we must not lose.
    carried_invals_.insert(carried_invals_.end(), reply.invals.begin(),
                           reply.invals.end());
    if (c_replays_dropped_ != nullptr) {
      ++*c_replays_dropped_;
    }
  }
}

Result<WireMsg> NetClient::RoundTripLocked(WireMsg& req) {
  if (req.op != WireOp::kHello && req.seq == 0) {
    req.seq = ++next_seq_;
  }
  Status last = IoError("net: client not connected");
  for (int attempt = 0; attempt <= options_.retries; ++attempt) {
    if (attempt > 0) {
      if (c_retries_ != nullptr) {
        ++*c_retries_;
      }
      BackoffSleep(attempt);
    }
    if (!connected() && attempt > 0) {
      Status re = ReconnectLocked();
      if (!re.ok()) {
        last = re;
        continue;
      }
    }
    Result<WireMsg> reply = TryRoundTripLocked(req);
    if (reply.ok()) {
      if (c_rpcs_ != nullptr) {
        ++*c_rpcs_;
      }
      return reply;
    }
    last = reply.status();
    conn_.Close();
  }
  Degrade(last);
  return last;
}

Result<WireMsg> NetClient::Call(WireMsg& req) {
  if (degraded_) {
    return IoError("net: client is degraded after an earlier transport failure");
  }
  // Drop the kernel lock across the socket wait so a blocking RPC stalls only
  // the calling core; re-acquire it before the replica is touched. client_mu_
  // is held from before the send until after the local apply, so replicas on
  // other cores observe server mutations in server order.
  std::shared_ptr<void> netwait = machine_ != nullptr ? machine_->EnterNetWait() : nullptr;
  std::unique_lock<std::mutex> lock(client_mu_);
  Result<WireMsg> reply = RoundTripLocked(req);
  netwait.reset();
  if (!reply.ok()) {
    return reply;
  }
  std::vector<WireInval> invals = std::move(reply->invals);
  reply->invals.clear();
  RETURN_IF_ERROR(ApplyInvalsLocked(std::move(invals)));
  return reply;
}

Status NetClient::HandshakeLocked() {
  // Local round trip that funnels every reply's invalidations into
  // carried_invals_: they ride on the retried request's reply, so the normal
  // apply path sees them in server order. Handshake RPCs travel with seq 0
  // (outside the at-most-once window): RESYNC is read-only and a lock
  // re-claim by the holder is idempotent, while a tracked seq here would
  // advance the server past the still-pending retried request's number and
  // turn its retransmit into a "stale" rejection.
  auto roundtrip = [this](WireMsg& m) -> Result<WireMsg> {
    ASSIGN_OR_RETURN(WireMsg reply, TryRoundTripLocked(m));
    carried_invals_.insert(carried_invals_.end(), reply.invals.begin(),
                           reply.invals.end());
    reply.invals.clear();
    return reply;
  };

  WireMsg hello;
  hello.op = WireOp::kHello;
  hello.version = kWireVersion;
  hello.resume_session = session_;
  hello.resume_token = token_;
  ASSIGN_OR_RETURN(WireMsg welcome, roundtrip(hello));
  if (welcome.op == WireOp::kError) {
    return StatusFromWire(welcome);
  }
  bool resumed = welcome.resumed != 0;
  session_ = welcome.session;
  token_ = welcome.token;
  epoch_ = welcome.epoch;
  if (resumed && c_resumes_ != nullptr) {
    ++*c_resumes_;
  }

  if (fs_ != nullptr) {
    // Revalidate the replica: claim every known inode (believed size) and
    // every resident page (believed version). The server answers only what
    // is stale — plus kCreated records for nodes born while we were away.
    WireMsg resync;
    resync.op = WireOp::kResync;
    for (uint32_t ino = 2; ino <= kSfsMaxInodes; ++ino) {
      Result<SfsStat> st = fs_->StatInode(ino);
      if (!st.ok()) {
        continue;
      }
      WireClaim size_claim;
      size_claim.ino = ino;
      size_claim.page = kWireSizeClaim;
      size_claim.version = st->type == SfsNodeType::kRegular ? st->size : 0;
      resync.claims.push_back(size_claim);
      if (st->type != SfsNodeType::kRegular) {
        continue;
      }
      auto it = cache_.find(ino);
      if (it == cache_.end()) {
        continue;
      }
      const InoCache& c = it->second;
      for (uint32_t page = 0; page < c.resident.size(); ++page) {
        if (!c.resident[page]) {
          continue;
        }
        WireClaim claim;
        claim.ino = ino;
        claim.page = page;
        claim.version = c.versions[page];
        resync.claims.push_back(claim);
      }
    }
    ASSIGN_OR_RETURN(WireMsg synced, roundtrip(resync));
    if (synced.op == WireOp::kError) {
      return StatusFromWire(synced);
    }
  }

  if (!resumed) {
    // The server does not remember us (grace expired, or it restarted without
    // a journal): our leases were reclaimed. Re-claim every lock this client
    // believes it holds; a conflict means someone else won it meanwhile — the
    // shared state we assumed is gone, so fail the handshake (and eventually
    // degrade) rather than run unlocked.
    for (const auto& [ino, pid] : held_locks_) {
      WireMsg lock;
      lock.op = WireOp::kLock;
      lock.ino = ino;
      lock.pid = pid;
      ASSIGN_OR_RETURN(WireMsg reply, roundtrip(lock));
      if (reply.op == WireOp::kError) {
        Status st = StatusFromWire(reply);
        return Internal(StrFormat("net: lost the lease on inode %u across a reconnect: %s",
                                  ino, st.ToString().c_str()));
      }
    }
  }
  return OkStatus();
}

Status NetClient::ReconnectLocked() {
  conn_.Close();
  if (addrs_.empty()) {
    return IoError("net: no server address to reconnect to");
  }
  Status last = IoError("net: reconnect failed");
  for (size_t k = 0; k < addrs_.size(); ++k) {
    const auto& [host, port] = addrs_[addr_index_ % addrs_.size()];
    Result<Conn> conn = DialTcp(host, port);
    if (!conn.ok()) {
      last = conn.status();
      ++addr_index_;
      continue;
    }
    conn_ = std::move(*conn);
    (void)conn_.SetRecvTimeoutMs(options_.timeout_ms);
    Status shaken = HandshakeLocked();
    if (shaken.ok()) {
      if (c_reconnects_ != nullptr) {
        ++*c_reconnects_;
      }
      return OkStatus();
    }
    last = shaken;
    conn_.Close();
    ++addr_index_;
  }
  return last;
}

Status NetClient::InstallPagesLocked(const WireMsg& reply) {
  InoCache& c = CacheOf(reply.ino);
  for (const WirePage& page : reply.pages) {
    RETURN_IF_ERROR(fs_->ReplicaInstallPage(reply.ino, page.index, page.bytes.data(),
                                            static_cast<uint32_t>(page.bytes.size())));
    uint32_t off = page.index * kPageSize;
    if (c.twin.size() < off + kPageSize) {
      c.twin.resize(off + kPageSize, 0);
    }
    std::memset(c.twin.data() + off, 0, kPageSize);
    if (!page.bytes.empty()) {
      std::memcpy(c.twin.data() + off, page.bytes.data(), page.bytes.size());
    }
    c.resident[page.index] = true;
    c.versions[page.index] = page.version;
    if (c_pages_fetched_ != nullptr) {
      ++*c_pages_fetched_;
    }
  }
  c.synced_size = reply.size;
  return OkStatus();
}

Status NetClient::ApplyInvalsLocked(std::vector<WireInval> work) {
  if (work.empty()) {
    return OkStatus();
  }
  SharedFs::ScopedRemoteBypass bypass(fs_);
  // |work| may grow: an eager re-fetch's reply carries the next batch.
  for (size_t i = 0; i < work.size(); ++i) {
    const WireInval inv = work[i];
    if (c_invals_applied_ != nullptr) {
      ++*c_invals_applied_;
    }
    switch (inv.kind) {
      case WireInvalKind::kPage: {
        auto it = cache_.find(inv.ino);
        if (it == cache_.end() || inv.value >= it->second.resident.size() ||
            !it->second.resident[inv.value]) {
          break;  // never cached: the next demand fetch gets fresh bytes anyway
        }
        // The page may be mapped into a running process, so its bytes must
        // change in place at this synchronization point: re-fetch eagerly.
        WireMsg req;
        req.op = WireOp::kFetch;
        req.ino = inv.ino;
        req.page_list.push_back(inv.value);
        ASSIGN_OR_RETURN(WireMsg reply, RoundTripLocked(req));
        if (reply.op == WireOp::kError) {
          return StatusFromWire(reply);
        }
        work.insert(work.end(), reply.invals.begin(), reply.invals.end());
        RETURN_IF_ERROR(InstallPagesLocked(reply));
        break;
      }
      case WireInvalKind::kSize: {
        Status st = fs_->Truncate(inv.ino, inv.value);
        if (!st.ok() && st.code() != ErrorCode::kNotFound) {
          return st;
        }
        InoCache& c = CacheOf(inv.ino);
        if (c.twin.size() > inv.value) {
          // The server zeroed the dropped tail; the twin must agree or the
          // zeros would read as local dirt at the next flush.
          std::fill(c.twin.begin() + inv.value, c.twin.end(), 0);
        }
        c.synced_size = inv.value;
        break;
      }
      case WireInvalKind::kPending: {
        (void)fs_->SetCreationPending(inv.ino, inv.value != 0);
        break;
      }
      case WireInvalKind::kCreated: {
        Result<uint32_t> existing = fs_->Lookup(inv.path);
        if (existing.ok()) {
          if (*existing == inv.ino) {
            break;  // already known (mount snapshot, or a resync duplicate)
          }
          Degrade(Internal("replica diverged"));
          return Internal(StrFormat("net: replica diverged: '%s' is inode %u locally, %u remotely",
                                    inv.path.c_str(), *existing, inv.ino));
        }
        Result<uint32_t> made =
            inv.node_type == static_cast<uint8_t>(SfsNodeType::kDirectory) ? fs_->Mkdir(inv.path)
            : inv.node_type == static_cast<uint8_t>(SfsNodeType::kSymlink)
                ? fs_->Symlink(inv.path, inv.target)
                : fs_->Create(inv.path);
        RETURN_IF_ERROR(made.status());
        if (*made != inv.ino) {
          Degrade(Internal("replica diverged"));
          return Internal(StrFormat("net: replica diverged: remote create of '%s' landed on %u, "
                                    "server says %u",
                                    inv.path.c_str(), *made, inv.ino));
        }
        if (inv.node_type == static_cast<uint8_t>(SfsNodeType::kRegular)) {
          CacheOf(inv.ino).synced_size = 0;
        }
        break;
      }
      case WireInvalKind::kUnlinked: {
        // Resolve by inode, not by the record's path: a resync answer for a
        // node that died while we were away carries a placeholder path, and
        // the inode is authoritative either way.
        Result<std::string> local = fs_->InodeToPath(inv.ino);
        if (local.ok()) {
          Status st = fs_->Unlink(*local, /*force=*/true);
          if (!st.ok()) {
            return st;
          }
        } else if (fs_->Lookup(inv.path).ok()) {
          Status st = fs_->Unlink(inv.path, /*force=*/true);
          if (!st.ok()) {
            return st;
          }
        }
        cache_.erase(inv.ino);
        break;
      }
    }
  }
  return OkStatus();
}

Status NetClient::Connect(const std::string& host, int port, Machine* machine) {
  return Connect(std::vector<std::pair<std::string, int>>{{host, port}}, machine);
}

Status NetClient::Connect(std::vector<std::pair<std::string, int>> addrs,
                          Machine* machine) {
  if (connected()) {
    return FailedPrecondition("net: client already connected");
  }
  if (addrs.empty()) {
    return InvalidArgument("net: no server address to connect to");
  }
  machine_ = machine;
  addrs_ = std::move(addrs);
  MetricsRegistry& metrics = machine->metrics();
  c_rpcs_ = metrics.Counter("net.client.rpcs");
  c_fetch_rpcs_ = metrics.Counter("net.client.fetch_rpcs");
  c_pages_fetched_ = metrics.Counter("net.client.pages_fetched");
  c_pages_flushed_ = metrics.Counter("net.client.pages_flushed");
  c_invals_applied_ = metrics.Counter("net.client.invals_applied");
  c_degraded_ = metrics.Counter("net.client.degraded");
  c_retries_ = metrics.Counter("net.client.retries");
  c_reconnects_ = metrics.Counter("net.client.reconnects");
  c_resumes_ = metrics.Counter("net.client.resumes");
  c_replays_dropped_ = metrics.Counter("net.client.replays_dropped");

  // One pass over the list: the first address that answers gets the mount.
  // (Retries are an RPC-level affair; a totally unreachable fleet at startup
  // is a configuration error, not weather.)
  Status dialed = IoError("net: no server address answered");
  for (size_t k = 0; k < addrs_.size(); ++k) {
    Result<Conn> conn = DialTcp(addrs_[addr_index_].first, addrs_[addr_index_].second);
    if (conn.ok()) {
      conn_ = std::move(*conn);
      break;
    }
    dialed = conn.status();
    addr_index_ = (addr_index_ + 1) % addrs_.size();
  }
  if (!connected()) {
    return dialed;
  }
  (void)conn_.SetRecvTimeoutMs(options_.timeout_ms);

  std::unique_lock<std::mutex> lock(client_mu_);
  WireMsg hello;
  hello.op = WireOp::kHello;
  hello.version = kWireVersion;
  ASSIGN_OR_RETURN(WireMsg welcome, RoundTripLocked(hello));
  if (welcome.op == WireOp::kError) {
    conn_.Close();
    return StatusFromWire(welcome);
  }
  session_ = welcome.session;
  token_ = welcome.token;
  epoch_ = welcome.epoch;

  WireMsg mount;
  mount.op = WireOp::kMount;
  ASSIGN_OR_RETURN(WireMsg snapshot, RoundTripLocked(mount));
  if (snapshot.op == WireOp::kError) {
    conn_.Close();
    return StatusFromWire(snapshot);
  }
  lock.unlock();

  // Build the replica from the snapshot — explicit inode numbers, because the
  // server's table can have holes no sequence of Creates reproduces.
  auto replica = std::make_unique<SharedFs>();
  std::vector<WireNode> nodes = snapshot.nodes;
  std::stable_sort(nodes.begin(), nodes.end(), [](const WireNode& a, const WireNode& b) {
    return PathDepth(a.path) < PathDepth(b.path);
  });
  for (const WireNode& node : nodes) {
    Status st = replica->InstallReplicaNode(node.ino, static_cast<SfsNodeType>(node.type),
                                            node.path, node.parent, node.size,
                                            node.pending != 0, node.target);
    if (!st.ok()) {
      conn_.Close();
      return st;
    }
    if (node.type == static_cast<uint8_t>(SfsNodeType::kRegular)) {
      CacheOf(node.ino).synced_size = node.size;
    }
  }
  machine->ReplaceSfs(std::move(replica));
  fs_ = &machine->sfs();
  fs_->SetRemoteBacking(this);

  // Invalidations queued between the handshake and the snapshot (another
  // client racing us) — tolerant apply: the snapshot may already contain them.
  lock.lock();
  Status applied = ApplyInvalsLocked(std::move(snapshot.invals));
  lock.unlock();
  if (!applied.ok()) {
    Disconnect();
    return applied;
  }
  return OkStatus();
}

void NetClient::Disconnect() {
  if (!connected()) {
    if (fs_ != nullptr) {
      fs_->SetRemoteBacking(nullptr);
    }
    return;
  }
  if (!degraded_) {
    (void)FlushAll();
    WireMsg bye;
    bye.op = WireOp::kBye;
    (void)Call(bye);
  }
  if (fs_ != nullptr) {
    fs_->SetRemoteBacking(nullptr);
  }
  conn_.Close();
}

Status NetClient::EnsureResident(uint32_t ino, uint32_t offset, uint32_t len) {
  if (fs_ == nullptr || len == 0) {
    return OkStatus();
  }
  Result<SfsStat> st = fs_->StatInode(ino);
  if (!st.ok() || st->type != SfsNodeType::kRegular) {
    return OkStatus();  // the local operation produces the right error
  }
  uint64_t end = std::min<uint64_t>(static_cast<uint64_t>(offset) + len, kSfsMaxFileBytes);
  if (offset >= end) {
    return OkStatus();
  }
  InoCache& c = CacheOf(ino);
  WireMsg req;
  req.op = WireOp::kFetch;
  req.ino = ino;
  for (uint32_t page = offset / kPageSize; page <= (static_cast<uint32_t>(end) - 1) / kPageSize;
       ++page) {
    if (!c.resident[page]) {
      req.page_list.push_back(page);
    }
  }
  if (req.page_list.empty()) {
    return OkStatus();  // the common warm path: no locks, no wire
  }
  ASSIGN_OR_RETURN(WireMsg reply, Call(req));
  if (reply.op == WireOp::kError) {
    return StatusFromWire(reply);
  }
  if (c_fetch_rpcs_ != nullptr) {
    ++*c_fetch_rpcs_;
  }
  return InstallPagesLocked(reply);
}

Result<uint32_t> NetClient::OnCreate(const std::string& path) {
  WireMsg req;
  req.op = WireOp::kCreate;
  req.path = NormalizePath(path);
  ASSIGN_OR_RETURN(WireMsg reply, Call(req));
  if (reply.op == WireOp::kError) {
    return StatusFromWire(reply);
  }
  CacheOf(reply.ino).synced_size = 0;
  return reply.ino;
}

Result<uint32_t> NetClient::OnMkdir(const std::string& path) {
  WireMsg req;
  req.op = WireOp::kMkdir;
  req.path = NormalizePath(path);
  ASSIGN_OR_RETURN(WireMsg reply, Call(req));
  if (reply.op == WireOp::kError) {
    return StatusFromWire(reply);
  }
  return reply.ino;
}

Result<uint32_t> NetClient::OnSymlink(const std::string& path, const std::string& target) {
  WireMsg req;
  req.op = WireOp::kSymlink;
  req.path = NormalizePath(path);
  req.target = target;
  ASSIGN_OR_RETURN(WireMsg reply, Call(req));
  if (reply.op == WireOp::kError) {
    return StatusFromWire(reply);
  }
  return reply.ino;
}

Status NetClient::OnUnlink(const std::string& path, bool force) {
  Result<uint32_t> ino = fs_->Lookup(path);
  WireMsg req;
  req.op = WireOp::kUnlink;
  req.path = NormalizePath(path);
  req.flag = force ? 1 : 0;
  ASSIGN_OR_RETURN(WireMsg reply, Call(req));
  if (reply.op == WireOp::kError) {
    return StatusFromWire(reply);
  }
  if (ino.ok()) {
    cache_.erase(*ino);
  }
  return OkStatus();
}

Status NetClient::OnTruncate(uint32_t ino, uint32_t new_size) {
  WireMsg req;
  req.op = WireOp::kTruncate;
  req.ino = ino;
  req.size = new_size;
  ASSIGN_OR_RETURN(WireMsg reply, Call(req));
  if (reply.op == WireOp::kError) {
    return StatusFromWire(reply);
  }
  InoCache& c = CacheOf(ino);
  if (c.twin.size() > new_size) {
    std::fill(c.twin.begin() + new_size, c.twin.end(), 0);
  }
  c.synced_size = new_size;
  return OkStatus();
}

Status NetClient::OnWriteAt(uint32_t ino, uint32_t offset, const uint8_t* data, uint32_t len) {
  WireMsg req;
  req.op = WireOp::kWrite;
  req.ino = ino;
  req.offset = offset;
  req.bytes.assign(data, data + len);
  ASSIGN_OR_RETURN(WireMsg reply, Call(req));
  if (reply.op == WireOp::kError) {
    return StatusFromWire(reply);
  }
  // The server holds these bytes now; record them in the twin so the next
  // release-point diff does not flush them again.
  InoCache& c = CacheOf(ino);
  if (len > 0) {
    if (c.twin.size() < offset + len) {
      c.twin.resize(offset + len, 0);
    }
    std::memcpy(c.twin.data() + offset, data, len);
  }
  for (const WirePage& ack : reply.pages) {
    if (ack.index < c.versions.size()) {
      c.versions[ack.index] = ack.version;
    }
  }
  c.synced_size = std::max(c.synced_size, offset + len);
  return OkStatus();
}

Status NetClient::OnLock(uint32_t ino, int pid) {
  WireMsg req;
  req.op = WireOp::kLock;
  req.ino = ino;
  req.pid = pid;
  ASSIGN_OR_RETURN(WireMsg reply, Call(req));
  if (reply.op == WireOp::kError) {
    return StatusFromWire(reply);  // kWouldBlock feeds ldl's retry/backoff loop
  }
  held_locks_.emplace(ino, pid);
  return OkStatus();
}

Status NetClient::OnUnlock(uint32_t ino, int pid) {
  // Release point: publish this segment's dirty pages before the lock moves.
  RETURN_IF_ERROR(FlushInode(ino));
  WireMsg req;
  req.op = WireOp::kUnlock;
  req.ino = ino;
  req.pid = pid;
  ASSIGN_OR_RETURN(WireMsg reply, Call(req));
  if (reply.op == WireOp::kError) {
    return StatusFromWire(reply);
  }
  held_locks_.erase({ino, pid});
  return OkStatus();
}

void NetClient::OnReleaseLocks(int pid) {
  if (degraded_) {
    return;
  }
  // Exit-time sweep: we do not track which inodes this pid dirtied, so publish
  // everything before the server lets its leases go.
  (void)FlushAll();
  WireMsg req;
  req.op = WireOp::kReleaseLocks;
  req.pid = pid;
  (void)Call(req);
  for (auto it = held_locks_.begin(); it != held_locks_.end();) {
    it = it->second == pid ? held_locks_.erase(it) : std::next(it);
  }
}

Status NetClient::OnSetPending(uint32_t ino, bool pending) {
  if (!pending) {
    // Clearing the creation marker publishes the finished segment: a release point.
    RETURN_IF_ERROR(FlushInode(ino));
  }
  WireMsg req;
  req.op = WireOp::kPending;
  req.ino = ino;
  req.flag = pending ? 1 : 0;
  ASSIGN_OR_RETURN(WireMsg reply, Call(req));
  if (reply.op == WireOp::kError) {
    return StatusFromWire(reply);
  }
  return OkStatus();
}

Status NetClient::FlushInode(uint32_t ino) {
  Result<SfsStat> st = fs_->StatInode(ino);
  if (!st.ok() || st->type != SfsNodeType::kRegular) {
    return OkStatus();
  }
  uint32_t extent = fs_->ExtentBytes(ino);
  const uint8_t* data = fs_->DataPtr(ino);
  InoCache& c = CacheOf(ino);
  if (c.twin.size() < extent) {
    c.twin.resize(extent, 0);
  }
  WireMsg req;
  req.op = WireOp::kFlush;
  req.ino = ino;
  req.size = st->size;
  // The dirty pages are staged once, and the request's page views point into
  // the stage: a retransmit after a reconnect re-sends exactly these bytes even
  // if the extent has moved on. Reserved for the whole extent so no view dangles.
  std::vector<uint8_t> staged;
  staged.reserve(extent);
  for (uint32_t off = 0; off < extent; off += kPageSize) {
    uint32_t page = off / kPageSize;
    uint32_t len = std::min(kPageSize, extent - off);
    if (std::memcmp(data + off, c.twin.data() + off, len) == 0) {
      continue;
    }
    WirePage wp;
    wp.index = page;
    bool all_zero = true;
    for (uint32_t i = 0; i < len && all_zero; ++i) {
      all_zero = data[off + i] == 0;
    }
    if (!all_zero) {
      staged.insert(staged.end(), data + off, data + off + len);
      wp.bytes = std::span<const uint8_t>(staged.data() + staged.size() - len, len);
    }
    req.pages.push_back(wp);
    std::memcpy(c.twin.data() + off, data + off, len);
    c.resident[page] = true;
  }
  if (req.pages.empty() && req.size == c.synced_size) {
    return OkStatus();
  }
  size_t flushed = req.pages.size();
  ASSIGN_OR_RETURN(WireMsg reply, Call(req));
  if (reply.op == WireOp::kError) {
    return StatusFromWire(reply);
  }
  for (const WirePage& ack : reply.pages) {
    if (ack.index < c.versions.size()) {
      c.versions[ack.index] = ack.version;
    }
  }
  c.synced_size = req.size;
  if (c_pages_flushed_ != nullptr) {
    *c_pages_flushed_ += flushed;
  }
  return OkStatus();
}

Status NetClient::FlushAll() {
  if (fs_ == nullptr) {
    return OkStatus();
  }
  std::vector<uint32_t> inos;
  inos.reserve(cache_.size());
  for (const auto& [ino, c] : cache_) {
    inos.push_back(ino);
  }
  for (uint32_t ino : inos) {
    RETURN_IF_ERROR(FlushInode(ino));
  }
  return OkStatus();
}

Result<std::vector<std::pair<std::string, uint64_t>>> NetClient::FetchServerStats() {
  WireMsg req;
  req.op = WireOp::kStats;
  ASSIGN_OR_RETURN(WireMsg reply, Call(req));
  if (reply.op == WireOp::kError) {
    return StatusFromWire(reply);
  }
  return std::move(reply.stats);
}

Result<std::pair<bool, std::string>> NetClient::RemoteCheck() {
  RETURN_IF_ERROR(FlushAll());
  WireMsg req;
  req.op = WireOp::kCheck;
  ASSIGN_OR_RETURN(WireMsg reply, Call(req));
  if (reply.op == WireOp::kError) {
    return StatusFromWire(reply);
  }
  return std::make_pair(reply.flag != 0, reply.text);
}

}  // namespace hemlock
