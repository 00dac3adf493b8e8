#include "src/net/server.h"

#include <poll.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <set>

#include "src/base/strings.h"
#include "src/sfs/sfs_check.h"

namespace hemlock {

namespace {

bool AllZero(const uint8_t* p, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (p[i] != 0) {
      return false;
    }
  }
  return true;
}

// Ops that mutate the partition (or the lease table) get at-most-once
// treatment and a journal record; everything else re-executes freely on a
// retransmit.
bool IsEffectful(WireOp op) {
  switch (op) {
    case WireOp::kCreate:
    case WireOp::kMkdir:
    case WireOp::kSymlink:
    case WireOp::kUnlink:
    case WireOp::kTruncate:
    case WireOp::kWrite:
    case WireOp::kFlush:
    case WireOp::kLock:
    case WireOp::kUnlock:
    case WireOp::kReleaseLocks:
    case WireOp::kPending:
      return true;
    default:
      return false;
  }
}

void AppendInvalIfNew(std::vector<WireInval>* invals, const WireInval& inv) {
  if (std::find(invals->begin(), invals->end(), inv) == invals->end()) {
    invals->push_back(inv);
  }
}

}  // namespace

SegmentServer::SegmentServer(std::unique_ptr<SharedFs> fs,
                             SegmentServerOptions options)
    : fs_(fs != nullptr ? std::move(fs) : std::make_unique<SharedFs>()),
      options_(std::move(options)),
      standby_(options_.standby) {
  c_sessions_ = metrics_.Counter("net.server.sessions");
  c_disconnects_ = metrics_.Counter("net.server.disconnects");
  c_rpcs_ = metrics_.Counter("net.server.rpcs");
  c_pages_fetched_ = metrics_.Counter("net.server.pages_fetched");
  c_pages_flushed_ = metrics_.Counter("net.server.pages_flushed");
  c_invals_queued_ = metrics_.Counter("net.server.invals_queued");
  c_lock_waits_ = metrics_.Counter("net.server.lock_waits");
  c_leases_reclaimed_ = metrics_.Counter("net.server.leases_reclaimed");
  c_resumes_ = metrics_.Counter("net.server.resumes");
  c_replays_ = metrics_.Counter("net.server.replays");
  c_journal_records_ = metrics_.Counter("net.server.journal_records");
  c_checkpoints_ = metrics_.Counter("net.server.checkpoints");
  InstallPidProber();
}

void SegmentServer::InstallPidProber() {
  // Wire leases plug into PR 2's dead-holder detection: a lock owner is "alive"
  // exactly while the session that took it still exists — and a *detached*
  // session inside its resume grace still exists, which is what keeps a
  // briefly-partitioned client's leases from being swept out from under it.
  fs_->SetPidProber([this](int pid) {
    for (const auto& [id, session] : sessions_) {
      for (const auto& [client_pid, pseudo] : session.pseudo_pids) {
        if (pseudo == pid) {
          return true;
        }
      }
    }
    return false;
  });
}

SegmentServer::~SegmentServer() { Stop(); }

Status SegmentServer::Listen(const std::string& host, int port) {
  ASSIGN_OR_RETURN(listener_, Listener::ListenTcp(host, port));
  return OkStatus();
}

Status SegmentServer::Start() {
  if (!listener_.ok()) {
    return FailedPrecondition("net: server not listening");
  }
  if (serving_) {
    return FailedPrecondition("net: server already started");
  }
  stop_.store(false);
  serving_ = true;
  serve_thread_ = std::thread([this] {
    while (!stop_.load(std::memory_order_relaxed)) {
      (void)PollOnce(50);
    }
  });
  return OkStatus();
}

void SegmentServer::Stop() {
  if (!serving_) {
    return;
  }
  stop_.store(true);
  serve_thread_.join();
  serving_ = false;
}

size_t SegmentServer::SessionCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const auto& [id, s] : sessions_) {
    if (s.attached) {
      ++n;
    }
  }
  return n;
}

size_t SegmentServer::TotalSessionCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sessions_.size();
}

uint64_t SegmentServer::NewToken() {
  // Deterministic (journal replay must mint the same tokens) but unguessable
  // enough that a stray client cannot stumble into someone else's session by
  // echoing its own id back.
  return (++token_seq_) * 0x9E3779B97F4A7C15ull | 1;
}

void SegmentServer::JournalAppend(const JournalRecord& rec) {
  if (replaying_ || !journal_.open()) {
    return;
  }
  Status appended = journal_.Append(rec);
  if (!appended.ok()) {
    // A journal we can no longer write is worse than none: close it so restart
    // does not replay a history that stopped short of reality.
    std::fprintf(stderr, "[hemserve] journal disabled: %s\n",
                 appended.ToString().c_str());
    journal_.Close();
    return;
  }
  ++*c_journal_records_;
  if (options_.checkpoint_every != 0 && !options_.state_path.empty() &&
      journal_.records_appended() >= options_.checkpoint_every) {
    (void)Checkpoint();
  }
}

Status SegmentServer::PollOnce(int timeout_ms) {
  std::unique_lock<std::mutex> lock(mu_);
  if (standby_) {
    // Warm failover: track the primary through its journal and wait. The
    // first client to dial us is the signal that the primary is gone.
    struct pollfd pfd = {listener_.fd(), POLLIN, 0};
    lock.unlock();
    int n = ::poll(&pfd, 1, timeout_ms);
    int poll_errno = errno;
    lock.lock();
    if (n < 0 && poll_errno != EINTR) {
      return IoError(StrFormat("net: poll: %s", std::strerror(poll_errno)));
    }
    RETURN_IF_ERROR(TailJournal());
    if (n <= 0 || (pfd.revents & POLLIN) == 0) {
      return OkStatus();
    }
    standby_ = false;
    if (!options_.journal_path.empty()) {
      (void)journal_.Open(options_.journal_path, EncodeMeta());
    }
    // Fall through and serve the connection that promoted us.
  }
  ReapExpiredSessions();
  std::vector<struct pollfd> fds;
  std::vector<uint32_t> ids;
  fds.push_back({listener_.fd(), POLLIN, 0});
  ids.push_back(0);
  for (const auto& [id, session] : sessions_) {
    if (!session.attached) {
      continue;  // a detached session has no socket until it resumes
    }
    fds.push_back({session.conn.fd(), POLLIN, 0});
    ids.push_back(id);
  }
  // Only this thread mutates sessions_, so it can wait without mu_: holding
  // it across the poll starves SessionCount() callers, because the lock is
  // re-taken the instant each round releases it.
  lock.unlock();
  int n = ::poll(fds.data(), fds.size(), timeout_ms);
  int poll_errno = errno;
  lock.lock();
  if (n < 0) {
    if (poll_errno == EINTR) {
      return OkStatus();
    }
    return IoError(StrFormat("net: poll: %s", std::strerror(poll_errno)));
  }
  if (n == 0) {
    return OkStatus();
  }
  if (fds[0].revents & POLLIN) {
    Result<Conn> conn = listener_.Accept();
    if (conn.ok()) {
      Session s;
      s.id = next_session_++;
      s.conn = std::move(*conn);
      // A peer that stops mid-frame must not wedge the loop forever.
      (void)s.conn.SetRecvTimeoutMs(options_.recv_timeout_ms);
      ++*c_sessions_;
      sessions_.emplace(s.id, std::move(s));
    }
  }
  for (size_t i = 1; i < fds.size(); ++i) {
    if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
      continue;
    }
    Session* s = FindSession(ids[i]);
    if (s == nullptr || !s->attached) {
      continue;
    }
    Result<WireMsg> req = s->conn.Recv();
    if (!req.ok()) {
      Detach(ids[i], req.status().message().c_str());
      continue;
    }
    ++*c_rpcs_;
    if (req->op == WireOp::kHello) {
      HandleHello(ids[i], *req);
      continue;
    }
    if (!s->hello_done) {
      WireMsg err = Err(*s, req->op, FailedPrecondition("net: request before HELLO"));
      err.seq = req->seq;
      if (!s->conn.Send(err).ok()) {
        Detach(ids[i], "send failed");
      }
      continue;
    }
    WireMsg reply = ExecuteTracked(*s, *req);
    Status sent = s->conn.Send(reply);
    if (req->op == WireOp::kBye) {
      DropSession(ids[i], "bye");
    } else if (!sent.ok()) {
      Detach(ids[i], sent.message().c_str());
    }
  }
  return OkStatus();
}

void SegmentServer::HandleHello(uint32_t provisional_id, const WireMsg& req) {
  Session* prov = FindSession(provisional_id);
  if (prov == nullptr) {
    return;
  }
  if (req.version != kWireVersion) {
    WireMsg err = Err(*prov, WireOp::kHello,
                      UnsupportedVersion(StrFormat("net: protocol version %u, server speaks %u",
                                                   req.version, kWireVersion)));
    if (!prov->conn.Send(err).ok()) {
      DropSession(provisional_id, "hello send failed");
    }
    return;
  }
  if (prov->hello_done) {
    // A duplicated HELLO frame on an established session (chaos `dup`):
    // re-answer idempotently — rotating the token here would orphan the
    // client's copy and break every later resume.
    WireMsg again = Ack(*prov, WireOp::kHello);
    again.session = prov->id;
    again.version = kWireVersion;
    again.token = prov->token;
    again.epoch = prov->epoch;
    again.resumed = 0;
    if (!prov->conn.Send(again).ok()) {
      Detach(provisional_id, "hello re-send failed");
    }
    return;
  }
  Session* target = prov;
  uint8_t resumed = 0;
  if (req.resume_session != 0 && req.resume_token != 0) {
    Session* old = FindSession(req.resume_session);
    if (old != nullptr && old != prov && old->hello_done &&
        old->token == req.resume_token) {
      // The client is back inside its grace: adopt the new socket, keep every
      // lease, pending invalidation, and the at-most-once cache.
      old->conn = std::move(prov->conn);
      old->attached = true;
      ++old->epoch;
      sessions_.erase(provisional_id);
      target = old;
      resumed = 1;
      ++*c_resumes_;
    }
    // Unknown session or wrong token: fall through to a fresh session — the
    // client re-bootstraps (mount, lock re-claim) on its side.
  }
  if (resumed == 0) {
    target->hello_done = true;
    target->token = NewToken();
    target->epoch = 1;
    if (target->id >= next_session_) {
      next_session_ = target->id + 1;
    }
    JournalRecord rec;
    rec.type = JournalRecordType::kSessionCreated;
    rec.session = target->id;
    rec.token = target->token;
    JournalAppend(rec);
  }
  // The hello reply drains the pending queue: a resumed session's backlog of
  // missed invalidations rides home on the handshake itself.
  WireMsg reply = Ack(*target, WireOp::kHello);
  reply.session = target->id;
  reply.version = kWireVersion;
  reply.token = target->token;
  reply.epoch = target->epoch;
  reply.resumed = resumed;
  Status sent = target->conn.Send(reply);
  if (!sent.ok()) {
    Detach(target->id, sent.message().c_str());
  }
}

WireMsg SegmentServer::ExecuteTracked(Session& s, const WireMsg& req) {
  const bool effectful = IsEffectful(req.op);
  if (req.seq != 0) {
    if (effectful && req.seq == s.last_seq && s.has_cached &&
        s.cached_reply.seq == req.seq) {
      // A retransmit of the last effectful request: the state change already
      // happened, so replay the cached reply instead of applying it twice.
      // Invalidations that accrued since the original execution ride along.
      WireMsg replay = s.cached_reply;
      replay.replayed = 1;
      for (const WireInval& inv : s.pending) {
        AppendInvalIfNew(&replay.invals, inv);
      }
      s.pending.clear();
      ++*c_replays_;
      return replay;
    }
    if (req.seq < s.last_seq) {
      WireMsg err = Err(s, req.op,
                        FailedPrecondition("net: stale retransmit (sequence already executed)"));
      err.seq = req.seq;
      return err;
    }
  }
  WireMsg reply = Dispatch(s, req);
  reply.seq = req.seq;
  if (req.seq != 0) {
    s.last_seq = req.seq;
  }
  if (effectful && req.seq != 0) {
    if (reply.op == WireOp::kReply) {
      JournalRecord rec;
      rec.session = s.id;
      rec.payload = EncodePayload(req);
      JournalAppend(rec);
    }
    s.cached_reply = reply;
    s.has_cached = true;
  }
  return reply;
}

SegmentServer::Session* SegmentServer::FindSession(uint32_t id) {
  auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : &it->second;
}

int SegmentServer::PseudoPid(Session& s, int32_t pid) {
  auto it = s.pseudo_pids.find(pid);
  if (it != s.pseudo_pids.end()) {
    return it->second;
  }
  int pseudo = next_pseudo_pid_++;
  s.pseudo_pids.emplace(pid, pseudo);
  return pseudo;
}

void SegmentServer::Detach(uint32_t id, const char* why) {
  Session* s = FindSession(id);
  if (s == nullptr) {
    return;
  }
  // A session that never finished HELLO has nothing worth resuming; with a
  // zero grace the old drop-on-disconnect behavior applies.
  if (!s->hello_done || options_.resume_grace_ms <= 0) {
    DropSession(id, why);
    return;
  }
  s->conn.Close();
  s->attached = false;
  s->detached_at = std::chrono::steady_clock::now();
  ++*c_disconnects_;
}

void SegmentServer::ReapExpiredSessions() {
  if (sessions_.empty()) {
    return;
  }
  auto now = std::chrono::steady_clock::now();
  std::vector<uint32_t> expired;
  for (const auto& [id, s] : sessions_) {
    if (!s.attached &&
        now - s.detached_at >= std::chrono::milliseconds(options_.resume_grace_ms)) {
      expired.push_back(id);
    }
  }
  for (uint32_t id : expired) {
    DropSession(id, "resume grace expired");
  }
}

void SegmentServer::DropSession(uint32_t id, const char* why) {
  Session* s = FindSession(id);
  if (s == nullptr) {
    return;
  }
  (void)why;
  // Dead-client reclamation: every wire lease the session held is released
  // (waking nothing here — remote waiters re-try their Lock RPC and find the
  // inode free), every cached-page claim is dropped.
  for (const auto& [client_pid, pseudo] : s->pseudo_pids) {
    for (uint32_t ino = 1; ino <= kSfsMaxInodes; ++ino) {
      if (fs_->LockOwner(ino) == pseudo) {
        ++*c_leases_reclaimed_;
      }
    }
    fs_->ReleaseLocksOf(pseudo);
  }
  directory_.DropSession(id);
  if (s->attached) {
    ++*c_disconnects_;
  }
  if (s->hello_done) {
    JournalRecord rec;
    rec.type = JournalRecordType::kSessionDropped;
    rec.session = id;
    JournalAppend(rec);
  }
  sessions_.erase(id);
}

void SegmentServer::QueueInvalTo(Session& s, const WireInval& inv) {
  if (std::find(s.pending.begin(), s.pending.end(), inv) != s.pending.end()) {
    return;  // an identical record is already queued
  }
  s.pending.push_back(inv);
  ++*c_invals_queued_;
}

void SegmentServer::QueueInval(uint32_t except, const WireInval& inv) {
  for (auto& [id, session] : sessions_) {
    if (id != except) {
      QueueInvalTo(session, inv);
    }
  }
}

WireMsg SegmentServer::Ack(Session& s, WireOp reply_to) {
  WireMsg m;
  m.op = WireOp::kReply;
  m.reply_to = static_cast<uint8_t>(reply_to);
  m.invals = std::move(s.pending);
  s.pending.clear();
  return m;
}

WireMsg SegmentServer::Err(Session& s, WireOp reply_to, const Status& st) {
  WireMsg m = WireErrorFrom(st);
  m.reply_to = static_cast<uint8_t>(reply_to);
  // Errors drain the queue too: a client spinning on a contended lock keeps
  // observing remote progress between retries.
  m.invals = std::move(s.pending);
  s.pending.clear();
  return m;
}

WireMsg SegmentServer::HandleMount(Session& s) {
  WireMsg reply = Ack(s, WireOp::kMount);
  for (uint32_t ino = 2; ino <= kSfsMaxInodes; ++ino) {
    if (!fs_->InodeInUse(ino)) {
      continue;  // most of the table: skip it before StatInode builds a NotFound
    }
    Result<SfsStat> st = fs_->StatInode(ino);
    if (!st.ok()) {
      continue;
    }
    WireNode node;
    node.ino = ino;
    node.type = static_cast<uint8_t>(st->type);
    node.size = st->size;
    node.pending = fs_->CreationPending(ino) ? 1 : 0;
    Result<std::string> path = fs_->InodeToPath(ino);
    if (!path.ok()) {
      continue;
    }
    node.path = *path;
    Result<uint32_t> parent = fs_->Lookup(PathDirname(node.path));
    node.parent = parent.ok() ? *parent : 1;
    if (st->type == SfsNodeType::kSymlink) {
      Result<std::string> target = fs_->ReadLink(node.path);
      if (target.ok()) {
        node.target = *target;
      }
    }
    reply.nodes.push_back(std::move(node));
  }
  return reply;
}

WireMsg SegmentServer::HandleFetch(Session& s, const WireMsg& req) {
  Result<SfsStat> st = fs_->StatInode(req.ino);
  if (!st.ok()) {
    return Err(s, WireOp::kFetch, st.status());
  }
  if (st->type != SfsNodeType::kRegular) {
    return Err(s, WireOp::kFetch, InvalidArgument("net: fetch of a non-file inode"));
  }
  WireMsg reply = Ack(s, WireOp::kFetch);
  reply.ino = req.ino;
  reply.size = st->size;
  // Each page is a view of the extent; nothing mutates the partition between
  // here and the Send that encodes it, where it is copied once into the frame.
  const uint8_t* data = fs_->DataPtr(req.ino);
  uint32_t extent = fs_->ExtentBytes(req.ino);
  reply.pages.reserve(req.page_list.size());
  for (uint32_t idx : req.page_list) {
    WirePage page;
    page.index = idx;
    uint32_t off = idx * kPageSize;
    if (off < extent) {
      uint32_t len = std::min<uint32_t>(kPageSize, extent - off);
      if (!AllZero(data + off, len)) {
        page.bytes = std::span<const uint8_t>(data + off, len);
      }
    }
    // Pages past the extent (or all zero) travel as the empty marker.
    directory_.NoteFetch(req.ino, idx, s.id);
    page.version = directory_.VersionOf(req.ino, idx);
    ++*c_pages_fetched_;
    reply.pages.push_back(page);
  }
  return reply;
}

WireMsg SegmentServer::HandleFlush(Session& s, const WireMsg& req) {
  Result<SfsStat> st = fs_->StatInode(req.ino);
  if (!st.ok()) {
    return Err(s, WireOp::kFlush, st.status());
  }
  if (st->type != SfsNodeType::kRegular) {
    return Err(s, WireOp::kFlush, InvalidArgument("net: flush of a non-file inode"));
  }
  auto invalidate = [this, &req](uint32_t page_idx) {
    return [this, &req, page_idx](uint32_t session_id) {
      Session* other = FindSession(session_id);
      if (other != nullptr) {
        WireInval inv;
        inv.kind = WireInvalKind::kPage;
        inv.ino = req.ino;
        inv.value = page_idx;
        QueueInvalTo(*other, inv);
      }
    };
  };
  for (const WirePage& page : req.pages) {
    uint32_t off = page.index * kPageSize;
    uint32_t len = page.bytes.empty() ? kPageSize
                                      : static_cast<uint32_t>(page.bytes.size());
    uint32_t end = std::min<uint64_t>(static_cast<uint64_t>(off) + len, kSfsMaxFileBytes);
    Status grown = fs_->EnsureExtent(req.ino, end);
    if (!grown.ok()) {
      return Err(s, WireOp::kFlush, grown);
    }
    uint8_t* data = fs_->DataPtr(req.ino);
    if (page.bytes.empty()) {
      std::memset(data + off, 0, end - off);
    } else {
      std::memcpy(data + off, page.bytes.data(), page.bytes.size());
    }
    directory_.NoteWrite(req.ino, page.index, s.id, invalidate(page.index));
    ++*c_pages_flushed_;
  }
  if (req.size != st->size) {
    Status resized = fs_->Truncate(req.ino, req.size);
    if (!resized.ok()) {
      return Err(s, WireOp::kFlush, resized);
    }
    WireInval inv;
    inv.kind = WireInvalKind::kSize;
    inv.ino = req.ino;
    inv.value = req.size;
    QueueInval(s.id, inv);
  }
  WireMsg reply = Ack(s, WireOp::kFlush);
  // Version-only acks: the writer learns the new version of each page it just
  // flushed, so a later RESYNC claim revalidates instead of refetching.
  for (const WirePage& page : req.pages) {
    WirePage ack;
    ack.index = page.index;
    ack.version = directory_.VersionOf(req.ino, page.index);
    reply.pages.push_back(std::move(ack));
  }
  return reply;
}

WireMsg SegmentServer::HandleResync(Session& s, const WireMsg& req) {
  WireMsg reply = Ack(s, WireOp::kResync);
  std::set<uint32_t> claimed;
  for (const WireClaim& claim : req.claims) {
    if (claim.page == kWireSizeClaim) {
      claimed.insert(claim.ino);
      Result<SfsStat> st = fs_->StatInode(claim.ino);
      if (!st.ok()) {
        // The node died while the client was away. The client resolves the
        // path from its own replica by inode — the placeholder is never used.
        WireInval inv;
        inv.kind = WireInvalKind::kUnlinked;
        inv.ino = claim.ino;
        inv.path = "/";
        AppendInvalIfNew(&reply.invals, inv);
        continue;
      }
      if (st->type == SfsNodeType::kRegular) {
        if (st->size != claim.version) {
          WireInval inv;
          inv.kind = WireInvalKind::kSize;
          inv.ino = claim.ino;
          inv.value = st->size;
          AppendInvalIfNew(&reply.invals, inv);
        }
        WireInval pend;
        pend.kind = WireInvalKind::kPending;
        pend.ino = claim.ino;
        pend.value = fs_->CreationPending(claim.ino) ? 1 : 0;
        AppendInvalIfNew(&reply.invals, pend);
      }
    } else {
      // Page claim: a version match revalidates the cached copy (and re-joins
      // the reader set so future writes invalidate us again); a mismatch means
      // "your copy is stale — refetch".
      if (directory_.VersionOf(claim.ino, claim.page) == claim.version) {
        directory_.NoteFetch(claim.ino, claim.page, s.id);
      } else {
        WireInval inv;
        inv.kind = WireInvalKind::kPage;
        inv.ino = claim.ino;
        inv.value = claim.page;
        AppendInvalIfNew(&reply.invals, inv);
      }
    }
  }
  // Nodes born while the client was away were never claimed: announce them the
  // same way live creations are.
  for (uint32_t ino = 2; ino <= kSfsMaxInodes; ++ino) {
    if (claimed.count(ino) != 0) {
      continue;
    }
    Result<SfsStat> st = fs_->StatInode(ino);
    if (!st.ok()) {
      continue;
    }
    Result<std::string> path = fs_->InodeToPath(ino);
    if (!path.ok()) {
      continue;
    }
    WireInval inv;
    inv.kind = WireInvalKind::kCreated;
    inv.ino = ino;
    inv.node_type = static_cast<uint8_t>(st->type);
    inv.path = *path;
    if (st->type == SfsNodeType::kSymlink) {
      Result<std::string> target = fs_->ReadLink(*path);
      if (target.ok()) {
        inv.target = *target;
      }
    }
    AppendInvalIfNew(&reply.invals, inv);
    if (st->type == SfsNodeType::kRegular) {
      if (st->size != 0) {
        WireInval sz;
        sz.kind = WireInvalKind::kSize;
        sz.ino = ino;
        sz.value = st->size;
        AppendInvalIfNew(&reply.invals, sz);
      }
      if (fs_->CreationPending(ino)) {
        WireInval pend;
        pend.kind = WireInvalKind::kPending;
        pend.ino = ino;
        pend.value = 1;
        AppendInvalIfNew(&reply.invals, pend);
      }
    }
  }
  return reply;
}

WireMsg SegmentServer::Dispatch(Session& s, const WireMsg& req) {
  if (!s.hello_done) {
    return Err(s, req.op, FailedPrecondition("net: request before HELLO"));
  }
  switch (req.op) {
    case WireOp::kMount:
      return HandleMount(s);
    case WireOp::kFetch:
      return HandleFetch(s, req);
    case WireOp::kFlush:
      return HandleFlush(s, req);
    case WireOp::kResync:
      return HandleResync(s, req);
    case WireOp::kCreate: {
      Result<uint32_t> ino = fs_->Create(req.path);
      if (!ino.ok()) {
        return Err(s, WireOp::kCreate, ino.status());
      }
      WireInval inv;
      inv.kind = WireInvalKind::kCreated;
      inv.ino = *ino;
      inv.node_type = static_cast<uint8_t>(SfsNodeType::kRegular);
      inv.path = NormalizePath(req.path);
      QueueInval(s.id, inv);
      WireMsg reply = Ack(s, WireOp::kCreate);
      reply.ino = *ino;
      return reply;
    }
    case WireOp::kMkdir: {
      Result<uint32_t> ino = fs_->Mkdir(req.path);
      if (!ino.ok()) {
        return Err(s, WireOp::kMkdir, ino.status());
      }
      WireInval inv;
      inv.kind = WireInvalKind::kCreated;
      inv.ino = *ino;
      inv.node_type = static_cast<uint8_t>(SfsNodeType::kDirectory);
      inv.path = NormalizePath(req.path);
      QueueInval(s.id, inv);
      WireMsg reply = Ack(s, WireOp::kMkdir);
      reply.ino = *ino;
      return reply;
    }
    case WireOp::kSymlink: {
      Result<uint32_t> ino = fs_->Symlink(req.path, req.target);
      if (!ino.ok()) {
        return Err(s, WireOp::kSymlink, ino.status());
      }
      WireInval inv;
      inv.kind = WireInvalKind::kCreated;
      inv.ino = *ino;
      inv.node_type = static_cast<uint8_t>(SfsNodeType::kSymlink);
      inv.path = NormalizePath(req.path);
      inv.target = req.target;
      QueueInval(s.id, inv);
      WireMsg reply = Ack(s, WireOp::kSymlink);
      reply.ino = *ino;
      return reply;
    }
    case WireOp::kUnlink: {
      Result<uint32_t> ino = fs_->Lookup(req.path);
      if (!ino.ok()) {
        return Err(s, WireOp::kUnlink, ino.status());
      }
      Status st = fs_->Unlink(req.path, req.flag != 0);
      if (!st.ok()) {
        return Err(s, WireOp::kUnlink, st);
      }
      directory_.DropInode(*ino);
      WireInval inv;
      inv.kind = WireInvalKind::kUnlinked;
      inv.ino = *ino;
      inv.path = NormalizePath(req.path);
      QueueInval(s.id, inv);
      return Ack(s, WireOp::kUnlink);
    }
    case WireOp::kTruncate: {
      Result<SfsStat> before = fs_->StatInode(req.ino);
      if (!before.ok()) {
        return Err(s, WireOp::kTruncate, before.status());
      }
      uint32_t old_extent = fs_->ExtentBytes(req.ino);
      Status st = fs_->Truncate(req.ino, req.size);
      if (!st.ok()) {
        return Err(s, WireOp::kTruncate, st);
      }
      WireInval inv;
      inv.kind = WireInvalKind::kSize;
      inv.ino = req.ino;
      inv.value = req.size;
      QueueInval(s.id, inv);
      // A shrink zeroed [new_size, extent): readers caching those pages hold
      // stale bytes now.
      for (uint32_t off = req.size & ~(kPageSize - 1); off < old_extent; off += kPageSize) {
        uint32_t page_idx = off / kPageSize;
        directory_.NoteWrite(req.ino, page_idx, s.id, [this, &req, page_idx](uint32_t id) {
          Session* other = FindSession(id);
          if (other != nullptr) {
            WireInval pinv;
            pinv.kind = WireInvalKind::kPage;
            pinv.ino = req.ino;
            pinv.value = page_idx;
            QueueInvalTo(*other, pinv);
          }
        });
      }
      return Ack(s, WireOp::kTruncate);
    }
    case WireOp::kWrite: {
      Result<SfsStat> before = fs_->StatInode(req.ino);
      if (!before.ok()) {
        return Err(s, WireOp::kWrite, before.status());
      }
      Status st = fs_->WriteAt(req.ino, req.offset, req.bytes.data(),
                               static_cast<uint32_t>(req.bytes.size()));
      if (!st.ok()) {
        return Err(s, WireOp::kWrite, st);
      }
      uint32_t first = 0;
      uint32_t last = 0;
      if (!req.bytes.empty()) {
        first = req.offset / kPageSize;
        last = (req.offset + static_cast<uint32_t>(req.bytes.size()) - 1) / kPageSize;
        for (uint32_t page_idx = first; page_idx <= last; ++page_idx) {
          directory_.NoteWrite(req.ino, page_idx, s.id, [this, &req, page_idx](uint32_t id) {
            Session* other = FindSession(id);
            if (other != nullptr) {
              WireInval pinv;
              pinv.kind = WireInvalKind::kPage;
              pinv.ino = req.ino;
              pinv.value = page_idx;
              QueueInvalTo(*other, pinv);
            }
          });
        }
      }
      Result<SfsStat> after = fs_->StatInode(req.ino);
      if (after.ok() && after->size != before->size) {
        WireInval inv;
        inv.kind = WireInvalKind::kSize;
        inv.ino = req.ino;
        inv.value = after->size;
        QueueInval(s.id, inv);
      }
      WireMsg reply = Ack(s, WireOp::kWrite);
      if (!req.bytes.empty()) {
        for (uint32_t page_idx = first; page_idx <= last; ++page_idx) {
          WirePage ack;
          ack.index = page_idx;
          ack.version = directory_.VersionOf(req.ino, page_idx);
          reply.pages.push_back(std::move(ack));
        }
      }
      return reply;
    }
    case WireOp::kLock: {
      Status st = fs_->LockInode(req.ino, PseudoPid(s, req.pid));
      if (!st.ok()) {
        if (st.code() == ErrorCode::kWouldBlock) {
          ++*c_lock_waits_;
        }
        return Err(s, WireOp::kLock, st);
      }
      return Ack(s, WireOp::kLock);
    }
    case WireOp::kUnlock: {
      Status st = fs_->UnlockInode(req.ino, PseudoPid(s, req.pid));
      if (!st.ok()) {
        return Err(s, WireOp::kUnlock, st);
      }
      return Ack(s, WireOp::kUnlock);
    }
    case WireOp::kReleaseLocks: {
      auto it = s.pseudo_pids.find(req.pid);
      if (it != s.pseudo_pids.end()) {
        fs_->ReleaseLocksOf(it->second);
        s.pseudo_pids.erase(it);
      }
      return Ack(s, WireOp::kReleaseLocks);
    }
    case WireOp::kPending: {
      Status st = fs_->SetCreationPending(req.ino, req.flag != 0);
      if (!st.ok()) {
        return Err(s, WireOp::kPending, st);
      }
      WireInval inv;
      inv.kind = WireInvalKind::kPending;
      inv.ino = req.ino;
      inv.value = req.flag;
      QueueInval(s.id, inv);
      return Ack(s, WireOp::kPending);
    }
    case WireOp::kCheck: {
      SfsCheckReport report;
      SfsCheck(fs_.get()).Run(/*at_boot=*/false, &report);
      WireMsg reply = Ack(s, WireOp::kCheck);
      reply.flag = report.structurally_clean() ? 1 : 0;
      reply.text = report.ToString();
      return reply;
    }
    case WireOp::kStats: {
      WireMsg reply = Ack(s, WireOp::kStats);
      MetricsSnapshot snap = metrics_.Snapshot();
      for (const auto& [name, value] : snap) {
        reply.stats.emplace_back(name, value);
      }
      reply.stats.emplace_back("net.server.coherence.downgrades", directory_.downgrades());
      reply.stats.emplace_back("net.server.coherence.invalidations", directory_.invalidations());
      return reply;
    }
    case WireOp::kBye:
      return Ack(s, WireOp::kBye);
    default:
      return Err(s, req.op, InvalidArgument("net: request opcode not servable"));
  }
}

// ---------------------------------------------------------------------------
// Journal: checkpoint meta, replay, standby tailing.

std::vector<uint8_t> SegmentServer::EncodeMeta() const {
  ByteWriter w;
  w.U32(next_session_);
  w.I32(next_pseudo_pid_);
  w.U64(token_seq_);
  directory_.Serialize(&w);
  uint32_t count = 0;
  for (const auto& [id, s] : sessions_) {
    if (s.hello_done) {
      ++count;
    }
  }
  w.U32(count);
  for (const auto& [id, s] : sessions_) {
    if (!s.hello_done) {
      continue;
    }
    w.U32(id);
    w.U64(s.token);
    w.U32(s.epoch);
    w.U32(s.last_seq);
    w.U32(static_cast<uint32_t>(s.pseudo_pids.size()));
    for (const auto& [pid, pseudo] : s.pseudo_pids) {
      w.I32(pid);
      w.I32(pseudo);
    }
    // Held leases by pseudo-pid: the SFS image's lock table is swept by the
    // at-boot fsck pass on reload, so the checkpoint re-asserts them itself.
    std::vector<std::pair<uint32_t, int>> locks;
    for (const auto& [pid, pseudo] : s.pseudo_pids) {
      for (uint32_t ino = 1; ino <= kSfsMaxInodes; ++ino) {
        if (fs_->LockOwner(ino) == pseudo) {
          locks.emplace_back(ino, pseudo);
        }
      }
    }
    w.U32(static_cast<uint32_t>(locks.size()));
    for (const auto& [ino, pseudo] : locks) {
      w.U32(ino);
      w.I32(pseudo);
    }
    w.U32(static_cast<uint32_t>(s.pending.size()));
    for (const WireInval& inv : s.pending) {
      EncodeInvalRecord(&w, inv);
    }
    w.U8(s.has_cached ? 1 : 0);
    if (s.has_cached) {
      w.Bytes(EncodePayload(s.cached_reply));
    }
  }
  return w.Take();
}

Status SegmentServer::RestoreMeta(const std::vector<uint8_t>& bytes) {
  sessions_.clear();
  directory_ = CoherenceDirectory();
  ByteReader r(bytes);
  ASSIGN_OR_RETURN(next_session_, r.U32());
  ASSIGN_OR_RETURN(next_pseudo_pid_, r.I32());
  ASSIGN_OR_RETURN(token_seq_, r.U64());
  RETURN_IF_ERROR(directory_.Deserialize(&r));
  ASSIGN_OR_RETURN(uint32_t count, r.Count(24, 1u << 16));
  auto now = std::chrono::steady_clock::now();
  for (uint32_t i = 0; i < count; ++i) {
    Session s;
    ASSIGN_OR_RETURN(s.id, r.U32());
    ASSIGN_OR_RETURN(s.token, r.U64());
    ASSIGN_OR_RETURN(s.epoch, r.U32());
    ASSIGN_OR_RETURN(s.last_seq, r.U32());
    s.hello_done = true;
    // Every checkpointed session comes back detached: its client must dial in
    // and prove the resume token; the grace clock restarts at reboot.
    s.attached = false;
    s.detached_at = now;
    ASSIGN_OR_RETURN(uint32_t pids, r.Count(8, 1u << 16));
    for (uint32_t j = 0; j < pids; ++j) {
      ASSIGN_OR_RETURN(int32_t pid, r.I32());
      ASSIGN_OR_RETURN(int32_t pseudo, r.I32());
      s.pseudo_pids.emplace(pid, pseudo);
    }
    ASSIGN_OR_RETURN(uint32_t locks, r.Count(8, kSfsMaxInodes));
    for (uint32_t j = 0; j < locks; ++j) {
      ASSIGN_OR_RETURN(uint32_t ino, r.U32());
      ASSIGN_OR_RETURN(int32_t pseudo, r.I32());
      (void)fs_->LockInode(ino, pseudo);
    }
    ASSIGN_OR_RETURN(uint32_t pend, r.Count(1, 1u << 20));
    for (uint32_t j = 0; j < pend; ++j) {
      WireInval inv;
      RETURN_IF_ERROR(DecodeInvalRecord(&r, &inv));
      s.pending.push_back(inv);
    }
    ASSIGN_OR_RETURN(uint8_t cached, r.U8());
    if (cached > 1) {
      return CorruptData("journal: bad cached-reply flag");
    }
    if (cached == 1) {
      ASSIGN_OR_RETURN(std::vector<uint8_t> payload, r.Bytes());
      ASSIGN_OR_RETURN(s.cached_reply, DecodePayload(std::move(payload)));
      s.has_cached = true;
    }
    uint32_t id = s.id;
    sessions_.emplace(id, std::move(s));
    if (id >= next_session_) {
      next_session_ = id + 1;
    }
  }
  return r.ExpectEnd("journal checkpoint meta");
}

void SegmentServer::ReplayRecords(const std::vector<JournalRecord>& records) {
  replaying_ = true;
  auto now = std::chrono::steady_clock::now();
  for (const JournalRecord& rec : records) {
    switch (rec.type) {
      case JournalRecordType::kSessionCreated: {
        Session s;
        s.id = rec.session;
        s.token = rec.token;
        s.epoch = 1;
        s.hello_done = true;
        s.attached = false;
        s.detached_at = now;
        uint32_t id = s.id;
        sessions_.emplace(id, std::move(s));
        if (id >= next_session_) {
          next_session_ = id + 1;
        }
        // Keep the token mint ahead of every replayed token so a post-replay
        // fresh session never collides.
        ++token_seq_;
        break;
      }
      case JournalRecordType::kSessionDropped:
        DropSession(rec.session, "journal replay");
        break;
      case JournalRecordType::kRequest: {
        Session* s = FindSession(rec.session);
        if (s == nullptr) {
          break;
        }
        Result<WireMsg> req = DecodePayload(rec.payload);
        if (!req.ok()) {
          break;
        }
        // Re-dispatching rebuilds everything the original did: the partition
        // mutation, page versions, pending invalidation queues, pseudo-pid
        // allocation, and the at-most-once reply cache.
        (void)ExecuteTracked(*s, *req);
        break;
      }
    }
  }
  replaying_ = false;
}

Status SegmentServer::AttachJournal() {
  if (options_.journal_path.empty()) {
    return FailedPrecondition("net: no journal path configured");
  }
  Result<JournalContents> loaded = Journal::Load(options_.journal_path);
  if (loaded.ok()) {
    if (!loaded->checkpoint.empty()) {
      RETURN_IF_ERROR(RestoreMeta(loaded->checkpoint));
    }
    ReplayRecords(loaded->records);
    journal_nonce_seen_ = loaded->nonce;
    journal_records_seen_ = loaded->records.size();
  } else if (loaded.status().code() != ErrorCode::kNotFound) {
    // Absent journal = fresh start; anything else (bad magic, wrong version)
    // deserves a loud failure, not a silent empty history.
    return loaded.status();
  }
  if (!standby_) {
    RETURN_IF_ERROR(journal_.Open(options_.journal_path, EncodeMeta()));
  }
  return OkStatus();
}

Status SegmentServer::ReloadStateFromDisk() {
  std::unique_ptr<SharedFs> fresh;
  std::ifstream in(options_.state_path, std::ios::binary);
  if (in) {
    std::vector<uint8_t> disk((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
    ByteReader r(disk);
    SfsCheckReport report;
    ASSIGN_OR_RETURN(fresh, SharedFs::Deserialize(&r, &report));
  } else {
    fresh = std::make_unique<SharedFs>();
  }
  fs_ = std::move(fresh);
  InstallPidProber();
  return OkStatus();
}

Status SegmentServer::TailJournal() {
  Result<JournalContents> loaded = Journal::Load(options_.journal_path);
  if (!loaded.ok()) {
    // The primary may be mid-checkpoint (rename in flight) — try next round.
    return OkStatus();
  }
  if (loaded->nonce != journal_nonce_seen_) {
    // The primary checkpointed: the journal restarted from a new state image.
    RETURN_IF_ERROR(ReloadStateFromDisk());
    if (!loaded->checkpoint.empty()) {
      RETURN_IF_ERROR(RestoreMeta(loaded->checkpoint));
    } else {
      sessions_.clear();
      directory_ = CoherenceDirectory();
    }
    ReplayRecords(loaded->records);
    journal_nonce_seen_ = loaded->nonce;
    journal_records_seen_ = loaded->records.size();
    return OkStatus();
  }
  if (loaded->records.size() > journal_records_seen_) {
    std::vector<JournalRecord> delta(loaded->records.begin() + journal_records_seen_,
                                     loaded->records.end());
    ReplayRecords(delta);
    journal_records_seen_ = loaded->records.size();
  }
  return OkStatus();
}

Status SegmentServer::Checkpoint() {
  if (options_.state_path.empty()) {
    return FailedPrecondition("net: checkpoint needs a state path");
  }
  ByteWriter w;
  RETURN_IF_ERROR(fs_->Serialize(&w));
  std::string tmp = options_.state_path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      return IoError("net: cannot open for writing: " + tmp);
    }
    out.write(reinterpret_cast<const char*>(w.buffer().data()),
              static_cast<std::streamsize>(w.buffer().size()));
    if (!out) {
      std::remove(tmp.c_str());
      return IoError("net: short write: " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), options_.state_path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return IoError("net: cannot rename the state image into place");
  }
  if (journal_.open()) {
    RETURN_IF_ERROR(journal_.Rewrite(EncodeMeta()));
  }
  ++*c_checkpoints_;
  return OkStatus();
}

}  // namespace hemlock
