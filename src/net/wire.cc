#include "src/net/wire.h"

#include "src/base/strings.h"

namespace hemlock {

namespace {

// Caps for attacker-controlled counts. Each is the structural maximum the
// protocol can ever need, so a larger count is corruption by definition.
constexpr uint32_t kMaxNodes = kSfsMaxInodes;
constexpr uint32_t kMaxInvals = 1u << 20;
constexpr uint32_t kMaxStats = 4096;
constexpr uint32_t kMaxStatName = 256;

bool ValidIno(uint32_t ino) { return ino >= 1 && ino <= kSfsMaxInodes; }
// Snapshot/inval nodes: root (ino 1) is fixed on every partition and never
// travels, so node records must name inodes 2..1024.
bool ValidNodeIno(uint32_t ino) { return ino >= 2 && ino <= kSfsMaxInodes; }
bool ValidNodeType(uint8_t type) { return type >= 1 && type <= 3; }

void EncodeInval(ByteWriter* w, const WireInval& inv) {
  w->U8(static_cast<uint8_t>(inv.kind));
  w->U32(inv.ino);
  switch (inv.kind) {
    case WireInvalKind::kPage:
    case WireInvalKind::kSize:
    case WireInvalKind::kPending:
      w->U32(inv.value);
      break;
    case WireInvalKind::kCreated:
      w->U8(inv.node_type);
      w->Str(inv.path);
      w->Str(inv.target);
      break;
    case WireInvalKind::kUnlinked:
      w->Str(inv.path);
      break;
  }
}

Status DecodeInval(ByteReader* r, WireInval* inv) {
  ASSIGN_OR_RETURN(uint8_t kind, r->U8());
  if (kind < 1 || kind > 5) {
    return CorruptData(StrFormat("wire: bad invalidation kind %u", kind));
  }
  inv->kind = static_cast<WireInvalKind>(kind);
  ASSIGN_OR_RETURN(inv->ino, r->U32());
  switch (inv->kind) {
    case WireInvalKind::kPage: {
      ASSIGN_OR_RETURN(inv->value, r->U32());
      if (!ValidIno(inv->ino) || inv->value >= kWirePagesPerFile) {
        return CorruptData("wire: page invalidation out of range");
      }
      break;
    }
    case WireInvalKind::kSize: {
      ASSIGN_OR_RETURN(inv->value, r->U32());
      if (!ValidIno(inv->ino) || inv->value > kSfsMaxFileBytes) {
        return CorruptData("wire: size invalidation out of range");
      }
      break;
    }
    case WireInvalKind::kPending: {
      ASSIGN_OR_RETURN(inv->value, r->U32());
      if (!ValidIno(inv->ino) || inv->value > 1) {
        return CorruptData("wire: pending invalidation out of range");
      }
      break;
    }
    case WireInvalKind::kCreated: {
      ASSIGN_OR_RETURN(inv->node_type, r->U8());
      ASSIGN_OR_RETURN(inv->path, r->Str());
      ASSIGN_OR_RETURN(inv->target, r->Str());
      if (!ValidNodeIno(inv->ino) || !ValidNodeType(inv->node_type) ||
          inv->path.empty() || inv->path.size() > kMaxWirePath ||
          inv->target.size() > kMaxWirePath) {
        return CorruptData("wire: created-node invalidation malformed");
      }
      break;
    }
    case WireInvalKind::kUnlinked: {
      ASSIGN_OR_RETURN(inv->path, r->Str());
      if (!ValidNodeIno(inv->ino) || inv->path.empty() ||
          inv->path.size() > kMaxWirePath) {
        return CorruptData("wire: unlinked-node invalidation malformed");
      }
      break;
    }
  }
  return OkStatus();
}

void EncodePage(ByteWriter* w, const WirePage& page) {
  w->U32(page.index);
  w->U64(page.version);
  w->Bytes(page.bytes);
}

Status DecodePage(ByteReader* r, WirePage* page) {
  ASSIGN_OR_RETURN(page->index, r->U32());
  ASSIGN_OR_RETURN(page->version, r->U64());
  ASSIGN_OR_RETURN(page->bytes, r->BytesView());
  if (page->index >= kWirePagesPerFile) {
    return CorruptData(StrFormat("wire: page index %u beyond the 1 MB file", page->index));
  }
  if (page->bytes.size() > kPageSize) {
    return CorruptData("wire: page payload larger than a page");
  }
  return OkStatus();
}

void EncodeClaim(ByteWriter* w, const WireClaim& claim) {
  w->U32(claim.ino);
  w->U32(claim.page);
  w->U64(claim.version);
}

Status DecodeClaim(ByteReader* r, WireClaim* claim) {
  ASSIGN_OR_RETURN(claim->ino, r->U32());
  ASSIGN_OR_RETURN(claim->page, r->U32());
  ASSIGN_OR_RETURN(claim->version, r->U64());
  if (!ValidIno(claim->ino)) {
    return CorruptData("wire: resync claim names an invalid inode");
  }
  if (claim->page >= kWirePagesPerFile && claim->page != kWireSizeClaim) {
    return CorruptData("wire: resync claim page out of range");
  }
  if (claim->page == kWireSizeClaim && claim->version > kSfsMaxFileBytes) {
    return CorruptData("wire: resync size claim out of range");
  }
  return OkStatus();
}

void EncodeNode(ByteWriter* w, const WireNode& node) {
  w->U32(node.ino);
  w->U8(node.type);
  w->Str(node.path);
  w->U32(node.parent);
  w->U32(node.size);
  w->U8(node.pending);
  w->Str(node.target);
}

Status DecodeNode(ByteReader* r, WireNode* node) {
  ASSIGN_OR_RETURN(node->ino, r->U32());
  ASSIGN_OR_RETURN(node->type, r->U8());
  ASSIGN_OR_RETURN(node->path, r->Str());
  ASSIGN_OR_RETURN(node->parent, r->U32());
  ASSIGN_OR_RETURN(node->size, r->U32());
  ASSIGN_OR_RETURN(node->pending, r->U8());
  ASSIGN_OR_RETURN(node->target, r->Str());
  if (!ValidNodeIno(node->ino) || !ValidNodeType(node->type) ||
      !ValidIno(node->parent) || node->size > kSfsMaxFileBytes ||
      node->pending > 1 || node->path.empty() || node->path.size() > kMaxWirePath ||
      node->path[0] != '/' || node->target.size() > kMaxWirePath) {
    return CorruptData(StrFormat("wire: snapshot node for inode %u malformed", node->ino));
  }
  return OkStatus();
}

// --- Request bodies ---

void EncodeRequestBody(ByteWriter* w, const WireMsg& m) {
  if (m.op != WireOp::kHello && m.op != WireOp::kReply && m.op != WireOp::kError) {
    // Every non-hello request carries its per-session sequence number; the
    // reply echoes it, which is what makes retransmits and duplicated frames
    // safe to sort out on both ends.
    w->U32(m.seq);
  }
  switch (m.op) {
    case WireOp::kHello:
      w->U32(kWireMagic);
      w->U16(m.version);
      if (m.version >= 2) {
        w->U32(m.resume_session);
        w->U64(m.resume_token);
      }
      break;
    case WireOp::kMount:
    case WireOp::kCheck:
    case WireOp::kStats:
    case WireOp::kBye:
      break;
    case WireOp::kResync:
      w->U32(static_cast<uint32_t>(m.claims.size()));
      for (const WireClaim& c : m.claims) {
        EncodeClaim(w, c);
      }
      break;
    case WireOp::kFetch:
      w->U32(m.ino);
      w->U32(static_cast<uint32_t>(m.page_list.size()));
      for (uint32_t idx : m.page_list) {
        w->U32(idx);
      }
      break;
    case WireOp::kFlush:
      w->U32(m.ino);
      w->U32(m.size);
      w->U32(static_cast<uint32_t>(m.pages.size()));
      for (const WirePage& p : m.pages) {
        EncodePage(w, p);
      }
      break;
    case WireOp::kCreate:
    case WireOp::kMkdir:
      w->Str(m.path);
      break;
    case WireOp::kSymlink:
      w->Str(m.path);
      w->Str(m.target);
      break;
    case WireOp::kUnlink:
      w->Str(m.path);
      w->U8(m.flag);
      break;
    case WireOp::kTruncate:
      w->U32(m.ino);
      w->U32(m.size);
      break;
    case WireOp::kWrite:
      w->U32(m.ino);
      w->U32(m.offset);
      w->Bytes(m.bytes);
      break;
    case WireOp::kLock:
    case WireOp::kUnlock:
      w->U32(m.ino);
      w->I32(m.pid);
      break;
    case WireOp::kPending:
      w->U32(m.ino);
      w->U8(m.flag);
      break;
    case WireOp::kReleaseLocks:
      w->I32(m.pid);
      break;
    case WireOp::kReply:
    case WireOp::kError:
      break;  // handled by EncodeReplyBody
  }
}

Status DecodePathField(ByteReader* r, std::string* path) {
  ASSIGN_OR_RETURN(*path, r->Str());
  if (path->empty() || path->size() > kMaxWirePath || (*path)[0] != '/') {
    return CorruptData("wire: malformed partition path");
  }
  return OkStatus();
}

Status DecodeRequestBody(ByteReader* r, WireMsg* m) {
  if (m->op != WireOp::kHello) {
    ASSIGN_OR_RETURN(m->seq, r->U32());
  }
  switch (m->op) {
    case WireOp::kHello: {
      ASSIGN_OR_RETURN(uint32_t magic, r->U32());
      if (magic != kWireMagic) {
        return CorruptData("wire: bad hello magic");
      }
      ASSIGN_OR_RETURN(m->version, r->U16());
      // A v1 hello ends here; it still decodes so the server can refuse it
      // with kUnsupportedVersion instead of a parse error.
      if (m->version >= 2) {
        ASSIGN_OR_RETURN(m->resume_session, r->U32());
        ASSIGN_OR_RETURN(m->resume_token, r->U64());
      }
      return OkStatus();
    }
    case WireOp::kMount:
    case WireOp::kCheck:
    case WireOp::kStats:
    case WireOp::kBye:
      return OkStatus();
    case WireOp::kResync: {
      ASSIGN_OR_RETURN(uint32_t n, r->Count(16, kMaxInvals));
      m->claims.resize(n);
      for (uint32_t i = 0; i < n; ++i) {
        RETURN_IF_ERROR(DecodeClaim(r, &m->claims[i]));
      }
      return OkStatus();
    }
    case WireOp::kFetch: {
      ASSIGN_OR_RETURN(m->ino, r->U32());
      ASSIGN_OR_RETURN(uint32_t n, r->Count(4, kWirePagesPerFile));
      m->page_list.resize(n);
      for (uint32_t i = 0; i < n; ++i) {
        ASSIGN_OR_RETURN(m->page_list[i], r->U32());
        if (m->page_list[i] >= kWirePagesPerFile) {
          return CorruptData("wire: fetch page index out of range");
        }
      }
      if (!ValidIno(m->ino)) {
        return CorruptData("wire: fetch names an invalid inode");
      }
      return OkStatus();
    }
    case WireOp::kFlush: {
      ASSIGN_OR_RETURN(m->ino, r->U32());
      ASSIGN_OR_RETURN(m->size, r->U32());
      ASSIGN_OR_RETURN(uint32_t n, r->Count(16, kWirePagesPerFile));
      m->pages.resize(n);
      for (uint32_t i = 0; i < n; ++i) {
        RETURN_IF_ERROR(DecodePage(r, &m->pages[i]));
      }
      if (!ValidIno(m->ino) || m->size > kSfsMaxFileBytes) {
        return CorruptData("wire: flush out of range");
      }
      return OkStatus();
    }
    case WireOp::kCreate:
    case WireOp::kMkdir:
      return DecodePathField(r, &m->path);
    case WireOp::kSymlink: {
      RETURN_IF_ERROR(DecodePathField(r, &m->path));
      ASSIGN_OR_RETURN(m->target, r->Str());
      if (m->target.size() > kMaxWirePath) {
        return CorruptData("wire: symlink target too long");
      }
      return OkStatus();
    }
    case WireOp::kUnlink: {
      RETURN_IF_ERROR(DecodePathField(r, &m->path));
      ASSIGN_OR_RETURN(m->flag, r->U8());
      if (m->flag > 1) {
        return CorruptData("wire: unlink force flag out of range");
      }
      return OkStatus();
    }
    case WireOp::kTruncate: {
      ASSIGN_OR_RETURN(m->ino, r->U32());
      ASSIGN_OR_RETURN(m->size, r->U32());
      if (!ValidIno(m->ino) || m->size > kSfsMaxFileBytes) {
        return CorruptData("wire: truncate out of range");
      }
      return OkStatus();
    }
    case WireOp::kWrite: {
      ASSIGN_OR_RETURN(m->ino, r->U32());
      ASSIGN_OR_RETURN(m->offset, r->U32());
      ASSIGN_OR_RETURN(m->bytes, r->Bytes());
      if (!ValidIno(m->ino) ||
          static_cast<uint64_t>(m->offset) + m->bytes.size() > kSfsMaxFileBytes) {
        return CorruptData("wire: write past the 1 MB file limit");
      }
      return OkStatus();
    }
    case WireOp::kLock:
    case WireOp::kUnlock: {
      ASSIGN_OR_RETURN(m->ino, r->U32());
      ASSIGN_OR_RETURN(m->pid, r->I32());
      if (!ValidIno(m->ino)) {
        return CorruptData("wire: lock names an invalid inode");
      }
      return OkStatus();
    }
    case WireOp::kReleaseLocks: {
      ASSIGN_OR_RETURN(m->pid, r->I32());
      return OkStatus();
    }
    case WireOp::kPending: {
      ASSIGN_OR_RETURN(m->ino, r->U32());
      ASSIGN_OR_RETURN(m->flag, r->U8());
      if (!ValidIno(m->ino) || m->flag > 1) {
        return CorruptData("wire: pending marker out of range");
      }
      return OkStatus();
    }
    case WireOp::kReply:
    case WireOp::kError:
      return Internal("wire: reply body routed to the request decoder");
  }
  return CorruptData("wire: unknown opcode");
}

// --- Reply bodies ---

void EncodeReplyBody(ByteWriter* w, const WireMsg& m) {
  w->U8(m.reply_to);
  w->U32(m.seq);
  w->U8(m.replayed);
  w->U32(static_cast<uint32_t>(m.invals.size()));
  for (const WireInval& inv : m.invals) {
    EncodeInval(w, inv);
  }
  if (m.op == WireOp::kError) {
    w->U8(m.err_code);
    w->Str(m.err_msg);
    return;
  }
  switch (static_cast<WireOp>(m.reply_to)) {
    case WireOp::kHello:
      w->U32(m.session);
      w->U16(m.version);
      w->U64(m.token);
      w->U32(m.epoch);
      w->U8(m.resumed);
      break;
    case WireOp::kMount:
      w->U32(static_cast<uint32_t>(m.nodes.size()));
      for (const WireNode& node : m.nodes) {
        EncodeNode(w, node);
      }
      break;
    case WireOp::kFetch:
      w->U32(m.ino);
      w->U32(m.size);
      w->U32(static_cast<uint32_t>(m.pages.size()));
      for (const WirePage& p : m.pages) {
        EncodePage(w, p);
      }
      break;
    case WireOp::kFlush:
    case WireOp::kWrite:
      // Version-only records (empty bytes): the new CoherenceDirectory version
      // of each page the flush/write just took ownership of.
      w->U32(static_cast<uint32_t>(m.pages.size()));
      for (const WirePage& p : m.pages) {
        EncodePage(w, p);
      }
      break;
    case WireOp::kCreate:
    case WireOp::kMkdir:
    case WireOp::kSymlink:
      w->U32(m.ino);
      break;
    case WireOp::kCheck:
      w->U8(m.flag);
      w->Str(m.text);
      break;
    case WireOp::kStats:
      w->U32(static_cast<uint32_t>(m.stats.size()));
      for (const auto& [name, value] : m.stats) {
        w->Str(name);
        w->U64(value);
      }
      break;
    default:
      break;  // flush/unlink/truncate/write/lock/unlock/release/pending/bye: empty
  }
}

Status DecodeReplyBody(ByteReader* r, WireMsg* m) {
  ASSIGN_OR_RETURN(m->reply_to, r->U8());
  WireOp to = static_cast<WireOp>(m->reply_to);
  if (m->reply_to < 1 || to >= WireOp::kReply) {
    return CorruptData(StrFormat("wire: reply to unknown opcode %u", m->reply_to));
  }
  ASSIGN_OR_RETURN(m->seq, r->U32());
  ASSIGN_OR_RETURN(m->replayed, r->U8());
  if (m->replayed > 1) {
    return CorruptData("wire: replayed flag out of range");
  }
  ASSIGN_OR_RETURN(uint32_t n, r->Count(5, kMaxInvals));
  m->invals.resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    RETURN_IF_ERROR(DecodeInval(r, &m->invals[i]));
  }
  if (m->op == WireOp::kError) {
    ASSIGN_OR_RETURN(m->err_code, r->U8());
    ASSIGN_OR_RETURN(m->err_msg, r->Str());
    if (m->err_code == 0) {
      return CorruptData("wire: error reply with OK code");
    }
    if (m->err_msg.size() > kMaxWirePath) {
      return CorruptData("wire: error message too long");
    }
    return OkStatus();
  }
  switch (to) {
    case WireOp::kHello: {
      ASSIGN_OR_RETURN(m->session, r->U32());
      ASSIGN_OR_RETURN(m->version, r->U16());
      ASSIGN_OR_RETURN(m->token, r->U64());
      ASSIGN_OR_RETURN(m->epoch, r->U32());
      ASSIGN_OR_RETURN(m->resumed, r->U8());
      if (m->resumed > 1) {
        return CorruptData("wire: hello resumed flag out of range");
      }
      return OkStatus();
    }
    case WireOp::kMount: {
      ASSIGN_OR_RETURN(uint32_t count, r->Count(16, kMaxNodes));
      m->nodes.resize(count);
      for (uint32_t i = 0; i < count; ++i) {
        RETURN_IF_ERROR(DecodeNode(r, &m->nodes[i]));
      }
      return OkStatus();
    }
    case WireOp::kFetch: {
      ASSIGN_OR_RETURN(m->ino, r->U32());
      ASSIGN_OR_RETURN(m->size, r->U32());
      ASSIGN_OR_RETURN(uint32_t count, r->Count(16, kWirePagesPerFile));
      m->pages.resize(count);
      for (uint32_t i = 0; i < count; ++i) {
        RETURN_IF_ERROR(DecodePage(r, &m->pages[i]));
      }
      if (!ValidIno(m->ino) || m->size > kSfsMaxFileBytes) {
        return CorruptData("wire: fetch reply out of range");
      }
      return OkStatus();
    }
    case WireOp::kFlush:
    case WireOp::kWrite: {
      ASSIGN_OR_RETURN(uint32_t count, r->Count(16, kWirePagesPerFile));
      m->pages.resize(count);
      for (uint32_t i = 0; i < count; ++i) {
        RETURN_IF_ERROR(DecodePage(r, &m->pages[i]));
      }
      return OkStatus();
    }
    case WireOp::kCreate:
    case WireOp::kMkdir:
    case WireOp::kSymlink: {
      ASSIGN_OR_RETURN(m->ino, r->U32());
      if (!ValidIno(m->ino)) {
        return CorruptData("wire: created-inode reply out of range");
      }
      return OkStatus();
    }
    case WireOp::kCheck: {
      ASSIGN_OR_RETURN(m->flag, r->U8());
      ASSIGN_OR_RETURN(m->text, r->Str());
      if (m->flag > 1) {
        return CorruptData("wire: check reply flag out of range");
      }
      return OkStatus();
    }
    case WireOp::kStats: {
      ASSIGN_OR_RETURN(uint32_t count, r->Count(12, kMaxStats));
      m->stats.resize(count);
      for (uint32_t i = 0; i < count; ++i) {
        ASSIGN_OR_RETURN(m->stats[i].first, r->Str());
        ASSIGN_OR_RETURN(m->stats[i].second, r->U64());
        if (m->stats[i].first.empty() || m->stats[i].first.size() > kMaxStatName) {
          return CorruptData("wire: stats counter name malformed");
        }
      }
      return OkStatus();
    }
    default:
      return OkStatus();  // empty-bodied acks
  }
}

// Bytes to reserve for |msg|'s payload: exact for the page records and blobs
// that dominate large frames, plus slack for the fixed fields and short lists.
size_t PayloadSizeHint(const WireMsg& msg) {
  size_t n = 64 + msg.bytes.size() + 4 * msg.page_list.size();
  for (const WirePage& p : msg.pages) {
    n += 16 + p.bytes.size();
  }
  return n;
}

void EncodeBody(ByteWriter* w, const WireMsg& msg) {
  w->U8(static_cast<uint8_t>(msg.op));
  if (msg.op == WireOp::kReply || msg.op == WireOp::kError) {
    EncodeReplyBody(w, msg);
  } else {
    EncodeRequestBody(w, msg);
  }
}

}  // namespace

void EncodeInvalRecord(ByteWriter* w, const WireInval& inv) { EncodeInval(w, inv); }

Status DecodeInvalRecord(ByteReader* r, WireInval* inv) { return DecodeInval(r, inv); }

std::vector<uint8_t> EncodePayload(const WireMsg& msg) {
  ByteWriter w;
  w.Reserve(PayloadSizeHint(msg));
  EncodeBody(&w, msg);
  return w.Take();
}

Result<WireMsg> DecodePayload(const uint8_t* data, size_t size) {
  ByteReader r(data, size);
  WireMsg m;
  ASSIGN_OR_RETURN(uint8_t op, r.U8());
  bool known_request = op >= 1 && op <= static_cast<uint8_t>(WireOp::kResync);
  bool reply = op == static_cast<uint8_t>(WireOp::kReply) ||
               op == static_cast<uint8_t>(WireOp::kError);
  if (!known_request && !reply) {
    return CorruptData(StrFormat("wire: unknown opcode %u", op));
  }
  m.op = static_cast<WireOp>(op);
  if (reply) {
    RETURN_IF_ERROR(DecodeReplyBody(&r, &m));
  } else {
    RETURN_IF_ERROR(DecodeRequestBody(&r, &m));
  }
  RETURN_IF_ERROR(r.ExpectEnd("wire payload"));
  return m;
}

Result<WireMsg> DecodePayload(std::vector<uint8_t>&& b) {
  auto owned = std::make_shared<const std::vector<uint8_t>>(std::move(b));
  ASSIGN_OR_RETURN(WireMsg m, DecodePayload(owned->data(), owned->size()));
  m.frame.bytes = std::move(owned);
  return m;
}

std::vector<uint8_t> EncodeFrame(const WireMsg& msg) {
  ByteWriter w;
  w.Reserve(4 + PayloadSizeHint(msg));
  w.U32(0);  // the payload length, patched once the payload is written
  EncodeBody(&w, msg);
  w.PatchU32(0, static_cast<uint32_t>(w.size() - 4));
  return w.Take();
}

uint8_t WireErrorCode(ErrorCode code) {
  // Explicit table: the wire bytes are protocol, the enum order is not.
  switch (code) {
    case ErrorCode::kOk: return 0;
    case ErrorCode::kInvalidArgument: return 1;
    case ErrorCode::kNotFound: return 2;
    case ErrorCode::kAlreadyExists: return 3;
    case ErrorCode::kPermissionDenied: return 4;
    case ErrorCode::kOutOfRange: return 5;
    case ErrorCode::kResourceExhausted: return 6;
    case ErrorCode::kFailedPrecondition: return 7;
    case ErrorCode::kUnimplemented: return 8;
    case ErrorCode::kCorruptData: return 9;
    case ErrorCode::kWouldBlock: return 10;
    case ErrorCode::kFault: return 11;
    case ErrorCode::kCrashed: return 12;
    case ErrorCode::kInternal: return 13;
    case ErrorCode::kIoError: return 14;
    case ErrorCode::kUnsupportedVersion: return 15;
  }
  return 13;
}

ErrorCode ErrorCodeFromWire(uint8_t byte) {
  switch (byte) {
    case 1: return ErrorCode::kInvalidArgument;
    case 2: return ErrorCode::kNotFound;
    case 3: return ErrorCode::kAlreadyExists;
    case 4: return ErrorCode::kPermissionDenied;
    case 5: return ErrorCode::kOutOfRange;
    case 6: return ErrorCode::kResourceExhausted;
    case 7: return ErrorCode::kFailedPrecondition;
    case 8: return ErrorCode::kUnimplemented;
    case 9: return ErrorCode::kCorruptData;
    case 10: return ErrorCode::kWouldBlock;
    case 11: return ErrorCode::kFault;
    case 12: return ErrorCode::kCrashed;
    case 14: return ErrorCode::kIoError;
    case 15: return ErrorCode::kUnsupportedVersion;
    default: return ErrorCode::kInternal;  // forward compatibility, not corruption
  }
}

WireMsg WireErrorFrom(const Status& st) {
  WireMsg m;
  m.op = WireOp::kError;
  m.err_code = WireErrorCode(st.code());
  m.err_msg = st.message();
  return m;
}

Status StatusFromWire(const WireMsg& err) {
  return Status(ErrorCodeFromWire(err.err_code),
                err.err_msg.empty() ? "remote error" : err.err_msg);
}

}  // namespace hemlock
