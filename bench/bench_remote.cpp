// Distributed shared segments (docs/DISTRIBUTED.md): what does an attach over
// the wire cost, and does the replica's cache actually amortize it?
//
// Three readings of the same 256 KB segment:
//   * local_ns   — a plain in-process partition (the PR 1 attach path);
//   * cold_ns    — a fresh `hemrun --connect`-style client, every page demand-
//                  fetched over a loopback socket (the headline iteration time);
//   * cached_ns  — the same client re-reading after the pages are resident.
//
// CI gates cached within 20% of local via the remote_cached row of
// `bench_compare.py`, on the counters this benchmark emits: once the pages are
// home, the coherence layer may only cost the residency check, not another trip
// through the socket.
#include <benchmark/benchmark.h>

#include <chrono>
#include <memory>
#include <vector>

#include "src/base/bytes.h"
#include "src/net/client.h"
#include "src/net/server.h"
#include "src/runtime/world.h"
#include "src/sfs/shared_fs.h"

namespace hemlock {
namespace {

constexpr uint32_t kBlobBytes = 256 * 1024;  // 64 pages
constexpr int kPasses = 16;  // best-of-N per reading to shed scheduler noise

// One full sequential read of the blob, timed. ReadAt drives EnsureResident on
// a replica (demand fetch / residency check) and is a straight memcpy locally.
double ReadPassSeconds(SharedFs& fs, uint32_t ino, std::vector<uint8_t>* buf) {
  auto t0 = std::chrono::steady_clock::now();
  Result<uint32_t> n = fs.ReadAt(ino, 0, buf->data(), kBlobBytes);
  auto t1 = std::chrono::steady_clock::now();
  if (!n.ok() || *n != kBlobBytes) {
    return -1.0;
  }
  benchmark::DoNotOptimize(buf->data());
  return std::chrono::duration<double>(t1 - t0).count();
}

double BestOf(int passes, SharedFs& fs, uint32_t ino, std::vector<uint8_t>* buf) {
  double best = -1.0;
  for (int i = 0; i < passes; ++i) {
    double s = ReadPassSeconds(fs, ino, buf);
    if (s < 0) {
      return -1.0;
    }
    if (best < 0 || s < best) {
      best = s;
    }
  }
  return best;
}

void BM_RemoteSegmentAccess(benchmark::State& state) {
  // The authoritative partition, populated before the server starts serving.
  auto fs = std::make_unique<SharedFs>();
  if (!fs->Mkdir("/shm").ok()) {
    state.SkipWithError("cannot create /shm");
    return;
  }
  Result<uint32_t> created = fs->Create("/shm/blob.bin");
  if (!created.ok()) {
    state.SkipWithError("cannot create the blob");
    return;
  }
  std::vector<uint8_t> blob(kBlobBytes);
  for (uint32_t i = 0; i < kBlobBytes; ++i) {
    blob[i] = static_cast<uint8_t>(i * 2654435761u >> 24);
  }
  if (!fs->WriteAt(*created, 0, blob.data(), kBlobBytes).ok()) {
    state.SkipWithError("cannot fill the blob");
    return;
  }

  // Local baseline: the same bytes in a plain in-process partition.
  ByteWriter w;
  if (!fs->Serialize(&w).ok()) {
    state.SkipWithError("cannot serialize the partition");
    return;
  }
  std::vector<uint8_t> buf(kBlobBytes);
  double local_s;
  {
    ByteReader r(w.buffer());
    Result<std::unique_ptr<SharedFs>> local = SharedFs::Deserialize(&r);
    if (!local.ok()) {
      state.SkipWithError("cannot rebuild the local partition");
      return;
    }
    local_s = BestOf(kPasses, **local, *created, &buf);
    if (local_s < 0) {
      state.SkipWithError("local read failed");
      return;
    }
  }

  SegmentServer server(std::move(fs));
  if (!server.Listen("127.0.0.1", 0).ok() || !server.Start().ok()) {
    state.SkipWithError("cannot start the segment server");
    return;
  }

  double cold_s = -1.0, cached_s = -1.0, pages_fetched = 0;
  for (auto _ : state) {
    HemlockWorld world;
    NetClient client;
    if (!client.Connect("127.0.0.1", server.port(), &world.machine()).ok()) {
      state.SkipWithError("connect failed");
      break;
    }
    Result<uint32_t> ino = world.sfs().Lookup("/shm/blob.bin");
    if (!ino.ok()) {
      state.SkipWithError("blob missing from the mounted replica");
      break;
    }
    cold_s = ReadPassSeconds(world.sfs(), *ino, &buf);
    if (cold_s < 0) {
      state.SkipWithError("cold remote read failed");
      break;
    }
    cached_s = BestOf(kPasses, world.sfs(), *ino, &buf);
    if (cached_s < 0) {
      state.SkipWithError("cached remote read failed");
      break;
    }
    pages_fetched =
        static_cast<double>(world.machine().metrics().Get("net.client.pages_fetched"));
    client.Disconnect();
    state.SetIterationTime(cold_s);
  }
  server.Stop();

  state.counters["local_ns"] = local_s * 1e9;
  state.counters["cold_ns"] = cold_s * 1e9;
  state.counters["cached_ns"] = cached_s * 1e9;
  state.counters["pages_fetched"] = pages_fetched;
  state.counters["blob_bytes"] = kBlobBytes;
}
BENCHMARK(BM_RemoteSegmentAccess)->UseManualTime();

// Fault-tolerance cost: what does losing the connection actually cost a
// client whose replica is warm? The severed link is rediscovered on the next
// RPC, which rides the retry loop: backoff, re-dial, HELLO-with-resume-token,
// and a RESYNC claiming every resident page. The server answers only what is
// stale — nothing here — so the replica revalidates without refetching a
// byte. `resume_ns` is that whole recovery (vs `rpc_ns`, the same RPC on a
// healthy link); `pages_refetched` staying 0 is the point of RESYNC.
void BM_RemoteReconnectResume(benchmark::State& state) {
  auto fs = std::make_unique<SharedFs>();
  if (!fs->Mkdir("/shm").ok()) {
    state.SkipWithError("cannot create /shm");
    return;
  }
  Result<uint32_t> created = fs->Create("/shm/blob.bin");
  if (!created.ok()) {
    state.SkipWithError("cannot create the blob");
    return;
  }
  std::vector<uint8_t> blob(kBlobBytes);
  for (uint32_t i = 0; i < kBlobBytes; ++i) {
    blob[i] = static_cast<uint8_t>(i * 2654435761u >> 24);
  }
  if (!fs->WriteAt(*created, 0, blob.data(), kBlobBytes).ok()) {
    state.SkipWithError("cannot fill the blob");
    return;
  }

  SegmentServer server(std::move(fs));
  if (!server.Listen("127.0.0.1", 0).ok() || !server.Start().ok()) {
    state.SkipWithError("cannot start the segment server");
    return;
  }

  constexpr int kLockPid = 77;
  double rpc_s = -1.0, resume_s = -1.0;
  double resumes = 0, pages_refetched = 0;
  std::vector<uint8_t> buf(kBlobBytes);
  for (auto _ : state) {
    HemlockWorld world;
    NetClient client;
    NetClientOptions options;
    options.backoff_ms = 1;  // measure recovery, not the default backoff
    client.set_options(options);
    if (!client.Connect("127.0.0.1", server.port(), &world.machine()).ok()) {
      state.SkipWithError("connect failed");
      break;
    }
    Result<uint32_t> ino = world.sfs().Lookup("/shm/blob.bin");
    if (!ino.ok()) {
      state.SkipWithError("blob missing from the mounted replica");
      break;
    }
    if (ReadPassSeconds(world.sfs(), *ino, &buf) < 0) {
      state.SkipWithError("warming read failed");
      break;
    }
    // Healthy-link baseline: one lock/unlock round trip, best of kPasses.
    for (int i = 0; i < kPasses; ++i) {
      auto t0 = std::chrono::steady_clock::now();
      Status lk = world.sfs().LockInode(*ino, kLockPid);
      auto t1 = std::chrono::steady_clock::now();
      if (!lk.ok() || !world.sfs().UnlockInode(*ino, kLockPid).ok()) {
        state.SkipWithError("baseline lock round trip failed");
        return;
      }
      double s = std::chrono::duration<double>(t1 - t0).count();
      if (rpc_s < 0 || s < rpc_s) {
        rpc_s = s;
      }
    }
    uint64_t fetched_before = world.machine().metrics().Get("net.client.pages_fetched");
    client.SeverForTest();
    auto t0 = std::chrono::steady_clock::now();
    Status lk = world.sfs().LockInode(*ino, kLockPid);
    auto t1 = std::chrono::steady_clock::now();
    if (!lk.ok() || !world.sfs().UnlockInode(*ino, kLockPid).ok()) {
      state.SkipWithError("post-sever lock did not recover");
      break;
    }
    resume_s = std::chrono::duration<double>(t1 - t0).count();
    resumes = static_cast<double>(world.machine().metrics().Get("net.client.resumes"));
    pages_refetched = static_cast<double>(
        world.machine().metrics().Get("net.client.pages_fetched") - fetched_before);
    client.Disconnect();
    state.SetIterationTime(resume_s);
  }
  server.Stop();

  state.counters["rpc_ns"] = rpc_s * 1e9;
  state.counters["resume_ns"] = resume_s * 1e9;
  state.counters["resumes"] = resumes;
  state.counters["pages_refetched"] = pages_refetched;
}
BENCHMARK(BM_RemoteReconnectResume)->UseManualTime();

}  // namespace
}  // namespace hemlock
