// E1 (paper §4 "Administrative Files" — the rwho/rwhod case study).
//
// The paper re-implemented rwhod to keep its database in shared memory rather than in
// one file per remote host, and reports: "On our local network of 65 rwhod-equipped
// machines, the new version of rwho saves a little over a second each time it is
// called" — file-per-host parsing dominated query time.
//
// Rows: rwho query cost and rwhod update cost under both backends, swept over host
// counts including the paper's 65. Expected shape: the shared-memory query wins by a
// factor that grows with host count (no open/parse per host); updates win too (no
// serialize/rename per packet).
#include <benchmark/benchmark.h>

#include <unistd.h>

#include <cstdlib>
#include <string>

#include "bench/scratch_store.h"
#include "src/apps/rwho.h"

namespace hemlock {
namespace {

void Fill(RwhoDb* db, uint32_t hosts, uint32_t* now) {
  RwhoFeed feed(hosts);
  for (uint32_t i = 0; i < hosts; ++i) {
    HostStatus st = feed.NextPacket();
    *now = st.recv_time;
    if (!db->Update(st).ok()) {
      std::abort();
    }
  }
}

// The original design: one file per host, under a scratch directory.
struct FileFixture {
  explicit FileFixture(uint32_t hosts)
      : dir("/tmp/hemlock_bench_rwho_" + std::to_string(::getpid())) {
    (void)::system(("rm -rf " + dir).c_str());
    auto opened = FileRwhoDb::Open(dir + "/whod");
    db = std::move(*opened);
    Fill(db.get(), hosts, &now);
  }
  ~FileFixture() { (void)::system(("rm -rf " + dir).c_str()); }

  std::string dir;
  std::unique_ptr<FileRwhoDb> db;
  uint32_t now = 0;
};

// The Hemlock design: one shared segment of per-host records.
struct ShmFixture {
  explicit ShmFixture(uint32_t hosts) {
    auto created = ShmRwhoDb::Create(scratch.store.get(), "rwho", hosts + 8);
    db = std::move(*created);
    Fill(db.get(), hosts, &now);
  }

  ScratchStore scratch{"rwho_shm"};
  std::unique_ptr<ShmRwhoDb> db;
  uint32_t now = 0;
};

template <typename Fixture>
void BM_RwhoQuery(benchmark::State& state) {
  Fixture fx(static_cast<uint32_t>(state.range(0)));
  for (auto _ : state) {
    Result<std::vector<UptimeRow>> rows = fx.db->Query(fx.now);
    if (!rows.ok() || rows->size() != static_cast<size_t>(state.range(0))) {
      state.SkipWithError("query failed");
      return;
    }
    benchmark::DoNotOptimize(rows);
  }
  state.counters["hosts"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_RwhoQuery<FileFixture>)->Name("BM_RwhoQueryFiles")
    ->Arg(8)->Arg(16)->Arg(32)->Arg(65)->Arg(128)->Arg(256);
BENCHMARK(BM_RwhoQuery<ShmFixture>)->Name("BM_RwhoQueryShm")
    ->Arg(8)->Arg(16)->Arg(32)->Arg(65)->Arg(128)->Arg(256);

template <typename Fixture>
void BM_RwhodUpdate(benchmark::State& state) {
  uint32_t hosts = static_cast<uint32_t>(state.range(0));
  Fixture fx(hosts);
  RwhoFeed feed(hosts, /*seed=*/99);
  for (auto _ : state) {
    HostStatus st = feed.NextPacket();
    if (!fx.db->Update(st).ok()) {
      state.SkipWithError("update failed");
      return;
    }
  }
  state.counters["hosts"] = hosts;
}
BENCHMARK(BM_RwhodUpdate<FileFixture>)->Name("BM_RwhodUpdateFiles")->Arg(65);
BENCHMARK(BM_RwhodUpdate<ShmFixture>)->Name("BM_RwhodUpdateShm")->Arg(65);

}  // namespace
}  // namespace hemlock
