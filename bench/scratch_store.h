// A PosixStore in a scratch directory of its own, for the paper benches that
// run on real mappings.
#ifndef BENCH_SCRATCH_STORE_H_
#define BENCH_SCRATCH_STORE_H_

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "src/posix/posix_store.h"

namespace hemlock {

// Empties /tmp/hemlock_bench_<tag>_<pid> and opens a store there (aborting if it
// cannot); removes the directory again on destruction, on a bench's error paths
// too.
struct ScratchStore {
  explicit ScratchStore(const std::string& tag)
      : dir("/tmp/hemlock_bench_" + tag + "_" + std::to_string(::getpid())) {
    (void)::system(("rm -rf " + dir).c_str());
    Result<std::unique_ptr<PosixStore>> opened = PosixStore::Open(dir);
    if (!opened.ok()) {
      std::fprintf(stderr, "%s: %s\n", dir.c_str(), opened.status().ToString().c_str());
      std::abort();
    }
    store = std::move(*opened);
  }
  ~ScratchStore() {
    store.reset();
    (void)::system(("rm -rf " + dir).c_str());
  }
  ScratchStore(const ScratchStore&) = delete;
  ScratchStore& operator=(const ScratchStore&) = delete;

  std::string dir;
  std::unique_ptr<PosixStore> store;
};

}  // namespace hemlock

#endif  // BENCH_SCRATCH_STORE_H_
