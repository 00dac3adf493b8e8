// Replays the checked-in fuzz corpus (tests/corpus/) through the fuzz harness
// entry points as an ordinary tier-1 test — every seed that ever crashed a
// decoder stays fixed, with or without a fuzzing engine in the toolchain.
// Regenerate seeds with `./build/fuzz/hem_make_corpus tests/corpus`; add fuzzer
// reproducers by dropping the file into the matching subdirectory.
#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fuzz/harness.h"
#include "src/net/wire.h"

namespace hemlock {
namespace {

namespace fs = std::filesystem;

fs::path CorpusDir() { return fs::path(HEMLOCK_CORPUS_DIR); }

std::vector<fs::path> SeedsIn(const std::string& subdir) {
  std::vector<fs::path> seeds;
  for (const fs::directory_entry& entry : fs::directory_iterator(CorpusDir() / subdir)) {
    if (entry.is_regular_file()) {
      seeds.push_back(entry.path());
    }
  }
  std::sort(seeds.begin(), seeds.end());
  return seeds;
}

std::vector<uint8_t> ReadSeed(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<uint8_t>((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
}

// The ISSUE 5 acceptance floor: a malformed-input regression corpus of at
// least 25 seeds, replayed on every test run.
TEST(CorpusTest, CorpusHasAtLeastTwentyFiveSeeds) {
  size_t total = SeedsIn("object").size() + SeedsIn("sfs").size() + SeedsIn("wire").size() +
                 SeedsIn("roundtrip").size();
  EXPECT_GE(total, 25u) << "checked-in corpus shrank below the regression floor";
}

TEST(CorpusTest, ObjectSeedsReplayWithoutCrashing) {
  std::vector<fs::path> seeds = SeedsIn("object");
  ASSERT_FALSE(seeds.empty());
  for (const fs::path& seed : seeds) {
    SCOPED_TRACE(seed.filename().string());
    std::vector<uint8_t> bytes = ReadSeed(seed);
    EXPECT_EQ(HemFuzzObject(bytes.data(), bytes.size()), 0);
  }
}

TEST(CorpusTest, SfsSeedsReplayWithoutCrashing) {
  std::vector<fs::path> seeds = SeedsIn("sfs");
  ASSERT_FALSE(seeds.empty());
  for (const fs::path& seed : seeds) {
    SCOPED_TRACE(seed.filename().string());
    std::vector<uint8_t> bytes = ReadSeed(seed);
    EXPECT_EQ(HemFuzzSfs(bytes.data(), bytes.size()), 0);
  }
}

TEST(CorpusTest, WireSeedsReplayWithoutCrashing) {
  std::vector<fs::path> seeds = SeedsIn("wire");
  ASSERT_FALSE(seeds.empty());
  for (const fs::path& seed : seeds) {
    SCOPED_TRACE(seed.filename().string());
    std::vector<uint8_t> bytes = ReadSeed(seed);
    EXPECT_EQ(HemFuzzWire(bytes.data(), bytes.size()), 0);
  }
}

// Pages decode as views (into the caller's bytes, or into the message's own
// copy when the buffer is handed over): every wire seed the decoder accepts
// re-encodes, through the single frame builder, to its own bytes behind the
// length prefix, whichever way it was decoded.
TEST(CorpusTest, WireSeedsReencodeToTheSameFrame) {
  size_t accepted = 0;
  for (const fs::path& seed : SeedsIn("wire")) {
    SCOPED_TRACE(seed.filename().string());
    std::vector<uint8_t> bytes = ReadSeed(seed);
    Result<WireMsg> viewed = DecodePayload(bytes);
    Result<WireMsg> owned = DecodePayload(std::vector<uint8_t>(bytes));
    ASSERT_EQ(viewed.ok(), owned.ok());
    if (!viewed.ok()) {
      continue;
    }
    ++accepted;
    std::vector<uint8_t> frame(4);
    uint32_t len = static_cast<uint32_t>(bytes.size());
    std::memcpy(frame.data(), &len, 4);
    frame.insert(frame.end(), bytes.begin(), bytes.end());
    EXPECT_EQ(EncodeFrame(*viewed), frame);
    EXPECT_EQ(EncodeFrame(*owned), frame);
    EXPECT_EQ(*viewed, *owned);
  }
  EXPECT_GT(accepted, 0u);
}

// The differential target replays every family: for any seed a decoder
// accepts, re-encoding must reach a fixed point (and, for the wire format,
// reproduce the input byte-for-byte). A trap here means an encoder and its
// decoder disagree about some field.
TEST(CorpusTest, AllSeedsSurviveTheRoundtripDifferential) {
  // "roundtrip" holds seeds the scheduled long-run fuzz job minimized out of
  // fuzz_roundtrip's own discoveries — inputs whose coverage no single-family
  // seed reproduces.
  for (const std::string& family : {"object", "sfs", "wire", "roundtrip"}) {
    for (const fs::path& seed : SeedsIn(family)) {
      SCOPED_TRACE(seed.string());
      std::vector<uint8_t> bytes = ReadSeed(seed);
      EXPECT_EQ(HemFuzzRoundtrip(bytes.data(), bytes.size()), 0);
    }
  }
}

// Cross-replay: each harness must survive the other family's seeds too — a
// fuzzer mutating a HOF seed into SFS magic (or vice versa) crosses over, and
// the first crash found that way should already be covered here.
TEST(CorpusTest, SeedsSurviveTheOtherHarness) {
  for (const fs::path& seed : SeedsIn("object")) {
    SCOPED_TRACE(seed.filename().string());
    std::vector<uint8_t> bytes = ReadSeed(seed);
    EXPECT_EQ(HemFuzzSfs(bytes.data(), bytes.size()), 0);
  }
  for (const fs::path& seed : SeedsIn("sfs")) {
    SCOPED_TRACE(seed.filename().string());
    std::vector<uint8_t> bytes = ReadSeed(seed);
    EXPECT_EQ(HemFuzzObject(bytes.data(), bytes.size()), 0);
  }
  for (const fs::path& seed : SeedsIn("wire")) {
    SCOPED_TRACE(seed.filename().string());
    std::vector<uint8_t> bytes = ReadSeed(seed);
    EXPECT_EQ(HemFuzzObject(bytes.data(), bytes.size()), 0);
    EXPECT_EQ(HemFuzzSfs(bytes.data(), bytes.size()), 0);
  }
}

}  // namespace
}  // namespace hemlock
