// Unit tests for src/base: Status/Result, byte (de)serialization, string/path helpers.
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/atomic_mem.h"
#include "src/base/bytes.h"
#include "src/base/layout.h"
#include "src/base/status.h"
#include "src/base/strings.h"

namespace hemlock {
namespace {

TEST(StatusTest, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), ErrorCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = NotFound("missing thing");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), ErrorCode::kNotFound);
  EXPECT_EQ(st.ToString(), "NOT_FOUND: missing thing");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int code = 0; code <= static_cast<int>(ErrorCode::kInternal); ++code) {
    EXPECT_NE(ErrorCodeName(static_cast<ErrorCode>(code)), "UNKNOWN");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = InvalidArgument("bad");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kInvalidArgument);
}

TEST(ResultTest, MoveOnlyPayload) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(7);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 7);
}

Result<int> Doubler(Result<int> in) {
  ASSIGN_OR_RETURN(int v, in);
  return v * 2;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(*Doubler(21), 42);
  EXPECT_EQ(Doubler(NotFound("x")).status().code(), ErrorCode::kNotFound);
}

TEST(BytesTest, ScalarRoundTrip) {
  ByteWriter w;
  w.U8(0xAB);
  w.U16(0xBEEF);
  w.U32(0xDEADBEEF);
  w.U64(0x0123456789ABCDEFull);
  w.I32(-12345);
  ByteReader r(w.buffer());
  EXPECT_EQ(*r.U8(), 0xAB);
  EXPECT_EQ(*r.U16(), 0xBEEF);
  EXPECT_EQ(*r.U32(), 0xDEADBEEFu);
  EXPECT_EQ(*r.U64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(*r.I32(), -12345);
  EXPECT_TRUE(r.AtEnd());
}

TEST(BytesTest, StringAndBlobRoundTrip) {
  ByteWriter w;
  w.Str("hello");
  w.Str("");
  w.Bytes({1, 2, 3});
  ByteReader r(w.buffer());
  EXPECT_EQ(*r.Str(), "hello");
  EXPECT_EQ(*r.Str(), "");
  EXPECT_EQ(*r.Bytes(), (std::vector<uint8_t>{1, 2, 3}));
}

TEST(BytesTest, TruncationDetected) {
  ByteWriter w;
  w.U32(7);
  std::vector<uint8_t> buf = w.Take();
  buf.pop_back();
  ByteReader r(buf);
  Result<uint32_t> v = r.U32();
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), ErrorCode::kCorruptData);
}

// An empty inode's extent is an empty vector, whose data() may be null: reading
// its 0 bytes from an empty buffer must copy nothing (memcpy forbids null even
// for 0 bytes, which a UBSan build traps).
TEST(BytesTest, ZeroLengthRawReadIntoNull) {
  ByteReader r(nullptr, 0);
  EXPECT_TRUE(r.ReadRaw(nullptr, 0).ok());
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_FALSE(r.ReadRaw(nullptr, 1).ok());
}

// Property: any truncation of a valid stream yields kCorruptData, never UB/garbage.
class BytesTruncationTest : public ::testing::TestWithParam<int> {};

TEST_P(BytesTruncationTest, EveryPrefixFailsCleanly) {
  ByteWriter w;
  w.Str("symbol_name");
  w.U32(0xCAFE);
  w.Bytes({9, 8, 7, 6});
  std::vector<uint8_t> full = w.Take();
  size_t cut = static_cast<size_t>(GetParam()) % full.size();
  std::vector<uint8_t> prefix(full.begin(), full.begin() + cut);
  ByteReader r(prefix);
  Result<std::string> s = r.Str();
  if (s.ok()) {
    Result<uint32_t> v = r.U32();
    if (v.ok()) {
      Result<std::vector<uint8_t>> b = r.Bytes();
      EXPECT_FALSE(b.ok());
    }
  }
}
INSTANTIATE_TEST_SUITE_P(Cuts, BytesTruncationTest, ::testing::Range(0, 30));

// The relaxed copies align on the shared side whatever the private side's
// alignment (a page view into a received frame sits at any offset), and copy
// exactly what memcpy would.
TEST(AtomicMemTest, RelaxedCopiesMatchMemcpyAtEveryAlignment) {
  std::vector<uint8_t> src(64);
  for (size_t i = 0; i < src.size(); ++i) {
    src[i] = static_cast<uint8_t>(i * 37 + 5);
  }
  for (size_t src_off = 0; src_off < 4; ++src_off) {
    for (size_t dst_off = 0; dst_off < 4; ++dst_off) {
      for (size_t n : {0, 1, 3, 4, 7, 31, 40}) {
        std::vector<uint8_t> to(64, 0xEE);
        std::vector<uint8_t> want = to;
        RelaxedCopyTo(to.data() + dst_off, src.data() + src_off, n);
        std::memcpy(want.data() + dst_off, src.data() + src_off, n);
        EXPECT_EQ(to, want) << src_off << " " << dst_off << " " << n;
        std::vector<uint8_t> from(64, 0xEE);
        RelaxedCopyFrom(from.data() + dst_off, src.data() + src_off, n);
        EXPECT_EQ(from, want) << src_off << " " << dst_off << " " << n;
      }
    }
  }
}

TEST(BytesTest, PatchU32) {
  ByteWriter w;
  w.U32(0);
  w.U32(0x11111111);
  w.PatchU32(0, 0x22222222);
  ByteReader r(w.buffer());
  EXPECT_EQ(*r.U32(), 0x22222222u);
  EXPECT_EQ(*r.U32(), 0x11111111u);
}

TEST(StringsTest, SplitJoin) {
  EXPECT_EQ(SplitString("a:b:c", ':'), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(SplitString("::a::", ':'), (std::vector<std::string>{"a"}));
  EXPECT_EQ(SplitString("", ':'), (std::vector<std::string>{}));
  EXPECT_EQ(SplitStringKeepEmpty("a::b", ':'), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(JoinStrings({"a", "b"}, "/"), "a/b");
}

TEST(StringsTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("/shm/lib", "/shm"));
  EXPECT_FALSE(StartsWith("/sh", "/shm"));
  EXPECT_TRUE(EndsWith("counter.o", ".o"));
  EXPECT_FALSE(EndsWith(".o", "x.o"));
}

struct PathCase {
  const char* input;
  const char* expected;
};

class NormalizePathTest : public ::testing::TestWithParam<PathCase> {};

TEST_P(NormalizePathTest, Normalizes) {
  EXPECT_EQ(NormalizePath(GetParam().input), GetParam().expected);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, NormalizePathTest,
    ::testing::Values(PathCase{"/a/b/c", "/a/b/c"}, PathCase{"/a//b", "/a/b"},
                      PathCase{"/a/./b", "/a/b"}, PathCase{"/a/../b", "/b"},
                      PathCase{"/../a", "/a"}, PathCase{"a/../b", "b"},
                      PathCase{"../a", "../a"}, PathCase{".", "."}, PathCase{"/", "/"},
                      PathCase{"a/b/../../c", "c"}, PathCase{"/shm/lib/../tmp", "/shm/tmp"},
                      PathCase{"//a", "/a"}, PathCase{"/a/", "/a"}, PathCase{"/.x", "/.x"},
                      PathCase{"/a/b.", "/a/b."}, PathCase{"/a/..", "/"},
                      PathCase{"/a/.", "/a"}));

// Only paths NormalizePath would return unchanged may skip its general path.
TEST(NormalizePathTest, FastPathOnlyForCanonicalInput) {
  for (const char* path : {"//a", "/a/", "/a/./b", "/a/../b", "/.x", "/", "a/b", "", "/a//b"}) {
    EXPECT_FALSE(IsCanonicalAbsolutePath(path)) << path;
  }
  for (const char* path : {"/a", "/a/b.", "/shm/lib/lib12.o", "/a.b/c"}) {
    EXPECT_TRUE(IsCanonicalAbsolutePath(path)) << path;
    EXPECT_EQ(NormalizePath(path), path);
  }
}

TEST(NormalizePathTest, Idempotent) {
  for (const char* path : {"/a/../b/./c//d", "x/./y/..", "/", "..", "a//b/c/../.."}) {
    std::string once = NormalizePath(path);
    EXPECT_EQ(NormalizePath(once), once) << path;
  }
}

TEST(PathTest, JoinPath) {
  EXPECT_EQ(JoinPath("/a", "b"), "/a/b");
  EXPECT_EQ(JoinPath("/a/", "b"), "/a/b");
  EXPECT_EQ(JoinPath("/a", "/b"), "/b");  // absolute rhs replaces
  EXPECT_EQ(JoinPath("", "b"), "b");
  EXPECT_EQ(JoinPath("/a", ""), "/a");
}

TEST(PathTest, BasenameDirname) {
  EXPECT_EQ(PathBasename("/a/b.o"), "b.o");
  EXPECT_EQ(PathBasename("b.o"), "b.o");
  EXPECT_EQ(PathDirname("/a/b.o"), "/a");
  EXPECT_EQ(PathDirname("/a"), "/");
  EXPECT_EQ(PathDirname("b.o"), ".");
}

TEST(PathTest, StripExtension) {
  EXPECT_EQ(StripExtension("counter.o"), "counter");
  EXPECT_EQ(StripExtension("/shm/lib/counter.o"), "/shm/lib/counter");
  EXPECT_EQ(StripExtension("noext"), "noext");
  EXPECT_EQ(StripExtension("/dir.with.dot/noext"), "/dir.with.dot/noext");
  EXPECT_EQ(StripExtension(".hidden"), ".hidden");
}

TEST(StrFormatTest, Formats) {
  EXPECT_EQ(StrFormat("%d-%s", 5, "x"), "5-x");
  EXPECT_EQ(StrFormat("0x%08x", 0xABCu), "0x00000abc");
  EXPECT_EQ(StrFormat("%s", ""), "");
}

TEST(LayoutTest, RegionPredicates) {
  EXPECT_TRUE(InSfsRegion(kSfsBase));
  EXPECT_TRUE(InSfsRegion(kSfsLimit - 1));
  EXPECT_FALSE(InSfsRegion(kSfsLimit));
  EXPECT_FALSE(InSfsRegion(kSfsBase - 1));
  EXPECT_TRUE(InTextRegion(0));
  EXPECT_FALSE(InTextRegion(kTextLimit));
  EXPECT_TRUE(InPrivateRegion(kDataBase));
  EXPECT_FALSE(InPrivateRegion(kSfsBase));
  EXPECT_TRUE(InPrivateRegion(kStackBase));
}

TEST(LayoutTest, PageArithmetic) {
  EXPECT_EQ(PageFloor(0x1234), 0x1000u);
  EXPECT_EQ(PageCeil(0x1234), 0x2000u);
  EXPECT_EQ(PageCeil(0x1000), 0x1000u);
  EXPECT_EQ(PageFloor(0), 0u);
}

TEST(LayoutTest, SfsSlotsExactlyFillRegion) {
  // 1024 inodes x 1 MB == the 1 GB region (the paper's sizing).
  EXPECT_EQ(static_cast<uint64_t>(kSfsMaxInodes) * kSfsMaxFileBytes,
            static_cast<uint64_t>(kSfsBytes));
}

}  // namespace
}  // namespace hemlock
