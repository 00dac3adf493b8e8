// Unit tests for the HOF object format and the ObjectBuilder, plus the HXE/HML
// link-time formats from src/link/image.h.
#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/layout.h"
#include "src/isa/isa.h"
#include "src/link/image.h"
#include "src/obj/object_file.h"

namespace hemlock {
namespace {

ObjectFile MakeSample() {
  ObjectBuilder b("sample.o");
  b.EmitText(EncodeNop());
  uint32_t site = b.EmitText(EncodeJ(Op::kJal, 0));
  b.AddReloc(RelocType::kJump26, SectionKind::kText, site, "external_fn");
  b.EmitText(EncodeJr(kRegRa));
  b.AlignData(4);
  uint32_t data_off = b.EmitDataWord(0xABCD);
  EXPECT_TRUE(b.DefineSymbol("my_data", SectionKind::kData, data_off, false).ok());
  EXPECT_TRUE(b.DefineSymbol("my_fn", SectionKind::kText, 0, true).ok());
  uint32_t bss = b.ReserveBss(64, 4);
  EXPECT_TRUE(b.DefineSymbol("my_bss", SectionKind::kBss, bss, false).ok());
  ObjectFile obj = b.Take();
  obj.module_list() = {"dep.o"};
  obj.search_path() = {"/shm/lib"};
  return obj;
}

TEST(ObjectFileTest, BuilderProducesExpectedLayout) {
  ObjectFile obj = MakeSample();
  EXPECT_EQ(obj.text().size(), 12u);
  EXPECT_EQ(obj.data().size(), 4u);
  EXPECT_EQ(obj.bss_size(), 64u);
  EXPECT_EQ(obj.ExportedSymbols().size(), 3u);
  EXPECT_EQ(obj.UndefinedSymbols(), std::vector<std::string>{"external_fn"});
}

TEST(ObjectFileTest, SerializeRoundTrip) {
  ObjectFile obj = MakeSample();
  std::vector<uint8_t> bytes = obj.Serialize();
  Result<ObjectFile> again = ObjectFile::Deserialize(bytes);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again->name(), "sample.o");
  EXPECT_EQ(again->text(), obj.text());
  EXPECT_EQ(again->data(), obj.data());
  EXPECT_EQ(again->bss_size(), obj.bss_size());
  EXPECT_EQ(again->symbols(), obj.symbols());
  EXPECT_EQ(again->relocations(), obj.relocations());
  EXPECT_EQ(again->module_list(), obj.module_list());
  EXPECT_EQ(again->search_path(), obj.search_path());
}

TEST(ObjectFileTest, BadMagicRejected) {
  std::vector<uint8_t> junk = {1, 2, 3, 4, 5, 6, 7, 8};
  Result<ObjectFile> r = ObjectFile::Deserialize(junk);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kCorruptData);
}

// Property: any truncation of a serialized object is rejected cleanly. Every
// prefix is cut off at its own size, so a name read as a view into the input can
// only see bytes the prefix owns (an ASan build catches any read past it).
class ObjTruncationTest : public ::testing::TestWithParam<int> {};

TEST_P(ObjTruncationTest, PrefixRejected) {
  std::vector<uint8_t> full = MakeSample().Serialize();
  ASSERT_EQ(full.size(), 187u);  // the Range below covers every cut
  size_t cut = static_cast<size_t>(GetParam());
  std::vector<uint8_t> prefix(full.begin(), full.begin() + cut);
  prefix.shrink_to_fit();
  Result<ObjectFile> r = ObjectFile::Deserialize(prefix);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kCorruptData);
}
INSTANTIATE_TEST_SUITE_P(Cuts, ObjTruncationTest, ::testing::Range(0, 187));

TEST(ObjectFileTest, DuplicateSymbolTableEntryRejected) {
  ObjectFile obj = MakeSample();
  obj.symbols().push_back(obj.symbols().front());  // AddSymbol would merge it
  Result<ObjectFile> r = ObjectFile::Deserialize(obj.Serialize());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kCorruptData);
  EXPECT_NE(r.status().message().find("duplicate symbol table entry '" +
                                      obj.symbols().front().name + "'"),
            std::string::npos)
      << r.status().ToString();
}

TEST(ObjectFileTest, DuplicateDefinitionRejected) {
  ObjectFile obj("m.o");
  Symbol sym;
  sym.name = "twice";
  sym.defined = true;
  ASSERT_TRUE(obj.AddSymbol(sym).ok());
  EXPECT_EQ(obj.AddSymbol(sym).code(), ErrorCode::kAlreadyExists);
}

TEST(ObjectFileTest, ReferenceThenDefinitionMerges) {
  ObjectFile obj("m.o");
  obj.ReferenceSymbol("late");
  EXPECT_EQ(obj.UndefinedSymbols().size(), 1u);
  Symbol sym;
  sym.name = "late";
  sym.defined = true;
  sym.section = SectionKind::kData;
  sym.value = 8;
  ASSERT_TRUE(obj.AddSymbol(sym).ok());
  EXPECT_TRUE(obj.UndefinedSymbols().empty());
  EXPECT_EQ(obj.FindSymbol("late")->value, 8u);
  // Referencing after definition is a no-op.
  obj.ReferenceSymbol("late");
  EXPECT_TRUE(obj.FindSymbol("late")->defined);
}

TEST(ObjectFileTest, LocalSymbolsNotExported) {
  ObjectBuilder b("m.o");
  b.EmitDataWord(1);
  ASSERT_TRUE(b.DefineSymbol(".Lstr0", SectionKind::kData, 0, false, SymBinding::kLocal).ok());
  ObjectFile obj = b.Take();
  EXPECT_TRUE(obj.ExportedSymbols().empty());
  EXPECT_TRUE(obj.UndefinedSymbols().empty());
}

TEST(ObjectFileTest, RelocationSiteBoundsValidated) {
  ObjectFile obj = MakeSample();
  obj.relocations().push_back(
      Relocation{RelocType::kWord32, SectionKind::kData, 100, "oops", 0});
  std::vector<uint8_t> bytes = obj.Serialize();
  Result<ObjectFile> again = ObjectFile::Deserialize(bytes);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), ErrorCode::kCorruptData);
}

// --- ApplyReloc semantics ---

TEST(ApplyRelocTest, Word32) {
  std::vector<uint8_t> buf(8, 0);
  ASSERT_TRUE(
      ApplyReloc(buf.data(), buf.size(), 0x1000, RelocType::kWord32, 0x1004, 0xDEADBEEF).ok());
  uint32_t word = 0;
  std::memcpy(&word, buf.data() + 4, 4);
  EXPECT_EQ(word, 0xDEADBEEFu);
}

TEST(ApplyRelocTest, HiLoPairMaterializesAddress) {
  std::vector<uint8_t> buf(8, 0);
  uint32_t lui = EncodeLui(kRegT0, 0);
  uint32_t ori = EncodeOri(kRegT0, kRegT0, 0);
  std::memcpy(buf.data(), &lui, 4);
  std::memcpy(buf.data() + 4, &ori, 4);
  uint32_t target = 0x30345678;
  ASSERT_TRUE(ApplyReloc(buf.data(), buf.size(), 0x1000, RelocType::kHi16, 0x1000, target).ok());
  ASSERT_TRUE(ApplyReloc(buf.data(), buf.size(), 0x1000, RelocType::kLo16, 0x1004, target).ok());
  uint32_t w0 = 0;
  uint32_t w1 = 0;
  std::memcpy(&w0, buf.data(), 4);
  std::memcpy(&w1, buf.data() + 4, 4);
  EXPECT_EQ(Disassemble(w0, 0), "lui $t0, 0x3034");
  EXPECT_EQ(Disassemble(w1, 4), "ori $t0, $t0, 0x5678");
}

TEST(ApplyRelocTest, Jump26InRange) {
  std::vector<uint8_t> buf(4, 0);
  uint32_t j = EncodeJ(Op::kJal, 0);
  std::memcpy(buf.data(), &j, 4);
  ASSERT_TRUE(ApplyReloc(buf.data(), buf.size(), 0x1000, RelocType::kJump26, 0x1000, 0x2000).ok());
  uint32_t word = 0;
  std::memcpy(&word, buf.data(), 4);
  EXPECT_EQ(Disassemble(word, 0x1000), "jal 0x00002000");
}

TEST(ApplyRelocTest, Jump26OutOfRangeRejected) {
  std::vector<uint8_t> buf(4, 0);
  Status st = ApplyReloc(buf.data(), buf.size(), 0x1000, RelocType::kJump26, 0x1000, 0x30000000);
  EXPECT_EQ(st.code(), ErrorCode::kOutOfRange);
}

TEST(ApplyRelocTest, PcRel16) {
  std::vector<uint8_t> buf(8, 0);
  uint32_t beq = EncodeI(Op::kBeq, kRegZero, kRegZero, 0);
  std::memcpy(buf.data(), &beq, 4);
  ASSERT_TRUE(ApplyReloc(buf.data(), buf.size(), 0x1000, RelocType::kPcRel16, 0x1000, 0x1010).ok());
  uint32_t word = 0;
  std::memcpy(&word, buf.data(), 4);
  std::optional<Instr> in = Decode(word);
  ASSERT_TRUE(in.has_value());
  EXPECT_EQ(in->imm, 3);  // (0x1010 - 0x1004) / 4
}

TEST(ApplyRelocTest, SiteOutsideBufferRejected) {
  std::vector<uint8_t> buf(4, 0);
  EXPECT_FALSE(ApplyReloc(buf.data(), buf.size(), 0x1000, RelocType::kWord32, 0x0FFC, 1).ok());
  EXPECT_FALSE(ApplyReloc(buf.data(), buf.size(), 0x1000, RelocType::kWord32, 0x1004, 1).ok());
}

// --- HXE / HML formats ---

TEST(ImageFormatTest, LoadImageRoundTrip) {
  LoadImage img;
  img.entry = 0x1000;
  ImageSegment seg;
  seg.vaddr = 0x1000;
  seg.mem_size = 0x2000;
  seg.executable = true;
  seg.bytes = {1, 2, 3, 4};
  img.segments.push_back(seg);
  img.symbols.push_back(AbsSymbol{"main", 0x1000, true});
  img.pending.push_back(PendingReloc{RelocType::kHi16, 0x1010, "counter", 4});
  img.dynamic_modules.push_back(DynModuleRecord{"counter.o", ShareClass::kDynamicPublic});
  img.static_publics.push_back(StaticPublicRef{"/shm/lib/tables", 0x30100000});
  img.search_path = {"/home/user", "/usr/lib"};

  Result<LoadImage> again = LoadImage::Deserialize(img.Serialize());
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again->entry, img.entry);
  ASSERT_EQ(again->segments.size(), 1u);
  EXPECT_EQ(again->segments[0].bytes, seg.bytes);
  EXPECT_EQ(again->segments[0].mem_size, seg.mem_size);
  EXPECT_EQ(again->symbols, img.symbols);
  EXPECT_EQ(again->pending, img.pending);
  ASSERT_EQ(again->dynamic_modules.size(), 1u);
  EXPECT_EQ(again->dynamic_modules[0].name, "counter.o");
  EXPECT_EQ(again->static_publics[0].addr, 0x30100000u);
  EXPECT_EQ(again->search_path, img.search_path);
}

TEST(ImageFormatTest, LinkedModuleFileRoundTrip) {
  LinkedModule mod;
  mod.name = "counter";
  mod.base = 0x30100000;
  mod.text_size = 32;
  mod.data_size = 16;
  mod.bss_size = 64;
  mod.payload.resize(48, 0x5A);
  mod.exports.push_back(AbsSymbol{"bump", 0x30100000, true});
  mod.pending.push_back(PendingReloc{RelocType::kLo16, 0x30100004, "helper", 0});
  mod.module_list = {"helper.o"};
  mod.search_path = {"/shm/lib"};

  std::vector<uint8_t> file = mod.SerializeFile();
  EXPECT_TRUE(LinkedModule::LooksLikeModuleFile(file));
  Result<LinkedModule> again = LinkedModule::DeserializeFile(file);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again->name, mod.name);
  EXPECT_EQ(again->base, mod.base);
  EXPECT_EQ(again->MemSize(), mod.MemSize());
  EXPECT_EQ(again->exports, mod.exports);
  EXPECT_EQ(again->pending, mod.pending);
  EXPECT_EQ(again->module_list, mod.module_list);
  // Payload grows to text+data (padding included) but the prefix is preserved.
  ASSERT_GE(again->payload.size(), mod.payload.size());
  EXPECT_TRUE(std::equal(mod.payload.begin(), mod.payload.end(), again->payload.begin()));
}

TEST(ImageFormatTest, PlainBytesAreNotAModuleFile) {
  std::vector<uint8_t> plain(100, 0x42);
  EXPECT_FALSE(LinkedModule::LooksLikeModuleFile(plain));
  EXPECT_FALSE(LinkedModule::DeserializeFile(plain).ok());
  std::vector<uint8_t> tiny = {1, 2};
  EXPECT_FALSE(LinkedModule::LooksLikeModuleFile(tiny));
}

// The trailer view (ParseTrailer, what ldl attaches with) and the copying parser
// (DeserializeFile, what lds and the tools read with) are one parser: on every
// prefix cut of a sample module file and every single-byte flip in its trailer
// and footer, they accept and reject the same inputs and agree on the metadata.
// Only DeserializeFile copies the image.
TEST(ImageFormatTest, TrailerViewAcceptsExactlyWhatTheCopyingParserAccepts) {
  LinkedModule mod;
  mod.name = "viewed";
  mod.base = 0x30200000;
  mod.text_size = 40;
  mod.data_size = 12;
  mod.bss_size = 4096;
  mod.payload.resize(52, 0x5A);
  mod.exports = {AbsSymbol{"entry", 0x30200000, true}, AbsSymbol{"table", 0x30200028, false}};
  mod.pending = {PendingReloc{RelocType::kWord32, 0x30200028, "helper", 4},
                 PendingReloc{RelocType::kJump26, 0x30200004, "far", 0}};
  mod.module_list = {"helper.o", "far.o"};
  mod.search_path = {"/shm/lib", "/shm/alt"};
  mod.template_hash = 0x1122334455667788ull;
  const std::vector<uint8_t> file = mod.SerializeFile();
  const size_t trailer_off = PageCeil(mod.MemSize());
  ASSERT_GT(file.size(), trailer_off);

  int accepted = 0;
  auto check_same = [&](const std::vector<uint8_t>& bytes, const std::string& what) {
    Result<LinkedModule> view = LinkedModule::ParseTrailer(bytes);
    Result<LinkedModule> copy = LinkedModule::DeserializeFile(bytes);
    ASSERT_EQ(view.ok(), copy.ok()) << what;
    if (!view.ok()) {
      EXPECT_EQ(view.status().code(), copy.status().code()) << what;
      EXPECT_EQ(view.status().message(), copy.status().message()) << what;
      return;
    }
    ++accepted;
    EXPECT_EQ(view->name, copy->name) << what;
    EXPECT_EQ(view->base, copy->base) << what;
    EXPECT_EQ(view->text_size, copy->text_size) << what;
    EXPECT_EQ(view->data_size, copy->data_size) << what;
    EXPECT_EQ(view->bss_size, copy->bss_size) << what;
    EXPECT_EQ(view->exports, copy->exports) << what;
    EXPECT_EQ(view->pending, copy->pending) << what;
    EXPECT_EQ(view->module_list, copy->module_list) << what;
    EXPECT_EQ(view->search_path, copy->search_path) << what;
    EXPECT_EQ(view->template_hash, copy->template_hash) << what;
    EXPECT_TRUE(view->payload.empty()) << what;
    ASSERT_EQ(copy->payload.size(), size_t{copy->text_size} + copy->data_size) << what;
    EXPECT_TRUE(std::equal(copy->payload.begin(), copy->payload.end(), bytes.begin())) << what;
  };

  check_same(file, "intact");
  ASSERT_EQ(accepted, 1);
  // Each prefix is its own buffer, shrunk to size, so a read past it is caught.
  for (size_t cut = 0; cut < file.size(); ++cut) {
    check_same(std::vector<uint8_t>(file.begin(), file.begin() + cut),
               "cut at " + std::to_string(cut));
  }
  EXPECT_EQ(accepted, 1) << "a strict prefix of a module file parsed";
  for (size_t pos = trailer_off; pos < file.size(); ++pos) {
    for (uint8_t delta : {0x01, 0x80, 0xFF}) {
      std::vector<uint8_t> flipped = file;
      flipped[pos] = static_cast<uint8_t>(flipped[pos] ^ delta);
      check_same(flipped, "flip at " + std::to_string(pos) + " by " + std::to_string(delta));
    }
  }
  // Some flips land in names and addends and still parse; both parsers saw them.
  EXPECT_GT(accepted, 1);
}

}  // namespace
}  // namespace hemlock
