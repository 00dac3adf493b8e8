// Unit tests for the static linker: search strategy order, the paper's warn/abort
// rules, trampoline insertion, retained relocations, and public-module creation.
#include <gtest/gtest.h>

#include "src/base/layout.h"
#include "src/base/strings.h"
#include "src/isa/isa.h"
#include "src/link/lds.h"
#include "src/link/search.h"
#include "src/runtime/world.h"

namespace hemlock {
namespace {

// --- Search strategy (paper §3 order) ---

TEST(SearchTest, StaticOrderIsCwdCmdlineEnvDefaults) {
  std::vector<std::string> dirs =
      StaticSearchDirs("/home/user", {"/proj/lib"}, "/env/one:/env/two");
  ASSERT_GE(dirs.size(), 5u);
  EXPECT_EQ(dirs[0], "/home/user");
  EXPECT_EQ(dirs[1], "/proj/lib");
  EXPECT_EQ(dirs[2], "/env/one");
  EXPECT_EQ(dirs[3], "/env/two");
  // Defaults come last.
  EXPECT_EQ(dirs[4], DefaultLibraryDirs()[0]);
}

TEST(SearchTest, DynamicOrderPutsCurrentEnvFirst) {
  std::vector<std::string> static_dirs = {"/linktime/cwd", "/usr/lib"};
  std::vector<std::string> dirs = DynamicSearchDirs("/override", static_dirs);
  ASSERT_EQ(dirs.size(), 3u);
  EXPECT_EQ(dirs[0], "/override");  // current LD_LIBRARY_PATH wins
  EXPECT_EQ(dirs[1], "/linktime/cwd");
}

TEST(SearchTest, FirstMatchWins) {
  Vfs vfs;
  ASSERT_TRUE(vfs.MkdirAll("/one").ok());
  ASSERT_TRUE(vfs.MkdirAll("/two").ok());
  ASSERT_TRUE(vfs.WriteFile("/one/m.o", std::string("first")).ok());
  ASSERT_TRUE(vfs.WriteFile("/two/m.o", std::string("second")).ok());
  Result<std::string> found = FindModuleFile(vfs, "m.o", {"/one", "/two"});
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(*found, "/one/m.o");
  found = FindModuleFile(vfs, "m.o", {"/two", "/one"});
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(*found, "/two/m.o");
}

TEST(SearchTest, AbsoluteNamesBypassSearch) {
  Vfs vfs;
  ASSERT_TRUE(vfs.MkdirAll("/one").ok());
  ASSERT_TRUE(vfs.WriteFile("/one/m.o", std::string("x")).ok());
  Result<std::string> found = FindModuleFile(vfs, "/one/m.o", {"/elsewhere"});
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(*found, "/one/m.o");
  EXPECT_FALSE(FindModuleFile(vfs, "/one/missing.o", {"/one"}).ok());
}

// --- lds rules ---

class LdsTest : public ::testing::Test {
 protected:
  void Compile(const std::string& src, const std::string& path) {
    CompileOptions opts;
    opts.include_prelude = false;
    Status st = world_.CompileTo(src, path, opts);
    ASSERT_TRUE(st.ok()) << st.ToString();
  }
  HemlockWorld world_;
};

TEST_F(LdsTest, MissingStaticModuleAborts) {
  Compile("int main(void) { return 0; }", "/home/user/m.o");
  LdsOptions options;
  options.inputs = {{"m.o", ShareClass::kStaticPrivate},
                    {"nowhere.o", ShareClass::kStaticPrivate}};
  Result<LoadImage> image = world_.Link(options);
  ASSERT_FALSE(image.ok());
  EXPECT_EQ(image.status().code(), ErrorCode::kNotFound);
}

TEST_F(LdsTest, MissingDynamicModuleWarnsAndContinues) {
  Compile("int main(void) { return 0; }", "/home/user/m.o");
  LdsOptions options;
  options.inputs = {{"m.o", ShareClass::kStaticPrivate},
                    {"later.o", ShareClass::kDynamicPublic}};
  LdsReport report;
  Result<LoadImage> image = world_.Link(options, &report);
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  ASSERT_EQ(report.warnings.size(), 1u);
  EXPECT_NE(report.warnings[0].find("later.o"), std::string::npos);
  ASSERT_EQ(image->dynamic_modules.size(), 1u);
  EXPECT_EQ(image->dynamic_modules[0].name, "later.o");
}

TEST_F(LdsTest, RetainedRelocationsForUnknownSymbols) {
  Compile(R"(
    extern int mystery_data;
    extern int mystery_fn(void);
    int main(void) { return mystery_fn() + mystery_data; }
  )",
          "/home/user/m.o");
  LdsReport report;
  Result<LoadImage> image =
      world_.Link({.inputs = {{"m.o", ShareClass::kStaticPrivate}}}, &report);
  ASSERT_TRUE(image.ok());
  // HI16/LO16 for the data symbol + HI16/LO16 for the call's trampoline slot.
  EXPECT_GE(image->pending.size(), 4u);
  EXPECT_GE(report.trampolines, 1u);
  bool saw_data = false;
  bool saw_fn = false;
  for (const PendingReloc& p : image->pending) {
    saw_data = saw_data || p.symbol == "mystery_data";
    saw_fn = saw_fn || p.symbol == "mystery_fn";
  }
  EXPECT_TRUE(saw_data);
  EXPECT_TRUE(saw_fn);
}

TEST_F(LdsTest, NoTrampolinesForPrivateCalls) {
  Compile(R"(
    int helper(void) { return 1; }
    int main(void) { return helper(); }
  )",
          "/home/user/m.o");
  LdsReport report;
  Result<LoadImage> image =
      world_.Link({.inputs = {{"m.o", ShareClass::kStaticPrivate}}}, &report);
  ASSERT_TRUE(image.ok());
  EXPECT_EQ(report.trampolines, 0u);
  EXPECT_EQ(report.pending_relocs, 0u);
}

TEST_F(LdsTest, TrampolineSharedPerSymbol) {
  // Many calls to one far symbol still cost exactly one trampoline.
  ASSERT_TRUE(world_.vfs().MkdirAll("/shm/lib").ok());
  Compile("int far(void) { return 7; }", "/shm/lib/far.o");
  Compile(R"(
    extern int far(void);
    int main(void) { return far() + far() + far() + far(); }
  )",
          "/home/user/m.o");
  LdsReport report;
  Result<LoadImage> image =
      world_.Link({.inputs = {{"m.o", ShareClass::kStaticPrivate},
                              {"far.o", ShareClass::kStaticPublic}}},
                  &report);
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  EXPECT_EQ(report.trampolines, 1u);
  // And the program still works.
  Result<ExecResult> run = world_.Exec(*image);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(*world_.RunToExit(run->pid), 28);
}

TEST_F(LdsTest, StaticPublicCreatedOnceThenReused) {
  ASSERT_TRUE(world_.vfs().MkdirAll("/shm/lib").ok());
  Compile("int shared_v = 5;", "/shm/lib/sv.o");
  Compile("extern int shared_v; int main(void) { return shared_v; }", "/home/user/m.o");
  LdsOptions options;
  options.inputs = {{"m.o", ShareClass::kStaticPrivate}, {"sv.o", ShareClass::kStaticPublic}};
  LdsReport first;
  ASSERT_TRUE(world_.Link(options, &first).ok());
  EXPECT_EQ(first.publics_created, 1u);
  EXPECT_EQ(first.publics_reused, 0u);
  LdsReport second;
  ASSERT_TRUE(world_.Link(options, &second).ok());
  EXPECT_EQ(second.publics_created, 0u);
  EXPECT_EQ(second.publics_reused, 1u);
  EXPECT_TRUE(world_.vfs().Exists("/shm/lib/sv"));
}

TEST_F(LdsTest, PublicTemplateOffPartitionRejected) {
  Compile("int v = 1;", "/home/user/local.o");
  Result<LoadImage> image = world_.Link(
      {.inputs = {{"local.o", ShareClass::kStaticPublic}}});
  ASSERT_FALSE(image.ok());
  EXPECT_EQ(image.status().code(), ErrorCode::kInvalidArgument);
}

TEST_F(LdsTest, PublicToPublicReferencesResolvedAtCreation) {
  ASSERT_TRUE(world_.vfs().MkdirAll("/shm/lib").ok());
  Compile("int base_v = 10;", "/shm/lib/basemod.o");
  Compile(R"(
    extern int base_v;
    int derived(void) { return base_v * 2; }
  )",
          "/shm/lib/derived.o");
  Compile("extern int derived(void); int main(void) { return derived(); }",
          "/home/user/m.o");
  Result<LoadImage> image =
      world_.Link({.inputs = {{"m.o", ShareClass::kStaticPrivate},
                              {"basemod.o", ShareClass::kStaticPublic},
                              {"derived.o", ShareClass::kStaticPublic}}});
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  // The derived module's reference to base_v is resolved *in the module file*.
  Result<std::vector<uint8_t>> bytes = world_.vfs().ReadFile("/shm/lib/derived");
  ASSERT_TRUE(bytes.ok());
  Result<LinkedModule> mod = LinkedModule::DeserializeFile(*bytes);
  ASSERT_TRUE(mod.ok());
  EXPECT_TRUE(mod->pending.empty());
  Result<ExecResult> run = world_.Exec(*image);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(*world_.RunToExit(run->pid), 20);
}

TEST_F(LdsTest, ImageWrittenToOutputPath) {
  Compile("int main(void) { return 9; }", "/home/user/m.o");
  LdsOptions options;
  options.inputs = {{"m.o", ShareClass::kStaticPrivate}};
  options.output_path = "/home/user/a.out";
  ASSERT_TRUE(world_.Link(options).ok());
  ASSERT_TRUE(world_.vfs().Exists("/home/user/a.out"));
  // Execute straight from the file, like a shell would.
  Result<ExecResult> run = ExecuteFile(world_.machine(), "/home/user/a.out");
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(*world_.RunToExit(run->pid), 9);
}

TEST_F(LdsTest, ModuleOverOneMegabyteRejected) {
  // A bss section larger than the paper's 1 MB cap cannot become a public module.
  ASSERT_TRUE(world_.vfs().MkdirAll("/shm/lib").ok());
  Compile("int huge[300000];", "/shm/lib/huge.o");  // 1.2 MB of bss
  Compile("extern int huge[300000]; int main(void) { return huge[0]; }",
          "/home/user/m.o");
  Result<LoadImage> image =
      world_.Link({.inputs = {{"m.o", ShareClass::kStaticPrivate},
                              {"huge.o", ShareClass::kStaticPublic}}});
  ASSERT_FALSE(image.ok());
  EXPECT_EQ(image.status().code(), ErrorCode::kResourceExhausted);
}

TEST_F(LdsTest, ScopedStaticLinkingResolvesPerModule) {
  // The paper's future-work item (§6 "Scoped Static Linking"), implemented: two
  // statically linked subsystems use the same helper-symbol name; each module's
  // embedded module list picks its own definition at *static* link time.
  ASSERT_TRUE(world_.vfs().MkdirAll("/libx").ok());
  ASSERT_TRUE(world_.vfs().MkdirAll("/liby").ok());
  Compile("int helper(void) { return 100; }", "/libx/helperx.o");
  Compile("int helper(void) { return 200; }", "/liby/helpery.o");
  {
    CompileOptions opts;
    opts.include_prelude = false;
    opts.module_list = {"helperx.o"};
    ASSERT_TRUE(world_
                    .CompileTo("extern int helper(void); int xe(void) { return helper() + 1; }",
                               "/home/user/subx.o", opts)
                    .ok());
    opts.module_list = {"helpery.o"};
    ASSERT_TRUE(world_
                    .CompileTo("extern int helper(void); int ye(void) { return helper() + 2; }",
                               "/home/user/suby.o", opts)
                    .ok());
  }
  Compile(R"(
    extern int xe(void);
    extern int ye(void);
    int main(void) { return xe() * 0 + xe() + ye() - 200; }  // 101 + 202 - 200 = 103
  )",
          "/home/user/m.o");
  LdsOptions options;
  options.inputs = {{"m.o", ShareClass::kStaticPrivate},
                    {"subx.o", ShareClass::kStaticPrivate},
                    {"suby.o", ShareClass::kStaticPrivate},
                    {"helperx.o", ShareClass::kStaticPrivate},
                    {"helpery.o", ShareClass::kStaticPrivate}};
  options.lib_dirs = {"/libx", "/liby"};
  // Flat linking with kError must reject the duplicate 'helper'.
  options.duplicate_policy = DuplicatePolicy::kError;
  EXPECT_FALSE(world_.Link(options).ok());
  // Scoped linking resolves each subsystem against its own list.
  options.duplicate_policy = DuplicatePolicy::kScoped;
  Result<LoadImage> image = world_.Link(options);
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  Result<ExecResult> run = world_.Exec(*image);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(*world_.RunToExit(run->pid), 103);
  // First-wins flat linking picks one helper for everyone: a different answer.
  options.duplicate_policy = DuplicatePolicy::kFirstWins;
  Result<LoadImage> flat = world_.Link(options);
  ASSERT_TRUE(flat.ok());
  Result<ExecResult> flat_run = world_.Exec(*flat);
  ASSERT_TRUE(flat_run.ok());
  EXPECT_EQ(*world_.RunToExit(flat_run->pid), 3);  // both resolve to helper()==100
}

TEST_F(LdsTest, CrtZeroCallsMainAndExits) {
  ObjectFile crt0 = SynthesizeCrt0();
  EXPECT_EQ(crt0.UndefinedSymbols(), std::vector<std::string>{"main"});
  EXPECT_EQ(crt0.ExportedSymbols(), std::vector<std::string>{"_start"});
  EXPECT_EQ(crt0.text().size(), 5 * 4u);
}

// --- LinkModuleAtBase output bytes ---

// A template built by hand: three externals called out of name order (one of
// them twice), a local call, a HI16/LO16 pair to local data, a WORD32 to an
// external datum, and a JUMP26 to a name the symbol table does not list (only a
// hand-made HOF can carry one; codegen always lists the symbol). The linked
// module's bytes and pending list are pinned, so a change to the linker's
// internals that moves a trampoline slot or reorders the pending list fails here.
TEST(LinkModuleAtBaseTest, OutputBytesPinned) {
  ObjectBuilder b("pinned.o");
  uint32_t helper = b.EmitText(EncodeJr(kRegRa));
  b.EmitText(EncodeNop());
  ASSERT_TRUE(b.DefineSymbol("helper", SectionKind::kText, helper, true).ok());
  uint32_t entry = 0;
  for (const char* callee : {"zeta", "alpha", "mid", "alpha", "helper"}) {
    uint32_t site = b.EmitText(EncodeJ(Op::kJal, 0));
    entry = entry == 0 ? site : entry;
    b.AddReloc(RelocType::kJump26, SectionKind::kText, site, callee);
  }
  uint32_t ghost_site = b.EmitText(EncodeJ(Op::kJal, 0));
  uint32_t hi = b.EmitText(EncodeLui(kRegAt, 0));
  b.AddReloc(RelocType::kHi16, SectionKind::kText, hi, "table", 4);
  uint32_t lo = b.EmitText(EncodeOri(kRegAt, kRegAt, 0));
  b.AddReloc(RelocType::kLo16, SectionKind::kText, lo, "table", 4);
  b.EmitText(EncodeJr(kRegRa));
  ASSERT_TRUE(b.DefineSymbol("entry", SectionKind::kText, entry, true).ok());
  b.AlignData(4);
  uint32_t table = b.EmitDataWord(0);
  b.EmitDataWord(0);
  ASSERT_TRUE(b.DefineSymbol("table", SectionKind::kData, table, false).ok());
  b.AddReloc(RelocType::kWord32, SectionKind::kData, table + 4, "ext_data", 8);
  b.ReserveBss(32, 4);
  ObjectFile built = b.Take();
  built.relocations().push_back(
      Relocation{RelocType::kJump26, SectionKind::kText, ghost_site, "ghost", 0});
  built.module_list() = {"dep.o"};
  built.search_path() = {"/shm/lib"};

  std::vector<uint8_t> tpl_bytes = built.Serialize();
  Result<ObjectFile> tpl = ObjectFile::Deserialize(tpl_bytes);
  ASSERT_TRUE(tpl.ok()) << tpl.status().ToString();
  constexpr uint32_t kBase = kSfsBase + 0x00100000;
  uint32_t trampolines = 0;
  Result<LinkedModule> mod = LinkModuleAtBase(*tpl, tpl_bytes, kBase, "pinned", &trampolines);
  ASSERT_TRUE(mod.ok()) << mod.status().ToString();
  EXPECT_EQ(trampolines, 4u);  // zeta, alpha, mid, ghost

  // Trampoline slots follow .text (0x2c) in first-reference order; the pending
  // list names them in symbol order, then the WORD32 left for ldl.
  std::vector<PendingReloc> expected = {
      {RelocType::kHi16, kBase + 0x38, "alpha", 0}, {RelocType::kLo16, kBase + 0x3c, "alpha", 0},
      {RelocType::kHi16, kBase + 0x50, "ghost", 0}, {RelocType::kLo16, kBase + 0x54, "ghost", 0},
      {RelocType::kHi16, kBase + 0x44, "mid", 0},   {RelocType::kLo16, kBase + 0x48, "mid", 0},
      {RelocType::kHi16, kBase + 0x2c, "zeta", 0},  {RelocType::kLo16, kBase + 0x30, "zeta", 0},
      {RelocType::kWord32, kBase + 0x64, "ext_data", 8},
  };
  EXPECT_EQ(mod->pending, expected);
  std::vector<uint8_t> file = mod->SerializeFile();
  EXPECT_EQ(file.size(), 4381u);
  EXPECT_EQ(Fnv1a64(file.data(), file.size()), 0xdcc07e1a840db4a0ull);
}

}  // namespace
}  // namespace hemlock
