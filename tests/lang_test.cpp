// Unit tests for the HemC compiler: lexer, parser, and code generation (verified by
// executing compiled programs on the simulated machine).
#include <gtest/gtest.h>

#include "src/base/strings.h"
#include "src/lang/compiler.h"
#include "src/lang/lexer.h"
#include "src/lang/parser.h"
#include "src/runtime/world.h"

namespace hemlock {
namespace {

// --- Lexer ---

TEST(LexerTest, TokensAndPositions) {
  Result<std::vector<Token>> toks = Lex("int x = 42;\nreturn x;");
  ASSERT_TRUE(toks.ok());
  ASSERT_EQ(toks->size(), 9u);  // int x = 42 ; return x ; EOF
  EXPECT_EQ((*toks)[0].kind, Tok::kKwInt);
  EXPECT_EQ((*toks)[1].kind, Tok::kIdent);
  EXPECT_EQ((*toks)[1].text, "x");
  EXPECT_EQ((*toks)[3].number, 42);
  EXPECT_EQ((*toks)[5].kind, Tok::kKwReturn);
  EXPECT_EQ((*toks)[5].line, 2);
  EXPECT_EQ((*toks).back().kind, Tok::kEof);
}

TEST(LexerTest, CommentsSkipped) {
  Result<std::vector<Token>> toks = Lex("a // line\n /* block\nspanning */ b");
  ASSERT_TRUE(toks.ok());
  ASSERT_EQ(toks->size(), 3u);
  EXPECT_EQ((*toks)[0].text, "a");
  EXPECT_EQ((*toks)[1].text, "b");
}

TEST(LexerTest, NumbersDecimalAndHex) {
  Result<std::vector<Token>> toks = Lex("0 123 0x1F 0xffffffff");
  ASSERT_TRUE(toks.ok());
  EXPECT_EQ((*toks)[0].number, 0);
  EXPECT_EQ((*toks)[1].number, 123);
  EXPECT_EQ((*toks)[2].number, 0x1F);
  EXPECT_EQ(static_cast<uint32_t>((*toks)[3].number), 0xFFFFFFFFu);
}

TEST(LexerTest, StringsAndEscapes) {
  Result<std::vector<Token>> toks = Lex(R"("a\n\t\"b" 'x' '\n' '\0')");
  ASSERT_TRUE(toks.ok());
  EXPECT_EQ((*toks)[0].text, "a\n\t\"b");
  EXPECT_EQ((*toks)[1].number, 'x');
  EXPECT_EQ((*toks)[2].number, '\n');
  EXPECT_EQ((*toks)[3].number, 0);
}

TEST(LexerTest, MultiCharOperators) {
  Result<std::vector<Token>> toks = Lex("<= >= == != && || << >> -> ++ -- += -=");
  ASSERT_TRUE(toks.ok());
  std::vector<Tok> kinds;
  for (const Token& t : *toks) {
    kinds.push_back(t.kind);
  }
  EXPECT_EQ(kinds, (std::vector<Tok>{Tok::kLe, Tok::kGe, Tok::kEqEq, Tok::kNotEq, Tok::kAmpAmp,
                                     Tok::kPipePipe, Tok::kShl, Tok::kShr, Tok::kArrow,
                                     Tok::kPlusPlus, Tok::kMinusMinus, Tok::kPlusAssign,
                                     Tok::kMinusAssign, Tok::kEof}));
}

TEST(LexerTest, Errors) {
  EXPECT_FALSE(Lex("\"unterminated").ok());
  EXPECT_FALSE(Lex("'ab'").ok());
  EXPECT_FALSE(Lex("/* never closed").ok());
  EXPECT_FALSE(Lex("@").ok());
  EXPECT_FALSE(Lex("99999999999").ok());
}

// --- Parser ---

TEST(ParserTest, StructLayout) {
  Result<std::unique_ptr<Program>> prog = ParseSource(R"(
    struct mixed {
      char tag;
      int value;
      char name[3];
      struct mixed *next;
    };
  )");
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  auto sdef = (*prog)->structs.at("mixed");
  ASSERT_EQ(sdef->fields.size(), 4u);
  EXPECT_EQ(sdef->fields[0].offset, 0u);   // char tag
  EXPECT_EQ(sdef->fields[1].offset, 4u);   // int value (aligned)
  EXPECT_EQ(sdef->fields[2].offset, 8u);   // char name[3]
  EXPECT_EQ(sdef->fields[3].offset, 12u);  // pointer (aligned)
  EXPECT_EQ(sdef->size, 16u);
  EXPECT_EQ(sdef->align, 4u);
}

TEST(ParserTest, SelfReferenceAllowedContainmentRejected) {
  EXPECT_TRUE(ParseSource("struct n { struct n *next; };").ok());
  EXPECT_FALSE(ParseSource("struct n { struct n inner; };").ok());
}

TEST(ParserTest, ErrorsAreDiagnosed) {
  EXPECT_FALSE(ParseSource("int f( { }").ok());
  EXPECT_FALSE(ParseSource("int x = ;").ok());
  EXPECT_FALSE(ParseSource("struct unknown_use v;").ok());
  EXPECT_FALSE(ParseSource("int f(void) { break; }").ok() &&
               false);  // parse succeeds; codegen rejects (checked below)
  EXPECT_FALSE(ParseSource("int a[0];").ok());
  EXPECT_FALSE(ParseSource("extern int x = 1;").ok());
  EXPECT_FALSE(ParseSource("int f(void) { return 1 }").ok());
}

TEST(ParserTest, LexErrorAfterAParseErrorIsTheOneReported) {
  // The parser pulls tokens as it goes, yet a lex error later in the source
  // outranks an earlier parse error: the error does not depend on how far the
  // parser read.
  Result<std::unique_ptr<Program>> prog = ParseSource("int x = ;\nint y;\nint z = @;\n");
  ASSERT_FALSE(prog.ok());
  EXPECT_EQ(prog.status().message(), "lex error at 3:10: unexpected character '@'");
  prog = ParseSource("int x = ;\nint y;\nint z = 1;\n");
  ASSERT_FALSE(prog.ok());
  EXPECT_EQ(prog.status().message(), "parse error at 1:9: expected an expression (found ';')");
}

TEST(ParserTest, MultiDeclarators) {
  Result<std::unique_ptr<Program>> prog = ParseSource("int a, b, c;");
  ASSERT_TRUE(prog.ok());
  EXPECT_EQ((*prog)->globals.size(), 3u);
}

// --- Codegen, verified by execution ---

struct ExecCase {
  const char* name;
  const char* source;
  const char* expected_stdout;
};

class HemCExecTest : public ::testing::TestWithParam<ExecCase> {};

TEST_P(HemCExecTest, ProducesExpectedOutput) {
  HemlockWorld world;
  Result<RunOutcome> out = world.RunProgram(GetParam().source);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->stdout_text, GetParam().expected_stdout);
}

INSTANTIATE_TEST_SUITE_P(
    Programs, HemCExecTest,
    ::testing::Values(
        ExecCase{"logical_ops", R"(
          int main(void) {
            putint(1 && 2); putint(1 && 0); putint(0 || 0); putint(3 || 0);
            putint(!5); putint(!0);
            puts("\n");
            return 0;
          })",
                 "100101\n"},
        ExecCase{"short_circuit", R"(
          int hits = 0;
          int probe(int v) { hits = hits + 1; return v; }
          int main(void) {
            int r;
            r = 0 && probe(1);   // rhs not evaluated
            r = 1 || probe(1);   // rhs not evaluated
            putint(hits);
            puts("\n");
            return 0;
          })",
                 "0\n"},
        ExecCase{"bitwise", R"(
          int main(void) {
            putint(12 & 10); puts(" ");
            putint(12 | 3);  puts(" ");
            putint(12 ^ 10); puts(" ");
            putint(~0);      puts("\n");
            return 0;
          })",
                 "8 15 6 -1\n"},
        ExecCase{"comparisons", R"(
          int main(void) {
            putint(3 < 5); putint(5 < 3); putint(3 <= 3); putint(4 >= 5);
            putint(-1 < 1); putint(2 == 2); putint(2 != 2);
            puts("\n");
            return 0;
          })",
                 "1010110\n"},
        ExecCase{"inc_dec", R"(
          int main(void) {
            int x;
            x = 5;
            putint(x++); putint(x); putint(++x); putint(x--); putint(--x);
            puts("\n");
            return 0;
          })",
                 "56775\n"},
        ExecCase{"compound_assign", R"(
          int main(void) {
            int x;
            x = 10;
            x += 5;
            putint(x);
            x -= 12;
            putint(x);
            puts("\n");
            return 0;
          })",
                 "153\n"},
        ExecCase{"pointer_arith", R"(
          int arr[5] = {10, 20, 30, 40, 50};
          int main(void) {
            int *p;
            int *q;
            p = &arr[1];
            q = &arr[4];
            putint(q - p);  puts(" ");
            putint(*(p + 2)); puts(" ");
            p += 1;
            putint(*p); puts("\n");
            return 0;
          })",
                 "3 40 30\n"},
        ExecCase{"char_semantics", R"(
          char c = 200;
          int main(void) {
            putint(c);  // chars are signed: 200 -> -56
            puts(" ");
            c = 'A';
            putint(c + 1);
            puts("\n");
            return 0;
          })",
                 "-56 66\n"},
        ExecCase{"nested_loops_break_continue", R"(
          int main(void) {
            int i; int j; int total;
            total = 0;
            for (i = 0; i < 5; i = i + 1) {
              if (i == 3) { continue; }
              if (i == 4) { break; }
              j = 0;
              while (j < 10) {
                j = j + 1;
                if (j > 3) { break; }
                total = total + 1;
              }
            }
            putint(total);  // i in {0,1,2}, 4 inner... j counts 1..4 -> 3 adds each? verify: adds while j<=3 -> 3 adds
            puts("\n");
            return 0;
          })",
                 "9\n"},
        ExecCase{"sizeof", R"(
          struct pair { int a; int b; };
          struct pair p;
          int arr[10];
          int main(void) {
            putint(sizeof(int)); puts(" ");
            putint(sizeof(char)); puts(" ");
            putint(sizeof(int*)); puts(" ");
            putint(sizeof(struct pair)); puts(" ");
            putint(sizeof(arr)); puts(" ");
            putint(sizeof(p));
            puts("\n");
            return 0;
          })",
                 "4 1 4 8 40 8\n"},
        ExecCase{"struct_members", R"(
          struct point { int x; int y; };
          struct rect { struct point lo; struct point hi; };
          struct rect r;
          int main(void) {
            struct rect *pr;
            r.lo.x = 1; r.lo.y = 2; r.hi.x = 10; r.hi.y = 20;
            pr = &r;
            putint((pr->hi.x - pr->lo.x) * (pr->hi.y - pr->lo.y));
            puts("\n");
            return 0;
          })",
                 "162\n"},
        ExecCase{"function_pointers", R"(
          int add1(int x) { return x + 1; }
          int times2(int x) { return x * 2; }
          int main(void) {
            int *f;
            f = &add1;
            putint(f(10));  puts(" ");
            f = &times2;
            putint(f(10));  puts("\n");
            return 0;
          })",
                 "11 20\n"},
        ExecCase{"global_init_expressions", R"(
          int a = 2 + 3 * 4;
          int b = (1 << 8) | 0x0F;
          int c = -5;
          int d = sizeof(int) * 3;
          int main(void) {
            putint(a); puts(" "); putint(b); puts(" "); putint(c); puts(" "); putint(d);
            puts("\n");
            return 0;
          })",
                 "14 271 -5 12\n"},
        ExecCase{"recursion_deep", R"(
          int sum(int n) {
            if (n == 0) { return 0; }
            return n + sum(n - 1);
          }
          int main(void) {
            putint(sum(100));
            puts("\n");
            return 0;
          })",
                 "5050\n"},
        ExecCase{"local_arrays_and_shadowing", R"(
          int x = 111;
          int main(void) {
            int buf[4];
            int i;
            for (i = 0; i < 4; i = i + 1) { buf[i] = i * i; }
            {
              int x;
              x = buf[3];
              putint(x);
            }
            puts(" ");
            putint(x);
            puts("\n");
            return 0;
          })",
                 "9 111\n"},
        ExecCase{"ternary", R"(
          int pick(int c) { return c ? 111 : 222; }
          int side_effects = 0;
          int bump(int v) { side_effects = side_effects + 1; return v; }
          int main(void) {
            putint(pick(1)); puts(" ");
            putint(pick(0)); puts(" ");
            putint(3 > 2 ? 2 > 1 ? 5 : 6 : 7); puts(" ");  // nested, right-assoc
            putint(0 ? bump(9) : 4);   // untaken branch not evaluated
            puts(" ");
            putint(side_effects);
            puts("\n");
            return 0;
          })",
                 "111 222 5 4 0\n"},
        ExecCase{"do_while", R"(
          int main(void) {
            int i;
            int sum;
            i = 0;
            sum = 0;
            do {
              sum = sum + i;
              i = i + 1;
            } while (i < 5);
            putint(sum); puts(" ");
            // Body always runs at least once, even with a false condition.
            i = 100;
            do { i = i + 1; } while (0);
            putint(i); puts(" ");
            // break and continue inside do-while.
            i = 0;
            sum = 0;
            do {
              i = i + 1;
              if (i == 2) { continue; }
              if (i == 4) { break; }
              sum = sum + i;
            } while (i < 10);
            putint(sum);
            puts("\n");
            return 0;
          })",
                 "10 101 4\n"},
        ExecCase{"pointer_tables", R"(
          // The parser-table pattern: pointer-rich structures built at compile time
          // via WORD32 relocations in initialized data.
          int state0(void) { return 10; }
          int state1(void) { return 20; }
          int state2(void) { return 30; }
          int *dispatch[3] = {&state0, &state1, &state2};
          int values[4] = {5, 6, 7, 8};
          int *value_ptrs[2] = {&values[1], &values[3]};
          char *message = "indirect";
          int main(void) {
            int i;
            int sum;
            int *f;
            sum = 0;
            for (i = 0; i < 3; i = i + 1) {
              f = dispatch[i];
              sum = sum + f();
            }
            putint(sum); puts(" ");
            putint(*value_ptrs[0] + *value_ptrs[1]); puts(" ");
            puts(message);
            puts("\n");
            return 0;
          })",
                 "60 14 indirect\n"},
        ExecCase{"string_literal_dedup", R"(
          int main(void) {
            char *a;
            char *b;
            a = "same";
            b = "same";
            putint(a == b);  // identical literals share one data label
            puts(" ");
            putint(strcmp(a, "same"));
            puts("\n");
            return 0;
          })",
                 "1 0\n"},
        ExecCase{"struct_in_array", R"(
          struct entry { int key; int value; };
          struct entry table[3];
          int main(void) {
            int i;
            int sum;
            for (i = 0; i < 3; i = i + 1) {
              table[i].key = i;
              table[i].value = i * 7;
            }
            sum = 0;
            for (i = 0; i < 3; i = i + 1) {
              sum = sum + table[i].value;
            }
            putint(sum);
            puts("\n");
            return 0;
          })",
                 "21\n"},
        ExecCase{"negative_division", R"(
          int main(void) {
            putint(-7 / 2); puts(" ");
            putint(-7 % 2); puts(" ");
            putint(7 / -2); puts("\n");
            return 0;
          })",
                 "-3 -1 -3\n"}),
    [](const ::testing::TestParamInfo<ExecCase>& info) { return info.param.name; });

TEST(CodegenErrorTest, DiagnosticsFromCodegen) {
  struct BadCase {
    const char* source;
    const char* reason;
  };
  for (const BadCase& bad : {
           BadCase{"int main(void) { return undefined_var; }", "unknown identifier"},
           BadCase{"int main(void) { break; }", "break outside a loop"},
           BadCase{"int main(void) { continue; }", "continue outside a loop"},
           BadCase{"int main(void) { 5 = 6; return 0; }", "not an lvalue"},
           BadCase{"int x; int x; int main(void) { return 0; }", "duplicate global"},
           BadCase{"int f(void) { return 0; } int f(void) { return 1; } int main(void) { return 0; }",
                   "duplicate function"},
           BadCase{"struct s { int v; }; struct s a; struct s b; int main(void) { a = b; return 0; }",
                   "no struct assignment"},
           BadCase{"int main(void) { int z; z = *4 + **0; return sys_time; }",
                   "intrinsic as value"},
       }) {
    Result<ObjectFile> obj = CompileHemC(bad.source, "bad.o");
    EXPECT_FALSE(obj.ok()) << bad.reason << ": " << bad.source;
  }
}

TEST(CompilerTest, BranchOutOfRangeDiagnosed) {
  // A conditional whose body exceeds the ±32K-word branch reach must be rejected with
  // a diagnostic, not silently miscompiled (the R3000-realistic encoding limit).
  std::string body;
  for (int i = 0; i < 12000; ++i) {
    body += "    x = x + 1;\n";
  }
  std::string src = "int main(void) {\n  int x;\n  x = 0;\n  if (x == 0) {\n" + body +
                    "  }\n  return x;\n}\n";
  Result<ObjectFile> obj = CompileHemC(src, "huge.o");
  ASSERT_FALSE(obj.ok());
  EXPECT_NE(obj.status().message().find("branch displacement"), std::string::npos)
      << obj.status().ToString();
}

TEST(CompilerTest, LargeButInRangeFunctionCompilesAndRuns) {
  // Just below the limit: thousands of statements still compile and compute.
  std::string body;
  for (int i = 0; i < 2000; ++i) {
    body += "  x = x + 1;\n";
  }
  std::string src = "int main(void) {\n  int x;\n  x = 0;\n" + body +
                    "  return x & 127;\n}\n";
  HemlockWorld world;
  Status st = world.CompileTo(src, "/home/user/big.o");
  ASSERT_TRUE(st.ok()) << st.ToString();
  Result<LoadImage> image = world.Link({.inputs = {{"big.o", ShareClass::kStaticPrivate}}});
  ASSERT_TRUE(image.ok());
  Result<ExecResult> run = world.Exec(*image);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(*world.RunToExit(run->pid), 2000 & 127);
}

// A 70,000-item initializer mixing the items stored as values (decimal, hex and
// char literals followed by ',' or '}') with the ones that stay expressions
// (negative, folded, parenthesized, string and symbol items, and literals that
// start a longer expression), next to short lists, a struct and a
// string-initialized char array.
std::string LargeInitializerSource() {
  std::string src =
      "int fn(void) { return 1; }\n"
      "int arr[8];\n"
      "char name[12] = \"hemlock\";\n"
      "int pair[2] = {7};\n"
      "char tag[3] = {'z', 0x41};\n"
      "struct pt { char c; int x; };\n"
      "struct pt origin = {'o', -1};\n"
      "int table[70000] = {";
  static const char* const kChars[] = {"'a'", "'\\n'", "'\\0'", "'\\\\'", "'\\''", "'Z'"};
  static const char* const kSymbols[] = {"fn", "arr", "&arr[3]", "arr + 4", "\"s\"", "&pair"};
  uint32_t x = 12345;
  for (int i = 0; i < 69999; ++i) {
    x = x * 1103515245u + 12345u;
    uint32_t v = x >> 8;
    switch (i % 9) {
      case 0:
        src += StrFormat("%u", v % 100000);
        break;
      case 1:
        src += StrFormat("-%u", v % 100000);
        break;
      case 2:
        src += StrFormat("0x%x", x);
        break;
      case 3:
        src += kChars[v % 6];
        break;
      case 4:
        src += StrFormat("%u+%u", v % 100, v % 7);
        break;
      case 5:
        src += kSymbols[v % 6];
        break;
      case 6:
        src += StrFormat("(%u)", v % 1000);
        break;
      case 7:
        src += StrFormat("%u*2", v % 1000);
        break;
      default:
        src += StrFormat("%u", v);
        break;
    }
    src += i % 16 == 15 ? ",\n" : ", ";
  }
  src += "9};\nint main(void) { return table[0]; }\n";
  return src;
}

TEST(CompilerTest, LargeInitializerBytesPinned) {
  Result<ObjectFile> obj = CompileHemC(LargeInitializerSource(), "table.o");
  ASSERT_TRUE(obj.ok()) << obj.status().ToString();
  std::vector<uint8_t> bytes = obj->Serialize();
  // Recorded from the compiler that built an expression node for every item.
  EXPECT_EQ(bytes.size(), 419303u);
  EXPECT_EQ(Fnv1a64(bytes.data(), bytes.size()), 0xa119c51b0273bbb5ull);
}

TEST(CompilerTest, SearchMetadataEmbedded) {
  CompileOptions opts;
  opts.module_list = {"dep1.o", "dep2.o"};
  opts.search_path = {"/shm/libs"};
  Result<ObjectFile> obj = CompileHemC("int v = 1;", "m.o", opts);
  ASSERT_TRUE(obj.ok());
  EXPECT_EQ(obj->module_list(), opts.module_list);
  EXPECT_EQ(obj->search_path(), opts.search_path);
}

TEST(CompilerTest, PreludeOptOut) {
  Result<ObjectFile> with = CompileHemC("int v = 1;", "m.o");
  CompileOptions no_prelude;
  no_prelude.include_prelude = false;
  Result<ObjectFile> without = CompileHemC("int v = 1;", "m.o", no_prelude);
  ASSERT_TRUE(with.ok() && without.ok());
  EXPECT_GT(with->text().size(), without->text().size());
  EXPECT_TRUE(without->text().empty());
}

TEST(CompilerTest, StaticGlobalsAreLocalBinding) {
  Result<ObjectFile> obj = CompileHemC(R"(
    static int hidden = 1;
    int exposed = 2;
    static int helper(void) { return hidden; }
    int entry(void) { return helper() + exposed; }
  )",
                                       "m.o", CompileOptions{.include_prelude = false});
  ASSERT_TRUE(obj.ok()) << obj.status().ToString();
  std::vector<std::string> exports = obj->ExportedSymbols();
  EXPECT_EQ(exports, (std::vector<std::string>{"exposed", "entry"}));
}

}  // namespace
}  // namespace hemlock
