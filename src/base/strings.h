// String and path helpers shared across the toolchain. Paths here are the *simulated*
// Unix paths used by the shared file system and the linkers' search strategies.
#ifndef SRC_BASE_STRINGS_H_
#define SRC_BASE_STRINGS_H_

#include <string>
#include <string_view>
#include <vector>

namespace hemlock {

// Splits on |sep|, dropping empty pieces ("a::b" -> {"a","b"}).
std::vector<std::string> SplitString(std::string_view s, char sep);

// Splits on |sep|, keeping empty pieces ("a::b" -> {"a","","b"}).
std::vector<std::string> SplitStringKeepEmpty(std::string_view s, char sep);

std::string JoinStrings(const std::vector<std::string>& parts, std::string_view sep);

bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

// Canonicalizes a simulated-Unix path: collapses "//", resolves "." and "..",
// preserves a leading "/". "a/../b" -> "b"; "/x/./y//z" -> "/x/y/z".
std::string NormalizePath(std::string_view path);

// True for an absolute path NormalizePath would return unchanged and can prove so
// in one scan: no empty components, no trailing '/', no component starting with
// '.'. "/" itself and dot-files take NormalizePath's general path.
bool IsCanonicalAbsolutePath(std::string_view path);

// Joins two paths, treating an absolute |rhs| as replacing |lhs|.
std::string JoinPath(std::string_view lhs, std::string_view rhs);

// Final component ("/a/b.o" -> "b.o"); empty for "/".
std::string PathBasename(std::string_view path);

// Everything before the final component ("/a/b.o" -> "/a"); "." if no directory.
std::string PathDirname(std::string_view path);

// Drops one trailing ".o" / ".ho" style extension ("tables.o" -> "tables").
std::string StripExtension(std::string_view name);

bool IsAbsolutePath(std::string_view path);

// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

// CRC-32 (IEEE, reflected) over |n| bytes — used to detect torn index/state writes.
uint32_t Crc32(const void* data, size_t n);

// FNV-1a, 64-bit — the content-identity hash behind stable linking (module
// templates, load images, resolution manifests). Not cryptographic: it detects
// drift, it does not defend against collisions crafted by an adversary. |seed|
// chains hashes (pass a previous digest to mix more data in).
inline constexpr uint64_t kFnv1a64Seed = 0xCBF29CE484222325ull;
uint64_t Fnv1a64(const void* data, size_t n, uint64_t seed = kFnv1a64Seed);

// A word-at-a-time 64-bit digest for large inputs (template files): eight bytes per
// multiply instead of FNV's one. Same purpose and caveats as Fnv1a64; |seed| keys it.
uint64_t HashWords64(const void* data, size_t n, uint64_t seed = kFnv1a64Seed);

}  // namespace hemlock

#endif  // SRC_BASE_STRINGS_H_
