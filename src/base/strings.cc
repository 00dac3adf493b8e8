#include "src/base/strings.h"

#include <array>
#include <bit>
#include <cstdarg>
#include <cstdio>
#include <cstring>

namespace hemlock {

std::vector<std::string> SplitString(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= s.size()) {
    size_t end = s.find(sep, start);
    if (end == std::string_view::npos) {
      end = s.size();
    }
    if (end > start) {
      out.emplace_back(s.substr(start, end - start));
    }
    start = end + 1;
  }
  return out;
}

std::vector<std::string> SplitStringKeepEmpty(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t end = s.find(sep, start);
    if (end == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      break;
    }
    out.emplace_back(s.substr(start, end - start));
    start = end + 1;
  }
  return out;
}

std::string JoinStrings(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) {
      out += sep;
    }
    out += parts[i];
  }
  return out;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() && s.substr(s.size() - suffix.size()) == suffix;
}

bool IsCanonicalAbsolutePath(std::string_view path) {
  if (path.size() < 2 || path[0] != '/' || path.back() == '/') {
    return false;
  }
  // Every '/' must start a non-empty component that does not begin with '.': that
  // excludes "//", "/./", "/../" and (conservatively) dot-files like "/.x".
  for (size_t i = 0; i < path.size(); ++i) {
    if (path[i] == '/' && (path[i + 1] == '/' || path[i + 1] == '.')) {
      return false;
    }
  }
  return true;
}

std::string NormalizePath(std::string_view path) {
  if (IsCanonicalAbsolutePath(path)) {
    return std::string(path);
  }
  bool absolute = IsAbsolutePath(path);
  std::vector<std::string> stack;
  for (const std::string& part : SplitString(path, '/')) {
    if (part == ".") {
      continue;
    }
    if (part == "..") {
      if (!stack.empty() && stack.back() != "..") {
        stack.pop_back();
      } else if (!absolute) {
        stack.push_back("..");
      }
      // ".." above the root of an absolute path stays at the root.
      continue;
    }
    stack.push_back(part);
  }
  std::string joined = JoinStrings(stack, "/");
  if (absolute) {
    return "/" + joined;
  }
  return joined.empty() ? "." : joined;
}

std::string JoinPath(std::string_view lhs, std::string_view rhs) {
  if (rhs.empty()) {
    return std::string(lhs);
  }
  if (IsAbsolutePath(rhs) || lhs.empty()) {
    return std::string(rhs);
  }
  std::string out(lhs);
  if (out.back() != '/') {
    out += '/';
  }
  out += rhs;
  return out;
}

std::string PathBasename(std::string_view path) {
  size_t pos = path.find_last_of('/');
  if (pos == std::string_view::npos) {
    return std::string(path);
  }
  return std::string(path.substr(pos + 1));
}

std::string PathDirname(std::string_view path) {
  size_t pos = path.find_last_of('/');
  if (pos == std::string_view::npos) {
    return ".";
  }
  if (pos == 0) {
    return "/";
  }
  return std::string(path.substr(0, pos));
}

std::string StripExtension(std::string_view name) {
  size_t pos = name.find_last_of('.');
  if (pos == std::string_view::npos || pos == 0) {
    return std::string(name);
  }
  // Only strip if the dot is after the final slash.
  size_t slash = name.find_last_of('/');
  if (slash != std::string_view::npos && pos < slash) {
    return std::string(name);
  }
  return std::string(name.substr(0, pos));
}

bool IsAbsolutePath(std::string_view path) { return !path.empty() && path[0] == '/'; }

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  int n = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (n > 0) {
    out.resize(static_cast<size_t>(n));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

uint32_t Crc32(const void* data, size_t n) {
  static const auto table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  uint32_t crc = 0xFFFFFFFFu;
  const auto* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < n; ++i) {
    crc = table[(crc ^ p[i]) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

uint64_t Fnv1a64(const void* data, size_t n, uint64_t seed) {
  uint64_t h = seed;
  const auto* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001B3ull;
  }
  return h;
}

uint64_t HashWords64(const void* data, size_t n, uint64_t seed) {
  constexpr uint64_t kMul = 0x517CC1B727220A95ull;
  const auto* p = static_cast<const uint8_t*>(data);
  uint64_t h = seed ^ (static_cast<uint64_t>(n) * kMul);
  // Each step is a bijection of the state, so inputs of one length that differ in a
  // single word always hash apart.
  auto step = [&h](uint64_t word) { h = (std::rotl(h, 5) ^ word) * kMul; };
  for (; n >= 8; n -= 8, p += 8) {
    uint64_t word;
    std::memcpy(&word, p, 8);
    step(word);
  }
  uint64_t tail = 0;
  if (n > 0) {
    std::memcpy(&tail, p, n);
  }
  step(tail);
  // splitmix64's finalizer: spread every input bit over the whole digest.
  h ^= h >> 30;
  h *= 0xBF58476D1CE4E5B9ull;
  h ^= h >> 27;
  h *= 0x94D049BB133111EBull;
  return h ^ (h >> 31);
}

}  // namespace hemlock
