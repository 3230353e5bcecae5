#pragma once
// Byte-level helpers shared by the little codecs scattered through the
// tree: the shard/manifest writers (geom/batch_shard.cpp,
// core/indexing.cpp), the content hashing of join keys and shard
// checksums (core/spatial_join.cpp), and the chunk-text checksums of the
// ingest log (recovery/checkpoint.cpp). One definition each, so the hash
// constants and scalar layout cannot silently diverge between the
// writers and the readers.

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>

namespace mvio::util {

/// FNV-1a over a byte range (64-bit offset basis / prime).
[[nodiscard]] inline std::uint64_t fnv1a(const char* p, std::size_t n) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(p[i]);
    h *= 0x100000001b3ULL;
  }
  return h;
}

[[nodiscard]] inline std::uint64_t fnv1a(std::string_view bytes) {
  return fnv1a(bytes.data(), bytes.size());
}

/// 64-bit hash that consumes 8 bytes per step, for checksumming bulk text
/// (fnv1a multiplies once per byte, which is ~8x slower on megabytes).
/// For a fixed state each step is a bijection in the input word, and for
/// a fixed word a bijection in the state, so any change confined to one
/// word changes the result; the length seeds the state, so a truncation
/// does too. The tail word is zero-padded; the words are native-endian.
[[nodiscard]] inline std::uint64_t wordHash(const char* p, std::size_t n) {
  constexpr std::uint64_t kMul1 = 0x9e3779b97f4a7c15ULL;
  constexpr std::uint64_t kMul2 = 0xc2b2ae3d27d4eb4fULL;
  const auto step = [&](std::uint64_t h, std::uint64_t w) {
    h ^= w * kMul1;
    return ((h << 31) | (h >> 33)) * kMul2;
  };
  std::uint64_t h = 0xcbf29ce484222325ULL ^ (static_cast<std::uint64_t>(n) * kMul2);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t w;
    std::memcpy(&w, p + i, 8);
    h = step(h, w);
  }
  if (i < n) {
    std::uint64_t w = 0;
    std::memcpy(&w, p + i, n - i);
    h = step(h, w);
  }
  // fmix64 finalizer (a bijection): spreads the last word over every bit.
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

[[nodiscard]] inline std::uint64_t wordHash(std::string_view bytes) {
  return wordHash(bytes.data(), bytes.size());
}

/// Append `v`'s native-endian bytes to `out`.
template <typename T>
void putScalar(std::string& out, T v) {
  static_assert(std::is_trivially_copyable_v<T>);
  out.append(reinterpret_cast<const char*>(&v), sizeof(T));
}

/// Append `n` raw bytes from `src` to `out`. n == 0 is allowed with a
/// null `src` (an empty arena's data() is null).
inline void putBytes(std::string& out, const void* src, std::size_t n) {
  if (n != 0) out.append(static_cast<const char*>(src), n);
}

/// memcpy that permits the n == 0 / null-pointer case the C standard
/// (and UBSan) forbids — empty batch arenas legitimately have null
/// data().
inline void copyBytes(void* dst, const void* src, std::size_t n) {
  if (n != 0) std::memcpy(dst, src, n);
}

/// Read a `T` from `p` (unaligned-safe).
template <typename T>
[[nodiscard]] T readScalar(const char* p) {
  static_assert(std::is_trivially_copyable_v<T>);
  T v;
  std::memcpy(&v, p, sizeof(T));
  return v;
}

}  // namespace mvio::util
