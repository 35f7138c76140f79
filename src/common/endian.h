// Little-endian loads and stores at a byte pointer.
//
// The wire codec and the binlog keep every multi-byte field
// little-endian. These spell the byte order with explicit shifts, so the
// bytes are the same on any host. Each shift is its own term of one
// expression (a fold over the byte indices, not a loop), which is the
// form GCC and Clang fold into a single load or store on a little-endian
// host. The caller owns the bounds: `p` must have sizeof(T) bytes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>

namespace radar {
namespace endian_detail {

template <typename U, std::size_t... I>
constexpr U Load(const std::uint8_t* p, std::index_sequence<I...>) {
  return static_cast<U>(((static_cast<U>(p[I]) << (8 * I)) | ...));
}

template <typename U, std::size_t... I>
constexpr void Store(std::uint8_t* p, U u, std::index_sequence<I...>) {
  ((p[I] = static_cast<std::uint8_t>(u >> (8 * I))), ...);
}

}  // namespace endian_detail

/// Reads a T stored little-endian at `p`.
template <typename T>
constexpr T LoadLE(const std::uint8_t* p) {
  static_assert(std::is_integral_v<T> && !std::is_same_v<T, bool>);
  using U = std::make_unsigned_t<T>;
  return static_cast<T>(
      endian_detail::Load<U>(p, std::make_index_sequence<sizeof(T)>{}));
}

/// Writes `v` little-endian at `p`; returns the byte after it.
template <typename T>
constexpr std::uint8_t* StoreLE(std::uint8_t* p, T v) {
  static_assert(std::is_integral_v<T> && !std::is_same_v<T, bool>);
  using U = std::make_unsigned_t<T>;
  endian_detail::Store<U>(p, static_cast<U>(v),
                          std::make_index_sequence<sizeof(T)>{});
  return p + sizeof(T);
}

}  // namespace radar
