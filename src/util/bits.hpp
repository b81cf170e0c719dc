// Bit-manipulation helpers used throughout the address/indexing logic.
#pragma once

#include <bit>
#include <cstdint>
#include <initializer_list>
#include <optional>

#include "util/assert.hpp"

namespace maco::util {

constexpr bool is_pow2(std::uint64_t x) noexcept {
  return x != 0 && (x & (x - 1)) == 0;
}

// floor(log2(x)); x must be non-zero.
constexpr unsigned log2_floor(std::uint64_t x) noexcept {
  return 63u - static_cast<unsigned>(std::countl_zero(x));
}

// log2(x) for power-of-two x.
inline unsigned log2_exact(std::uint64_t x) {
  MACO_ASSERT_MSG(is_pow2(x), "log2_exact requires a power of two, got " << x);
  return log2_floor(x);
}

// Alignment may be any non-zero value, not only powers of two (clock
// periods like 455 ps / 500 ps are common alignments here).
constexpr std::uint64_t align_down(std::uint64_t value,
                                   std::uint64_t alignment) noexcept {
  if (is_pow2(alignment)) return value & ~(alignment - 1);
  return value - value % alignment;
}

constexpr std::uint64_t align_up(std::uint64_t value,
                                 std::uint64_t alignment) noexcept {
  if (is_pow2(alignment)) return (value + alignment - 1) & ~(alignment - 1);
  const std::uint64_t rem = value % alignment;
  return rem == 0 ? value : value + (alignment - rem);
}

// Extract bits [lo, lo+width) of value.
constexpr std::uint64_t bits(std::uint64_t value, unsigned lo,
                             unsigned width) noexcept {
  return (value >> lo) & ((width >= 64) ? ~0ull : ((1ull << width) - 1));
}

constexpr std::uint64_t ceil_div(std::uint64_t a, std::uint64_t b) noexcept {
  return (a + b - 1) / b;
}

// Overflow-checked uint64 arithmetic: nullopt when the exact result does
// not fit, for counts computed from external inputs (manifest shapes).
constexpr std::optional<std::uint64_t> checked_add(std::uint64_t a,
                                                   std::uint64_t b) noexcept {
  std::uint64_t sum = 0;
  if (__builtin_add_overflow(a, b, &sum)) return std::nullopt;
  return sum;
}

constexpr std::optional<std::uint64_t> checked_product(
    std::initializer_list<std::uint64_t> factors) noexcept {
  std::uint64_t product = 1;
  for (const std::uint64_t factor : factors) {
    if (__builtin_mul_overflow(product, factor, &product)) {
      return std::nullopt;
    }
  }
  return product;
}

}  // namespace maco::util
