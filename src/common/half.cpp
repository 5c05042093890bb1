#include "common/half.hpp"

#include <bit>
#include <ostream>

namespace aift {

std::uint16_t f32_to_f16_bits(float f) noexcept {
  const std::uint32_t x = std::bit_cast<std::uint32_t>(f);
  const std::uint32_t sign = (x >> 16) & 0x8000u;
  const std::uint32_t exp32 = (x >> 23) & 0xFFu;
  std::uint32_t man = x & 0x7FFFFFu;

  if (exp32 == 0xFFu) {  // Inf or NaN: preserve NaN-ness with a payload bit.
    const std::uint32_t payload = man ? (0x0200u | (man >> 13)) : 0u;
    return static_cast<std::uint16_t>(sign | 0x7C00u | payload);
  }

  const int e = static_cast<int>(exp32) - 127 + 15;  // rebiased exponent
  if (e >= 0x1F) {  // overflow -> infinity
    return static_cast<std::uint16_t>(sign | 0x7C00u);
  }
  if (e <= 0) {  // subnormal half (or underflow to zero)
    if (e < -10) return static_cast<std::uint16_t>(sign);
    man |= 0x800000u;  // make the implicit leading 1 explicit
    const int shift = 14 - e;
    std::uint32_t sub = man >> shift;
    const std::uint32_t rem = man & ((1u << shift) - 1u);
    const std::uint32_t halfway = 1u << (shift - 1);
    if (rem > halfway || (rem == halfway && (sub & 1u))) ++sub;
    return static_cast<std::uint16_t>(sign | sub);
  }

  std::uint32_t out = sign | (static_cast<std::uint32_t>(e) << 10) | (man >> 13);
  const std::uint32_t rem = man & 0x1FFFu;
  // Round to nearest even; a carry out of the mantissa correctly increments
  // the exponent (and can round up to infinity).
  if (rem > 0x1000u || (rem == 0x1000u && (out & 1u))) ++out;
  return static_cast<std::uint16_t>(out);
}

namespace detail {
namespace {

// Fills the table from the arithmetic decode. The decode ORs the sign bit
// in independently of the magnitude, so each negative pattern is its
// positive twin with bit 31 set; deriving it halves the compile-time
// evaluation (Clang bounds constant-evaluation steps), and the exhaustive
// test checks every entry, both halves, against the arithmetic decode.
constexpr std::array<std::uint32_t, 65536> make_f16_table() {
  std::array<std::uint32_t, 65536> table{};
  for (std::uint32_t h = 0; h < 0x8000u; ++h) {
    const std::uint32_t bits = f16_bits_to_f32_bits(static_cast<std::uint16_t>(h));
    table[h] = bits;
    table[h | 0x8000u] = bits | 0x80000000u;
  }
  return table;
}

}  // namespace

constinit const std::array<std::uint32_t, 65536> kF16ToF32Bits =
    make_f16_table();

}  // namespace detail

std::ostream& operator<<(std::ostream& os, half_t h) { return os << h.to_float(); }

}  // namespace aift
