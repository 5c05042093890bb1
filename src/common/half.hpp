#pragma once
// Software emulation of IEEE 754 binary16 ("FP16").
//
// The paper's kernels operate on FP16 operands with FP32 accumulation
// (tensor-core m16n8k8 semantics). There is no GPU in this environment, so
// the functional GEMM executor and the ABFT checks run on this bit-exact
// software half type: round-to-nearest-even conversions, subnormals,
// infinities and NaNs all behave as on hardware.

#include <array>
#include <bit>
#include <cstdint>
#include <iosfwd>
#include <limits>

namespace aift {

/// Converts an IEEE binary32 value to binary16 bits (round-to-nearest-even).
std::uint16_t f32_to_f16_bits(float f) noexcept;

/// The arithmetic binary16 -> binary32 decode, returning the binary32 bits
/// of the exactly-representable value. It generates the decode table
/// below at compile time and is that table's test oracle; hot paths decode
/// through f16_bits_to_f32 instead.
[[nodiscard]] constexpr std::uint32_t f16_bits_to_f32_bits(
    std::uint16_t h) noexcept {
  const std::uint32_t sign = static_cast<std::uint32_t>(h & 0x8000u) << 16;
  const std::uint32_t exp16 = (h >> 10) & 0x1Fu;
  std::uint32_t man = h & 0x03FFu;

  std::uint32_t out;
  if (exp16 == 0) {
    if (man == 0) {
      out = sign;  // signed zero
    } else {
      // Normalize the subnormal: value = man * 2^-24.
      int e = -1;
      do {
        man <<= 1;
        ++e;
      } while ((man & 0x0400u) == 0);
      man &= 0x03FFu;
      out = sign | (static_cast<std::uint32_t>(127 - 15 - e) << 23) | (man << 13);
    }
  } else if (exp16 == 0x1Fu) {
    out = sign | 0x7F800000u | (man << 13);  // inf / NaN
  } else {
    out = sign | ((exp16 - 15 + 127) << 23) | (man << 13);
  }
  return out;
}

namespace detail {
/// binary32 bits of every binary16 pattern, indexed by the pattern.
/// Defined constinit in half.cpp: constant-initialized, so the table is
/// complete before any dynamic initializer of any translation unit runs.
/// It stores bits rather than floats so NaN payloads (signaling ones
/// included) never pass through a floating-point constant.
extern const std::array<std::uint32_t, 65536> kF16ToF32Bits;
}  // namespace detail

/// Converts binary16 bits to the exactly-representable binary32 value: one
/// load from the 256 KiB decode table (bit-identical to the arithmetic
/// decode for all 65,536 patterns, exhaustively tested).
[[nodiscard]] inline float f16_bits_to_f32(std::uint16_t h) noexcept {
  return std::bit_cast<float>(detail::kF16ToF32Bits[h]);
}

/// IEEE 754 binary16 value. Storage is the raw 16-bit pattern; arithmetic
/// is performed by converting through float (which is exact for +,-,*
/// inputs and then rounded once on conversion back, matching hardware
/// behaviour for single operations).
class half_t {
 public:
  constexpr half_t() noexcept : bits_(0) {}
  explicit half_t(float f) noexcept : bits_(f32_to_f16_bits(f)) {}
  explicit half_t(double d) noexcept : bits_(f32_to_f16_bits(static_cast<float>(d))) {}
  explicit half_t(int v) noexcept : bits_(f32_to_f16_bits(static_cast<float>(v))) {}

  static constexpr half_t from_bits(std::uint16_t bits) noexcept {
    half_t h;
    h.bits_ = bits;
    return h;
  }

  [[nodiscard]] constexpr std::uint16_t bits() const noexcept { return bits_; }
  [[nodiscard]] float to_float() const noexcept { return f16_bits_to_f32(bits_); }
  explicit operator float() const noexcept { return to_float(); }

  [[nodiscard]] bool is_nan() const noexcept {
    return (bits_ & 0x7C00u) == 0x7C00u && (bits_ & 0x03FFu) != 0;
  }
  [[nodiscard]] bool is_inf() const noexcept {
    return (bits_ & 0x7FFFu) == 0x7C00u;
  }
  [[nodiscard]] bool is_zero() const noexcept { return (bits_ & 0x7FFFu) == 0; }
  [[nodiscard]] bool signbit() const noexcept { return (bits_ & 0x8000u) != 0; }

  friend half_t operator+(half_t a, half_t b) noexcept {
    return half_t(a.to_float() + b.to_float());
  }
  friend half_t operator-(half_t a, half_t b) noexcept {
    return half_t(a.to_float() - b.to_float());
  }
  friend half_t operator*(half_t a, half_t b) noexcept {
    return half_t(a.to_float() * b.to_float());
  }
  friend half_t operator/(half_t a, half_t b) noexcept {
    return half_t(a.to_float() / b.to_float());
  }
  friend half_t operator-(half_t a) noexcept {
    return half_t::from_bits(static_cast<std::uint16_t>(a.bits_ ^ 0x8000u));
  }

  // Comparisons follow IEEE semantics via the float path (NaN compares false).
  friend bool operator==(half_t a, half_t b) noexcept {
    return a.to_float() == b.to_float();
  }
  friend bool operator!=(half_t a, half_t b) noexcept { return !(a == b); }
  friend bool operator<(half_t a, half_t b) noexcept {
    return a.to_float() < b.to_float();
  }
  friend bool operator<=(half_t a, half_t b) noexcept {
    return a.to_float() <= b.to_float();
  }
  friend bool operator>(half_t a, half_t b) noexcept { return b < a; }
  friend bool operator>=(half_t a, half_t b) noexcept { return b <= a; }

  // Constants (binary16 limits).
  static constexpr half_t max() noexcept { return from_bits(0x7BFFu); }       // 65504
  static constexpr half_t min_normal() noexcept { return from_bits(0x0400u); } // 2^-14
  static constexpr half_t denorm_min() noexcept { return from_bits(0x0001u); } // 2^-24
  static constexpr half_t infinity() noexcept { return from_bits(0x7C00u); }
  static constexpr half_t quiet_nan() noexcept { return from_bits(0x7E00u); }
  /// Distance from 1.0 to the next representable value: 2^-10.
  static constexpr float epsilon() noexcept { return 0.0009765625f; }
  /// Unit roundoff for round-to-nearest: 2^-11.
  static constexpr float unit_roundoff() noexcept { return 0.00048828125f; }

 private:
  std::uint16_t bits_;
};

static_assert(sizeof(half_t) == 2, "half_t must be 2 bytes");

std::ostream& operator<<(std::ostream& os, half_t h);

/// Round a float through FP16 precision (the quantization applied when a
/// kernel stores an FP32 accumulator to an FP16 output matrix).
inline float round_to_f16(float f) noexcept {
  return f16_bits_to_f32(f32_to_f16_bits(f));
}

}  // namespace aift
