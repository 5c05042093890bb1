// Tests for the software FP16 type: bit-exact conversions, rounding,
// special values, arithmetic and comparison semantics.

#include "common/half.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

namespace aift {
namespace {

TEST(Half, KnownBitPatterns) {
  EXPECT_EQ(half_t(1.0f).bits(), 0x3C00u);
  EXPECT_EQ(half_t(-1.0f).bits(), 0xBC00u);
  EXPECT_EQ(half_t(0.5f).bits(), 0x3800u);
  EXPECT_EQ(half_t(2.0f).bits(), 0x4000u);
  EXPECT_EQ(half_t(-2.0f).bits(), 0xC000u);
  EXPECT_EQ(half_t(0.0f).bits(), 0x0000u);
  EXPECT_EQ(half_t(-0.0f).bits(), 0x8000u);
  EXPECT_EQ(half_t(65504.0f).bits(), 0x7BFFu);  // max finite
}

TEST(Half, KnownValues) {
  EXPECT_FLOAT_EQ(half_t::from_bits(0x3C00).to_float(), 1.0f);
  EXPECT_FLOAT_EQ(half_t::from_bits(0x3555).to_float(), 0.333251953125f);
  EXPECT_FLOAT_EQ(half_t::from_bits(0x7BFF).to_float(), 65504.0f);
  EXPECT_FLOAT_EQ(half_t::from_bits(0x0400).to_float(), 6.103515625e-05f);
}

TEST(Half, OverflowToInfinity) {
  EXPECT_TRUE(half_t(65520.0f).is_inf());  // above the rounding midpoint
  EXPECT_TRUE(half_t(1.0e10f).is_inf());
  EXPECT_TRUE(half_t(-1.0e10f).signbit());
  EXPECT_TRUE(half_t(-1.0e10f).is_inf());
  // 65519.996 rounds down to 65504.
  EXPECT_EQ(half_t(65519.0f).bits(), 0x7BFFu);
}

TEST(Half, UnderflowAndSubnormals) {
  const float denorm_min = 5.960464477539063e-08f;  // 2^-24
  EXPECT_EQ(half_t(denorm_min).bits(), 0x0001u);
  EXPECT_EQ(half_t(denorm_min / 2.0f).bits(), 0x0000u);  // ties to even
  EXPECT_EQ(half_t(denorm_min * 0.6f).bits(), 0x0001u);  // rounds up
  EXPECT_EQ(half_t(denorm_min * 0.4f).bits(), 0x0000u);  // rounds down
  // Largest subnormal: 1023 * 2^-24.
  EXPECT_FLOAT_EQ(half_t::from_bits(0x03FF).to_float(), 1023.0f * 0x1p-24f);
}

TEST(Half, RoundToNearestEvenAtMantissaBoundary) {
  // 1 + 2^-11 is exactly between 1.0 (0x3C00) and 1+2^-10 (0x3C01):
  // ties go to even (0x3C00).
  EXPECT_EQ(half_t(1.0f + 0x1p-11f).bits(), 0x3C00u);
  // (1 + 3*2^-11) is between 0x3C01 and 0x3C02: ties to even (0x3C02).
  EXPECT_EQ(half_t(1.0f + 3.0f * 0x1p-11f).bits(), 0x3C02u);
  // Slightly above the midpoint rounds up.
  EXPECT_EQ(half_t(1.0f + 0x1p-11f + 0x1p-20f).bits(), 0x3C01u);
}

TEST(Half, NanHandling) {
  EXPECT_TRUE(half_t(std::numeric_limits<float>::quiet_NaN()).is_nan());
  EXPECT_TRUE(half_t::quiet_nan().is_nan());
  EXPECT_TRUE(std::isnan(half_t::quiet_nan().to_float()));
  EXPECT_FALSE(half_t::quiet_nan() == half_t::quiet_nan());  // IEEE
  EXPECT_FALSE(half_t::infinity().is_nan());
  EXPECT_TRUE(half_t::infinity().is_inf());
  EXPECT_TRUE(std::isinf(half_t::infinity().to_float()));
}

TEST(Half, ExhaustiveRoundTripAllFinitePatterns) {
  // Every finite FP16 bit pattern must round-trip exactly through float.
  int checked = 0;
  for (std::uint32_t bits = 0; bits <= 0xFFFFu; ++bits) {
    const auto h = half_t::from_bits(static_cast<std::uint16_t>(bits));
    if (h.is_nan()) {
      EXPECT_TRUE(half_t(h.to_float()).is_nan());
      continue;
    }
    EXPECT_EQ(half_t(h.to_float()).bits(), bits) << "pattern " << bits;
    ++checked;
  }
  EXPECT_EQ(checked, 65536 - 2 * 1023);  // all but NaNs
}

TEST(Half, ConversionIsNearestRepresentable) {
  // For a sample of floats, |half(f) - f| must not exceed the distance to
  // either neighboring representable half value.
  for (int i = -2000; i <= 2000; ++i) {
    const float f = static_cast<float>(i) * 0.37f + 0.123f;
    const half_t h(f);
    if (h.is_inf()) continue;
    const float hv = h.to_float();
    const float up = half_t::from_bits(h.bits() + 1).to_float();
    const float dn =
        h.bits() > 0 ? half_t::from_bits(h.bits() - 1).to_float() : hv;
    EXPECT_LE(std::abs(hv - f), std::abs(up - f) + 1e-20);
    EXPECT_LE(std::abs(hv - f), std::abs(dn - f) + 1e-20);
  }
}

TEST(Half, Arithmetic) {
  const half_t a(1.5f), b(2.25f);
  EXPECT_FLOAT_EQ((a + b).to_float(), 3.75f);
  EXPECT_FLOAT_EQ((b - a).to_float(), 0.75f);
  EXPECT_FLOAT_EQ((a * b).to_float(), 3.375f);
  EXPECT_FLOAT_EQ((b / half_t(1.5f)).to_float(), 1.5f);
  EXPECT_EQ((-a).bits(), half_t(-1.5f).bits());
}

TEST(Half, ArithmeticRoundsResult) {
  // 1 + 2^-11 == 1 in FP16 (the addend is below half an ulp).
  EXPECT_EQ((half_t(1.0f) + half_t(0x1p-11f)).bits(), half_t(1.0f).bits());
  // But 1 + 2^-10 is representable.
  EXPECT_GT((half_t(1.0f) + half_t(0x1p-10f)).to_float(), 1.0f);
}

TEST(Half, Comparisons) {
  EXPECT_LT(half_t(1.0f), half_t(2.0f));
  EXPECT_LE(half_t(1.0f), half_t(1.0f));
  EXPECT_GT(half_t(0.0f), half_t(-1.0f));
  EXPECT_EQ(half_t(0.0f), half_t(-0.0f));  // signed zeros compare equal
  EXPECT_NE(half_t(1.0f), half_t(1.001f));
}

TEST(Half, Constants) {
  EXPECT_FLOAT_EQ(half_t::max().to_float(), 65504.0f);
  EXPECT_FLOAT_EQ(half_t::min_normal().to_float(), 0x1p-14f);
  EXPECT_FLOAT_EQ(half_t::denorm_min().to_float(), 0x1p-24f);
  EXPECT_FLOAT_EQ(half_t::epsilon(), 0x1p-10f);
  EXPECT_FLOAT_EQ(half_t::unit_roundoff(), 0x1p-11f);
}

TEST(Half, RoundToF16Helper) {
  EXPECT_FLOAT_EQ(round_to_f16(1.0f + 0x1p-12f), 1.0f);
  EXPECT_FLOAT_EQ(round_to_f16(0.1f), half_t(0.1f).to_float());
}

TEST(Half, TableDecodeMatchesArithmeticDecodeForEveryPattern) {
  // f16_bits_to_f32 is a lookup into a compile-time table generated from
  // the arithmetic decode; the two must agree bitwise on all 65,536
  // patterns — NaN payloads (signaling included), signed zeros,
  // subnormals and infinities too. The oracle runs at run time here, so
  // a table the compiler built differently from the function would show.
  for (std::uint32_t bits = 0; bits <= 0xFFFFu; ++bits) {
    volatile std::uint32_t in = bits;
    const auto h = static_cast<std::uint16_t>(in);
    ASSERT_EQ(std::bit_cast<std::uint32_t>(f16_bits_to_f32(h)),
              f16_bits_to_f32_bits(h))
        << "pattern " << bits;
  }
  // Spot values of the arithmetic decode itself.
  EXPECT_EQ(f16_bits_to_f32_bits(0x0000u), 0x00000000u);  // +0
  EXPECT_EQ(f16_bits_to_f32_bits(0x8000u), 0x80000000u);  // -0
  EXPECT_EQ(f16_bits_to_f32_bits(0x0001u), 0x33800000u);  // 2^-24
  EXPECT_EQ(f16_bits_to_f32_bits(0x83FFu), 0xB87FC000u);  // -1023 * 2^-24
  EXPECT_EQ(f16_bits_to_f32_bits(0x3C00u), 0x3F800000u);  // 1
  EXPECT_EQ(f16_bits_to_f32_bits(0xFC00u), 0xFF800000u);  // -inf
  EXPECT_EQ(f16_bits_to_f32_bits(0x7C01u), 0x7F802000u);  // signaling NaN
  EXPECT_EQ(f16_bits_to_f32_bits(0xFE00u), 0xFFC00000u);  // quiet NaN
}

TEST(Half, SignBitQueries) {
  EXPECT_TRUE(half_t(-3.0f).signbit());
  EXPECT_FALSE(half_t(3.0f).signbit());
  EXPECT_TRUE(half_t(-0.0f).signbit());
  EXPECT_TRUE(half_t(0.0f).is_zero());
  EXPECT_TRUE(half_t(-0.0f).is_zero());
}

}  // namespace
}  // namespace aift
