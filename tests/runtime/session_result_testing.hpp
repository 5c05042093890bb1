#pragma once
// Helpers shared by the executor and serving suites, which both pin
// results bit-identical to standalone sessions. One definition each: a
// LayerTrace field added to the comparator here is enforced by every
// suite at once instead of drifting between copies.

#include <gtest/gtest.h>

#include <string>

#include "runtime/session.hpp"

namespace aift {

// Flip exponent bit 29: rescales the accumulator by 2^±32, so every
// scheme detects it and, unprotected, it must reach the output.
inline FaultSpec big_fault(std::int64_t row = 0, std::int64_t col = 0) {
  return FaultSpec{row, col, /*k8_step=*/-1, /*xor_bits=*/0x20000000u};
}

// Empty when the results agree bit for bit — output, and every traced
// field of every layer — else the first difference.
inline std::string result_diff(const SessionResult& got,
                               const SessionResult& want) {
  if (!(got.output == want.output)) return "output differs";
  if (got.layers.size() != want.layers.size()) {
    return "layer count " + std::to_string(got.layers.size()) + " != " +
           std::to_string(want.layers.size());
  }
  for (std::size_t i = 0; i < got.layers.size(); ++i) {
    const auto& g = got.layers[i];
    const auto& w = want.layers[i];
    const std::string layer = "layer " + std::to_string(i) + " ";
    if (g.name != w.name) return layer + "name differs";
    if (g.scheme != w.scheme) return layer + "scheme differs";
    if (g.executions != w.executions) return layer + "executions differ";
    if (g.detections != w.detections) return layer + "detections differ";
    if (g.unrecovered != w.unrecovered) return layer + "unrecovered differs";
    if (g.output_digest != w.output_digest) {
      return layer + "output_digest differs";
    }
  }
  return {};
}

inline void expect_identical(const SessionResult& got,
                             const SessionResult& want,
                             const std::string& context) {
  const std::string diff = result_diff(got, want);
  EXPECT_TRUE(diff.empty()) << context << ": " << diff;
}

}  // namespace aift
