#include "nn/activation.hpp"

#include <cmath>

#include "common/check.hpp"
#include "common/parallel.hpp"

namespace aift {

const char* activation_name(Activation a) {
  switch (a) {
    case Activation::identity: return "identity";
    case Activation::relu: return "relu";
    case Activation::squash: return "squash";
  }
  return "?";
}

float activate_value(float x, Activation a) {
  switch (a) {
    case Activation::identity:
      return x;
    case Activation::relu:
      return x > 0.0f ? x : 0.0f;
    case Activation::squash:
      if (std::isinf(x)) {
        // A fault-overflowed activation saturates (inf/inf would be NaN);
        // keeps unprotected corruption propagation deterministic.
        return x > 0.0f ? 1.0f : -1.0f;
      }
      return x / (1.0f + std::fabs(x));
  }
  return x;
}

Matrix<half_t> activate_and_repack(const Matrix<half_t>& prev, Activation a,
                                   std::int64_t rows, std::int64_t cols) {
  AIFT_CHECK(prev.rows() > 0 && prev.cols() > 0);
  AIFT_CHECK(rows > 0 && cols > 0);
  Matrix<half_t> out(rows, cols);
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t c = 0; c < cols; ++c) {
      const float x = prev(r % prev.rows(), c % prev.cols()).to_float();
      out(r, c) = half_t(activate_value(x, a));
    }
  }
  return out;
}

Matrix<half_t> activate_and_repack_stacked(const Matrix<half_t>& prev_stacked,
                                           std::int64_t requests, Activation a,
                                           std::int64_t rows, std::int64_t cols,
                                           bool parallel) {
  AIFT_CHECK(requests > 0);
  AIFT_CHECK_MSG(prev_stacked.rows() % requests == 0,
                 "stacked output of " << prev_stacked.rows()
                                      << " rows is not a whole number of "
                                      << requests << " request bands");
  const std::int64_t prev_rows = prev_stacked.rows() / requests;
  AIFT_CHECK(prev_rows > 0 && prev_stacked.cols() > 0);
  AIFT_CHECK(rows > 0 && cols > 0);

  Matrix<half_t> out(requests * rows, cols);
  const auto body = [&](std::int64_t req) {
    const std::int64_t src0 = req * prev_rows;
    const std::int64_t dst0 = req * rows;
    for (std::int64_t r = 0; r < rows; ++r) {
      for (std::int64_t c = 0; c < cols; ++c) {
        const float x =
            prev_stacked(src0 + r % prev_rows, c % prev_stacked.cols())
                .to_float();
        out(dst0 + r, c) = half_t(activate_value(x, a));
      }
    }
  };
  if (parallel) {
    parallel_for(0, requests, body);
  } else {
    serial_for(0, requests, body);
  }
  return out;
}

}  // namespace aift
