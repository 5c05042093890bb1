#pragma once
// Inter-layer activation flow for the functional executor.
//
// The paper's protected pipeline applies the activation function between
// the GEMM and the next layer (§2.5 step 3); numerically, what matters to
// the fault-tolerance machinery is that layer outputs feed forward
// deterministically, so an uncorrected corruption propagates to the final
// output while protected re-execution restores it bit-for-bit.
//
// The repack is the CPU stand-in for the im2col / reshape between layers:
// the next layer's M x K activation matrix is filled from the previous
// layer's (activated) M' x N' output by index wrapping. Element
// (0, 0) of the previous output is always sampled, and for the MLP-style
// layers the zoo's serving models use (M' == M, N' == K) the mapping is
// the identity.

#include <cstdint>

#include "common/half.hpp"
#include "common/matrix.hpp"

namespace aift {

enum class Activation {
  identity,
  relu,
  squash,  ///< x / (1 + |x|): bounded, sign-preserving, strictly monotone —
           ///< keeps magnitudes stable across arbitrarily deep surrogate
           ///< propagation while preserving where a corruption happened
};

[[nodiscard]] const char* activation_name(Activation a);

/// `a` applied to one FP32 value.
[[nodiscard]] float activate_value(float x, Activation a);

/// Fused, non-destructive inter-layer flow: activation of `prev` followed
/// by repack into a rows x cols matrix by index wrapping, without
/// modifying `prev`: out(r, c) = half(activate_value(prev(r % prev.rows(),
/// c % prev.cols()))). `prev` stays available for output digests and the
/// finished result.
[[nodiscard]] Matrix<half_t> activate_and_repack(const Matrix<half_t>& prev,
                                                 Activation a,
                                                 std::int64_t rows,
                                                 std::int64_t cols);

/// Batched inter-layer flow over `requests` row-stacked outputs: request
/// r's band of prev_stacked (prev_stacked.rows()/requests rows) is
/// activated and repacked independently — index wrapping never crosses a
/// request boundary — into rows of the returned (requests*rows x cols)
/// stacked matrix. Requests fan out over the worker pool; bit-identical to
/// per-request activate_and_repack at any worker count.
[[nodiscard]] Matrix<half_t> activate_and_repack_stacked(
    const Matrix<half_t>& prev_stacked, std::int64_t requests, Activation a,
    std::int64_t rows, std::int64_t cols, bool parallel = true);

}  // namespace aift
