#pragma once
// Reference thread-level replication (paper §4) — the strawman the paper
// evaluates before settling on thread-level ABFT. Plans still price the
// replication schemes through the cost model, but no session executes
// them; this replay is what the coverage tests compare ABFT against.
//
//   traditional: every MMA is executed twice, the duplicate accumulating
//     into a second full set of output registers; the two register sets
//     are compared element-wise.
//   single-accumulation: the duplicated MMAs all accumulate into one set
//     of four registers; in the absence of a fault the sum of those four
//     equals the sum of the thread's Mt x Nt outputs.
//
// replication_oracle verifies a possibly-faulty C against the matching
// invariant per (block, warp, lane), with the same localization
// granularity as thread-level ABFT. Serial, so the failure list comes out
// in grid order.

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/check.hpp"
#include "core/error_bound.hpp"
#include "core/thread_level_abft.hpp"

namespace aift::testing {

enum class ReplicationKind { traditional, single_accumulation };

inline ThreadLevelResult replication_oracle(
    const TileConfig& tile, ReplicationKind kind, const Matrix<half_t>& a,
    const Matrix<half_t>& b, const Matrix<half_t>& c,
    const ErrorBoundParams& bound = {}) {
  AIFT_CHECK_MSG(tile.valid(), "invalid tile " << tile.name());
  AIFT_CHECK(a.cols() == b.rows());
  AIFT_CHECK(c.rows() == a.rows() && c.cols() == b.cols());
  const std::int64_t m = a.rows(), n = b.cols(), k = a.cols();

  const std::int64_t bm = (m + tile.mb - 1) / tile.mb;
  const std::int64_t bn = (n + tile.nb - 1) / tile.nb;
  const int warps_m = tile.mb / tile.mw;
  const int warps_n = tile.nb / tile.nw;

  ThreadLevelResult result;
  for (std::int64_t bi = 0; bi < bm; ++bi) {
    for (std::int64_t bj = 0; bj < bn; ++bj) {
      for (int wm = 0; wm < warps_m; ++wm) {
        for (int wn = 0; wn < warps_n; ++wn) {
          const std::int64_t wr0 = bi * tile.mb + wm * tile.mw;
          const std::int64_t wc0 = bj * tile.nb + wn * tile.nw;
          if (wr0 >= m || wc0 >= n) continue;

          for (int lane = 0; lane < 32; ++lane) {
            std::vector<std::int64_t> rows, cols;
            for (int r : tile.lane_rows(lane)) {
              if (wr0 + r < m) rows.push_back(wr0 + r);
            }
            for (int col : tile.lane_cols(lane)) {
              if (wc0 + col < n) cols.push_back(wc0 + col);
            }
            if (rows.empty() || cols.empty()) continue;
            ++result.threads_checked;

            if (kind == ReplicationKind::traditional) {
              // Element-wise duplicate-and-compare.
              for (const auto row : rows) {
                for (const auto col : cols) {
                  double redo = 0.0;
                  for (std::int64_t kk = 0; kk < k; ++kk) {
                    redo += a(row, kk).to_float() * b(kk, col).to_float();
                  }
                  const double v = c(row, col).to_float();
                  const double residual = std::abs(redo - v);
                  const double threshold =
                      detection_threshold(std::abs(v), bound);
                  // Non-finite stored outputs are faults: finite FP16
                  // inputs cannot overflow the FP32 accumulator.
                  if (residual > threshold || !std::isfinite(v)) {
                    result.failures.push_back(ThreadCheckFailure{
                        bi, bj, wm, wn, lane, row, residual, threshold});
                  }
                }
              }
            } else {
              // Single-accumulation: the replicated MMAs accumulate every
              // product into one register set; compare aggregate sums.
              double redo_sum = 0.0;
              for (std::int64_t kk = 0; kk < k; ++kk) {
                double a_dot_b = 0.0;
                for (const auto row : rows) {
                  const double av = a(row, kk).to_float();
                  for (const auto col : cols) {
                    a_dot_b += av * b(kk, col).to_float();
                  }
                }
                redo_sum += a_dot_b;
              }
              double out_sum = 0.0, out_abs = 0.0;
              for (const auto row : rows) {
                for (const auto col : cols) {
                  const double v = c(row, col).to_float();
                  out_sum += v;
                  out_abs += std::abs(v);
                }
              }
              const double residual = std::abs(redo_sum - out_sum);
              const double threshold = detection_threshold(out_abs, bound);
              if (residual > threshold || !std::isfinite(out_sum)) {
                result.failures.push_back(ThreadCheckFailure{
                    bi, bj, wm, wn, lane, -1, residual, threshold});
              }
            }
          }
        }
      }
    }
  }
  result.fault_detected = !result.failures.empty();
  return result;
}

}  // namespace aift::testing
