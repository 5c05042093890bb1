#pragma once
// Reference thread-level check: the scalar per-lane replay of §5.1–§5.2
// that ThreadLevelAbft::check ran before its group-panel kernel, kept as
// the oracle its absolute residual bits are pinned against.
//
// Each (block, warp, lane) is visited in grid order and runs its own
// K-length double chains: one per owned row (one-sided) or one running
// scalar over the owned rows (two-sided), with the lane's Bt row checksum
// recomputed online in ascending owned-column order. Serial, so the
// failure list comes out in (block_row, block_col, warp_m, warp_n, lane,
// row) order.

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/check.hpp"
#include "core/thread_level_abft.hpp"

namespace aift::testing {

inline ThreadLevelResult thread_level_oracle(const TileConfig& tile,
                                             ThreadAbftSide side,
                                             const ErrorBoundParams& bound,
                                             const Matrix<half_t>& a,
                                             const Matrix<half_t>& b,
                                             const Matrix<half_t>& c) {
  AIFT_CHECK(a.cols() == b.rows());
  AIFT_CHECK(c.rows() == a.rows() && c.cols() == b.cols());
  const std::int64_t m = a.rows(), n = b.cols(), k = a.cols();

  const std::int64_t bm = (m + tile.mb - 1) / tile.mb;
  const std::int64_t bn = (n + tile.nb - 1) / tile.nb;
  const int warps_m = tile.mb / tile.mw;
  const int warps_n = tile.nb / tile.nw;

  std::vector<float> af(static_cast<std::size_t>(m * k));
  for (std::int64_t r = 0; r < m; ++r) {
    for (std::int64_t kk = 0; kk < k; ++kk) {
      af[static_cast<std::size_t>(r * k + kk)] = a(r, kk).to_float();
    }
  }

  ThreadLevelResult result;
  for (std::int64_t block = 0; block < bm * bn; ++block) {
    const std::int64_t bi = block / bn;
    const std::int64_t bj = block % bn;
    std::vector<std::int64_t> rows, cols;
    std::vector<double> s_local;

    for (int wm = 0; wm < warps_m; ++wm) {
      for (int wn = 0; wn < warps_n; ++wn) {
        const std::int64_t wr0 = bi * tile.mb + wm * tile.mw;
        const std::int64_t wc0 = bj * tile.nb + wn * tile.nw;
        if (wr0 >= m || wc0 >= n) continue;  // fully out-of-range warp

        for (int lane = 0; lane < 32; ++lane) {
          rows.clear();
          cols.clear();
          for (int r : tile.lane_rows(lane)) {
            if (wr0 + r < m) rows.push_back(wr0 + r);
          }
          for (int col : tile.lane_cols(lane)) {
            if (wc0 + col < n) cols.push_back(wc0 + col);
          }
          if (rows.empty() || cols.empty()) continue;
          ++result.threads_checked;

          s_local.assign(static_cast<std::size_t>(k), 0.0);
          for (std::int64_t kk = 0; kk < k; ++kk) {
            double acc = 0.0;
            for (const auto col : cols) acc += b(kk, col).to_float();
            s_local[static_cast<std::size_t>(kk)] = acc;
          }
          const double* sd = s_local.data();

          if (side == ThreadAbftSide::one_sided) {
            for (const auto row : rows) {
              const float* arow = af.data() + row * k;
              double abft = 0.0;
              for (std::int64_t kk = 0; kk < k; ++kk) {
                abft += arow[kk] * sd[kk];
              }
              double out_sum = 0.0, out_abs = 0.0;
              for (const auto col : cols) {
                const double v = c(row, col).to_float();
                out_sum += v;
                out_abs += std::abs(v);
              }
              const double residual = std::abs(abft - out_sum);
              const double threshold = detection_threshold(out_abs, bound);
              if (residual > threshold || !std::isfinite(out_sum)) {
                result.failures.push_back(ThreadCheckFailure{
                    bi, bj, wm, wn, lane, row, residual, threshold});
              }
            }
          } else {
            double abft = 0.0;
            for (std::int64_t kk = 0; kk < k; ++kk) {
              double a_sum = 0.0;
              for (const auto row : rows) {
                a_sum += af[static_cast<std::size_t>(row * k + kk)];
              }
              abft += a_sum * sd[kk];
            }
            double out_sum = 0.0, out_abs = 0.0;
            for (const auto row : rows) {
              for (const auto col : cols) {
                const double v = c(row, col).to_float();
                out_sum += v;
                out_abs += std::abs(v);
              }
            }
            const double residual = std::abs(abft - out_sum);
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
  result.fault_detected = !result.failures.empty();
  return result;
}

}  // namespace aift::testing
