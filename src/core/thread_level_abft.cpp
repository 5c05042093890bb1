#include "core/thread_level_abft.hpp"

#include <algorithm>
#include <cmath>
#include <tuple>

#include "common/check.hpp"
#include "common/parallel.hpp"
#include "common/scratch.hpp"

namespace aift {
namespace {

/// Column groups per panel: PackedOperand's 8-wide k-major idiom.
constexpr int kGroupPanel = 8;
/// Chains in one register block: 16 doubles, eight SSE2 registers.
constexpr int kChains = 16;
/// Rows (two-sided: row groups) per parallel task. Fixed, so the task
/// boundaries never depend on the worker count.
constexpr std::int64_t kRowsPerTask = 64;

// The group structure of `tile` over an m x n output. Column group
// g = (bj * warps_n + wn) * 4 + lane % 4 owns the columns
// wc0 + 8 * band + 2 * (lane % 4) + {0, 1} of its warp; row group
// q = (bi * warps_m + wm) * 8 + lane / 4 owns the rows wr0 + lane / 4 + 8 * j.
// Both are listed in ascending order, as lane_cols()/lane_rows() list them.
// Warp tiles tile the grid without gaps, so warp column g / 4 starts at
// column (g / 4) * nw and warp row q / 8 at row (q / 8) * mw. A group's
// first element grows with its index, so the groups with an in-range
// element form a prefix of the index order, and a lane's check is group
// pair (q, g) with lane = (q % 8) * 4 + g % 4.
struct Groups {
  TileConfig tile;
  std::int64_t m = 0, n = 0;
  std::int64_t cols = 0;  ///< column groups with an in-range column
  std::int64_t rows = 0;  ///< row groups with an in-range row

  Groups(const TileConfig& t, std::int64_t m_in, std::int64_t n_in)
      : tile(t),
        m(m_in),
        n(n_in),
        // Whole warps, plus the lanes of the partial warp that own a
        // first element below the edge.
        cols(n_in / t.nw * 4 + std::min<std::int64_t>(4, (n_in % t.nw + 1) / 2)),
        rows(m_in / t.mw * 8 + std::min<std::int64_t>(8, m_in % t.mw)) {}

  [[nodiscard]] std::int64_t row0(std::int64_t q) const {
    return q / 8 * tile.mw + q % 8;
  }

  /// Calls f(g, col) for every in-range column, in ascending column order
  /// (so each group's columns come in ascending order too).
  template <typename F>
  void for_each_col(F&& f) const {
    for (std::int64_t w = 0; w * tile.nw < n; ++w) {
      for (int band = 0; band < tile.nw / MmaShape::kN; ++band) {
        for (int tig = 0; tig < 4; ++tig) {
          for (int d = 0; d < 2; ++d) {
            const std::int64_t col =
                w * tile.nw + band * MmaShape::kN + 2 * tig + d;
            if (col >= n) return;
            f(w * 4 + tig, col);
          }
        }
      }
    }
  }
  /// Calls f(row) for the in-range rows of row group q, ascending.
  template <typename F>
  void for_each_row(std::int64_t q, F&& f) const {
    const std::int64_t r0 = row0(q);
    for (int j = 0; j < tile.mw / 8; ++j) {
      const std::int64_t row = r0 + 8 * j;
      if (row >= m) return;
      f(row);
    }
  }

  /// The failure record of column group g against global row `row` (row
  /// group q for the two-sided check, which reports row -1).
  [[nodiscard]] ThreadCheckFailure failure(std::int64_t g, std::int64_t row,
                                           std::int64_t reported_row,
                                           double residual,
                                           double threshold) const {
    const int warps_n = tile.nb / tile.nw;
    const std::int64_t in_block = row % tile.mb;
    const int lane = static_cast<int>((in_block % tile.mw) % 8) * 4 +
                     static_cast<int>(g % 4);
    return ThreadCheckFailure{row / tile.mb,
                              g / 4 / warps_n,
                              static_cast<int>(in_block / tile.mw),
                              static_cast<int>(g / 4 % warps_n),
                              lane,
                              reported_row,
                              residual,
                              threshold};
  }
};

[[nodiscard]] std::int64_t panel_size(std::int64_t groups, std::int64_t k) {
  return (groups + kGroupPanel - 1) / kGroupPanel * kGroupPanel * k;
}

// Writes the column-group checksums s_g[k] = sum of the group's B[k][col]
// in ascending column order from +0.0 — the order the per-lane replay
// sums them — into the k-major panel layout, zero in the padding groups.
void build_panel(const Matrix<half_t>& b, const Groups& groups, double* panel) {
  const std::int64_t k = b.rows();
  const auto at = [&](std::int64_t g, std::int64_t kk) -> double& {
    return panel[g / kGroupPanel * k * kGroupPanel + kk * kGroupPanel +
                 g % kGroupPanel];
  };
  for (std::int64_t kk = 0; kk < k; ++kk) {
    for (std::int64_t g = 0; g < panel_size(groups.cols, 1); ++g) {
      at(g, kk) = 0.0;
    }
    groups.for_each_col([&](std::int64_t g, std::int64_t col) {
      at(g, kk) += b(kk, col).to_float();
    });
  }
}

// The redundant dots of R consecutive A rows (row stride lda) with the W
// consecutive groups starting at `panel` (the first group of a panel; W
// may span two panels). Every (row, group) pair is one chain over
// k = 0..K-1 with a separate double multiply and add, started from +0.0 —
// the replay's `abft += a[k] * s[k]`. The R x W chains are independent,
// so they run at the throughput of the multiply and add units rather than
// at the latency of one add. Kept out of line: inlined into its caller,
// GCC splits the accumulators between scalar and vector registers and
// spills them; on its own each pair of chains is one packed multiply and
// one packed add per k.
template <typename T, int R, int W>
[[gnu::noinline]] void chain_block(const T* a, std::int64_t lda,
                                   const double* panel, std::int64_t k,
                                   double (&out)[R][W]) {
  double acc[R][W] = {};
  for (std::int64_t kk = 0; kk < k; ++kk) {
    const double* s = panel + kk * kGroupPanel;
    for (int i = 0; i < R; ++i) {
      const double ai = a[i * lda + kk];
      for (int j = 0; j < W; ++j) {
        acc[i][j] +=
            ai * s[j / kGroupPanel * k * kGroupPanel + j % kGroupPanel];
      }
    }
  }
  for (int i = 0; i < R; ++i) {
    for (int j = 0; j < W; ++j) out[i][j] = acc[i][j];
  }
}

// Runs the chains of the `units` A rows (row-major, stride k) against
// every live group and hands each dot to emit(unit, group, abft). Groups
// go kChains at a time (two panels); the live width of a step picks the
// register block — rows x groups = 1 x 16, 2 x 8, 4 x 4 or 8 x 2 — with
// single rows for the tail.
template <typename T, typename Emit>
void run_chains(const T* a, std::int64_t k, const double* panel,
                std::int64_t groups, std::int64_t units, Emit&& emit) {
  const auto pass = [&]<int R, int W>(std::int64_t g0, std::int64_t u,
                                      int live) {
    double dots[R][W];
    chain_block<T, R, W>(a + u * k, k, panel + g0 * k, k, dots);
    for (int i = 0; i < R; ++i) {
      for (int j = 0; j < live; ++j) emit(u + i, g0 + j, dots[i][j]);
    }
  };
  const auto sweep = [&]<int W>(std::int64_t g0, int live) {
    constexpr int R = kChains / W;
    std::int64_t u = 0;
    for (; u + R <= units; u += R) pass.template operator()<R, W>(g0, u, live);
    for (; u < units; ++u) pass.template operator()<1, W>(g0, u, live);
  };
  for (std::int64_t g0 = 0; g0 < groups; g0 += kChains) {
    const int live =
        static_cast<int>(std::min<std::int64_t>(kChains, groups - g0));
    if (live > 8) {
      sweep.template operator()<16>(g0, live);
    } else if (live > 4) {
      sweep.template operator()<8>(g0, live);
    } else if (live > 2) {
      sweep.template operator()<4>(g0, live);
    } else {
      sweep.template operator()<2>(g0, live);
    }
  }
}

}  // namespace

ThreadLevelAbft::ThreadLevelAbft(TileConfig tile, ThreadAbftSide side,
                                 ErrorBoundParams bound)
    : tile_(tile), side_(side), bound_(bound) {
  AIFT_CHECK_MSG(tile_.valid(), "invalid tile " << tile_.name());
}

void ThreadLevelAbft::prepare(const Matrix<half_t>& b) {
  const Groups groups(tile_, 0, b.cols());
  panel_.assign(static_cast<std::size_t>(panel_size(groups.cols, b.rows())),
                0.0);
  build_panel(b, groups, panel_.data());
  prepared_k_ = b.rows();
  prepared_n_ = b.cols();
}

ThreadLevelResult ThreadLevelAbft::check(const Matrix<half_t>& a,
                                         const Matrix<half_t>& b,
                                         const Matrix<half_t>& c) const {
  AIFT_CHECK(a.cols() == b.rows());
  AIFT_CHECK(c.rows() == a.rows() && c.cols() == b.cols());
  const std::int64_t m = a.rows(), n = b.cols(), k = a.cols();
  const Groups groups(tile_, m, n);
  const bool one_sided = side_ == ThreadAbftSide::one_sided;

  // The checksum panel: prepared, or built here in the same order.
  const double* panel = panel_.data();
  if (prepared_k_ != k || prepared_n_ != n) {
    double* local = scratch_doubles(
        ScratchSlot::check_panel,
        static_cast<std::size_t>(panel_size(groups.cols, k)));
    build_panel(b, groups, local);
    panel = local;
  }

  // One task checks units [u0, u1): rows, or (two-sided) row groups, of
  // which a task takes whole warp rows. It decodes the A and C rows it
  // reads once, into the executing thread's scratch, so a check's scratch
  // footprint is one task's rows whatever M is.
  const auto run_task = [&](std::int64_t u0, std::int64_t u1,
                            std::vector<ThreadCheckFailure>& out) {
    const std::int64_t units = u1 - u0, cols = groups.cols;
    const std::int64_t r0 = one_sided ? u0 : u0 / 8 * tile_.mw;
    const std::int64_t r1 =
        one_sided ? u1 : std::min(m, (u1 + 7) / 8 * tile_.mw);
    float* af = scratch_floats(ScratchSlot::check_operands,
                               static_cast<std::size_t>((r1 - r0) * (k + n)));
    float* cf = af + (r1 - r0) * k;
    const half_t* a_rows = a.data() + r0 * k;
    const half_t* c_rows = c.data() + r0 * n;
    for (std::int64_t i = 0; i < (r1 - r0) * k; ++i) af[i] = a_rows[i].to_float();
    for (std::int64_t i = 0; i < (r1 - r0) * n; ++i) cf[i] = c_rows[i].to_float();

    // Per (unit, group): the output sum and absolute sum, each over the
    // group's columns in ascending order from +0.0 (two-sided: its rows in
    // ascending order, then columns) — one sweep of every C row feeds all
    // of its groups' chains at once; then, two-sided, the row-group sums
    // of A, each over the group's rows in ascending order from +0.0, as
    // the replay's a_sum is.
    const std::int64_t a_sums_len = one_sided ? 0 : units * k;
    double* work = scratch_doubles(
        ScratchSlot::check_operands,
        static_cast<std::size_t>(2 * units * cols + a_sums_len));
    double* out_sum = work;
    double* out_abs = work + units * cols;
    double* a_sums = work + 2 * units * cols;
    std::fill(work, work + 2 * units * cols, 0.0);
    const auto add_row = [&](std::int64_t i, std::int64_t row) {
      const float* crow = cf + (row - r0) * n;
      double* sum = out_sum + i * cols;
      double* abs_sum = out_abs + i * cols;
      groups.for_each_col([&](std::int64_t g, std::int64_t col) {
        const double v = crow[col];
        sum[g] += v;
        abs_sum[g] += std::abs(v);
      });
    };

    // Compares the dot of unit i and group g with its output sums.
    // Non-finite outputs (overflow from a corrupted exponent) are faults
    // by definition: finite FP16 inputs cannot produce them.
    const auto compare = [&](std::int64_t i, std::int64_t g, double abft,
                             std::int64_t row, std::int64_t reported_row) {
      const double sum = out_sum[i * cols + g];
      const double residual = std::abs(abft - sum);
      const double threshold =
          detection_threshold(out_abs[i * cols + g], bound_);
      if (residual > threshold || !std::isfinite(sum)) {
        out.push_back(groups.failure(g, row, reported_row, residual, threshold));
      }
    };

    if (one_sided) {
      for (std::int64_t i = 0; i < units; ++i) add_row(i, u0 + i);
      run_chains(af, k, panel, cols, units,
                 [&](std::int64_t i, std::int64_t g, double abft) {
                   compare(i, g, abft, u0 + i, u0 + i);
                 });
      return;
    }
    for (std::int64_t i = 0; i < units; ++i) {
      groups.for_each_row(u0 + i, [&](std::int64_t row) { add_row(i, row); });
      for (std::int64_t kk = 0; kk < k; ++kk) {
        double a_sum = 0.0;
        groups.for_each_row(u0 + i, [&](std::int64_t row) {
          a_sum += af[(row - r0) * k + kk];
        });
        a_sums[i * k + kk] = a_sum;
      }
    }
    run_chains(a_sums, k, panel, cols, units,
               [&](std::int64_t i, std::int64_t g, double abft) {
                 compare(i, g, abft, groups.row0(u0 + i), -1);
               });
  };

  ThreadLevelResult result;
  // Every lane with an in-range row and column runs one check.
  result.threads_checked = groups.rows * groups.cols;
  const std::int64_t units = one_sided ? m : groups.rows;
  const std::int64_t tasks = (units + kRowsPerTask - 1) / kRowsPerTask;
  if (tasks <= 1) {
    run_task(0, units, result.failures);
  } else {
    std::vector<std::vector<ThreadCheckFailure>> per_task(
        static_cast<std::size_t>(tasks));
    parallel_for(0, tasks, [&](std::int64_t t) {
      run_task(t * kRowsPerTask, std::min(units, (t + 1) * kRowsPerTask),
               per_task[static_cast<std::size_t>(t)]);
    });
    for (const auto& f : per_task) {
      result.failures.insert(result.failures.end(), f.begin(), f.end());
    }
  }
  // The chains run row-major over (row, group); report in grid order.
  std::sort(result.failures.begin(), result.failures.end(),
            [](const ThreadCheckFailure& x, const ThreadCheckFailure& y) {
              return std::tie(x.block_row, x.block_col, x.warp_m, x.warp_n,
                              x.lane, x.row) <
                     std::tie(y.block_row, y.block_col, y.warp_m, y.warp_n,
                              y.lane, y.row);
            });
  result.fault_detected = !result.failures.empty();
  return result;
}

}  // namespace aift
