#pragma once
// Functional thread-level ABFT (paper §5.1–§5.2).
//
// Each GPU thread owns a scattered Mt x Nt sub-tile of its warp's output
// (rows lane_rows(), columns lane_cols() of tile_config.hpp — the PTX
// m16n8k8 accumulator distribution). Thread-level ABFT performs the
// checksum arithmetic entirely within that sub-problem, sharing the
// operand loads the thread already performs and storing nothing:
//
//   one-sided (§5.2.2): maintain the row checksum of the thread's Bt
//     columns (s[k] = sum of owned B[k][*]) and accumulate the redundant
//     products abft[r] += A[r][k]*s[k] via extra MMAs; at the end compare
//     abft[r] with the sum of the thread's outputs in row r.
//   two-sided: additionally checksum At's rows, collapsing the redundant
//     computation to a single running scalar.
//
// check() replays that arithmetic against a possibly-faulty C and reports
// every failing thread with its location — the fault is localized to a
// specific (block, warp, lane, row), unlike global ABFT's single bit.
//
// How the replay is computed. Lanes that share `lane % 4` own the same
// columns of their warp tile, so every checksum vector s belongs to a
// *column group* (block column, warp column, lane % 4), and every lane's
// rows to a *row group* (block row, warp row, lane / 4). The check keeps
// one checksum vector per column group, stored as a k-major double panel
// in the PackedOperand idiom — groups in 8-wide panels,
// panel[(g / 8) * K * 8 + k * 8 + g % 8] == s_g[k] — and computes the
// redundant dots as the small product A x S (two-sided: row-group sums of
// A x S), blocked in registers over rows x groups. Each (row, group) dot
// is still one chain running k = 0, 1, ..., K-1 with a separate double
// multiply and add, s_g[k] is still summed over the group's columns in
// ascending order, and the output sums still run over the group's columns
// (two-sided: rows, then columns) in ascending order. Only independent
// chains run side by side, so every residual and threshold is the one the
// scalar per-lane replay computes, bit for bit — pinned against that
// replay (tests/core/thread_level_oracle.hpp) by the
// thread_check_determinism_threads_* CTest entries.

#include <cstdint>
#include <vector>

#include "common/half.hpp"
#include "common/matrix.hpp"
#include "core/error_bound.hpp"
#include "gemm/tile_config.hpp"

namespace aift {

enum class ThreadAbftSide { one_sided, two_sided };

struct ThreadCheckFailure {
  std::int64_t block_row = 0, block_col = 0;  ///< threadblock grid coords
  int warp_m = 0, warp_n = 0;                 ///< warp coords within block
  int lane = 0;                               ///< lane within warp
  std::int64_t row = -1;  ///< global C row (one-sided localization; -1 for
                          ///< two-sided, which checks a single scalar)
  double residual = 0.0;
  double threshold = 0.0;
};

struct ThreadLevelResult {
  bool fault_detected = false;
  /// Every failing check, in grid order: (block_row, block_col, warp_m,
  /// warp_n, lane, row) ascending, whatever the worker count.
  std::vector<ThreadCheckFailure> failures;
  std::int64_t threads_checked = 0;
};

class ThreadLevelAbft {
 public:
  ThreadLevelAbft(TileConfig tile, ThreadAbftSide side,
                  ErrorBoundParams bound = {});

  /// Verifies C (claimed to equal A*B computed with this tile config).
  [[nodiscard]] ThreadLevelResult check(const Matrix<half_t>& a,
                                        const Matrix<half_t>& b,
                                        const Matrix<half_t>& c) const;

  /// Builds the column-group checksum panel for the immutable operand `b`
  /// (see the header comment for the layout). The panel is a pure function
  /// of (b, tile), so a session checking the same weights every request
  /// builds it once at construction; an unprepared check() builds the same
  /// panel, in the same summation order, in scratch, and runs the same
  /// kernel, so a prepared check is bit-identical to an unprepared one.
  /// After prepare(b), check() must only be given that same `b` (it matches
  /// on dimensions alone, like a PackedOperand, and the session's per-layer
  /// checker only ever sees its own layer's weights).
  void prepare(const Matrix<half_t>& b);

  /// Whether prepare() has been called (the panel serves any b with the
  /// prepared dimensions).
  [[nodiscard]] bool prepared() const { return prepared_k_ >= 0; }

  [[nodiscard]] const TileConfig& tile() const { return tile_; }
  [[nodiscard]] ThreadAbftSide side() const { return side_; }

 private:
  TileConfig tile_;
  ThreadAbftSide side_;
  ErrorBoundParams bound_;
  /// prepare()'s column-group checksum panel: one K-length vector per
  /// column group with an in-range column, zero in the panel padding.
  std::vector<double> panel_;
  std::int64_t prepared_k_ = -1;
  std::int64_t prepared_n_ = -1;
};

}  // namespace aift
