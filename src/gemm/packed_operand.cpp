#include "gemm/packed_operand.hpp"

#include "common/check.hpp"

namespace aift {

bool PackedOperand::compatible(std::int64_t b_rows, std::int64_t b_cols,
                               const TileConfig& tile) const {
  return rows == b_rows && cols == b_cols && kb == tile.kb && nb == tile.nb;
}

PackedOperand pack_operand(const Matrix<half_t>& b, const TileConfig& tile) {
  AIFT_CHECK_MSG(tile.valid(), "invalid tile config " << tile.name());
  PackedOperand p;
  p.rows = b.rows();
  p.cols = b.cols();
  p.kb = tile.kb;
  p.nb = tile.nb;
  p.kpad = (b.rows() + tile.kb - 1) / tile.kb * tile.kb;
  p.npad = (b.cols() + tile.nb - 1) / tile.nb * tile.nb;
  p.panels.assign(static_cast<std::size_t>(p.npad * p.kpad), 0.0f);
  for (std::int64_t c = 0; c < b.cols(); ++c) {
    // k-major group panels: column c's k-th value at (c/8)*kpad*8 + k*8 +
    // c%8, so each MMA column group is contiguous per k row.
    float* strip = p.panels.data() + (c / 8) * p.kpad * 8 + c % 8;
    for (std::int64_t r = 0; r < b.rows(); ++r) {
      strip[r * 8] = b(r, c).to_float();
    }
  }
  return p;
}

}  // namespace aift
