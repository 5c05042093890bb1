#include "runtime/report.hpp"

#include <sstream>

namespace aift {

Table plan_table(const InferencePlan& plan) {
  Table t({"layer", "M", "N", "K", "intensity", "bound", "scheme", "T_o",
           "T_r", "overhead"});
  for (const auto& e : plan.entries) {
    t.add_row({e.layer.name, std::to_string(e.layer.gemm.m),
               std::to_string(e.layer.gemm.n), std::to_string(e.layer.gemm.k),
               fmt_double(e.intensity, 1),
               e.bandwidth_bound ? "bandwidth" : "compute",
               scheme_name(e.profile.scheme),
               fmt_time_us(e.profile.base.cost.total_us),
               fmt_time_us(e.profile.redundant.cost.total_us),
               fmt_pct(e.profile.overhead_pct)});
  }
  return t;
}

std::string plan_summary(const InferencePlan& plan) {
  std::ostringstream os;
  os << plan.model_name << " on " << plan.device_name << " ["
     << policy_name(plan.policy) << "]: base "
     << fmt_time_us(plan.total_base_us) << ", protected "
     << fmt_time_us(plan.total_protected_us) << ", overhead "
     << fmt_pct(plan.overhead_pct());
  if (plan.policy == ProtectionPolicy::intensity_guided) {
    os << " (thread-level on " << plan.count_scheme(Scheme::thread_one_sided)
       << "/" << plan.entries.size() << " layers)";
  }
  return os.str();
}

DivergenceReport divergence_report(const GemmCostModel& model,
                                   const InferencePlan& plan,
                                   const CalibrationTable& calib) {
  DivergenceReport rep;
  rep.rows.reserve(plan.entries.size());
  for (const LayerPlanEntry& e : plan.entries) {
    DivergenceRow row;
    row.layer = e.layer.name;
    row.gemm = e.layer.gemm;
    row.scheme = e.profile.scheme;
    row.analytic_intensity = e.intensity;
    row.analytic_bandwidth_bound = e.bandwidth_bound;

    // Bound class: the measured roofline judges the unprotected GEMM's AI
    // (counter-derived when the sweep covered it, the paper's operand-byte
    // AI otherwise) against the *measured* ceilings; the analytic class is
    // Equation 1 against the datasheet CMR.
    const CalibrationEntry* baseline =
        calib.best_entry(e.layer.gemm, plan.dtype, -1);
    row.measured_ai = baseline != nullptr ? baseline->ai : e.intensity;
    row.measured_memory_bound = calib.memory_bound(row.measured_ai);
    row.bound_diverges =
        row.measured_memory_bound != row.analytic_bandwidth_bound;
    if (row.bound_diverges) ++rep.bound_divergent;

    // Best tile: re-run the analytic sweep under the same per-layer
    // options the compiler used, then compare with the measured-fastest.
    AbftOptions layer_opts = plan.abft_options;
    layer_opts.fused_input_checksum = e.layer.input_checksum_fusable;
    layer_opts.input_feature_bytes =
        static_cast<double>(e.layer.input_elems) * dtype_bytes(plan.dtype);
    const Scheme s = e.profile.scheme;
    const ProfiledKernel analytic =
        s == Scheme::none
            ? profile_best(model, e.layer.gemm, plan.dtype)
            : profile_best(model, e.layer.gemm, plan.dtype,
                           [&](const TileConfig& tile) {
                             return scheme_delta(s, e.layer.gemm, tile,
                                                 plan.dtype, model.device(),
                                                 layer_opts);
                           });
    row.analytic_tile = analytic.tile;
    const int tag = s == Scheme::none ? -1 : static_cast<int>(s);
    const CalibrationEntry* measured =
        calib.best_entry(e.layer.gemm, plan.dtype, tag);
    row.tile_covered = measured != nullptr;
    if (measured != nullptr) {
      ++rep.covered;
      row.measured_tile = measured->tile;
      row.tile_diverges = !(row.measured_tile == row.analytic_tile);
      if (row.tile_diverges) ++rep.tile_divergent;
    }
    rep.rows.push_back(std::move(row));
  }
  return rep;
}

Table divergence_table(const DivergenceReport& report) {
  Table t({"layer", "M", "N", "K", "scheme", "AI (paper)", "AI (meas)",
           "bound (model)", "bound (meas)", "tile (model)", "tile (meas)",
           "diverges"});
  for (const DivergenceRow& r : report.rows) {
    const char* diverges = "-";
    if (r.bound_diverges && r.tile_diverges) {
      diverges = "bound+tile";
    } else if (r.bound_diverges) {
      diverges = "bound";
    } else if (r.tile_diverges) {
      diverges = "tile";
    }
    t.add_row({r.layer, std::to_string(r.gemm.m), std::to_string(r.gemm.n),
               std::to_string(r.gemm.k), scheme_name(r.scheme),
               fmt_double(r.analytic_intensity, 1),
               fmt_double(r.measured_ai, 1),
               r.analytic_bandwidth_bound ? "bandwidth" : "compute",
               r.measured_memory_bound ? "bandwidth" : "compute",
               r.analytic_tile.name(),
               r.tile_covered ? r.measured_tile.name() : "(uncovered)",
               diverges});
  }
  return t;
}

}  // namespace aift
