// Google-benchmark microbenchmarks of the CPU-side substrate: functional
// GEMM execution, checksum generation, thread-level checks and FP16
// conversion throughput. These gauge the simulator itself (not the
// modeled GPU).

#include <benchmark/benchmark.h>

#include "common/rng.hpp"
#include "core/checksum.hpp"
#include "core/global_abft.hpp"
#include "core/thread_level_abft.hpp"
#include "gemm/functional.hpp"

namespace aift {
namespace {

const TileConfig kTile{64, 64, 32, 32, 32, 2};

struct Fixture {
  Matrix<half_t> a, b, c;
  Fixture(std::int64_t s) : a(s, s), b(s, s), c(s, s) {
    Rng rng(1);
    rng.fill_uniform(a);
    rng.fill_uniform(b);
    functional_gemm(a, b, c, kTile);
  }
};

void BM_FunctionalGemm(benchmark::State& state) {
  const std::int64_t s = state.range(0);
  Fixture f(s);
  // Packed once, as a session packs its weights: the loop times the kernel,
  // not the per-call pack of the one-shot overload.
  const PackedOperand packed = pack_operand(f.b, kTile);
  for (auto _ : state) {
    functional_gemm(f.a, packed, f.c, kTile);
    benchmark::DoNotOptimize(f.c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * s * s * s);
}
BENCHMARK(BM_FunctionalGemm)->Arg(64)->Arg(128)->Arg(256);

void BM_ColumnChecksum(benchmark::State& state) {
  const std::int64_t s = state.range(0);
  Fixture f(s);
  for (auto _ : state) {
    auto cs = column_checksum(f.a);
    benchmark::DoNotOptimize(cs.data());
  }
  state.SetItemsProcessed(state.iterations() * s * s);
}
BENCHMARK(BM_ColumnChecksum)->Arg(128)->Arg(512);

void BM_GlobalAbftCheck(benchmark::State& state) {
  const std::int64_t s = state.range(0);
  Fixture f(s);
  GlobalAbft abft(f.b);
  for (auto _ : state) {
    auto det = abft.check(f.a, f.c);
    benchmark::DoNotOptimize(det.fault_detected);
  }
}
BENCHMARK(BM_GlobalAbftCheck)->Arg(64)->Arg(256);

void BM_ThreadLevelCheck(benchmark::State& state) {
  const std::int64_t s = state.range(0);
  Fixture f(s);
  ThreadLevelAbft abft(kTile, ThreadAbftSide::one_sided);
  for (auto _ : state) {
    auto res = abft.check(f.a, f.b, f.c);
    benchmark::DoNotOptimize(res.fault_detected);
  }
}
BENCHMARK(BM_ThreadLevelCheck)->Arg(64)->Arg(128);

void BM_HalfConversionRoundTrip(benchmark::State& state) {
  std::vector<float> values(4096);
  Rng rng(2);
  for (auto& v : values) v = static_cast<float>(rng.uniform(-100, 100));
  for (auto _ : state) {
    std::uint32_t acc = 0;
    for (const float v : values) acc += f32_to_f16_bits(v);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * values.size());
}
BENCHMARK(BM_HalfConversionRoundTrip);

}  // namespace
}  // namespace aift

BENCHMARK_MAIN();
