// Golden manifest: absolute behaviour pinned in a checked-in file.
//
// Every bit-identity suite compares two execution modes of one build
// (batched vs sequential, packed vs pack-per-call, parallel vs serial), so
// a change that moves every mode alike — a different activation formula, a
// compiler flag such as -ffp-contract, a cost-model edit that flips a
// scheme choice — passes all of them. This program recomputes, for each
// (model, policy) entry below, FNV-1a 64 digests of the serialized T4 plan,
// the final output bytes and the per-layer trace of one fixed-input run,
// plus the ledger of a fixed-seed model campaign, and compares them with
// tests/golden/manifest.txt.
//
// Usage:
//   golden_manifest <manifest>            compare; exit 1 on any difference
//   golden_manifest <manifest> --rebless  rewrite the manifest
//
// A change that re-blesses lists every changed entry and its reason in
// CHANGES.md.

#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "fault/model_campaign.hpp"
#include "nn/zoo/zoo.hpp"
#include "runtime/artifact_io.hpp"
#include "runtime/pipeline.hpp"
#include "runtime/plan_io.hpp"
#include "runtime/session.hpp"

namespace aift {
namespace {

constexpr std::uint64_t kInputSeed = 7;
constexpr std::uint64_t kCampaignSeed = 42;

struct ModelEntry {
  const char* name;
  Model (*build)();
  int campaign_trials;
};

// Batch 1 throughout. A forward pass of Amsterdam does ~30x Coral's GEMM
// work, so its campaign runs fewer trials: the whole manifest takes a few
// seconds in a Release build.
const ModelEntry kModels[] = {
    {"MLP-Bottom(1)", [] { return zoo::dlrm_mlp_bottom(1); }, 200},
    {"MLP-Top(1)", [] { return zoo::dlrm_mlp_top(1); }, 200},
    {"Coral(1)", [] { return zoo::noscope_coral(1); }, 120},
    {"Amsterdam(1)", [] { return zoo::noscope_amsterdam(1); }, 32},
};

struct PolicyEntry {
  const char* key;  // one token, so a manifest line splits on spaces
  ProtectionPolicy policy;
};

const PolicyEntry kPolicies[] = {
    {"none", ProtectionPolicy::none},
    {"global", ProtectionPolicy::global_abft},
    {"thread-level", ProtectionPolicy::thread_level},
    {"guided", ProtectionPolicy::intensity_guided},
};

void put_u64(std::string& bytes, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    bytes.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

std::string hex64(std::uint64_t v) {
  static const char* const kDigits = "0123456789abcdef";
  std::string s(16, '0');
  for (int i = 15; i >= 0; --i, v >>= 4) s[i] = kDigits[v & 0xFu];
  return s;
}

std::uint64_t output_digest(const Matrix<half_t>& out) {
  std::string bytes;
  put_u64(bytes, static_cast<std::uint64_t>(out.rows()));
  put_u64(bytes, static_cast<std::uint64_t>(out.cols()));
  for (std::int64_t r = 0; r < out.rows(); ++r) {
    for (std::int64_t c = 0; c < out.cols(); ++c) {
      const std::uint16_t bits = out(r, c).bits();
      bytes.push_back(static_cast<char>(bits & 0xFFu));
      bytes.push_back(static_cast<char>(bits >> 8));
    }
  }
  return artifact::fnv1a(bytes);
}

std::uint64_t trace_digest(const std::vector<LayerTrace>& layers) {
  std::string bytes;
  for (const LayerTrace& l : layers) {
    bytes += l.name;
    bytes.push_back('\0');
    put_u64(bytes, static_cast<std::uint64_t>(l.scheme));
    put_u64(bytes, static_cast<std::uint64_t>(l.executions));
    put_u64(bytes, static_cast<std::uint64_t>(l.detections));
    put_u64(bytes, l.unrecovered ? 1u : 0u);
    std::uint64_t digest_bits = 0;
    std::memcpy(&digest_bits, &l.output_digest, sizeof digest_bits);
    put_u64(bytes, digest_bits);
  }
  return artifact::fnv1a(bytes);
}

std::vector<std::string> compute_manifest() {
  const GemmCostModel cost(devices::t4());
  const ProtectedPipeline pipe(cost);
  std::vector<std::string> lines;
  for (const ModelEntry& m : kModels) {
    const Model model = m.build();
    for (const PolicyEntry& p : kPolicies) {
      const InferencePlan plan = pipe.plan(model, p.policy);
      const InferenceSession session(plan);
      const SessionResult run = session.run(session.make_input(kInputSeed));

      ModelCampaignConfig cfg;
      cfg.trials = m.campaign_trials;
      cfg.seed = kCampaignSeed;
      cfg.input_seed = kInputSeed;
      const ModelCampaignStats ledger = run_model_campaign(session, cfg);

      std::string line = std::string(m.name) + " " + p.key;
      line += " plan=" + hex64(artifact::fnv1a(serialize_plan(plan)));
      line += " output=" + hex64(output_digest(run.output));
      line += " trace=" + hex64(trace_digest(run.layers));
      line += " trials=" + std::to_string(ledger.trials);
      line += " detected=" + std::to_string(ledger.detected);
      line += " recovered=" + std::to_string(ledger.recovered);
      line += " unrecovered=" + std::to_string(ledger.unrecovered);
      line += " masked=" + std::to_string(ledger.masked);
      line += " sdc=" + std::to_string(ledger.sdc);
      line += " detected_corrupted=" +
              std::to_string(ledger.detected_corrupted);
      lines.push_back(line);
    }
  }
  return lines;
}

const char* const kHeader =
    "# Golden manifest: one line per (model, policy) entry.\n"
    "# plan/output/trace are FNV-1a 64 digests of the serialized T4 plan,\n"
    "# the final output bytes and the per-layer trace of one run on\n"
    "# make_input(7); the rest is the ledger of run_model_campaign with\n"
    "# seed 42. Regenerate with: golden_manifest <this file> --rebless\n";

std::vector<std::string> read_entries(std::istream& in) {
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.front() != '#') lines.push_back(line);
  }
  return lines;
}

}  // namespace
}  // namespace aift

int main(int argc, char** argv) {
  if (argc < 2 || argc > 3 ||
      (argc == 3 && std::strcmp(argv[2], "--rebless") != 0)) {
    std::cerr << "usage: " << argv[0] << " <manifest> [--rebless]\n";
    return 2;
  }
  const std::string path = argv[1];
  const std::vector<std::string> got = aift::compute_manifest();

  if (argc == 3) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << aift::kHeader;
    for (const auto& line : got) out << line << '\n';
    if (!out) {
      std::cerr << "cannot write " << path << "\n";
      return 2;
    }
    std::cout << "reblessed " << got.size() << " entries into " << path
              << "\n";
    return 0;
  }

  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::cerr << "cannot read " << path << "\n";
    return 2;
  }
  const std::vector<std::string> want = aift::read_entries(in);
  int mismatches = 0;
  for (std::size_t i = 0; i < got.size() || i < want.size(); ++i) {
    const std::string g = i < got.size() ? got[i] : "<missing>";
    const std::string w = i < want.size() ? want[i] : "<missing>";
    if (g != w) {
      ++mismatches;
      std::cout << "MISMATCH entry " << i << "\n  manifest: " << w
                << "\n  computed: " << g << "\n";
    }
  }
  if (mismatches > 0) {
    std::cout << mismatches << " of " << want.size()
              << " manifest entries differ\n";
    return 1;
  }
  std::cout << "golden manifest: " << got.size() << " entries match\n";
  return 0;
}
