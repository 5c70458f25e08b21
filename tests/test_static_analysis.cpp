// The static access-contract analyzer (analysis/static/): canonical engine
// contracts must analyze clean for all domain sizes, every seeded mutation
// must be killed, the contract-derived traffic must equal both perfmodel's
// closed form and the measured counters exactly, and the ghost depths the
// multi-domain decomposition exchanges must match what the contracts derive.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "analysis/static/analyzer.hpp"
#include "analysis/static/contract.hpp"
#include "analysis/static/traffic.hpp"
#include "analysis/static/verify.hpp"
#include "engines/engine_spec.hpp"
#include "engines/factory.hpp"
#include "engines/mr_engine.hpp"
#include "multidev/multi_domain.hpp"
#include "perfmodel/roofline.hpp"
#include "workloads/channel.hpp"

namespace mlbm {
namespace {

constexpr real_t kTau = real_t(0.6);

Geometry box2d() { return Geometry(Box{40, 24, 1}); }
Geometry box3d() { return Geometry(Box{16, 12, 10}); }

// ---------------------------------------------------------------------------
// Canonical contracts: clean, and self-describing.
// ---------------------------------------------------------------------------

TEST(StaticAnalysis, CanonicalContractsAnalyzeClean) {
  const auto check = [](const Engine<D3Q19>& eng) {
    const auto rep = analysis::analyze(eng.access_contract());
    EXPECT_TRUE(rep.clean()) << eng.pattern_name() << ": "
                             << to_string(rep.findings.front());
  };
  check(*make_st_engine<D3Q19>(StoragePrecision::kFP64, box3d(), kTau));
  check(*make_st_engine<D3Q19>(StoragePrecision::kFP64, box3d(), kTau,
                               CollisionScheme::kBGK, 256, StreamMode::kPush));
  check(*make_aa_engine<D3Q19>(StoragePrecision::kFP64, box3d(), kTau));
  check(*make_mr_engine<D3Q19>(StoragePrecision::kFP64, box3d(), kTau,
                               Regularization::kProjective));
  MrConfig circ;
  circ.storage = MomentStorage::kCircularShift;
  check(*make_mr_engine<D3Q19>(StoragePrecision::kFP64, box3d(), kTau,
                               Regularization::kRecursive, circ));
}

TEST(StaticAnalysis, ReferenceEngineDeclaresNothing) {
  // Host engines launch no gpusim kernels; their contract is empty and the
  // analyzer accepts it without findings.
  analysis::EngineContract empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_TRUE(analysis::analyze(empty).clean());
}

TEST(StaticAnalysis, ContractReflectsStreamModeAndPrecision) {
  const auto pull =
      make_st_engine<D2Q9>(StoragePrecision::kFP64, box2d(), kTau)
          ->access_contract();
  const auto push = make_st_engine<D2Q9>(StoragePrecision::kFP32, box2d(),
                                         kTau, CollisionScheme::kBGK, 256,
                                         StreamMode::kPush)
                        ->access_contract();
  EXPECT_EQ(pull.pattern, "ST");
  EXPECT_EQ(pull.elem_bytes, 8);
  EXPECT_EQ(push.pattern, "ST-push");
  EXPECT_EQ(push.elem_bytes, 4);
  // Pull: the span access is the write; push: it is the read.
  EXPECT_TRUE(pull.node_kernels.at(0).accesses.back().write);
  EXPECT_TRUE(pull.node_kernels.at(0).accesses.back().span);
  EXPECT_FALSE(push.node_kernels.at(0).accesses.front().write);
  EXPECT_TRUE(push.node_kernels.at(0).accesses.front().span);
}

// ---------------------------------------------------------------------------
// Ghost depth: contract derivation == what the decomposition exchanges.
// ---------------------------------------------------------------------------

TEST(StaticAnalysis, RequiredGhostDepthPerPattern) {
  const auto depth = [](const auto& eng) {
    return analysis::required_ghost_depth(eng->access_contract());
  };
  EXPECT_EQ(depth(make_st_engine<D2Q9>(StoragePrecision::kFP64, box2d(),
                                       kTau)),
            1);
  EXPECT_EQ(depth(make_st_engine<D2Q9>(StoragePrecision::kFP64, box2d(),
                                       kTau, CollisionScheme::kBGK, 256,
                                       StreamMode::kPush)),
            1);
  // AA's odd step reads x-1 and writes x+1: reach 1 + 1 = 2.
  EXPECT_EQ(depth(make_aa_engine<D2Q9>(StoragePrecision::kFP64, box2d(),
                                       kTau)),
            2);
  EXPECT_EQ(depth(make_mr_engine<D2Q9>(StoragePrecision::kFP64, box2d(),
                                       kTau, Regularization::kProjective)),
            1);
}

TEST(StaticAnalysis, MultiDomainExchangesTheDerivedDepth) {
  // The decomposition's ghost_depth comes from EngineSpec::ghost_depth(); the
  // analyzer's derived requirement must reproduce it for every pattern
  // (ST/MR exchange 1 plane, AA and EP exchange 2). The channel's x faces
  // are walled: AA takes no physical inlet or outlet.
  Geometry geo = Channel<D2Q9>::create(24, 6, 1, 0.8, 0.04).geo;
  geo.bc.set_axis(0, FaceBC::kWall);
  for (const EngineSpec& spec : EngineSpec::all()) {
    if (spec.pattern == EngineSpec::Pattern::kRef) continue;  // no contract
    SCOPED_TRACE(spec.to_string());
    const auto multi = make_multi_engine<D2Q9>(spec, geo, 0.8, 2);
    EXPECT_EQ(analysis::required_ghost_depth(
                  multi->device_engine(0).access_contract()),
              multi->ghost_depth());
  }
}

// ---------------------------------------------------------------------------
// Seeded mutations: each hazard class is caught by the matching check.
// ---------------------------------------------------------------------------

analysis::EngineContract circ_contract() {
  return analysis::mr_contract(analysis::make_lattice_desc<D3Q19>(), 8,
                               /*projective=*/true, /*single_buffer=*/true,
                               32, 8, 1);
}

TEST(StaticAnalysis, MutationFindingClasses) {
  const auto finding_of = [](analysis::EngineContract c,
                             const std::string& mutation) {
    analysis::apply_mutation(c, mutation);
    return analysis::analyze(c);
  };
  // Circular-shift ring discipline.
  EXPECT_TRUE(
      finding_of(circ_contract(), "shifted-ring-window-up").has("ring-stale"));
  EXPECT_TRUE(finding_of(circ_contract(), "shifted-ring-window-down")
                  .has("ring-clobber"));
  EXPECT_TRUE(finding_of(circ_contract(), "short-write-behind")
                  .has("ring-dead-read"));
  EXPECT_TRUE(finding_of(circ_contract(), "dropped-barrier-phase")
                  .has("ring-barrier"));
  EXPECT_TRUE(
      finding_of(circ_contract(), "shrunk-cross-halo").has("ring-halo"));
  EXPECT_TRUE(
      finding_of(circ_contract(), "shrunk-shared-ring").has("ring-capacity"));
  EXPECT_TRUE(
      finding_of(circ_contract(), "shrunk-ghost-depth").has("ghost-depth"));
  EXPECT_TRUE(
      finding_of(circ_contract(), "span-overrun").has("span-bounds"));
  // AA's in-place safety: flipping one gather offset breaks reader==writer.
  const auto aa = analysis::aa_contract(analysis::make_lattice_desc<D2Q9>(), 8);
  EXPECT_TRUE(finding_of(aa, "skewed-inplace-gather").has("node-race"));
  EXPECT_TRUE(finding_of(aa, "shrunk-ghost-depth").has("ghost-depth"));
  // Unknown / inapplicable names are typed errors, not silent no-ops.
  auto st = analysis::st_contract(analysis::make_lattice_desc<D2Q9>(), 8,
                                  /*push=*/false);
  EXPECT_THROW(analysis::apply_mutation(st, "dropped-barrier-phase"),
               ConfigError);
}

TEST(StaticAnalysis, LiveEngineMutationIsVisibleInItsContract) {
  // The MR engine's dynamic FaultMutation hook (used to validate the
  // sanitizer) flows into access_contract(), so the static analyzer flags
  // the same seeded bug the dynamic checks catch — without stepping.
  MrConfig circ;
  circ.storage = MomentStorage::kCircularShift;
  MrEngine<D3Q19, double> eng(box3d(), kTau, Regularization::kProjective,
                              circ);
  EXPECT_TRUE(analysis::analyze(eng.access_contract()).clean());
  MrEngine<D3Q19, double>::FaultMutation m;
  m.skip_phase_sync = true;
  eng.set_fault_mutation_for_test(m);
  EXPECT_TRUE(analysis::analyze(eng.access_contract()).has("ring-barrier"));
  m.skip_phase_sync = false;
  m.ring_shift_bias = 1;
  eng.set_fault_mutation_for_test(m);
  EXPECT_TRUE(analysis::analyze(eng.access_contract()).has("ring-stale"));
}

// ---------------------------------------------------------------------------
// Traffic: derived == perfmodel == measured.
// ---------------------------------------------------------------------------

TEST(StaticAnalysis, DerivedBytesPerFlupMatchesPerfmodel) {
  const auto lat = perf::lattice_info<D3Q19>();
  const auto st = analysis::st_contract(
      analysis::make_lattice_desc<D3Q19>(), 8, /*push=*/false);
  EXPECT_EQ(analysis::derived_bytes_per_flup(st),
            perf::bytes_per_flup(perf::Pattern::kST, lat, 8.0));
  const auto aa =
      analysis::aa_contract(analysis::make_lattice_desc<D3Q19>(), 4);
  EXPECT_EQ(analysis::derived_bytes_per_flup(aa),
            perf::aa_bytes_per_flup(lat, 4.0));
  const auto mr = analysis::mr_contract(
      analysis::make_lattice_desc<D3Q19>(), 8, /*projective=*/false,
      /*single_buffer=*/false, 32, 8, 1);
  EXPECT_EQ(analysis::derived_bytes_per_flup(mr),
            perf::bytes_per_flup(perf::Pattern::kMRR, lat, 8.0));
}

TEST(StaticAnalysis, DerivedStepTrafficMatchesMeasuredCounters) {
  // Spot probes (the full matrix is the mlbm-verify gate): one node-kernel
  // engine with a parity cycle and one ring engine with ragged tiles.
  const auto probe = [](Engine<D3Q19>& eng, int steps) {
    const auto c = eng.access_contract();
    const Box& b = eng.geometry().box;
    eng.initialize([](int, int, int) {
      return equilibrium_moments<D3Q19>(real_t(1), {});
    });
    eng.set_unique_read_tracking(true);
    for (int s = 0; s < steps; ++s) {
      eng.clear_unique_reads();
      const auto before = eng.profiler()->total_traffic();
      eng.step();
      const auto d = eng.profiler()->total_traffic() - before;
      const auto want = analysis::derive_step_traffic(c, b.nx, b.ny, b.nz, s);
      EXPECT_EQ(d.bytes_read, want.bytes_read) << "step " << s;
      EXPECT_EQ(d.bytes_written, want.bytes_written) << "step " << s;
      EXPECT_EQ(d.reads, want.reads) << "step " << s;
      EXPECT_EQ(d.writes, want.writes) << "step " << s;
      EXPECT_EQ(eng.unique_read_bytes(), want.unique_read_bytes)
          << "step " << s;
    }
  };
  auto aa = make_aa_engine<D3Q19>(StoragePrecision::kFP64, box3d(), kTau);
  probe(*aa, 2);
  MrConfig circ;
  circ.storage = MomentStorage::kCircularShift;
  auto mr = make_mr_engine<D3Q19>(StoragePrecision::kFP32, box3d(), kTau,
                                  Regularization::kProjective, circ);
  probe(*mr, 2);
}

// ---------------------------------------------------------------------------
// The full verify matrix: clean, and 100% mutation kill.
// ---------------------------------------------------------------------------

TEST(StaticAnalysis, VerifyMatrixCleanAndAllMutantsKilled) {
  const auto rep = analysis::run_verify_matrix();
  EXPECT_TRUE(rep.ok()) << to_string(rep);
  EXPECT_GT(rep.mutations.size(), 0u);
  EXPECT_EQ(rep.mutations_killed(), static_cast<int>(rep.mutations.size()));
}

TEST(StaticAnalysis, VerifyCatchesASeededMutation) {
  analysis::VerifyOptions opt;
  opt.mutate = "shifted-ring-window-up";
  const auto rep = analysis::run_verify_matrix(opt);
  EXPECT_FALSE(rep.ok());
}

}  // namespace
}  // namespace mlbm
