// Factory dispatch matrix: every engine spec (EngineSpec::all(), pattern x
// storage precision) x execution mode must construct, advance, and survive a
// raw-state checkpoint round trip. This is the CLI surface's contract — what
// `--pattern X --precision Y` plus MLBM_EXEC can select must all be live code
// paths, not just the defaults the physics tests happen to exercise. The
// spec grammar itself must round-trip and reject bad input with a typed
// error that names the valid tokens.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "engines/engine_spec.hpp"
#include "resilience/snapshot.hpp"
#include "workloads/taylor_green.hpp"

namespace mlbm {
namespace {

constexpr real_t kTau = 0.8;

template <class L>
Geometry periodic_geo() {
  Box b;
  b.nx = 12;
  b.ny = 10;
  b.nz = L::D == 3 ? 6 : 1;
  Geometry geo(b);
  geo.bc.set_axis(0, FaceBC::kPeriodic);
  geo.bc.set_axis(1, FaceBC::kPeriodic);
  geo.bc.set_axis(2, FaceBC::kPeriodic);
  return geo;
}

template <class L>
typename Engine<L>::InitFn smooth_init() {
  return [](int x, int y, int z) {
    std::array<real_t, L::D> u{};
    u[0] = real_t(0.02) * std::sin(real_t(0.5) * y + real_t(0.2) * z);
    u[1] = real_t(0.015) * std::cos(real_t(0.4) * x);
    return equilibrium_moments<L>(
        real_t(1) + real_t(0.01) * std::sin(real_t(0.4) * x), u);
  };
}

template <class L>
std::unique_ptr<Engine<L>> build(std::string_view spec, ExecMode exec) {
  return make_engine<L>(EngineSpec::parse(spec), periodic_geo<L>(), kTau,
                        exec);
}

/// Construct, step once, checkpoint, diverge, restore, replay: the replayed
/// window must reproduce the recorded trajectory exactly (raw-path restore).
template <class L>
void construct_step_roundtrip(const EngineSpec& spec, ExecMode exec) {
  const std::string pattern = spec.to_string();
  SCOPED_TRACE(pattern + " " + to_string(exec) + " " + L::name());
  auto eng = make_engine<L>(spec, periodic_geo<L>(), kTau, exec);
  ASSERT_NE(eng, nullptr);
  eng->initialize(smooth_init<L>());
  eng->step();
  EXPECT_EQ(eng->time(), 1);

  const auto snap = resilience::capture_state<L>(*eng, 1);
  // The distribution engines all serialize raw device state; MR restores
  // through its native moment payload instead (see snapshot.hpp).
  const bool raw = !snap.raw_tag.empty();
  if (!spec.is_mr()) {
    ASSERT_TRUE(raw) << pattern << " lost raw-state serialization";
  }
  eng->run(2);
  std::vector<Moments<L>> want;
  const Box& b = eng->geometry().box;
  for (int z = 0; z < b.nz; ++z) {
    for (int y = 0; y < b.ny; ++y) {
      for (int x = 0; x < b.nx; ++x) want.push_back(eng->moments_at(x, y, z));
    }
  }

  resilience::restore_state<L>(*eng, snap);
  EXPECT_EQ(eng->time(), 1);
  eng->run(2);
  std::size_t k = 0;
  for (int z = 0; z < b.nz; ++z) {
    for (int y = 0; y < b.ny; ++y) {
      for (int x = 0; x < b.nx; ++x) {
        const auto got = eng->moments_at(x, y, z);
        if (raw) {
          // Raw restore is exact: the replay is bit-identical.
          ASSERT_EQ(got.rho, want[k].rho) << "at " << x << "," << y << ","
                                          << z;
          for (int c = 0; c < L::D; ++c) {
            ASSERT_EQ(got.u[static_cast<std::size_t>(c)],
                      want[k].u[static_cast<std::size_t>(c)]);
          }
        } else {
          const double tol =
              spec.precision == StoragePrecision::kFP32 ? 1e-5 : 1e-12;
          ASSERT_NEAR(got.rho, want[k].rho, tol)
              << "at " << x << "," << y << "," << z;
          for (int c = 0; c < L::D; ++c) {
            ASSERT_NEAR(got.u[static_cast<std::size_t>(c)],
                        want[k].u[static_cast<std::size_t>(c)], tol);
          }
        }
        ++k;
      }
    }
  }
}

template <class L>
void full_matrix() {
  for (const EngineSpec& spec : EngineSpec::all()) {
    for (const ExecMode exec : {ExecMode::kScalar, ExecMode::kLanes}) {
      construct_step_roundtrip<L>(spec, exec);
    }
  }
}

TEST(FactoryMatrix, AllPatternPrecisionExecCombinationsD2Q9) {
  full_matrix<D2Q9>();
}

TEST(FactoryMatrix, AllPatternPrecisionExecCombinationsD3Q19) {
  full_matrix<D3Q19>();
}

TEST(FactoryMatrix, PatternNamesFollowTheFactories) {
  EXPECT_STREQ(build<D2Q9>("st", ExecMode::kScalar)->pattern_name(), "ST");
  EXPECT_STREQ(build<D2Q9>("aa:fp32", ExecMode::kScalar)->pattern_name(),
               "ST-AA");
  EXPECT_STREQ(build<D2Q9>("ep:fp32", ExecMode::kLanes)->pattern_name(),
               "EP");
}

TEST(FactoryMatrix, SpecGrammarRoundTrips) {
  std::vector<EngineSpec> specs = EngineSpec::all();
  specs.push_back(EngineSpec::parse("mr-r:fp64:16x1x4"));
  for (const EngineSpec& spec : specs) {
    EXPECT_EQ(EngineSpec::parse(spec.to_string()), spec) << spec.to_string();
  }
  EXPECT_EQ(specs.back().to_string(), "mr-r:fp64:16x1x4");
  EXPECT_EQ(EngineSpec::parse("ep:fp32").to_string(), "ep:fp32");
  EXPECT_EQ(EngineSpec::parse("mr-p:fp64").to_string(), "mr-p");
  EXPECT_EQ(EngineSpec::parse("aa").ghost_depth(), 2);
  EXPECT_EQ(EngineSpec::parse("ep").perf_pattern(), perf::Pattern::kST);
}

TEST(FactoryMatrix, SpecGrammarRejectsWithTheValidTokens) {
  for (const char* bad :
       {"bogus", "ep:fp16", "mr-p:fp64:0x1x1", "ref:fp32", "st:fp64:8x8x1",
        "mr-p:fp64:8x8", "mr-p:fp64:1x1x1:x", ""}) {
    try {
      (void)EngineSpec::parse(bad);
      ADD_FAILURE() << bad << " parsed";
    } catch (const ConfigError& e) {
      const std::string msg = e.what();
      for (const char* token : {"st-push", "aa", "ep", "mr-p", "mr-r", "ref",
                                "fp64", "fp32", "XxYxS"}) {
        EXPECT_NE(msg.find(token), std::string::npos) << bad << ": " << msg;
      }
    }
  }
}

}  // namespace
}  // namespace mlbm
