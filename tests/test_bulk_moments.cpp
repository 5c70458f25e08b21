// Bulk state access: Engine::read_moments/write_moments over node boxes must
// agree bit for bit with the one-node wrappers, for every engine spec on a
// dense periodic box, a walled cavity, the tile-sparse porous plug and 2- and
// 3-slab decompositions in lockstep and overlap mode. A whole-box write and
// row-by-row writes must leave identical raw state (ghost bands included),
// solids are skipped on write and read back as solid_moments(), and a box
// outside the domain or a span of the wrong length raises a typed error.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "engines/engine_spec.hpp"
#include "multidev/multi_domain.hpp"
#include "util/error.hpp"
#include "workloads/cavity.hpp"
#include "workloads/porous_plug.hpp"
#include "workloads/taylor_green.hpp"

namespace mlbm {
namespace {

constexpr real_t kTau = 0.8;

template <class L>
bool same_bits(const Moments<L>& a, const Moments<L>& b) {
  return std::memcmp(&a.rho, &b.rho, sizeof(a.rho)) == 0 &&
         std::memcmp(a.u.data(), b.u.data(), sizeof(a.u)) == 0 &&
         std::memcmp(a.pi.data(), b.pi.data(), sizeof(a.pi)) == 0;
}

/// A smooth non-equilibrium start (pi carries a shear part), so reads and
/// writes exercise every moment component.
template <class L>
Moments<L> smooth_state(int x, int y, int z) {
  std::array<real_t, L::D> u{};
  u[0] = real_t(0.02) * std::sin(real_t(0.5) * y + real_t(0.3) * z);
  u[1] = real_t(0.015) * std::cos(real_t(0.4) * x);
  Moments<L> m = equilibrium_moments<L>(
      real_t(1) + real_t(0.01) * std::sin(real_t(0.3) * x + real_t(0.2) * y),
      u);
  m.pi[1] += real_t(1e-4) * std::cos(real_t(0.7) * (x + y + z));
  return m;
}

/// Builds one engine of a case: spec, geometry, optional decomposition.
template <class L>
using Builder = std::function<std::unique_ptr<Engine<L>>()>;

template <class L>
void expect_reads_match(const Engine<L>& eng, const NodeRange& r,
                        const std::string& what) {
  SCOPED_TRACE(what);
  std::vector<Moments<L>> got(r.size());
  eng.read_moments(r, got);
  std::size_t k = 0;
  bool ok = true;
  r.each([&](int x, int y, int z) {
    if (ok && !same_bits(got[k], eng.moments_at(x, y, z))) {
      ADD_FAILURE() << "node " << x << "," << y << "," << z;
      ok = false;
    }
    ++k;
  });
}

template <class L>
std::vector<real_t> raw_blob(const Engine<L>& eng) {
  std::vector<real_t> blob;
  eng.serialize_raw_state(blob);
  return blob;
}

template <class L>
std::vector<Moments<L>> read_all(const Engine<L>& eng) {
  const Box& b = eng.geometry().box;
  std::vector<Moments<L>> all(static_cast<std::size_t>(b.cells()));
  eng.read_moments(NodeRange{0, b.nx, 0, b.ny, 0, b.nz}, all);
  return all;
}

/// Every check of one engine configuration; `make` yields two identical
/// engines in the same state.
template <class L>
void check_case(const Builder<L>& make, const std::string& tag) {
  SCOPED_TRACE(tag);
  std::unique_ptr<Engine<L>> a = make();
  const Box& b = a->geometry().box;
  const int z0 = L::D == 3 ? 1 : 0;
  const int z1 = L::D == 3 ? b.nz - 1 : 1;

  // Reads: whole box, one x-plane, an interior sub-box whose x-extent
  // crosses every slab interface, one node.
  expect_reads_match(*a, NodeRange{0, b.nx, 0, b.ny, 0, b.nz}, "whole box");
  expect_reads_match(*a, NodeRange::x_planes(b, b.nx / 2, b.nx / 2 + 1),
                     "x-plane");
  expect_reads_match(*a, NodeRange{1, b.nx - 1, 1, b.ny - 1, z0, z1},
                     "sub-box");
  expect_reads_match(*a, NodeRange::node(b.nx / 3, b.ny / 2, b.nz / 2),
                     "one node");

  // Writes: a perturbed field, whole box into `a`, row by row into `b`.
  // Solid entries carry garbage in one and solid_moments() in the other:
  // a write must skip them either way.
  std::unique_ptr<Engine<L>> c = make();
  const Geometry& geo = a->geometry();
  std::vector<Moments<L>> field = read_all(*a);
  std::vector<Moments<L>> rows_field = field;
  std::size_t k = 0;
  NodeRange{0, b.nx, 0, b.ny, 0, b.nz}.each([&](int x, int y, int z) {
    if (geo.solid(x, y, z)) {
      field[k].rho = real_t(7);
      field[k].u[0] = real_t(0.5);
      rows_field[k] = solid_moments<L>();
    } else {
      field[k].u[0] *= real_t(1.01);
      field[k].pi[0] += real_t(1e-5);
      rows_field[k] = field[k];
    }
    ++k;
  });
  a->write_moments(NodeRange{0, b.nx, 0, b.ny, 0, b.nz}, field);
  const auto row_n = static_cast<std::size_t>(b.nx);
  for (int z = 0; z < b.nz; ++z) {
    for (int y = 0; y < b.ny; ++y) {
      const std::size_t at =
          (static_cast<std::size_t>(z) * static_cast<std::size_t>(b.ny) +
           static_cast<std::size_t>(y)) *
          row_n;
      c->write_moments(NodeRange::row(0, b.nx, y, z),
                       std::span<const Moments<L>>(rows_field)
                           .subspan(at, row_n));
    }
  }
  EXPECT_EQ(raw_blob(*a), raw_blob(*c)) << "raw state after whole vs rows";
  const std::vector<Moments<L>> back_a = read_all(*a);
  const std::vector<Moments<L>> back_c = read_all(*c);
  k = 0;
  bool ok = true;
  NodeRange{0, b.nx, 0, b.ny, 0, b.nz}.each([&](int x, int y, int z) {
    if (ok && !same_bits(back_a[k], back_c[k])) {
      ADD_FAILURE() << "read-back differs at " << x << "," << y << "," << z;
      ok = false;
    }
    if (ok && geo.solid(x, y, z) &&
        !same_bits(back_a[k], solid_moments<L>())) {
      ADD_FAILURE() << "solid node " << x << "," << y << "," << z
                    << " does not read as solid_moments()";
      ok = false;
    }
    ++k;
  });

  // Typed errors: boxes outside the domain, inverted boxes, wrong spans.
  std::vector<Moments<L>> one(1);
  const NodeRange bad[] = {
      NodeRange::node(-1, 0, 0),
      NodeRange::node(b.nx, 0, 0),
      NodeRange::node(0, b.ny, 0),
      NodeRange::node(0, 0, b.nz),
      NodeRange{2, 1, 0, 1, 0, 1},
  };
  for (const NodeRange& r : bad) {
    EXPECT_THROW(a->read_moments(r, one), OutOfRangeError);
    EXPECT_THROW(a->write_moments(r, one), OutOfRangeError);
  }
  std::vector<Moments<L>> two(2);
  EXPECT_THROW(a->read_moments(NodeRange::node(0, 0, 0), two), ConfigError);
  EXPECT_THROW(a->write_moments(NodeRange::node(0, 0, 0), two), ConfigError);
  try {
    a->read_moments(NodeRange::row(0, b.nx, 0, 0), one);
    ADD_FAILURE() << "short span accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kConfig);
  }
}

template <class L>
Geometry taylor_green_geo() {
  return TaylorGreen<L>::create(L::D == 2 ? 20 : 12, 0.03,
                                L::D == 2 ? 1 : 8)
      .geo;
}

template <class L>
Geometry cavity_geo() {
  return LidDrivenCavity<L>::create(L::D == 2 ? 24 : 12, 0.05).geo;
}

/// Steps the engine three times from the smooth start, so AA sits at its odd
/// parity and the ping-pong engines on their second lattice.
template <class L>
std::unique_ptr<Engine<L>> stepped(std::unique_ptr<Engine<L>> e) {
  e->initialize(smooth_state<L>);
  e->run(3);
  return e;
}

template <class L>
void dense_case(const Geometry& geo, const std::string& name) {
  for (const EngineSpec& spec : EngineSpec::all()) {
    check_case<L>(
        [&] { return stepped<L>(make_engine<L>(spec, geo, kTau)); },
        name + " " + spec.to_string() + " " + L::name());
  }
}

template <class L>
void porous_case() {
  const auto plug =
      L::D == 2 ? PorousPlug<L>::create(24, 12, 1, kTau, 0.02, 0.3, 7)
                : PorousPlug<L>::create(16, 8, 6, kTau, 0.02, 0.3, 7, 3);
  ASSERT_TRUE(plug.geo.sparse());
  for (const EngineSpec& spec : EngineSpec::all()) {
    // AA cannot run a physical inlet/outlet, and push streaming has no
    // sparse path.
    if (spec.pattern == EngineSpec::Pattern::kAA ||
        spec.pattern == EngineSpec::Pattern::kSTPush) {
      continue;
    }
    check_case<L>(
        [&] {
          auto e = make_engine<L>(spec, plug.geo, kTau);
          plug.attach(*e);
          e->run(3);
          return e;
        },
        "porous " + spec.to_string() + " " + L::name());
  }
}

template <class L>
void slab_case() {
  const Geometry geo = cavity_geo<L>();
  for (const EngineSpec& spec : EngineSpec::all()) {
    for (const int ndev : {2, 3}) {
      for (const ExchangeMode mode :
           {ExchangeMode::kLockstep, ExchangeMode::kOverlap}) {
        check_case<L>(
            [&]() -> std::unique_ptr<Engine<L>> {
              auto md = make_multi_engine<L>(spec, geo, kTau, ndev);
              md->set_exchange_mode(mode);
              return stepped<L>(std::move(md));
            },
            spec.to_string() + " " + std::to_string(ndev) + " slabs " +
                to_string(mode) + " " + L::name());
      }
    }
  }
}

TEST(BulkMoments, DenseTaylorGreenD2Q9) {
  dense_case<D2Q9>(taylor_green_geo<D2Q9>(), "taylor-green");
}
TEST(BulkMoments, DenseTaylorGreenD3Q19) {
  dense_case<D3Q19>(taylor_green_geo<D3Q19>(), "taylor-green");
}
TEST(BulkMoments, CavityD2Q9) { dense_case<D2Q9>(cavity_geo<D2Q9>(), "cavity"); }
TEST(BulkMoments, CavityD3Q19) {
  dense_case<D3Q19>(cavity_geo<D3Q19>(), "cavity");
}
TEST(BulkMoments, SparsePorousPlugD2Q9) { porous_case<D2Q9>(); }
TEST(BulkMoments, SparsePorousPlugD3Q19) { porous_case<D3Q19>(); }
TEST(BulkMoments, SlabsD2Q9) { slab_case<D2Q9>(); }
TEST(BulkMoments, SlabsD3Q19) { slab_case<D3Q19>(); }

}  // namespace
}  // namespace mlbm
