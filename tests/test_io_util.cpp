// I/O (VTK, checkpoints) and utility modules (CLI, CSV, tables, timer).
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "engines/mr_engine.hpp"
#include "engines/st_engine.hpp"
#include "io/checkpoint.hpp"
#include "io/vtk_writer.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"
#include "workloads/taylor_green.hpp"
#include "tmp_path.hpp"

namespace mlbm {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// ------------------------------------------------------------------- VTK

TEST(Vtk, WritesWellFormedStructuredPoints) {
  const auto tg = TaylorGreen<D2Q9>::create(8, 0.02);
  StEngine<D2Q9> e(tg.geo, 0.8);
  tg.attach(e);
  const std::string path = tmp_path("mlbm_test.vtk");
  write_vtk(e, path);
  const std::string body = slurp(path);
  EXPECT_NE(body.find("# vtk DataFile Version 3.0"), std::string::npos);
  EXPECT_NE(body.find("DIMENSIONS 8 8 1"), std::string::npos);
  EXPECT_NE(body.find("POINT_DATA 64"), std::string::npos);
  EXPECT_NE(body.find("SCALARS density double 1"), std::string::npos);
  EXPECT_NE(body.find("VECTORS velocity double"), std::string::npos);
  std::filesystem::remove(path);
}

TEST(Vtk, FailsOnUnwritablePath) {
  const auto tg = TaylorGreen<D2Q9>::create(8, 0.02);
  StEngine<D2Q9> e(tg.geo, 0.8);
  tg.attach(e);
  EXPECT_THROW(write_vtk(e, "/nonexistent_dir_xyz/out.vtk"),
               std::runtime_error);
}

TEST(Vtk, DenseGeometryCarriesNoNodeKindArray) {
  const auto tg = TaylorGreen<D2Q9>::create(8, 0.02);
  StEngine<D2Q9> e(tg.geo, 0.8);
  tg.attach(e);
  const std::string path = tmp_path("mlbm_dense.vtk");
  write_vtk(e, path);
  EXPECT_EQ(slurp(path).find("node_kind"), std::string::npos);
  std::filesystem::remove(path);
}

/// Splits `body` into lines, returns the `n` lines following the line that
/// contains `header` (skipping the LOOKUP_TABLE line for scalars).
std::vector<std::string> section_rows(const std::string& body,
                                      const std::string& header, int skip,
                                      int n) {
  std::vector<std::string> lines;
  std::stringstream ss(body);
  for (std::string l; std::getline(ss, l);) lines.push_back(l);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (lines[i].find(header) == std::string::npos) continue;
    std::vector<std::string> out;
    for (int j = 0; j < n; ++j) {
      out.push_back(lines[i + 1 + static_cast<std::size_t>(skip + j)]);
    }
    return out;
  }
  ADD_FAILURE() << "section " << header << " not found";
  return {};
}

/// Solid nodes must be blanked (zero density, zero velocity) and flagged in
/// the node_kind array, in either storage precision.
template <class ST>
void vtk_masks_solid_nodes(const std::string& tag) {
  Box b;
  b.nx = 6;
  b.ny = 4;
  b.nz = 1;
  Geometry geo(b);
  geo.set_solid(2, 1);
  geo.set_solid(3, 2);
  StEngine<D2Q9, ST> e(geo, 0.8);
  e.initialize([](int, int, int) {
    return equilibrium_moments<D2Q9>(1.0, {0.02, 0.01});
  });
  e.run(2);
  const std::string path = tmp_path("mlbm_masked_" + tag + ".vtk");
  write_vtk(e, path);
  const std::string body = slurp(path);

  // Rows are x-fastest: node (x, y) is row y*nx + x.
  const auto rho = section_rows(body, "SCALARS density", 1, 24);
  const auto vel = section_rows(body, "VECTORS velocity", 0, 24);
  const auto kind = section_rows(body, "SCALARS node_kind", 1, 24);
  ASSERT_EQ(rho.size(), 24u);
  for (int y = 0; y < 4; ++y) {
    for (int x = 0; x < 6; ++x) {
      const std::size_t row = static_cast<std::size_t>(y * 6 + x);
      const bool solid = (x == 2 && y == 1) || (x == 3 && y == 2);
      if (solid) {
        EXPECT_EQ(std::stod(rho[row]), 0.0) << tag << " rho at " << x << ","
                                            << y;
        EXPECT_EQ(vel[row], "0 0 0") << tag << " vel at " << x << "," << y;
        EXPECT_EQ(kind[row], "4");  // NodeKind::kSolid
      } else {
        EXPECT_GT(std::stod(rho[row]), 0.5);
        EXPECT_EQ(kind[row], "0");  // NodeKind::kFluid
      }
    }
  }
  std::filesystem::remove(path);
}

TEST(Vtk, MasksSolidNodesFp64) { vtk_masks_solid_nodes<real_t>("fp64"); }
TEST(Vtk, MasksSolidNodesFp32) { vtk_masks_solid_nodes<float>("fp32"); }

// ------------------------------------------------------------- checkpoint

TEST(Checkpoint, RoundTripsExactly) {
  const auto tg = TaylorGreen<D2Q9>::create(12, 0.03);
  StEngine<D2Q9> a(tg.geo, 0.8);
  tg.attach(a);
  a.run(7);

  const std::string path = tmp_path("mlbm_ckpt.bin");
  save_checkpoint(a, path);

  StEngine<D2Q9> b(tg.geo, 0.8);
  b.initialize([](int, int, int) { return equilibrium_moments<D2Q9>(1, {}); });
  load_checkpoint(b, path);

  for (int y = 0; y < 12; ++y) {
    for (int x = 0; x < 12; ++x) {
      const auto ma = a.moments_at(x, y, 0);
      const auto mb = b.moments_at(x, y, 0);
      EXPECT_NEAR(ma.rho, mb.rho, 1e-14);
      EXPECT_NEAR(ma.u[0], mb.u[0], 1e-14);
      EXPECT_NEAR(ma.pi[1], mb.pi[1], 1e-13);
    }
  }
  std::filesystem::remove(path);
}

TEST(Checkpoint, PortableAcrossPropagationPatterns) {
  // Save from ST, restore into MR: the run continues identically (up to the
  // engines' shared moment interface).
  const auto tg = TaylorGreen<D2Q9>::create(12, 0.03);
  StEngine<D2Q9> st(tg.geo, 0.8);
  tg.attach(st);
  st.run(5);
  const std::string path = tmp_path("mlbm_ckpt_cross.bin");
  save_checkpoint(st, path);

  MrEngine<D2Q9> mr(tg.geo, 0.8, Regularization::kProjective, {4, 1, 2});
  mr.initialize([](int, int, int) { return equilibrium_moments<D2Q9>(1, {}); });
  load_checkpoint(mr, path);
  for (int y = 0; y < 12; y += 3) {
    for (int x = 0; x < 12; x += 3) {
      EXPECT_NEAR(st.moments_at(x, y, 0).u[0], mr.moments_at(x, y, 0).u[0],
                  1e-13);
    }
  }
  std::filesystem::remove(path);
}

TEST(Checkpoint, RejectsMismatchedGeometry) {
  const auto tg = TaylorGreen<D2Q9>::create(12, 0.03);
  StEngine<D2Q9> a(tg.geo, 0.8);
  tg.attach(a);
  const std::string path = tmp_path("mlbm_ckpt_bad.bin");
  save_checkpoint(a, path);

  const auto tg2 = TaylorGreen<D2Q9>::create(16, 0.03);
  StEngine<D2Q9> b(tg2.geo, 0.8);
  tg2.attach(b);
  EXPECT_THROW(load_checkpoint(b, path), std::runtime_error);
  std::filesystem::remove(path);
}

// -------------------------------------------------------------------- CLI

TEST(Cli, ParsesKeyValueForms) {
  // Note: a bare `--flag` must be last or followed by another option, since
  // `--key value` greedily consumes the next non-option token.
  const char* argv[] = {"prog",   "pos1", "--nx",   "64",
                        "--tau=0.8", "--name", "mr-p", "--flag"};
  Cli cli(8, argv);
  EXPECT_EQ(cli.get_int("nx", 0), 64);
  EXPECT_DOUBLE_EQ(cli.get_double("tau", 0), 0.8);
  EXPECT_TRUE(cli.get_bool("flag", false));
  EXPECT_EQ(cli.get("name", ""), "mr-p");
  EXPECT_EQ(cli.get("missing", "dflt"), "dflt");
  EXPECT_EQ(cli.get_int("missing", 7), 7);
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "pos1");
  EXPECT_FALSE(cli.has("missing"));
  EXPECT_TRUE(cli.has("nx"));
}

TEST(Cli, BooleanParsing) {
  const char* argv[] = {"prog", "--a", "true", "--b", "off", "--c=1"};
  Cli cli(6, argv);
  EXPECT_TRUE(cli.get_bool("a", false));
  EXPECT_FALSE(cli.get_bool("b", true));
  EXPECT_TRUE(cli.get_bool("c", false));
  EXPECT_TRUE(cli.get_bool("absent", true));
}

TEST(Cli, RejectsMalformedBoolean) {
  const char* argv[] = {"prog", "--x", "maybe"};
  Cli cli(3, argv);
  EXPECT_THROW((void)cli.get_bool("x", false), std::invalid_argument);
}

TEST(Cli, StrictIntegerParsing) {
  const char* argv[] = {"prog", "--steps", "12abc", "--n", "abc",
                        "--ok",   "42",    "--big", "99999999999999999999"};
  Cli cli(9, argv);
  EXPECT_EQ(cli.get_int("ok", 0), 42);
  // Trailing garbage, non-numeric, and out-of-range all raise the typed
  // ConfigError (std::stoi would have silently returned 12 for "12abc").
  EXPECT_THROW((void)cli.get_int("steps", 0), ConfigError);
  EXPECT_THROW((void)cli.get_int("n", 0), ConfigError);
  EXPECT_THROW((void)cli.get_int("big", 0), ConfigError);
}

TEST(Cli, StrictDoubleParsing) {
  const char* argv[] = {"prog", "--tau", "0.8x", "--u0", "fast", "--ok",
                        "0.5"};
  Cli cli(7, argv);
  EXPECT_DOUBLE_EQ(cli.get_double("ok", 0), 0.5);
  EXPECT_THROW((void)cli.get_double("tau", 0), ConfigError);
  EXPECT_THROW((void)cli.get_double("u0", 0), ConfigError);
}

TEST(Cli, BoundedNumericLookups) {
  const char* argv[] = {"prog", "--steps", "0", "--slabs", "-3", "--rate",
                        "0.0"};
  Cli cli(7, argv);
  // `--steps 0`, `--slabs -3` and a non-positive rate become typed errors
  // instead of a nonsense run.
  EXPECT_THROW((void)cli.get_int("steps", 1, 1), ConfigError);
  EXPECT_THROW((void)cli.get_int("slabs", 0, 0), ConfigError);
  EXPECT_THROW((void)cli.get_double("rate", 1.0, 0.0), ConfigError);
  EXPECT_EQ(cli.get_int("absent", 7, 1), 7);      // fallback passes the bound
  EXPECT_EQ(cli.get_int("steps", 1, 0), 0);       // bound 0 admits the value
}

TEST(Cli, ErrorNamesTheOption) {
  const char* argv[] = {"prog", "--retries", "-2"};
  Cli cli(3, argv);
  try {
    (void)cli.get_int("retries", 3, 1);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("--retries"), std::string::npos);
  }
}

// -------------------------------------------------------------------- CSV

TEST(Csv, WritesHeaderAndRows) {
  const std::string path = tmp_path("mlbm_test.csv");
  {
    CsvWriter csv(path, {"a", "b"});
    csv.row({"1", "2"});
    csv.row({CsvWriter::num(3.25), "x"});
    EXPECT_THROW(csv.row({"only-one"}), std::invalid_argument);
  }
  EXPECT_EQ(slurp(path), "a,b\n1,2\n3.25,x\n");
  std::filesystem::remove(path);
}

TEST(Csv, FailsOnBadPath) {
  EXPECT_THROW(CsvWriter("/nonexistent_dir_xyz/x.csv", {"a"}),
               std::runtime_error);
}

// ------------------------------------------------------------------ table

TEST(AsciiTableTest, RendersAlignedGrid) {
  AsciiTable t({"name", "value"});
  t.row({"x", "1"});
  t.row({"longer-name", "2.5"});
  const std::string s = t.render();
  EXPECT_NE(s.find("| name "), std::string::npos);
  EXPECT_NE(s.find("| longer-name |"), std::string::npos);
  // All lines equally wide.
  std::stringstream ss(s);
  std::string line;
  std::size_t width = 0;
  while (std::getline(ss, line)) {
    if (width == 0) width = line.size();
    EXPECT_EQ(line.size(), width);
  }
  EXPECT_THROW(t.row({"too", "many", "cells"}), std::invalid_argument);
  EXPECT_EQ(AsciiTable::num(3.14159, 2), "3.14");
}

// ------------------------------------------------------------------ timer

TEST(TimerTest, MeasuresElapsedTime) {
  Timer t;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GE(t.elapsed_s(), 0.0);
  EXPECT_NEAR(t.elapsed_ms(), t.elapsed_s() * 1e3, t.elapsed_ms() * 0.5 + 1);
  const double before = t.elapsed_s();
  t.reset();
  EXPECT_LE(t.elapsed_s(), before + 1.0);
}

}  // namespace
}  // namespace mlbm
