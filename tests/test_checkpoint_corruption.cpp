// Corrupt-checkpoint matrix: load_checkpoint must classify every
// malformation as a typed CheckpointError — and leave the target engine
// bit-for-bit untouched, because validation (payload digest included)
// completes before the first write_moments.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "engines/st_engine.hpp"
#include "io/checkpoint.hpp"
#include "util/error.hpp"
#include "workloads/taylor_green.hpp"
#include "tmp_path.hpp"

namespace mlbm {
namespace {

std::vector<char> slurp_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void spit_bytes(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// A small engine with a non-trivial, reproducible state.
std::unique_ptr<StEngine<D2Q9>> make_engine() {
  const auto tg = TaylorGreen<D2Q9>::create(8, 0.03);
  auto e = std::make_unique<StEngine<D2Q9>>(tg.geo, 0.8);
  tg.attach(*e);
  e->run(3);
  return e;
}

std::vector<double> dump_moments(const Engine<D2Q9>& e) {
  std::vector<double> out;
  const Box& b = e.geometry().box;
  for (int y = 0; y < b.ny; ++y) {
    for (int x = 0; x < b.nx; ++x) {
      const auto m = e.moments_at(x, y, 0);
      out.push_back(m.rho);
      out.push_back(m.u[0]);
      out.push_back(m.u[1]);
      out.push_back(m.pi[0]);
      out.push_back(m.pi[1]);
      out.push_back(m.pi[2]);
    }
  }
  return out;
}

/// Writes a corrupted variant of `bytes`, asserts that loading it throws a
/// CheckpointError of `kind`, and that the target engine state is unchanged.
void expect_rejected(const std::vector<char>& bytes,
                     CheckpointError::Kind kind, const std::string& tag) {
  SCOPED_TRACE(tag);
  const std::string path = tmp_path("mlbm_corrupt_" + tag + ".bin");
  spit_bytes(path, bytes);

  auto target = make_engine();
  const std::vector<double> before = dump_moments(*target);

  bool threw = false;
  try {
    load_checkpoint(*target, path);
  } catch (const CheckpointError& e) {
    threw = true;
    EXPECT_EQ(e.kind(), kind) << e.what();
    EXPECT_EQ(e.code(), ErrorCode::kCheckpoint);
    EXPECT_FALSE(e.transient());
  }
  EXPECT_TRUE(threw);
  // Validation failed => nothing was written => engine untouched.
  EXPECT_EQ(before, dump_moments(*target));
  std::filesystem::remove(path);
}

class CheckpointCorruption : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = tmp_path("mlbm_corrupt_master.bin");
    save_checkpoint(*make_engine(), path_);
    good_ = slurp_bytes(path_);
    // v4 layout: 8-byte magic, 7 x int32 header, 8-byte geometry hash, the
    // payload (the all-fluid master file carries no flag field), then the
    // 8-byte payload digest.
    ASSERT_GT(good_.size(), kPayloadAt + kDigestBytes);
  }

  static constexpr std::size_t kPayloadAt = 44;
  static constexpr std::size_t kDigestBytes = 8;

  /// The good file rewritten as an older format: `magic`, the first
  /// `header_ints` header ints, the geometry hash when `with_hash`, and the
  /// payload without the digest trailer.
  std::vector<char> as_version(std::uint64_t magic, int header_ints,
                               bool with_hash) const {
    const auto header_bytes = static_cast<std::ptrdiff_t>(4 * header_ints);
    const auto payload_at = static_cast<std::ptrdiff_t>(kPayloadAt);
    const auto digest = static_cast<std::ptrdiff_t>(kDigestBytes);
    std::vector<char> out(sizeof(magic) +
                          static_cast<std::size_t>(header_bytes) +
                          (with_hash ? 8u : 0u) + good_.size() -
                          kPayloadAt - kDigestBytes);
    std::memcpy(out.data(), &magic, sizeof(magic));
    auto p = out.begin() + static_cast<std::ptrdiff_t>(sizeof(magic));
    p = std::copy(good_.begin() + 8, good_.begin() + 8 + header_bytes, p);
    if (with_hash) p = std::copy(good_.begin() + 36, good_.begin() + 44, p);
    std::copy(good_.begin() + payload_at, good_.end() - digest, p);
    return out;
  }
  void TearDown() override { std::filesystem::remove(path_); }

  std::vector<char> truncated(std::size_t n) const {
    return {good_.begin(), good_.begin() + static_cast<std::ptrdiff_t>(n)};
  }

  std::string path_;
  std::vector<char> good_;
};

TEST_F(CheckpointCorruption, MissingFileIsOpenError) {
  auto target = make_engine();
  try {
    load_checkpoint(*target, tmp_path("mlbm_no_such_file.bin"));
    FAIL() << "expected CheckpointError";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.kind(), CheckpointError::Kind::kOpen);
  }
}

TEST_F(CheckpointCorruption, TruncationMatrix) {
  expect_rejected(truncated(0), CheckpointError::Kind::kTruncated, "empty");
  expect_rejected(truncated(5), CheckpointError::Kind::kTruncated,
                  "inside_magic");
  expect_rejected(truncated(8), CheckpointError::Kind::kTruncated,
                  "after_magic");
  expect_rejected(truncated(8 + 11), CheckpointError::Kind::kTruncated,
                  "inside_header");
  expect_rejected(truncated(8 + 24), CheckpointError::Kind::kTruncated,
                  "after_header");
  expect_rejected(truncated(good_.size() / 2),
                  CheckpointError::Kind::kTruncated, "inside_payload");
  expect_rejected(truncated(good_.size() - 1),
                  CheckpointError::Kind::kTruncated, "one_byte_short");
}

TEST_F(CheckpointCorruption, BadMagicIsRejected) {
  std::vector<char> bad = good_;
  bad[0] = 'X';
  expect_rejected(bad, CheckpointError::Kind::kBadMagic, "mangled_magic");

  std::vector<char> text(64, 'a');
  expect_rejected(text, CheckpointError::Kind::kBadMagic, "text_file");
}

TEST_F(CheckpointCorruption, WrongExtentsAreRejected) {
  // header ints start at byte 8: {D, Q, nx, ny, nz, precision}.
  std::vector<char> bad = good_;
  const std::int32_t wrong_nx = 9;
  std::memcpy(bad.data() + 8 + 2 * sizeof(std::int32_t), &wrong_nx,
              sizeof(wrong_nx));
  expect_rejected(bad, CheckpointError::Kind::kExtents, "wrong_nx");

  bad = good_;
  const std::int32_t wrong_d = 3;
  std::memcpy(bad.data() + 8, &wrong_d, sizeof(wrong_d));
  expect_rejected(bad, CheckpointError::Kind::kExtents, "wrong_dim");

  bad = good_;
  const std::int32_t zero_nz = 0;
  std::memcpy(bad.data() + 8 + 4 * sizeof(std::int32_t), &zero_nz,
              sizeof(zero_nz));
  expect_rejected(bad, CheckpointError::Kind::kExtents, "zero_extent");
}

TEST_F(CheckpointCorruption, OutOfRangePrecisionTagIsRejected) {
  std::vector<char> bad = good_;
  const std::int32_t tag = 7;
  std::memcpy(bad.data() + 8 + 5 * sizeof(std::int32_t), &tag, sizeof(tag));
  expect_rejected(bad, CheckpointError::Kind::kPrecision, "precision_7");
}

TEST_F(CheckpointCorruption, MangledGeometryHashIsRejected) {
  // The v3 geometry hash occupies bytes 36..44.
  std::vector<char> bad = good_;
  bad[36] = static_cast<char>(bad[36] ^ 0x5a);
  expect_rejected(bad, CheckpointError::Kind::kGeometry, "mangled_geo_hash");
}

TEST_F(CheckpointCorruption, DifferentTileMapGeometryIsRejected) {
  // Semantic (not byte-mangled) v3 hash mismatch: a file saved from a
  // sparse geometry must not restore into an engine whose flag field — and
  // therefore tile-compressed element order — differs, even with identical
  // extents. The load must fail typed BEFORE the first impose().
  const std::string path = tmp_path("mlbm_corrupt_tilemap.bin");
  Geometry src(Box{16, 8, 1});
  src.set_solid(3, 2);
  src.set_solid(4, 2);
  {
    StEngine<D2Q9> donor(src, 0.8);
    donor.initialize(
        [](int, int, int) { return equilibrium_moments<D2Q9>(1.0, {}); });
    donor.run(2);
    save_checkpoint<D2Q9>(donor, path);
  }
  Geometry dst(Box{16, 8, 1});
  dst.set_solid(9, 5);  // same extents, same solid count shape class — but a
  dst.set_solid(10, 5);  // different flag field, so a different TileMap
  StEngine<D2Q9> target(dst, 0.8);
  target.initialize(
      [](int, int, int) { return equilibrium_moments<D2Q9>(1.0, {}); });
  const std::vector<double> before = dump_moments(target);
  try {
    load_checkpoint<D2Q9>(target, path);
    FAIL() << "expected CheckpointError";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.kind(), CheckpointError::Kind::kGeometry) << e.what();
    EXPECT_FALSE(e.transient());
  }
  EXPECT_EQ(before, dump_moments(target));
  std::filesystem::remove(path);
}

TEST_F(CheckpointCorruption, OutOfRangeFlagsTagIsRejected) {
  std::vector<char> bad = good_;
  const std::int32_t tag = 3;
  std::memcpy(bad.data() + 8 + 6 * sizeof(std::int32_t), &tag, sizeof(tag));
  expect_rejected(bad, CheckpointError::Kind::kGeometry, "flags_tag_3");
}

TEST_F(CheckpointCorruption, TrailingGarbageIsRejected) {
  std::vector<char> bad = good_;
  bad.push_back('\0');
  expect_rejected(bad, CheckpointError::Kind::kTrailing, "one_trailing_byte");

  bad = good_;
  for (int i = 0; i < 100; ++i) bad.push_back('g');
  expect_rejected(bad, CheckpointError::Kind::kTrailing, "trailing_block");
}

TEST_F(CheckpointCorruption, V1FilesRemainLoadable) {
  // Rewrite the good v4/fp64 file as v1: v1 magic, 5-int header, same
  // payload bytes (v1 is always fp64; the v4 payload starts after the 7-int
  // header and the geometry hash, at byte 44, and ends before the digest).
  const std::vector<char> v1 =
      as_version(0x4d4c424d43503031ULL, 5, /*with_hash=*/false);

  const std::string path = tmp_path("mlbm_ckpt_v1.bin");
  spit_bytes(path, v1);

  auto source = make_engine();
  StEngine<D2Q9> target(source->geometry(), 0.8);
  target.initialize(
      [](int, int, int) { return equilibrium_moments<D2Q9>(1, {}); });
  load_checkpoint(target, path);
  // Checkpoints travel through the moment interface, which projects away
  // BGK's higher-order non-equilibrium content on impose — near, not
  // bit-equal.
  const auto src = dump_moments(*source);
  const auto dst = dump_moments(target);
  ASSERT_EQ(src.size(), dst.size());
  for (std::size_t i = 0; i < src.size(); ++i) {
    EXPECT_NEAR(src[i], dst[i], 1e-12) << "value " << i;
  }
  std::filesystem::remove(path);
}

TEST_F(CheckpointCorruption, V2AndV3FilesLoadTheSamePayload) {
  // v2 and v3 files carry the same payload bytes without a digest; they load
  // into exactly the state the v4 file loads.
  StEngine<D2Q9> want(make_engine()->geometry(), 0.8);
  load_checkpoint(want, path_);
  const std::vector<double> expected = dump_moments(want);
  const struct {
    std::uint64_t magic;
    int header_ints;
    bool with_hash;
    const char* tag;
  } versions[] = {{0x4d4c424d43503032ULL, 6, false, "v2"},
                  {0x4d4c424d43503033ULL, 7, true, "v3"}};
  for (const auto& v : versions) {
    SCOPED_TRACE(v.tag);
    const std::string path =
        tmp_path(std::string("mlbm_ckpt_") + v.tag + ".bin");
    spit_bytes(path, as_version(v.magic, v.header_ints, v.with_hash));
    StEngine<D2Q9> got(want.geometry(), 0.8);
    load_checkpoint(got, path);
    EXPECT_EQ(expected, dump_moments(got));
    std::filesystem::remove(path);
  }
}

TEST_F(CheckpointCorruption, PayloadBitFlipMatrix) {
  // One flipped bit anywhere in the payload — first, middle or last value;
  // sign, exponent or mantissa — must fail the digest check before any
  // state is written. So must a flipped bit in the digest itself.
  const std::size_t values =
      (good_.size() - kPayloadAt - kDigestBytes) / sizeof(double);
  const struct {
    std::size_t value;
    const char* where;
  } cells[] = {{0, "first"}, {values / 2, "middle"}, {values - 1, "last"}};
  const struct {
    int bit;
    const char* what;
  } bits[] = {{63, "sign"}, {56, "exponent"}, {12, "mantissa"}};
  for (const auto& c : cells) {
    for (const auto& b : bits) {
      std::vector<char> bad = good_;
      const std::size_t at = kPayloadAt + c.value * sizeof(double) +
                              static_cast<std::size_t>(b.bit / 8);
      bad[at] = static_cast<char>(bad[at] ^ (1 << (b.bit % 8)));
      expect_rejected(bad, CheckpointError::Kind::kDigest,
                      std::string(c.where) + "_" + b.what);
    }
  }
  std::vector<char> bad = good_;
  bad[good_.size() - 1] = static_cast<char>(bad[good_.size() - 1] ^ 0x10);
  expect_rejected(bad, CheckpointError::Kind::kDigest, "digest_bit");
}

// ---- Atomic save: tmp + flush + rename ----

TEST_F(CheckpointCorruption, SaveLeavesNoTmpFileBehind) {
  const std::string path = tmp_path("mlbm_ckpt_atomic.bin");
  save_checkpoint(*make_engine(), path);
  EXPECT_TRUE(std::filesystem::exists(path));
  // The staging file was renamed over the destination, not left as debris.
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::filesystem::remove(path);
}

TEST_F(CheckpointCorruption, TornTmpFromACrashIsInvisibleToLoad) {
  // A writer that died mid-save leaves a torn `path.tmp`; the destination
  // either does not exist (first save) or still holds the previous complete
  // checkpoint. load_checkpoint never looks at the tmp.
  const std::string path = tmp_path("mlbm_ckpt_torn.bin");
  spit_bytes(path + ".tmp", truncated(good_.size() / 2));

  // First save never happened: the destination is absent.
  auto target = make_engine();
  EXPECT_THROW(load_checkpoint(*target, path), CheckpointError);

  // Previous save is intact: the torn tmp does not affect the load.
  spit_bytes(path, good_);
  EXPECT_NO_THROW(load_checkpoint(*target, path));

  // A new save replaces the destination atomically and reclaims the tmp name.
  save_checkpoint(*make_engine(), path);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  EXPECT_NO_THROW(load_checkpoint(*target, path));

  std::filesystem::remove(path);
  std::filesystem::remove(path + ".tmp");
}

TEST_F(CheckpointCorruption, UnwritableStagingPathIsTypedAndNonDestructive) {
  // A directory squatting on `path.tmp` makes the staging file unopenable:
  // the save must throw a typed kOpen error and leave an existing
  // destination checkpoint untouched.
  const std::string path = tmp_path("mlbm_ckpt_blocked.bin");
  spit_bytes(path, good_);
  std::filesystem::create_directory(path + ".tmp");

  try {
    save_checkpoint(*make_engine(), path);
    FAIL() << "expected CheckpointError";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.kind(), CheckpointError::Kind::kOpen);
  }
  EXPECT_EQ(slurp_bytes(path), good_);  // destination untouched

  std::filesystem::remove(path + ".tmp");
  std::filesystem::remove(path);
}

TEST_F(CheckpointCorruption, TypedErrorsStayCatchableAsRuntimeError) {
  auto target = make_engine();
  const std::string path = tmp_path("mlbm_corrupt_legacy.bin");
  spit_bytes(path, truncated(10));
  // The pre-existing API contract: callers catching std::runtime_error
  // (as the legacy tests do) must keep working.
  EXPECT_THROW(load_checkpoint(*target, path), std::runtime_error);
  EXPECT_THROW(load_checkpoint(*target, path), IoError);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace mlbm
