#include "io/checkpoint.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace mlbm {

namespace {

// Format v1 ("MLBMCP01"): header {D, Q, nx, ny, nz}, values always real_t.
// Format v2 ("MLBMCP02"): header {D, Q, nx, ny, nz, precision}, values in
// the declared storage precision (0 = fp64, 1 = fp32). A v2/fp64 file is
// byte-compatible with v1 apart from the header; v1 files remain loadable.
// Format v3 ("MLBMCP03"): the v2 header grows a flags-present tag, followed
// by the geometry hash (FNV-1a over extents, face BCs and the flag field)
// and — when the geometry has solids — one NodeKind byte per node. The hash
// and flags are VALIDATED on load: restoring onto a different geometry fails
// loudly (Kind::kGeometry) instead of silently imposing moments through a
// mismatched tile map. The node-value payload still covers every node (solid
// nodes carry their rest-state moments) so payload offsets stay
// geometry-independent.
// Format v4 ("MLBMCP04"): the v3 layout followed by a trailer holding the
// 64-bit FNV-1a digest of the payload bytes as written. It is verified on the
// buffered payload before the first write, so a flipped payload bit fails
// loudly (Kind::kDigest) instead of loading silently.
constexpr std::uint64_t kMagicV1 = 0x4d4c424d43503031ULL;  // "MLBMCP01"
constexpr std::uint64_t kMagicV2 = 0x4d4c424d43503032ULL;  // "MLBMCP02"
constexpr std::uint64_t kMagicV3 = 0x4d4c424d43503033ULL;  // "MLBMCP03"
constexpr std::uint64_t kMagicV4 = 0x4d4c424d43503034ULL;  // "MLBMCP04"

}  // namespace

template <class L>
void save_checkpoint(const Engine<L>& eng, const std::string& path) {
  // Atomic write: stream into `path + ".tmp"`, flush and close, then rename
  // over the destination. A crash (or an injected fault) mid-write can only
  // ever leave a stale `.tmp` orphan behind — the destination is either the
  // previous complete checkpoint or the new complete one, never a torn file.
  // The rename is atomic on POSIX when source and destination share a
  // filesystem, which they do by construction (same directory).
  const std::string tmp = path + ".tmp";
  std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw CheckpointError(CheckpointError::Kind::kOpen,
                          "save_checkpoint: cannot open " + tmp);
  }

  const Geometry& geo = eng.geometry();
  const Box& b = geo.box;
  const StoragePrecision prec = eng.storage_precision();
  const std::int32_t flags_present = geo.has_solids() ? 1 : 0;
  const std::int32_t header[7] = {
      L::D,
      L::Q,
      b.nx,
      b.ny,
      b.nz,
      prec == StoragePrecision::kFP32 ? std::int32_t{1} : std::int32_t{0},
      flags_present};
  const std::uint64_t geo_hash = geo.hash();
  out.write(reinterpret_cast<const char*>(&kMagicV4), sizeof(kMagicV4));
  out.write(reinterpret_cast<const char*>(header), sizeof(header));
  out.write(reinterpret_cast<const char*>(&geo_hash), sizeof(geo_hash));
  if (flags_present != 0) {
    static_assert(sizeof(NodeKind) == 1, "flag field is one byte per node");
    out.write(reinterpret_cast<const char*>(geo.kind.data()),
              static_cast<std::streamsize>(geo.kind.size()));
  }

  // Values are written in the engine's *storage* precision: what the device
  // held is what lands on disk, so restoring an FP32 run loses nothing
  // beyond what storage already rounded — and an MR fp32 round-trip is
  // bit-exact (moments are the stored representation). Rows stream through
  // read_moments; the digest covers exactly the bytes written.
  constexpr int NV = Moments<L>::NV;
  const bool fp32 = prec == StoragePrecision::kFP32;
  std::vector<char> bytes(static_cast<std::size_t>(b.nx) * NV *
                          (fp32 ? sizeof(float) : sizeof(real_t)));
  std::uint64_t digest = kFnvOffsetBasis;
  for_each_row(eng, NodeRange{0, b.nx, 0, b.ny, 0, b.nz},
               [&](int, int, std::span<const Moments<L>> row) {
                 char* p = bytes.data();
                 for (const Moments<L>& m : row) {
                   real_t v[NV];
                   m.pack(v);
                   if (fp32) {
                     float vf[NV];
                     std::copy(v, v + NV, vf);
                     std::memcpy(p, vf, sizeof(vf));
                     p += sizeof(vf);
                   } else {
                     std::memcpy(p, v, sizeof(v));
                     p += sizeof(v);
                   }
                 }
                 digest = fnv1a(digest, bytes.data(), bytes.size());
                 out.write(bytes.data(),
                           static_cast<std::streamsize>(bytes.size()));
               });
  out.write(reinterpret_cast<const char*>(&digest), sizeof(digest));
  out.flush();
  if (!out) {
    std::remove(tmp.c_str());
    throw CheckpointError(CheckpointError::Kind::kWrite,
                          "save_checkpoint: write failed: " + tmp);
  }
  out.close();
  if (out.fail()) {
    std::remove(tmp.c_str());
    throw CheckpointError(CheckpointError::Kind::kWrite,
                          "save_checkpoint: close failed: " + tmp);
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::remove(tmp.c_str());
    throw CheckpointError(
        CheckpointError::Kind::kWrite,
        "save_checkpoint: cannot rename " + tmp + " over " + path + ": " +
            ec.message());
  }
}

template <class L>
void load_checkpoint(Engine<L>& eng, const std::string& path) {
  // Hardened load: the file is fully read and validated — magic, header
  // completeness, extents, precision tag, exact payload size, payload
  // digest (v4) — BEFORE the first write_moments, so a malformed file raises a typed CheckpointError and
  // leaves the target engine bit-for-bit untouched (no half-restored state).
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw CheckpointError(CheckpointError::Kind::kOpen,
                          "load_checkpoint: cannot open " + path);
  }

  std::uint64_t magic = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  if (in.gcount() != static_cast<std::streamsize>(sizeof(magic))) {
    throw CheckpointError(
        CheckpointError::Kind::kTruncated,
        "load_checkpoint: file ends inside the magic: " + path);
  }
  if (magic != kMagicV1 && magic != kMagicV2 && magic != kMagicV3 &&
      magic != kMagicV4) {
    throw CheckpointError(CheckpointError::Kind::kBadMagic,
                          "load_checkpoint: not a checkpoint file: " + path);
  }

  std::int32_t header[7] = {};
  const int header_ints = magic == kMagicV1 ? 5 : magic == kMagicV2 ? 6 : 7;
  const std::streamsize header_bytes =
      static_cast<std::streamsize>(sizeof(std::int32_t) * header_ints);
  in.read(reinterpret_cast<char*>(header), header_bytes);
  if (in.gcount() != header_bytes) {
    throw CheckpointError(
        CheckpointError::Kind::kTruncated,
        "load_checkpoint: file ends inside the header: " + path);
  }

  std::uint64_t file_hash = 0;
  const bool geometry_tagged = magic == kMagicV3 || magic == kMagicV4;
  if (geometry_tagged) {
    in.read(reinterpret_cast<char*>(&file_hash), sizeof(file_hash));
    if (in.gcount() != static_cast<std::streamsize>(sizeof(file_hash))) {
      throw CheckpointError(
          CheckpointError::Kind::kTruncated,
          "load_checkpoint: file ends inside the geometry hash: " + path);
    }
  }

  StoragePrecision file_prec = StoragePrecision::kFP64;
  if (magic != kMagicV1) {
    if (header[5] == 1) {
      file_prec = StoragePrecision::kFP32;
    } else if (header[5] != 0) {
      throw CheckpointError(
          CheckpointError::Kind::kPrecision,
          "load_checkpoint: precision tag " + std::to_string(header[5]) +
              " out of range in " + path);
    }
  }

  const Box& b = eng.geometry().box;
  if (header[2] < 1 || header[3] < 1 || header[4] < 1) {
    throw CheckpointError(
        CheckpointError::Kind::kExtents,
        "load_checkpoint: non-positive extents in header of " + path);
  }
  if (header[0] != L::D || header[2] != b.nx || header[3] != b.ny ||
      header[4] != b.nz) {
    throw CheckpointError(
        CheckpointError::Kind::kExtents,
        "load_checkpoint: checkpoint is D" + std::to_string(header[0]) + " " +
            std::to_string(header[2]) + "x" + std::to_string(header[3]) + "x" +
            std::to_string(header[4]) + ", engine is D" + std::to_string(L::D) +
            " " + std::to_string(b.nx) + "x" + std::to_string(b.ny) + "x" +
            std::to_string(b.nz) + ": " + path);
  }

  if (geometry_tagged) {
    const Geometry& geo = eng.geometry();
    if (header[6] != 0 && header[6] != 1) {
      throw CheckpointError(
          CheckpointError::Kind::kGeometry,
          "load_checkpoint: flags tag " + std::to_string(header[6]) +
              " out of range in " + path);
    }
    if (file_hash != geo.hash()) {
      throw CheckpointError(
          CheckpointError::Kind::kGeometry,
          "load_checkpoint: geometry hash mismatch (file was saved from a "
          "different flag field or boundary setup): " +
              path);
    }
    if (header[6] == 1) {
      std::vector<std::uint8_t> flags(geo.kind.size());
      in.read(reinterpret_cast<char*>(flags.data()),
              static_cast<std::streamsize>(flags.size()));
      if (in.gcount() != static_cast<std::streamsize>(flags.size())) {
        throw CheckpointError(
            CheckpointError::Kind::kTruncated,
            "load_checkpoint: file ends inside the flag field: " + path);
      }
      for (std::size_t i = 0; i < flags.size(); ++i) {
        if (flags[i] != static_cast<std::uint8_t>(geo.kind[i])) {
          throw CheckpointError(
              CheckpointError::Kind::kGeometry,
              "load_checkpoint: node flag mismatch at linear index " +
                  std::to_string(i) + ": " + path);
        }
      }
    } else if (geo.has_solids()) {
      throw CheckpointError(
          CheckpointError::Kind::kGeometry,
          "load_checkpoint: file has no flag field but the engine geometry "
          "has solids: " +
              path);
    }
  }

  constexpr int NV = Moments<L>::NV;
  const std::size_t elem =
      file_prec == StoragePrecision::kFP32 ? sizeof(float) : sizeof(real_t);
  const std::size_t payload_bytes =
      static_cast<std::size_t>(b.cells()) * static_cast<std::size_t>(NV) *
      elem;
  std::vector<char> payload(payload_bytes);
  in.read(payload.data(), static_cast<std::streamsize>(payload_bytes));
  if (in.gcount() != static_cast<std::streamsize>(payload_bytes)) {
    throw CheckpointError(
        CheckpointError::Kind::kTruncated,
        "load_checkpoint: payload is " + std::to_string(in.gcount()) + " of " +
            std::to_string(payload_bytes) + " bytes: " + path);
  }
  std::uint64_t file_digest = 0;
  if (magic == kMagicV4) {
    in.read(reinterpret_cast<char*>(&file_digest), sizeof(file_digest));
    if (in.gcount() != static_cast<std::streamsize>(sizeof(file_digest))) {
      throw CheckpointError(
          CheckpointError::Kind::kTruncated,
          "load_checkpoint: file ends inside the payload digest: " + path);
    }
  }
  if (in.peek() != std::ifstream::traits_type::eof()) {
    throw CheckpointError(
        CheckpointError::Kind::kTrailing,
        "load_checkpoint: trailing bytes after the payload: " + path);
  }
  if (magic == kMagicV4 &&
      fnv1a(kFnvOffsetBasis, payload.data(), payload.size()) != file_digest) {
    throw CheckpointError(
        CheckpointError::Kind::kDigest,
        "load_checkpoint: payload digest mismatch (corrupted payload): " +
            path);
  }

  // Values convert to the compute type on read; the target engine may use
  // either storage precision (portability across patterns extends to
  // precision: an fp32 file restores into an fp64 engine and vice versa).
  std::vector<Moments<L>> row(static_cast<std::size_t>(b.nx));
  const char* p = payload.data();
  for (int z = 0; z < b.nz; ++z) {
    for (int y = 0; y < b.ny; ++y) {
      for (Moments<L>& m : row) {
        real_t v[NV];
        if (file_prec == StoragePrecision::kFP32) {
          float vf[NV];
          std::memcpy(vf, p, sizeof(vf));
          std::copy(vf, vf + NV, v);
          p += sizeof(vf);
        } else {
          std::memcpy(v, p, sizeof(v));
          p += sizeof(v);
        }
        m = Moments<L>::unpack(v);
      }
      eng.write_moments(NodeRange::row(0, b.nx, y, z), row);
    }
  }
}

template void save_checkpoint<D2Q9>(const Engine<D2Q9>&, const std::string&);
template void save_checkpoint<D3Q19>(const Engine<D3Q19>&, const std::string&);
template void save_checkpoint<D3Q27>(const Engine<D3Q27>&, const std::string&);
template void save_checkpoint<D3Q15>(const Engine<D3Q15>&, const std::string&);
template void load_checkpoint<D2Q9>(Engine<D2Q9>&, const std::string&);
template void load_checkpoint<D3Q19>(Engine<D3Q19>&, const std::string&);
template void load_checkpoint<D3Q27>(Engine<D3Q27>&, const std::string&);
template void load_checkpoint<D3Q15>(Engine<D3Q15>&, const std::string&);

}  // namespace mlbm
