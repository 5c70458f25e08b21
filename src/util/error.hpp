// Typed error hierarchy: every layer reports faults structurally.
//
// `mlbm::Error` is a mixin interface carried *alongside* the standard
// exception bases, so call sites can dispatch on fault structure
// (`catch (const mlbm::Error& e)` + `e.code()` / `e.transient()`) while
// legacy call sites that catch `std::runtime_error` / `std::invalid_argument`
// keep working unchanged — each concrete error derives from the std class
// its message previously travelled in.
//
// `transient()` is the contract the resilience layer keys on: a transient
// fault (failed kernel launch, sentinel-detected instability) is worth a
// rollback-and-retry; a non-transient one (bad configuration, corrupt
// checkpoint) is not.
#pragma once

#include <stdexcept>
#include <string>

namespace mlbm {

enum class ErrorCode {
  kConfig,         ///< invalid construction/argument
  kOutOfRange,     ///< coordinate or index outside the domain
  kBounds,         ///< device memory access outside its allocation
  kIo,             ///< file open/write failure
  kCheckpoint,     ///< malformed or mismatched checkpoint file
  kLaunchFault,    ///< (injected) transient kernel-launch failure
  kInstability,    ///< stability sentinel tripped
  kUnrecoverable,  ///< resilience retries exhausted
  kFleet,          ///< fleet scheduler parked or rejected a job
};

inline const char* to_string(ErrorCode c) {
  switch (c) {
    case ErrorCode::kConfig: return "config";
    case ErrorCode::kOutOfRange: return "out-of-range";
    case ErrorCode::kBounds: return "bounds";
    case ErrorCode::kIo: return "io";
    case ErrorCode::kCheckpoint: return "checkpoint";
    case ErrorCode::kLaunchFault: return "launch-fault";
    case ErrorCode::kInstability: return "instability";
    case ErrorCode::kUnrecoverable: return "unrecoverable";
    case ErrorCode::kFleet: return "fleet";
  }
  return "unknown";
}

class Error {
 public:
  virtual ~Error() = default;
  [[nodiscard]] virtual ErrorCode code() const noexcept = 0;
  /// True when a rollback-and-retry is a sensible response.
  [[nodiscard]] virtual bool transient() const noexcept { return false; }
};

/// Message of any mlbm::Error (all concrete errors also derive from
/// std::exception; the cross-cast recovers what()).
inline const char* error_message(const Error& e) {
  if (const auto* ex = dynamic_cast<const std::exception*>(&e)) {
    return ex->what();
  }
  return "mlbm::Error";
}

class ConfigError : public std::invalid_argument, public Error {
 public:
  explicit ConfigError(const std::string& msg) : std::invalid_argument(msg) {}
  [[nodiscard]] ErrorCode code() const noexcept override {
    return ErrorCode::kConfig;
  }
};

class OutOfRangeError : public std::out_of_range, public Error {
 public:
  explicit OutOfRangeError(const std::string& msg) : std::out_of_range(msg) {}
  [[nodiscard]] ErrorCode code() const noexcept override {
    return ErrorCode::kOutOfRange;
  }
};

/// A device memory access (GlobalArray span) that falls outside its
/// allocation — either endpoint of the strided progression, so negative
/// strides that walk below the base are caught symmetrically. Raised instead
/// of invoking UB whenever the array can tell the access came from a real
/// kernel (a traffic counter is attached); under a sanitizer the access is
/// reported as a memcheck hazard and skipped instead of thrown, so a
/// sanitized run can keep collecting hazards.
class BoundsError : public std::out_of_range, public Error {
 public:
  explicit BoundsError(const std::string& msg) : std::out_of_range(msg) {}
  [[nodiscard]] ErrorCode code() const noexcept override {
    return ErrorCode::kBounds;
  }
};

class IoError : public std::runtime_error, public Error {
 public:
  explicit IoError(const std::string& msg) : std::runtime_error(msg) {}
  [[nodiscard]] ErrorCode code() const noexcept override {
    return ErrorCode::kIo;
  }
};

/// Checkpoint load/save failure with the exact malformation classified, so
/// the corrupt-file tests (and any recovery logic choosing between "retry
/// another replica" and "give up") can dispatch on it.
class CheckpointError : public IoError {
 public:
  enum class Kind {
    kOpen,       ///< cannot open the file
    kWrite,      ///< write failed mid-save
    kBadMagic,   ///< not a checkpoint file (or mangled magic)
    kTruncated,  ///< file ends before header or payload completes
    kExtents,    ///< lattice/box extents disagree with the target engine
    kPrecision,  ///< precision tag outside the known range
    kTrailing,   ///< payload complete but trailing bytes follow
    kGeometry,   ///< geometry hash or flag field disagrees with the engine
    kDigest,     ///< payload bytes disagree with the stored digest (v4)
  };

  CheckpointError(Kind kind, const std::string& msg)
      : IoError(msg), kind_(kind) {}
  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] ErrorCode code() const noexcept override {
    return ErrorCode::kCheckpoint;
  }

  static const char* to_string(Kind k) {
    switch (k) {
      case Kind::kOpen: return "open";
      case Kind::kWrite: return "write";
      case Kind::kBadMagic: return "bad-magic";
      case Kind::kTruncated: return "truncated";
      case Kind::kExtents: return "extents";
      case Kind::kPrecision: return "precision";
      case Kind::kTrailing: return "trailing";
      case Kind::kGeometry: return "geometry";
      case Kind::kDigest: return "digest";
    }
    return "unknown";
  }

 private:
  Kind kind_;
};

/// A kernel launch that failed before running any block — the model of a
/// transient launch error code on a real device. No state was mutated and no
/// traffic was counted, so the step is safely retryable.
class TransientLaunchError : public std::runtime_error, public Error {
 public:
  explicit TransientLaunchError(const std::string& msg)
      : std::runtime_error(msg) {}
  [[nodiscard]] ErrorCode code() const noexcept override {
    return ErrorCode::kLaunchFault;
  }
  [[nodiscard]] bool transient() const noexcept override { return true; }
};

/// Stability sentinel trip: the state diverged (non-finite or out-of-bounds
/// moments). Transient from the resilience layer's perspective — rolling
/// back to the last good checkpoint and replaying is the standard response.
class InstabilityError : public std::runtime_error, public Error {
 public:
  InstabilityError(const std::string& msg, int step)
      : std::runtime_error(msg), step_(step) {}
  [[nodiscard]] int step() const noexcept { return step_; }
  [[nodiscard]] ErrorCode code() const noexcept override {
    return ErrorCode::kInstability;
  }
  [[nodiscard]] bool transient() const noexcept override { return true; }

 private:
  int step_ = 0;
};

/// The resilience layer exhausted its retry/degrade policy.
class UnrecoverableError : public std::runtime_error, public Error {
 public:
  explicit UnrecoverableError(const std::string& msg)
      : std::runtime_error(msg) {}
  [[nodiscard]] ErrorCode code() const noexcept override {
    return ErrorCode::kUnrecoverable;
  }
};

}  // namespace mlbm
