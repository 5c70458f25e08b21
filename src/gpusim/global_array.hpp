// Instrumented device-global memory.
//
// GlobalArray<T> models a GPU global-memory allocation. Kernel code must use
// `load`/`store` (scalar) or `load_span`/`store_span` (batched), which are
// counted by the attached TrafficCounter exactly as a profiler reports DRAM
// traffic for a cache-unfriendly working set (LBM's state does not fit in L2
// at the paper's problem sizes, so every kernel access is a DRAM access —
// the basis of Table 2's byte counts).
//
// The span forms move `n` elements with a fixed element stride in one
// bounds check and one counter update of n*sizeof(T) bytes; byte counts are
// bit-identical to n scalar accesses while the transaction count collapses
// to 1 (a coalesced vector transaction). Engines use them for the per-node
// moment/population vectors, which dominate the hot path.
//
// Storage precision: T is the *storage* type of the allocation; engines
// compute in `real_t` regardless. The `_as` access forms convert between
// the two exactly at the load/store boundary — the model of a kernel that
// widens an FP32 global value into an FP64 register on load and narrows it
// on store. Counting always uses sizeof(T): an FP32-stored lattice moves
// (and occupies) exactly half the bytes of an FP64 one, which is the whole
// point of the storage-precision policy (docs/algorithms.md §7).
//
// Host-side (uncounted) access goes through `raw`/`host_data`, mirroring
// cudaMemcpy-style initialization that the paper would not count either.
//
// A default-constructed (or null-counter-allocated) array routes counted
// accesses to the shared disabled `null_counter()` instead of dereferencing
// null; debug builds additionally assert the invariant.
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "gpusim/sanitizer_hook.hpp"
#include "gpusim/traffic.hpp"
#include "util/error.hpp"
#include "util/types.hpp"

namespace mlbm::gpusim {

template <typename T>
class GlobalArray {
 public:
  GlobalArray() : counter_(&null_counter()) {}

  GlobalArray(std::size_t n, TrafficCounter* counter)
      : data_(n), counter_(counter != nullptr ? counter : &null_counter()) {}

  void allocate(std::size_t n, TrafficCounter* counter) {
    data_.assign(n, T{});
    counter_ = counter != nullptr ? counter : &null_counter();
    read_touched_.clear();
    unique_reads_.store(0, std::memory_order_relaxed);
    if (san_ != nullptr) {
      san_->global_register(this, data_.size(), sizeof(T), san_name_,
                            san_sliding_window_);
    }
  }

  /// Binds (or clears, with nullptr) a sanitizer to this allocation. `name`
  /// labels hazard reports; `sliding_window` opts into the staleness check
  /// (see sanitizer_hook.hpp). The zero-fill of allocate() deliberately does
  /// NOT count as initialization — like cudaMalloc'd memory, elements are
  /// uninitialized until a kernel or the host writes them.
  void set_sanitizer(SanitizerHook* san, const char* name = "",
                     bool sliding_window = false) {
    san_ = san;
    san_name_ = name;
    san_sliding_window_ = sliding_window;
    if (san_ != nullptr) {
      san_->global_register(this, data_.size(), sizeof(T), san_name_,
                            san_sliding_window_);
    }
  }
  [[nodiscard]] SanitizerHook* sanitizer() const { return san_; }

  /// Device load: counted. The sanitized path lives in a noinline helper so
  /// the un-instrumented hot path stays exactly one predicted branch bigger
  /// than before the sanitizer existed (no code-bloat inlining regressions).
  [[nodiscard]] T load(index_t i) const {
    assert(counter_ != nullptr);
    if (san_ != nullptr) [[unlikely]] {
      if (!scalar_san(i, /*write=*/false)) {
        return T{};  // reported and skipped: the sanitized run continues
      }
    }
    assert(i >= 0 && static_cast<std::size_t>(i) < data_.size());
    counter_->add_read(sizeof(T));
    touch_read(static_cast<std::size_t>(i));
    return data_[static_cast<std::size_t>(i)];
  }

  /// Device store: counted.
  void store(index_t i, T v) {
    assert(counter_ != nullptr);
    if (san_ != nullptr) [[unlikely]] {
      if (!scalar_san(i, /*write=*/true)) return;
    }
    assert(i >= 0 && static_cast<std::size_t>(i) < data_.size());
    counter_->add_write(sizeof(T));
    data_[static_cast<std::size_t>(i)] = v;
  }

  /// Device load converted to the compute type `U` at the register boundary.
  /// Counted as sizeof(T) bytes — the storage element is what crosses DRAM.
  template <typename U>
  [[nodiscard]] U load_as(index_t i) const {
    return static_cast<U>(load(i));
  }

  /// Device store of a compute-type value, narrowed to T at the boundary.
  template <typename U>
  void store_as(index_t i, U v) {
    store(i, static_cast<T>(v));
  }

  /// Batched device load of `n` elements at base, base + stride, ... into a
  /// compute-type buffer: one bounds check, one counter update of
  /// n*sizeof(T) bytes in a single transaction. Byte-identical to n scalar
  /// `load`s; with U == T the conversion is the identity.
  template <typename U>
  void load_span_as(index_t base, index_t stride, int n, U* dst) const {
    if (!span_ok(base, stride, n, /*write=*/false)) {
      for (int k = 0; k < n; ++k) dst[k] = U{};  // reported and skipped
      return;
    }
    counter_->add_read(static_cast<std::uint64_t>(n) * sizeof(T), 1);
    const T* p = data_.data() + base;
    for (int k = 0; k < n; ++k, p += stride) dst[k] = static_cast<U>(*p);
    if (!read_touched_.empty()) {
      for (int k = 0; k < n; ++k) {
        touch_read(static_cast<std::size_t>(base +
                                            static_cast<index_t>(k) * stride));
      }
    }
  }

  /// Batched device store from a compute-type buffer; counterpart of
  /// `load_span_as`.
  template <typename U>
  void store_span_as(index_t base, index_t stride, int n, const U* src) {
    if (!span_ok(base, stride, n, /*write=*/true)) return;
    counter_->add_write(static_cast<std::uint64_t>(n) * sizeof(T), 1);
    T* p = data_.data() + base;
    for (int k = 0; k < n; ++k, p += stride) *p = static_cast<T>(src[k]);
  }

  /// Host access: NOT counted (initialization, result inspection). The
  /// mutable form conservatively marks the element host-written for the
  /// sanitizer's initcheck/staleness shadows — it is the cudaMemcpy path
  /// (initialization, boundary imposes, ghost exchange, restores).
  [[nodiscard]] T& raw(index_t i) {
    assert(i >= 0 && static_cast<std::size_t>(i) < data_.size());
    if (san_ != nullptr) san_->global_host_write(this, i);
    return data_[static_cast<std::size_t>(i)];
  }
  [[nodiscard]] const T& raw(index_t i) const {
    assert(i >= 0 && static_cast<std::size_t>(i) < data_.size());
    return data_[static_cast<std::size_t>(i)];
  }

  /// Bare device pointer for a kernel that counts its own traffic (the
  /// dense interior fast path: engines/addressing.hpp TallyIo). Such a
  /// kernel owes the counter exactly what the counted forms would have
  /// added, and may only run while `per_access_hooks()` is false.
  [[nodiscard]] T* kernel_data() { return data_.data(); }
  [[nodiscard]] const T* kernel_data() const { return data_.data(); }
  /// True while an attached sanitizer or unique-read tracking must see
  /// every access one by one.
  [[nodiscard]] bool per_access_hooks() const {
    return san_ != nullptr || !read_touched_.empty();
  }

  /// Flips one bit of the stored element at `i` — the model of an ECC-scale
  /// soft error landing in this allocation while it sits in DRAM. Uncounted
  /// (a cosmic ray is not a kernel access); `bit` is taken modulo the
  /// element width, so any 64-bit draw addresses a valid bit of any T.
  void flip_bit(std::size_t i, unsigned bit) {
    assert(i < data_.size());
    auto* bytes = reinterpret_cast<unsigned char*>(&data_[i]);
    const unsigned b = bit % (sizeof(T) * 8u);
    bytes[b / 8u] ^= static_cast<unsigned char>(1u << (b % 8u));
  }

  [[nodiscard]] std::size_t size() const { return data_.size(); }
  [[nodiscard]] std::size_t size_bytes() const {
    return data_.size() * sizeof(T);
  }
  [[nodiscard]] bool allocated() const { return !data_.empty(); }

  void swap(GlobalArray& other) {
    // Shadow state is keyed by array identity; swapping the payload under a
    // sanitizer would silently mismatch shadows and data.
    assert(san_ == nullptr && other.san_ == nullptr);
    data_.swap(other.data_);
    std::swap(counter_, other.counter_);
    read_touched_.swap(other.read_touched_);
    const auto mine = unique_reads_.load(std::memory_order_relaxed);
    unique_reads_.store(other.unique_reads_.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
    other.unique_reads_.store(mine, std::memory_order_relaxed);
  }

  /// Unique-address read tracking: models an ideal cache in front of DRAM.
  /// While enabled, `unique_read_count` reports how many *distinct* elements
  /// were loaded since the last clear — the traffic a profiler attributes to
  /// DRAM when re-reads (e.g. the MR column halos) hit in L2. The count is
  /// maintained on first touch, so querying it is O(1), not a full-array
  /// scan.
  void set_unique_read_tracking(bool on) {
    if (on) {
      read_touched_.assign(data_.size(), 0);
    } else {
      read_touched_.clear();
    }
    unique_reads_.store(0, std::memory_order_relaxed);
  }
  void clear_unique_reads() {
    if (!read_touched_.empty()) {
      read_touched_.assign(read_touched_.size(), 0);
    }
    unique_reads_.store(0, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t unique_read_count() const {
    return unique_reads_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t unique_read_bytes() const {
    return unique_read_count() * sizeof(T);
  }

 private:
  /// Span bounds validation, valid for either stride sign: both endpoints of
  /// the arithmetic progression must lie inside the allocation (a negative
  /// stride walks downward from base, so `base + (n-1)*stride` is the *low*
  /// end there — checking only the last element against size() would miss
  /// the underflow). Runs in release builds too. On violation:
  ///  * sanitizer attached — report a memcheck hazard, return false (the
  ///    caller skips the physical access and the run continues);
  ///  * traffic counter attached (a real kernel access) — throw a typed
  ///    BoundsError instead of invoking UB;
  ///  * bare array (no counter, no sanitizer) — debug assert, release skip.
  /// In-bounds spans additionally notify the sanitizer.
  /// The fast path is the three comparisons only; everything else (sanitizer
  /// notification, hazard reporting, the throwing diagnostic) sits in the
  /// noinline slow helper so callers keep inlining the span copy loops.
  bool span_ok(index_t base, index_t stride, int n, bool write) const {
    assert(counter_ != nullptr);
    const index_t last = base + static_cast<index_t>(n - 1) * stride;
    const index_t lo = base < last ? base : last;
    const index_t hi = base < last ? last : base;
    if (n > 0 && lo >= 0 && static_cast<std::size_t>(hi) < data_.size() &&
        san_ == nullptr) [[likely]] {
      return true;
    }
    return span_slow(base, stride, n, write, lo, hi);
  }

  [[gnu::noinline]] bool span_slow(index_t base, index_t stride, int n,
                                   bool write, index_t lo,
                                   index_t hi) const {
    const bool in_bounds =
        n > 0 && lo >= 0 && static_cast<std::size_t>(hi) < data_.size();
    if (san_ != nullptr) {
      if (in_bounds) {
        san_->global_access(this, base, stride, n, write);
        return true;
      }
      san_->global_oob(this, base, stride, n, data_.size(), write);
      return false;
    }
    if (in_bounds) return true;
    if (counter_ != &null_counter()) {
      throw BoundsError(
          "GlobalArray" + (*san_name_ != '\0'
                               ? " '" + std::string(san_name_) + "'"
                               : std::string()) +
          ": span out of bounds: base=" + std::to_string(base) +
          " stride=" + std::to_string(stride) + " n=" + std::to_string(n) +
          " touches [" + std::to_string(lo) + ", " + std::to_string(hi) +
          "] outside [0, " + std::to_string(data_.size()) + ")");
    }
    assert(false && "GlobalArray: span out of bounds");
    return false;
  }

  /// Scalar-access sanitizer path (load/store with a hook attached): bounds
  /// check + shadow notification. Returns false when the access was
  /// out-of-bounds (reported; the caller skips it).
  [[gnu::noinline]] bool scalar_san(index_t i, bool write) const {
    if (i < 0 || static_cast<std::size_t>(i) >= data_.size()) {
      san_->global_oob(this, i, 0, 1, data_.size(), write);
      return false;
    }
    san_->global_access(this, i, 0, 1, write);
    return true;
  }

  /// First-touch accounting for the ideal-cache model. Only the first toucher
  /// of an element pays the atomic increment; steady-state re-reads see the
  /// byte already set.
  void touch_read(std::size_t i) const {
    if (read_touched_.empty()) return;
    std::atomic_ref<std::uint8_t> flag(read_touched_[i]);
    if (flag.load(std::memory_order_relaxed) == 0 &&
        flag.exchange(1, std::memory_order_relaxed) == 0) {
      unique_reads_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  std::vector<T> data_;
  TrafficCounter* counter_ = nullptr;
  SanitizerHook* san_ = nullptr;
  const char* san_name_ = "";
  bool san_sliding_window_ = false;
  mutable std::vector<std::uint8_t> read_touched_;
  mutable std::atomic<std::uint64_t> unique_reads_{0};
};

}  // namespace mlbm::gpusim
