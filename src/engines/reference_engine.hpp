// Reference two-lattice engine (host, un-instrumented).
//
// Ground truth for every other engine: a straightforward push-style
// two-lattice update with pluggable collision (BGK, projective or recursive
// regularization). Stored distributions are *pre-collision* — the engine
// collides on read and scatters post-collision populations — which makes its
// stored moments directly comparable with the MR engines' stored moment
// fields (DESIGN.md §5, equivalence tests).
//
// Boundary handling:
//  * periodic faces wrap during the scatter;
//  * wall faces apply half-way bounceback, with the moving-wall momentum
//    correction  f2[opp(i)](x) = f*_i(x) - 2 w_i rho (c_i . u_wall)/cs2;
//  * open faces (inlet/outlet) drop leaving populations; the nodes on those
//    faces are rebuilt by the post-step boundary pass.
#pragma once

#include <vector>

#include "core/collision.hpp"
#include "engines/engine.hpp"

namespace mlbm {

template <class L>
class ReferenceEngine final : public Engine<L> {
 public:
  ReferenceEngine(Geometry geo, real_t tau, CollisionScheme scheme);

  [[nodiscard]] const char* pattern_name() const override;
  [[nodiscard]] Moments<L> moments_at(int x, int y, int z) const override;
  void impose(int x, int y, int z, const Moments<L>& m) override;
  [[nodiscard]] std::size_t state_bytes() const override;

  [[nodiscard]] CollisionScheme scheme() const { return scheme_; }

  /// Direct access to the stored (pre-collision) population of a node.
  [[nodiscard]] real_t f_at(int i, int x, int y, int z) const;

  /// Soft-error surface: both host population lattices, so CPU-side tests of
  /// the sentinel/rollback machinery need no gpusim engine.
  [[nodiscard]] std::uint64_t fault_sites() const override {
    return f_[0].size() + f_[1].size();
  }
  void inject_storage_bitflip(std::uint64_t site, unsigned bit) override;

  /// Raw snapshot surface: the current (pre-collision) host lattice; the
  /// other one is scratch for the next scatter.
  [[nodiscard]] std::string raw_state_tag() const override {
    const Box& b = this->geo_.box;
    return std::string(pattern_name()) + "|" + std::to_string(b.nx) + "x" +
           std::to_string(b.ny) + "x" + std::to_string(b.nz);
  }
  void serialize_raw_state(std::vector<real_t>& out) const override {
    const std::vector<real_t>& f = f_[cur_];
    out.insert(out.end(), f.begin(), f.end());
  }
  void restore_raw_state(const std::vector<real_t>& in) override {
    if (in.size() != f_[cur_].size()) {
      throw ConfigError(
          "ReferenceEngine: raw snapshot does not match lattice size");
    }
    f_[cur_] = in;
  }

  /// Push-style scatter partitions by source plane (see StEngine): plane x
  /// is final once sources x-1..x+1 have scattered.
  [[nodiscard]] bool supports_frontier_split() const override { return true; }

 protected:
  void do_step() override;
  void do_step_split(const FrontierSpec& fs,
                     const typename Engine<L>::FrontierDoneFn& on_frontier)
      override;

 private:
  [[nodiscard]] index_t soa(int i, index_t cell) const {
    return static_cast<index_t>(i) * this->geo_.box.cells() + cell;
  }
  /// Collide-and-scatter for source planes [rx0, rx1).
  void step_range(int rx0, int rx1);

  CollisionScheme scheme_;
  std::vector<real_t> f_[2];
  int cur_ = 0;
};

extern template class ReferenceEngine<D2Q9>;
extern template class ReferenceEngine<D3Q19>;
extern template class ReferenceEngine<D3Q27>;
extern template class ReferenceEngine<D3Q15>;

}  // namespace mlbm
